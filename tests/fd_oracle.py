"""Central-difference reference for the mixed partials of a field f(x, y).

`fd_partials` is independent of the jet machinery: it evaluates f on Python
floats only, with a tensor-product central stencil per coordinate and one
Richardson level, so its error is O(h^4) for smooth fields.  The tests
compare the jet partials of `finslerkit.diffcore` against it.

The step widens with the total derivative order, because cancellation noise
in a central stencil of total order d grows like eps / h^d: a single step
cannot serve every order (1e-4 is right up to d = 2 but useless at d = 4).
The auto steps balance truncation against cancellation per total order,
1e-4 up to order 2; pass an explicit `step` to override.
"""

import itertools

_STENCILS = {
    0: ((0, 1.0),),
    1: ((1, 0.5), (-1, -0.5)),
    2: ((1, 1.0), (0, -2.0), (-1, 1.0)),
    3: ((2, 0.5), (1, -1.0), (-1, 1.0), (-2, -0.5)),
    4: ((2, 1.0), (1, -4.0), (0, 6.0), (-1, -4.0), (-2, 1.0)),
}


def _fd_single(f, x, y, orders_x, orders_y, h):
    """Tensor-product central-difference estimate, O(h^2)."""
    axes = [("x", i, k) for i, k in enumerate(orders_x) if k > 0]
    axes += [("y", i, k) for i, k in enumerate(orders_y) if k > 0]
    total = 0.0
    for combo in itertools.product(*(_STENCILS[k] for (_, _, k) in axes)):
        xs = list(x)
        ys = list(y)
        w = 1.0
        for (kind, i, k), (shift, wgt) in zip(axes, combo):
            if kind == "x":
                xs[i] = xs[i] + shift * h
            else:
                ys[i] = ys[i] + shift * h
            w *= wgt / h**k
        total += w * f(xs, ys)
    return total


_AUTO_STEPS = {0: 1e-4, 1: 1e-4, 2: 1e-4, 3: 5e-3, 4: 2e-2, 5: 4e-2, 6: 6e-2}


def sub_multi_indices(orders):
    """Every multi-index componentwise at most `orders`, in lexicographic order."""
    return itertools.product(*(range(k + 1) for k in orders))


def fd_partials(f, x, y, orders_x, orders_y, step=None) -> dict:
    """Central-difference estimates {(ox, oy): d^|ox| d^|oy| f / dx^ox dy^oy}
    at (x, y) for every (ox, oy) componentwise at most (orders_x, orders_y),
    each with one Richardson level.  With ``step=None`` each partial uses the
    auto step of its total order."""
    if step is not None and step <= 0:
        raise ValueError("step must be positive")
    x = tuple(float(v) for v in x)
    y = tuple(float(v) for v in y)
    out = {}
    for ox in sub_multi_indices(tuple(int(k) for k in orders_x)):
        for oy in sub_multi_indices(tuple(int(k) for k in orders_y)):
            h = step if step is not None else _AUTO_STEPS[sum(ox) + sum(oy)]
            coarse = _fd_single(f, x, y, ox, oy, h)
            fine = _fd_single(f, x, y, ox, oy, h / 2.0)
            out[(ox, oy)] = (4.0 * fine - coarse) / 3.0
    return out
