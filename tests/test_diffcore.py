"""Jet evaluation against exact values and the finite-difference oracle."""

import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from finslerkit import diffcore as dc
from finslerkit import gallery
from finslerkit.errors import OrderCapError

from conftest import GALLERY_SPECS, jet_partials, sample_sites, squared, xy_derivatives
from fd_oracle import fd_partials


def test_quadratic_form_second_derivative():
    f = lambda y: y[0] * y[0] + y[1] * y[1]
    res = dc.directional_derivatives(f, [0.3, -0.2], [([1.0, 0.0], 2)])
    assert res.partial([2]) == pytest.approx(2.0, abs=1e-14)


def test_polynomial_mixed_partial():
    f = lambda x, y: x[0] * y[0] * y[0]
    e0 = [1.0, 0.0]
    res = xy_derivatives(f, [1.0, 0.0], [3.0, 0.0], x_dirs=[(e0, 1)], y_dirs=[(e0, 1)])
    assert res.partial([1, 1]) == pytest.approx(6.0, abs=1e-14)


def test_funk_mixed_partials_match_fd():
    F = gallery.funk(2).metric
    x, y = (0.21, -0.13), (0.8, 0.55)
    for ox, oy in [((1, 0), (1, 0)), ((0, 1), (0, 2)), ((2, 0), (0, 0)), ((0, 0), (2, 1))]:
        jv = jet_partials(F.func, x, y, ox, oy)
        fv = fd_partials(F.func, x, y, ox, oy)
        for key in jv:
            assert jv[key] == pytest.approx(fv[key], abs=1e-6)


def test_fd_quadratic_with_explicit_step():
    f = lambda x, y: y[0] * y[0] + y[1] * y[1]
    got = fd_partials(f, (0.0, 0.0), (1.0, 2.0), (0, 0), (2, 0), step=1e-3)[((0, 0), (2, 0))]
    assert got == pytest.approx(2.0, abs=1e-8)


def test_fd_slab_fourth_order_partials():
    F2 = squared(gallery.slab_kappa(0.5).metric)
    th = math.pi / 3.0
    y = (math.cos(th), math.sin(th))
    for oy in [(4, 0), (3, 1), (2, 2), (1, 3), (0, 4)]:
        jv = jet_partials(F2, (0.0, 0.0), y, (0, 0), oy)[((0, 0), oy)]
        fv = fd_partials(F2, (0.0, 0.0), y, (0, 0), oy)[((0, 0), oy)]
        assert jv == pytest.approx(fv, abs=1e-5)


def test_fd_constant_field_is_flat():
    f = lambda x, y: 3.25
    out = fd_partials(f, (0.1,), (0.7,), (2,), (2,))
    for key, val in out.items():
        if key != ((0,), (0,)):
            assert val == pytest.approx(0.0, abs=1e-10)


def test_schwarz_symmetry_exact_for_jets():
    F = gallery.funk(2).metric
    x, y = [0.2, 0.1], [0.6, -0.9]
    e0, e1 = [1.0, 0.0], [0.0, 1.0]
    a = dc.directional_derivatives(lambda ys: F(x, ys), y, [(e0, 1), (e1, 1)]).partial([1, 1])
    b = dc.directional_derivatives(lambda ys: F(x, ys), y, [(e1, 1), (e0, 1)]).partial([1, 1])
    assert a == b


def _nested_field(x, y):
    """A 2 x 2 nested-list field mixing x and y in every analytic helper."""
    return [
        [x[0] * y[1] + dc.sin(x[1]) * y[0] * y[0], dc.exp(x[0]) * y[1] * y[1]],
        [dc.sqrt(1.0 + x[0] * x[0] + y[0] * y[0]), dc.log(2.0 + x[1]) * y[0] * y[1] * x[0]],
    ]


@pytest.mark.parametrize("point", ["x", "y"])
@pytest.mark.parametrize("order", [1, 2])
def test_derivative_blocks_match_jet_eval_and_fd(point, order):
    # gradient (order 1) or hessian (order 2) of the one-point function
    # x -> field(x, y) or y -> field(x, y)
    x, y = (0.3, -0.4), (0.7, 1.1)
    if point == "x":
        f, z = lambda xs: _nested_field(xs, list(y)), list(x)
    else:
        f, z = lambda ys: _nested_field(list(x), ys), list(y)
    if order == 1:
        f0, d1 = dc.gradient(f, z)
        assert f0 == _nested_field(list(x), list(y))
    else:
        d2 = dc.hessian(f, z)

    def check(block, coords):
        orders = tuple(sum(1 for c in coords if c == k) for k in range(2))
        ox, oy = (orders, (0, 0)) if point == "x" else ((0, 0), orders)
        for i in range(2):
            for j in range(2):
                comp = lambda xs, ys, i=i, j=j: _nested_field(xs, ys)[i][j]
                got = float(block[i][j])
                jet = jet_partials(comp, x, y, ox, oy)[(ox, oy)]
                assert got == pytest.approx(jet, rel=1e-14, abs=1e-14)
                assert got == pytest.approx(fd_partials(comp, x, y, ox, oy)[(ox, oy)], abs=1e-6)

    for k in range(2):
        if order == 1:
            check(d1[k], (k,))
        else:
            for l in range(2):
                check(d2[k][l], (k, l))


def test_partial_maps_over_nested_root():
    res = xy_derivatives(_nested_field, [0.3, -0.4], [0.7, 1.1], x_dirs=[([1.0, 0.5], 1)], y_dirs=[([0.0, 1.0], 2)])
    for multi in ([0, 0], [1, 0], [0, 1], [0, 2], [1, 2]):
        whole = res.partial(multi)
        for i in range(2):
            for j in range(2):
                one = dc.TaylorResult(res.root[i][j], res.tags, res.orders)
                assert whole[i][j] == one.partial(multi)
    with pytest.raises(OrderCapError):
        res.partial([2, 0])


def test_a_direction_of_order_below_one_is_refused():
    # it used to be dropped from the tags, shifting every later index of partial
    f = lambda y: y[0] * y[1]
    for order in (0, -1):
        with pytest.raises(ValueError, match=f"order >= 1, got {order}"):
            dc.directional_derivatives(f, [0.5, 2.0], [([1.0, 0.0], order), ([0.0, 1.0], 1)])


def test_a_multi_index_of_the_wrong_length_is_refused():
    res = dc.directional_derivatives(lambda y: y[0] * y[1], [0.5, 2.0], [([1.0, 0.0], 1), ([0.0, 1.0], 1)])
    assert res.partial([1, 1]) == 1.0
    for multi in ([1], [1, 1, 0]):
        with pytest.raises(ValueError, match=f"length {len(multi)} for 2 seeded directions"):
            res.partial(multi)


def test_a_direction_of_the_wrong_length_is_refused():
    # a short direction used to hand f a shorter point, a long one to be cut
    seen = []
    f = lambda z: seen.append(len(z)) or z[0] * z[-1]
    for vec in ([1.0, 0.0], [1.0, 0.0, 0.0, 2.0]):
        with pytest.raises(ValueError, match=f"direction of length {len(vec)} at a point of length 3"):
            dc.directional_derivatives(f, [1.0, 2.0, 3.0], [([0.0, 0.0, 1.0], 1), (vec, 1)])
    assert seen == []
    assert dc.directional_derivatives(f, [1.0, 2.0, 3.0], [([1.0, 0.0, 0.0], 1)]).partial([1]) == 3.0


def test_a_joint_direction_of_the_wrong_lengths_is_refused():
    # (dx, dy) of lengths (3, 1) at a point of lengths (2, 2) has the total length 4
    f = lambda xs, ys: xs[0] * ys[1]
    for dx, dy in (([1.0, 0.0, 0.0], [1.0]), ([1.0], [1.0, 0.0, 2.0]), ([1.0, 0.0], [1.0])):
        with pytest.raises(ValueError, match=rf"lengths \({len(dx)}, {len(dy)}\) at a point of lengths \(2, 2\)"):
            dc.joint_derivative(f, [1.0, 2.0], [3.0, 4.0], dx, dy)
    assert dc.joint_derivative(f, [1.0, 2.0], [3.0, 4.0], [1.0, 0.0], [0.0, 1.0]) == (4.0, 5.0)


def test_partials_of_order_10_and_more():
    res = dc.directional_derivatives(lambda y: dc.exp(y[0]), [0.0], [([1.0], 12)])
    assert res.partial([10]) == 1.0
    assert res.partial([12]) == 1.0


def test_joint_derivative_is_the_sum_of_the_x_and_y_derivatives():
    # one tag along (dx, dy) gives d/dt f(x + t dx, y + t dy) = f_x.dx + f_y.dy,
    # nested like the value of f
    x, y, dx, dy = [0.3, -0.4], [0.7, 1.1], [-0.7, -1.1], [0.2, -0.9]
    val, d = dc.joint_derivative(_nested_field, x, y, dx, dy)
    along_x = dc.directional_derivatives(lambda xs: _nested_field(xs, y), x, [(dx, 1)]).partial([1])
    along_y = dc.directional_derivatives(lambda ys: _nested_field(x, ys), y, [(dy, 1)]).partial([1])
    want = _nested_field(x, y)
    for i in range(2):
        for j in range(2):
            assert val[i][j] == want[i][j]
            assert d[i][j] == pytest.approx(along_x[i][j] + along_y[i][j], rel=1e-15, abs=1e-15)


@pytest.mark.parametrize("name,params", GALLERY_SPECS)
def test_euler_homogeneity_on_gallery(name, params):
    entry = gallery.make(name, **params)
    pts, dirs = sample_sites(entry, 100, seed=5)
    for x, y in zip(pts, dirs):
        fv = float(entry.metric(list(x), list(y)))
        res = dc.directional_derivatives(lambda ys: entry.metric(list(x), ys), list(y), [(list(y), 1)])
        assert float(res.partial([1])) == pytest.approx(fv, rel=1e-12)


@pytest.mark.parametrize("name,params", GALLERY_SPECS)
def test_jet_matches_fd_on_downstream_orders(name, params):
    # sampled away from the chart boundary, where the metrics are O(1)-scaled
    entry = gallery.make(name, **params)
    pts = entry.metric.domain.sample_points(5, seed=11, shrink=0.5)
    rng = np.random.default_rng([11, 77])
    dirs = rng.normal(size=(5, entry.dim))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    n = entry.dim
    order_sets = [((0,) * n, (2,) + (0,) * (n - 1)),
                  ((0,) * n, (4,) + (0,) * (n - 1)),
                  ((1,) + (0,) * (n - 1), (1,) + (0,) * (n - 1)),
                  ((2,) + (0,) * (n - 1), (0,) * n),
                  ((1,) + (0,) * (n - 1), (0, 2) + (0,) * (n - 2))]
    F2 = squared(entry.metric)
    for x, y in zip(pts, dirs):
        for ox, oy in order_sets:
            jv = jet_partials(F2, x, y, ox, oy)
            fv = fd_partials(F2, x, y, ox, oy)
            for key in jv:
                assert jv[key] == pytest.approx(fv[key], abs=1e-5)


coeff = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)


@given(cs=st.lists(coeff, min_size=6, max_size=6),
       x0=st.floats(min_value=-1.0, max_value=1.0),
       y0=st.floats(min_value=-1.0, max_value=1.0))
@settings(max_examples=30, deadline=None)
def test_jets_reproduce_polynomial_partials(cs, x0, y0):
    c0, c1, c2, c3, c4, c5 = cs

    def f(x, y):
        return (c0 + c1 * x[0] + c2 * y[0] + c3 * x[0] * y[0]
                + c4 * y[0] * y[0] + c5 * x[0] * x[0] * y[0])

    jv = jet_partials(f, (x0,), (y0,), (2,), (2,))
    assert jv[(1,), (0,)] == pytest.approx(c1 + c3 * y0 + 2 * c5 * x0 * y0, abs=1e-12)
    assert jv[(0,), (1,)] == pytest.approx(c2 + c3 * x0 + 2 * c4 * y0 + c5 * x0 * x0, abs=1e-12)
    assert jv[(1,), (1,)] == pytest.approx(c3 + 2 * c5 * x0, abs=1e-12)
    assert jv[(0,), (2,)] == pytest.approx(2 * c4, abs=1e-12)
    assert jv[(2,), (1,)] == pytest.approx(2 * c5, abs=1e-12)


@given(a=st.floats(min_value=0.3, max_value=3.0), b=st.floats(min_value=-1.0, max_value=1.0))
@settings(max_examples=30, deadline=None)
def test_jet_analytic_functions_match_derivatives(a, b):
    # d/dt [exp(b t) * sqrt(a + t^2) ] family, checked against fd
    def f(x, y):
        t = y[0]
        return dc.exp(b * t) * dc.sqrt(a + t * t) + dc.log(a + t * t) + dc.sin(b * t) * dc.cos(t)

    jv = jet_partials(f, (0.0,), (0.4,), (0,), (3,))
    fv = fd_partials(f, (0.0,), (0.4,), (0,), (3,))
    for key in jv:
        assert jv[key] == pytest.approx(fv[key], abs=2e-5)


def test_partials_dict_covers_sub_multi_indices():
    # one jet per coordinate of x0 x1 y0 y1 reads every mixed partial of order
    # at most one in each: the product of the coordinates not differentiated
    f = lambda x, y: x[0] * x[1] * y[0] * y[1]
    e0, e1 = [1.0, 0.0], [0.0, 1.0]
    res = xy_derivatives(f, [1.0, 2.0], [3.0, 4.0], x_dirs=[(e0, 1), (e1, 1)], y_dirs=[(e0, 1), (e1, 1)])
    for multi in itertools.product((0, 1), repeat=4):
        want = math.prod(v for v, d in zip((1.0, 2.0, 3.0, 4.0), multi) if d == 0)
        assert res.partial(list(multi)) == pytest.approx(want, abs=1e-14)
    assert res.partial([1, 1, 1, 1]) == pytest.approx(1.0, abs=1e-14)
    assert res.value == pytest.approx(1.0 * 2.0 * 3.0 * 4.0, abs=1e-14)


def test_batched_array_coordinates():
    f = lambda y: dc.sqrt(y[0] * y[0] + y[1] * y[1])
    ys = [np.linspace(1.0, 2.0, 7), np.full(7, 0.5)]
    res = dc.directional_derivatives(f, ys, [([1.0, 0.0], 2)])
    d2 = res.partial([2])
    expect = 0.25 / (ys[0] ** 2 + 0.25) ** 1.5
    np.testing.assert_allclose(d2, expect, atol=1e-12)


# -- order-1 and order-2 kernels against the generic convolution ------------

def random_values(size, lead):
    """Seeded values random to the last bit, so every product and sum rounds
    and a change in the order of operations shows: in [-8, 8], or with
    0.25 <= |v| <= 8 for the leading coefficient of a divisor."""

    def make(seed):
        rng = np.random.default_rng(seed)
        if lead:
            return rng.choice([-1.0, 1.0], size) * rng.uniform(0.25, 8.0, size)
        return rng.uniform(-8.0, 8.0, size)

    return st.integers(0, 2**32 - 1).map(make)


def kernel_coeff(lead=False):
    """A float, a 1-D array or a jet of the smaller tag 1; also a zero of
    either sign unless it leads a divisor."""
    floats = random_values(1, lead).map(lambda v: float(v[0]))
    arrays = random_values(4, lead)
    rest = st.sampled_from([1, 2]).flatmap(lambda k: random_values(k, False))
    inner = st.builds(lambda c0, cs: dc.Jet(1, [c0] + cs.tolist()), floats, rest)
    zeros = st.sampled_from([0.0, -0.0])
    return st.one_of(floats, arrays, inner) if lead else st.one_of(floats, arrays, inner, zeros)


@st.composite
def same_tag_pair(draw):
    n = draw(st.sampled_from([2, 3]))
    a = [draw(kernel_coeff()) for _ in range(n)]
    b = [draw(kernel_coeff(lead=k == 0)) for k in range(n)]
    return a, b


def exact(u):
    """A form of a coefficient that compares equal only for identical bits."""
    if isinstance(u, dc.Jet):
        return ("jet", u.tag, [exact(c) for c in u.coeffs])
    if isinstance(u, np.ndarray):
        return ("array", u.dtype.str, u.shape, u.tobytes())
    return ("float", float(u).hex())


@given(pair=same_tag_pair())
@settings(max_examples=200, deadline=None)
def test_fast_jet_kernels_equal_the_generic_convolution(pair):
    a, b = pair
    A, B = dc.Jet(2, a), dc.Jet(2, b)
    cases = [
        (A + B, dc._add(a, b)),
        (A - B, dc._add(a, [-c for c in b])),
        (A * B, dc._convolve(a, b)),
        (A / B, dc._deconvolve(a, b)),
    ]
    for fast, generic in cases:
        assert fast.tag == 2
        assert [exact(c) for c in fast.coeffs] == [exact(c) for c in generic]


def test_mixed_lengths_take_the_generic_kernels(monkeypatch):
    calls = []
    for name in ("_add", "_convolve", "_deconvolve"):
        real = getattr(dc, name)
        monkeypatch.setattr(dc, name, lambda a, b, name=name, real=real: calls.append(name) or real(a, b))
    o1, o2, o3 = (dc.Jet(2, [1.0, 2.0, 3.0, 4.0][:k]) for k in (2, 3, 4))
    for u in (o1, o2):
        u + u, u * u
    o1 - o1, o1 / o1
    assert calls == []
    o1 + o2, o1 * o2, o2 / o1, o1 - o2, o3 * o3, o2 / o2
    assert calls == ["_add", "_convolve", "_deconvolve", "_add", "_convolve", "_deconvolve"]


@pytest.mark.parametrize("p", [np.int64(2), np.int32(3), np.int8(-2), np.uint16(0)])
def test_numpy_integer_exponents_take_the_integer_power(p):
    for base in ([-1.5, 1.0], [0.7, -0.3, 0.2]):
        assert [exact(c) for c in (dc.Jet(1, base) ** p).coeffs] == [
            exact(c) for c in (dc.Jet(1, base) ** int(p)).coeffs
        ]


# -- gradient jets: all first-order tangents in one pass ------------------------


def _univariate(fn, z):
    """The n order-1 passes that one gradient pass replaces."""
    n = len(z)
    return [dc.directional_derivatives(fn, z, [(dc.basis(n, k), 1)]).partial([1]) for k in range(n)]


def same_value(u, v, bits=False):
    """u == v leaf by leaf (so 0.0 == -0.0), or with `bits` bit for bit up to
    the sign of a zero: floats, arrays (broadcast) and jets, a jet equal to a
    non-jet when its higher coefficients are zero."""
    same = functools.partial(same_value, bits=bits)
    if isinstance(u, (list, tuple)):
        return len(u) == len(v) and all(map(same, u, v))
    tags = [w.tag for w in (u, v) if isinstance(w, dc.Jet)]
    if tags:
        a, b = ([w] if not isinstance(w, dc.Jet) or w.tag != max(tags) else w.coeffs for w in (u, v))
        m = max(len(a), len(b))
        return all(map(same, a + [0.0] * (m - len(a)), b + [0.0] * (m - len(b))))
    if bits:
        return exact(u + 0.0) == exact(v + 0.0)  # -0.0 + 0.0 is 0.0
    return bool(np.all(np.asarray(u) == np.asarray(v)))


_GALLERY = {}


def _entry(name):
    if name not in _GALLERY:
        _GALLERY[name] = gallery.make(name, **dict(GALLERY_SPECS)[name])
    return _GALLERY[name]


def _one_point_functions(name, x, y):
    """(function, point) pairs of the entry: F^2 and G in y at x, G in x at y
    and, for Randers data, (a, b) in x."""
    entry = _entry(name)
    G = entry.spray
    pairs = [(entry.metric.squared_at(x), y), (G.at(x), y), (lambda xs: G(xs, y), x)]
    return pairs + ([(entry.randers.ab, x)] if entry.randers is not None else [])


def _both_routes(name, x, y):
    """[gradient, univariate passes] and [gradient's value, fn(z)] per function."""
    pairs = []
    for fn, z in _one_point_functions(name, x, y):
        f0, d1 = dc.gradient(fn, z)
        pairs += [[d1, _univariate(fn, z)], [f0, fn(z)]]
    return pairs


@given(name=st.sampled_from([name for name, _ in GALLERY_SPECS]), seed=st.integers(0, 2**16),
       mode=st.sampled_from(["floats", "columns", "outer jet", "replay"]))
@settings(max_examples=40, deadline=None)
def test_gradient_blocks_equal_the_univariate_passes(name, seed, mode):
    pts, dirs = sample_sites(_entry(name), 3, seed)
    x, y = pts[0].tolist(), dirs[0].tolist()
    if mode == "floats":
        pairs = _both_routes(name, x, y)
    elif mode == "columns":
        pairs = _both_routes(name, list(pts.T), list(dirs.T))
    elif mode == "outer jet":  # both routes inside one pass along (x, y) -> (pts[1], dirs[1])
        n = len(x)
        pairs = dc.directional_derivatives(
            lambda z: _both_routes(name, z[:n], z[n:]), x + y, [((pts[1] - pts[0]).tolist() + dirs[1].tolist(), 1)],
        ).root
    else:  # recorded at one site, replayed at another
        notes = []
        rec = dc.Replay(lambda xs, ys: _both_routes(name, xs, ys), notes.append)
        rec(x, y)
        x, y = pts[1].tolist(), dirs[1].tolist()
        pairs = rec(x, y)
        assert len(notes) == 1 and notes[0].startswith("compiled ")  # and no guard failed
        assert same_value(pairs, _both_routes(name, x, y))
    for gradient, direct in pairs:
        assert same_value(gradient, direct)


@given(pair=same_tag_pair())
@settings(max_examples=200, deadline=None)
def test_gradient_kernels_equal_the_order_1_kernels_per_direction(pair):
    # each tangent of a Grad takes the bits of the order-1 Jet seeded along it
    a, b = pair
    A, B = dc.Grad(2, a), dc.Grad(2, b)
    for grad, per_jet in (
        (A + B, lambda u, v: u + v),
        (A - B, lambda u, v: u - v),
        (A * B, lambda u, v: u * v),
        (A / B, lambda u, v: u / v),
        (0.5 / B, lambda u, v: 0.5 / v),
        (A * 0.5 + 1.0, lambda u, v: u * 0.5 + 1.0),
        (1.0 - A, lambda u, v: 1.0 - u),
    ):
        assert type(grad) is dc.Grad and grad.tag == 2
        for k in range(1, len(a)):
            jet = per_jet(dc.Jet(2, [a[0], a[k]]), dc.Jet(2, [b[0], b[k]]))
            assert [exact(grad.coeffs[0]), exact(grad.coeffs[k])] == [exact(c) for c in jet.coeffs]


def _per_direction(grad, op):
    """op on the order-1 Jets of a Grad's tangents, coefficient lists stacked as the Grad's."""
    jets = [op(dc.Jet(grad.tag, [grad.coeffs[0], d])) for d in grad.coeffs[1:]]
    return jets[0].tag, [jets[0].coeffs[0]] + [j.coeffs[1] for j in jets]


def _bits(u):
    return u.tag, [exact(c) for c in u.coeffs]


def test_division_across_tags():
    older = dc.Jet(1, [0.7, -0.3])
    grad = dc.Grad(next(dc._TAGS), [1.3, 0.4, -2.1, 0.0])
    newer = dc.Jet(next(dc._TAGS), [0.9, 0.25])
    # a Jet over a newer Grad: the Jet is a constant of the Grad's pass
    for quotient in (older / grad, dc.Jet.__truediv__(older, grad)):
        assert type(quotient) is dc.Grad
        assert _bits(quotient) == (grad.tag, [exact(c) for c in _per_direction(grad, lambda j: older / j)[1]])
    # a float over a Grad
    assert _bits(2.0 / grad) == (grad.tag, [exact(c) for c in _per_direction(grad, lambda j: 2.0 / j)[1]])
    # a Grad over an older Jet: each coefficient over the Jet
    q = grad / older
    assert type(q) is dc.Grad and _bits(q) == (grad.tag, [exact(c / older) for c in grad.coeffs])
    # a Grad under a newer Jet: the Grad is a constant of the Jet's pass
    for quotient in (grad / newer, newer / grad):
        assert type(quotient) is dc.Jet and quotient.tag == newer.tag
    assert _bits(newer / grad) == (newer.tag, [exact(c / grad) for c in newer.coeffs])


def test_integer_powers_and_the_five_functions():
    grad = dc.Grad(next(dc._TAGS), [0.8, 0.4, -2.1, 0.0])
    zero = grad**0
    assert type(zero) is dc.Grad and _bits(zero) == (grad.tag, [exact(c) for c in (1.0, 0.0, 0.0, 0.0)])
    for op in (lambda u: u**-2, lambda u: u**3, dc.sqrt, dc.log, dc.exp, dc.sin, dc.cos):
        got = op(grad)
        assert type(got) is dc.Grad
        tag, want = _per_direction(grad, op)
        assert _bits(got) == (tag, [exact(c) for c in want])


def test_derivative_blocks_take_one_evaluation_at_order_1():
    for n in (1, 2, 3, 5):
        calls = []
        z = [0.1 * (k + 1) for k in range(n)]
        f0, d1 = dc.gradient(lambda zs: calls.append(1) or dc.sin(zs[0]) * zs[-1], z)
        assert len(calls) == 1 and len(d1) == n
        assert f0 == math.sin(z[0]) * z[-1]
        assert d1[0] == math.cos(z[0]) * z[-1] + (math.sin(z[0]) if n == 1 else 0.0)


# -- structurally zero tangents --------------------------------------------------

_BINARY = {"+": lambda u, v: u + v, "-": lambda u, v: u - v, "*": lambda u, v: u * v, "/": lambda u, v: u / v}
_FUNCTIONS = {"sqrt": dc.sqrt, "log": dc.log, "exp": dc.exp, "sin": dc.sin, "cos": dc.cos}
_STEP = st.tuples(
    st.sampled_from(["same", "scalar", "reflected", "older", "newer", "pow", "function"]),
    st.integers(0, 63), st.integers(0, 63), st.sampled_from(sorted(_BINARY)), st.sampled_from(sorted(_FUNCTIONS)),
    st.floats(0.1, 2.0) | st.floats(-2.0, -0.1), st.integers(-2, 3),
)


def _program(steps, older):
    """A straight-line program on a point list: registers start as the
    coordinates and the float 0.7, each step appends one, and the program
    returns every register, nested as [last, [0.7, all registers]]."""

    def run(z):
        regs = [*z, 0.7]
        for kind, i, j, op, fn, c, p in steps:
            u, v, binary = regs[i % len(regs)], regs[j % len(regs)], _BINARY[op]
            if kind == "same":
                regs.append(binary(u, v))
            elif kind == "scalar":
                regs.append(binary(u, c))
            elif kind == "reflected":  # __radd__, __rsub__, __rmul__, __rtruediv__
                regs.append(binary(c, u))
            elif kind == "older":  # a jet of an older tag is a constant of the pass
                regs.append(binary(u, older) if p % 2 else binary(older, u))
            elif kind == "newer":  # a nested pass of a newer tag, read at order 0 or 1
                newer = dc.Jet(next(dc._TAGS), [c, 0.5])
                regs.append(dc._component(binary(u, newer) if p % 2 else binary(newer, u), newer.tag, p % 2))
            elif kind == "pow":
                regs.append(u**p)
            else:
                regs.append(_FUNCTIONS[fn](u))
        return [regs[-1], [regs[len(z)], regs]]

    return run


def _leaves(u):
    if isinstance(u, (list, tuple)):
        return [leaf for e in u for leaf in _leaves(e)]
    return _leaves(u.coeffs) if isinstance(u, dc.Jet) else [u]


def _outcome(route):
    try:
        return route()
    except (ArithmeticError, ValueError) as e:  # a pole, a domain error or an overflow
        return type(e)


@given(
    z=st.lists(st.floats(0.2, 1.5) | st.floats(-1.5, -0.2), min_size=2, max_size=3),
    steps=st.lists(_STEP, min_size=1, max_size=12),
)
@settings(max_examples=300, deadline=None)
def test_structurally_zero_tangents_equal_the_zero_seeded_passes(z, steps):
    # the univariate pass along k seeds every coordinate, with tangent 0.0 off k,
    # as gradient seeded before None marked a structurally zero tangent
    n, older = len(z), dc.Jet(next(dc._TAGS), [0.6, -0.3])
    run = _program(steps, older)

    def univariate():
        passes = []
        for k in range(n):
            t = next(dc._TAGS)
            out = run([dc.Jet(t, [p, 1.0 if j == k else 0.0]) for j, p in enumerate(z)])
            assume(all(math.isfinite(leaf) for leaf in _leaves(out)))
            passes.append([dc._nest(lambda u: dc._component(u, t, d), out) for d in (0, 1)])
        return passes

    passes, grad = _outcome(univariate), _outcome(lambda: dc.gradient(run, z))
    event("raises" if isinstance(passes, type) else "compared")
    if isinstance(passes, type):
        assert grad is passes
        return
    f0, d1 = grad
    for k, (value, partial) in enumerate(passes):
        assert same_value(f0, value, bits=True) and same_value(d1[k], partial, bits=True)
    assert all(leaf is not None for leaf in _leaves(d1))
    # column arrays of sites, and a constant f, return no marker either
    with np.errstate(all="ignore"):
        columns = _outcome(lambda: dc.gradient(run, [np.array([p, 0.9 * p]) for p in z]))
    if not isinstance(columns, type):
        assert all(leaf is not None for leaf in _leaves(columns))
    assert dc.gradient(lambda zs: [1.5, [2.0]], z) == ([1.5, [2.0]], [[0.0, [0.0]]] * n)
