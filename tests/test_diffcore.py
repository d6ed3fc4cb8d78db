"""Jet evaluation against exact values and the finite-difference oracle."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finslerkit import diffcore as dc
from finslerkit import gallery
from finslerkit.errors import OrderCapError

from conftest import GALLERY_SPECS, jet_partials, sample_sites
from fd_oracle import fd_partials


def test_quadratic_form_second_derivative():
    f = lambda x, y: y[0] * y[0] + y[1] * y[1]
    res = dc.directional_derivatives(f, [0.0, 0.0], [0.3, -0.2], y_dirs=[([1.0, 0.0], 2)])
    assert res.partial([2]) == pytest.approx(2.0, abs=1e-14)


def test_polynomial_mixed_partial():
    f = lambda x, y: x[0] * y[0] * y[0]
    e0 = [1.0, 0.0]
    res = dc.directional_derivatives(f, [1.0, 0.0], [3.0, 0.0], x_dirs=[(e0, 1)], y_dirs=[(e0, 1)])
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
    F2 = gallery.slab_kappa(0.5).metric.squared
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
    a = dc.directional_derivatives(F.func, x, y, y_dirs=[(e0, 1), (e1, 1)]).partial([1, 1])
    b = dc.directional_derivatives(F.func, x, y, y_dirs=[(e1, 1), (e0, 1)]).partial([1, 1])
    assert a == b


def _nested_field(x, y):
    """A 2 x 2 nested-list field mixing x and y in every analytic helper."""
    return [
        [x[0] * y[1] + dc.sin(x[1]) * y[0] * y[0], dc.exp(x[0]) * y[1] * y[1]],
        [dc.sqrt(1.0 + x[0] * x[0] + y[0] * y[0]), dc.log(2.0 + x[1]) * y[0] * y[1] * x[0]],
    ]


@pytest.mark.parametrize("wrt", ["x", "y"])
@pytest.mark.parametrize("order", [1, 2])
def test_derivative_blocks_match_jet_eval_and_fd(wrt, order):
    x, y = (0.3, -0.4), (0.7, 1.1)
    d1, d2 = dc.derivative_blocks(_nested_field, list(x), list(y), wrt, order)
    assert (d2 is None) == (order == 1)

    def check(block, coords):
        orders = tuple(sum(1 for c in coords if c == k) for k in range(2))
        ox, oy = (orders, (0, 0)) if wrt == "x" else ((0, 0), orders)
        for i in range(2):
            for j in range(2):
                comp = lambda xs, ys, i=i, j=j: _nested_field(xs, ys)[i][j]
                got = float(block[i][j])
                jet = jet_partials(comp, x, y, ox, oy)[(ox, oy)]
                assert got == pytest.approx(jet, rel=1e-14, abs=1e-14)
                assert got == pytest.approx(fd_partials(comp, x, y, ox, oy)[(ox, oy)], abs=1e-6)

    for k in range(2):
        check(d1[k], (k,))
        if order == 2:
            for l in range(2):
                check(d2[k][l], (k, l))


def test_partial_maps_over_nested_root():
    res = dc.directional_derivatives(
        _nested_field, [0.3, -0.4], [0.7, 1.1], x_dirs=[([1.0, 0.5], 1)], y_dirs=[([0.0, 1.0], 2)]
    )
    for multi in ([0, 0], [1, 0], [0, 1], [0, 2], [1, 2]):
        whole = res.partial(multi)
        for i in range(2):
            for j in range(2):
                one = dc.TaylorResult(res.root[i][j], res.tags, res.orders)
                assert whole[i][j] == one.partial(multi)
    with pytest.raises(OrderCapError):
        res.partial([2, 0])


def test_partials_of_order_10_and_more():
    res = dc.directional_derivatives(lambda x, y: dc.exp(y[0]), [0.0], [0.0], y_dirs=[([1.0], 12)])
    assert res.partial([10]) == 1.0
    assert res.partial([12]) == 1.0


def test_joint_derivative_is_the_sum_of_the_x_and_y_derivatives():
    # one tag along (dx, dy) gives d/dt f(x + t dx, y + t dy) = f_x.dx + f_y.dy,
    # nested like the value of f
    x, y, dx, dy = [0.3, -0.4], [0.7, 1.1], [-0.7, -1.1], [0.2, -0.9]
    val, d = dc.joint_derivative(_nested_field, x, y, dx, dy)
    along_x = dc.directional_derivatives(_nested_field, x, y, x_dirs=[(dx, 1)]).partial([1])
    along_y = dc.directional_derivatives(_nested_field, x, y, y_dirs=[(dy, 1)]).partial([1])
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
        res = dc.directional_derivatives(entry.metric.func, list(x), list(y), y_dirs=[(list(y), 1)])
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
    F2 = entry.metric.squared
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
    res = dc.directional_derivatives(
        f, [1.0, 2.0], [3.0, 4.0], x_dirs=[(e0, 1), (e1, 1)], y_dirs=[(e0, 1), (e1, 1)]
    )
    for multi in itertools.product((0, 1), repeat=4):
        want = math.prod(v for v, d in zip((1.0, 2.0, 3.0, 4.0), multi) if d == 0)
        assert res.partial(list(multi)) == pytest.approx(want, abs=1e-14)
    assert res.partial([1, 1, 1, 1]) == pytest.approx(1.0, abs=1e-14)
    assert res.value == pytest.approx(1.0 * 2.0 * 3.0 * 4.0, abs=1e-14)


def test_batched_array_coordinates():
    f = lambda x, y: dc.sqrt(y[0] * y[0] + y[1] * y[1])
    ys = [np.linspace(1.0, 2.0, 7), np.full(7, 0.5)]
    xs = [np.zeros(7), np.zeros(7)]
    res = dc.directional_derivatives(f, xs, ys, y_dirs=[([1.0, 0.0], 2)])
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
