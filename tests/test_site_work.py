"""Work that depends on x alone is done once per site: F.at, RandersData.ab
and the beta tables give the same bits as the direct route, which evaluates
alpha.matrix and beta.covector in separate passes and F^2 at every jet."""

import dataclasses

import numpy as np
import pytest

from finslerkit import _linalg
from finslerkit import curvature as C
from finslerkit import diffcore as dc
from finslerkit import gallery
from finslerkit import measures as Ms
from finslerkit import metrics as M
from finslerkit import navigation as N
from finslerkit import spray as S
from finslerkit.errors import MetricError

from conftest import GALLERY_SPECS, count_jet_passes, sample_sites, squared, xy_derivatives


def _bits(obj):
    """Nested jets, lists, arrays and floats as comparable structure with
    exact bit patterns; jet tags are left out, as each call draws new ones."""
    if isinstance(obj, dc.Jet):
        return ("jet", [_bits(c) for c in obj.coeffs])
    if isinstance(obj, (list, tuple)):
        return [_bits(e) for e in obj]
    if isinstance(obj, np.ndarray):
        return ("array", obj.dtype.str, obj.shape, obj.tobytes())
    return (type(obj).__name__, float(obj).hex())


# -- the direct route ------------------------------------------------------------


def _direct_metric(entry) -> M.FinslerField:
    """F without a site: a Randers F from alpha.norm + beta.pairing."""
    rd = entry.randers
    if rd is None:
        return M.FinslerField(entry.metric.domain, entry.metric.func)
    return M.FinslerField(rd.domain, lambda x, y: rd.alpha.norm(x, y) + rd.beta.pairing(x, y))


def _direct_metric_entries(F, x, y):
    F2 = squared(F)
    return [[e * 0.5 for e in row] for row in dc.hessian(lambda ys: F2(x, ys), y)]


def _direct_spray(F, x, y):
    """spray_from_metric with one mixed x/y jet pair per y-direction."""
    n = F.dim
    g_inv, _ = _linalg.spd_factor(_direct_metric_entries(F, x, y))
    F2 = squared(F)
    _, grad = dc.gradient(lambda xs: F2(xs, y), x)
    rhs = [
        xy_derivatives(F2, x, y, x_dirs=[(y, 1)], y_dirs=[(dc.basis(n, l), 1)]).partial([1, 1])
        - grad[l]
        for l in range(n)
    ]
    return [0.25 * _linalg.sum_prod(g_inv[i], rhs) for i in range(n)]


def _direct_first_order_table(randers, x):
    """_first_order_table from alpha.matrix and beta.covector in separate passes."""
    n = randers.dim
    a, a_inv, gamma = S._levi_civita(randers.alpha, x)
    b, db = dc.gradient(randers.beta.covector, x)
    b_cov = [[db[j][i] - S._sum(b[l] * gamma[l][i][j] for l in range(n)) for j in range(n)] for i in range(n)]
    r = [[(b_cov[i][j] + b_cov[j][i]) * 0.5 for j in range(n)] for i in range(n)]
    s = [[(b_cov[i][j] - b_cov[j][i]) * 0.5 for j in range(n)] for i in range(n)]
    s_up = [[S._sum(a_inv[i][p] * s[p][j] for p in range(n)) for j in range(n)] for i in range(n)]
    s_form = [S._sum(b[i] * s_up[i][j] for i in range(n)) for j in range(n)]
    return [a, a_inv, b, gamma, b_cov, r, s, s_up, s_form]


_FIRST_ORDER = ("a", "a_inv", "b", "gamma", "b_cov", "r", "s", "s_up", "s_form")


def _table_bits(t, fields=_FIRST_ORDER + ("s_form_cov", "s_up_cov")):
    return _bits([getattr(t, f) for f in fields])


# -- inputs ------------------------------------------------------------------------


def _inputs(entry):
    """(label, x, y, wrap): one float site, column arrays of 4 sites, and the
    float site under outer jet tags that move x and (unless empty) y (wrap
    evaluates a route on the seeded point and returns the jet root)."""
    pts, dirs = sample_sites(entry, 4, 13)
    x, y = pts[0].tolist(), dirs[0].tolist()
    u, w = (np.linspace(0.3, -0.4, entry.dim) + 0.1).tolist(), dirs[1].tolist()

    def plain(route):
        return route

    def jet(route):
        return lambda xs, ys: xy_derivatives(route, xs, ys, x_dirs=[(u, 2)], y_dirs=[(w, 1)] if ys else []).root

    yield "float", x, y, plain
    yield "columns", list(pts.T), list(dirs.T), plain
    yield "outer-jet", x, y, jet


@pytest.mark.parametrize("name,params", GALLERY_SPECS)
def test_metric_and_spray_equal_the_direct_route(name, params):
    entry = gallery.make(name, **params)
    F, direct = entry.metric, _direct_metric(entry)
    G = S.spray_from_metric(F)
    for label, x, y, wrap in _inputs(entry):
        got = wrap(lambda xs, ys: M.metric_entries(F, xs, ys))(x, y)
        assert _bits(got) == _bits(wrap(lambda xs, ys: _direct_metric_entries(direct, xs, ys))(x, y)), label
        got = wrap(G)(x, y)
        assert _bits(got) == _bits(wrap(lambda xs, ys: _direct_spray(direct, xs, ys))(x, y)), label


@pytest.mark.parametrize("name,params", [s for s in GALLERY_SPECS if s[0] not in ("minkowski", "shen_flat")])
def test_beta_tables_equal_the_direct_route(monkeypatch, name, params):
    entry = gallery.make(name, **params)
    rd = entry.randers
    got = {}
    for label, x, _, wrap in _inputs(entry):
        table = wrap(lambda xs, ys: S.beta_table(rd, xs, order=2))(x, [])
        got[label] = _table_bits(table)
        # the first-order fields come from the value of the pass that differentiates them
        first = wrap(lambda xs, ys: S.beta_table(rd, xs, order=1))(x, [])
        assert _table_bits(table, _FIRST_ORDER) == _table_bits(first, _FIRST_ORDER), label
    monkeypatch.setattr(S, "_first_order_table", _direct_first_order_table)
    for label, x, _, wrap in _inputs(entry):
        assert got[label] == _table_bits(wrap(lambda xs, ys: S.beta_table(rd, xs, order=2))(x, [])), label


# -- the hoist stays in place ---------------------------------------------------------


def _counted(fn, calls):
    def wrapped(*args):
        calls.append(1)
        return fn(*args)

    return wrapped


@pytest.mark.parametrize("name,params", [s for s in GALLERY_SPECS if s[0] not in ("minkowski", "shen_flat")])
def test_metric_entries_evaluate_the_randers_data_once(name, params):
    entry = gallery.make(name, **params)
    rd, (pts, dirs) = entry.randers, sample_sites(entry, 1, 4)
    x, y = pts[0].tolist(), dirs[0].tolist()
    # without a site: alpha.matrix once, not once per entry of the Hessian (n (n + 1) / 2)
    matrix_calls = []
    alpha = dataclasses.replace(rd.alpha, matrix=_counted(rd.alpha.matrix, matrix_calls))
    M.metric_entries(M.RandersData(alpha, rd.beta).field, x, y)
    assert len(matrix_calls) == 1
    # a Riemannian F goes through its site: alpha.matrix once as well
    matrix_calls.clear()
    M.metric_entries(alpha.finsler(), x, y)
    assert len(matrix_calls) == 1
    # with the entry's site, if any: the site once
    if rd.site is not None:
        site_calls = []
        M.metric_entries(dataclasses.replace(rd, site=_counted(rd.site, site_calls)).field, x, y)
        assert len(site_calls) == 1


@pytest.mark.parametrize("name,params", [("rotation2d", {}), ("bao_shen_s3", {"eps": 0.3})])
def test_christoffels_evaluate_alpha_once(name, params):
    alpha = gallery.make(name, **params).randers.alpha
    calls = []
    x = alpha.domain.sample_points(1, seed=4)[0].tolist()
    S.christoffels(dataclasses.replace(alpha, matrix=_counted(alpha.matrix, calls)), x)
    assert len(calls) == 1  # one x-gradient jet, which carries a at x


@pytest.mark.parametrize("name,params", [("funk", {"n": 2}), ("bao_shen_s3", {"eps": 0.3})])
def test_first_order_tables_do_the_navigation_x_work_once_per_pass(monkeypatch, name, params):
    # counts zermelo_riemannian's x-work (one source alpha.matrix per evaluation
    # of its scalars) through the gallery's own constructor, so a constructor
    # that drops the site doubles the count
    calls = []
    real = gallery.zermelo_riemannian

    def counting(alpha, v):
        return real(dataclasses.replace(alpha, matrix=_counted(alpha.matrix, calls)), v)

    monkeypatch.setattr(gallery, "zermelo_riemannian", counting)
    entry = gallery.make(name, **params)
    x = entry.metric.domain.sample_points(1, seed=4)[0].tolist()
    calls.clear()  # the constructor's drift check
    S.beta_table(entry.randers, x, order=1)
    assert len(calls) == 1  # one x-gradient jet for all coordinates, which carries a and b at x


def test_a_navigation_solve_evaluates_the_source_site_once():
    source = gallery.euclidean_alpha(2, M.ball_domain(2))
    calls = []
    alpha = dataclasses.replace(source, matrix=_counted(source.matrix, calls))
    drift = N.rotation_drift(alpha.domain)
    nav = N.zermelo_general(alpha.finsler(), drift, [0.1, -0.2], [0.6, 0.3])
    # once per solve, not at each of the ~57 bracket and bisection steps
    assert len(calls) == 1
    closed = N.zermelo_riemannian(source, drift).finsler()([0.1, -0.2], [0.6, 0.3])
    assert nav == pytest.approx(float(closed), rel=1e-12)


def _broadcast_site(F):
    """F with a site that broadcasts x over the samples' columns and evaluates
    F(xs, ys) on them: the route the one-site samplers took before F.at."""

    def site(x):
        return lambda ys: F([np.broadcast_to(np.asarray(c, dtype=float), np.shape(ys[0])) for c in x], ys)

    return dataclasses.replace(F, site=site)


@pytest.mark.parametrize("name,params", [s for s in GALLERY_SPECS if s[0] not in ("minkowski", "shen_flat")])
def test_one_site_samplers_equal_the_broadcast_route(name, params):
    entry = gallery.make(name, **params)
    F, x = entry.metric, sample_sites(entry, 1, 8)[0][0].tolist()
    drift = N.DriftField(F.domain, lambda xs: [-0.05 * xs[1], 0.05 * xs[0]] + [0.0] * (entry.dim - 2))
    routes = [
        (
            Ms.bh_density(G, x),
            Ms.bh_density_mc(G, x, n_samples=10_000, seed=2),
            Ms._indicatrix_box(G, x),
            N.indicatrix_shift_check(G, drift, x, n_dirs=16, seed=2),
        )
        for G in (F, _broadcast_site(F))
    ]
    (quad, mc, box, shift), (quad_b, mc_b, box_b, shift_b) = routes
    assert _bits([quad.value, quad.error, mc.value, mc.stderr, shift]) == _bits(
        [quad_b.value, quad_b.error, mc_b.value, mc_b.stderr, shift_b]
    )
    assert _bits(list(box)) == _bits(list(box_b))


# jet passes per call of metric_entries, spray_from_metric(F)(x, y),
# beta_table(order=2), riemann_entries and flag_curvatures under the entry's
# spray; None where there is no Randers data.  A pass is one evaluation on
# seeded jets: a directional_derivatives call or a gradient call, which takes
# the value and the whole gradient in one pass
JET_PASSES = {
    "euclidean": (3, 6, 2, 5, 10),
    "minkowski": (3, 6, None, 15, 25),
    "funk": (3, 6, 2, 5, 10),
    "shen_flat": (3, 6, None, 15, 25),
    "rotation2d": (3, 6, 2, 5, 10),
    "cylinder": (6, 9, 2, 5, 13),
    "bao_shen_s3": (6, 9, 2, 5, 13),
    "slab": (3, 6, 2, 5, 10),
}


@pytest.mark.parametrize("name,params", GALLERY_SPECS)
def test_jet_passes_per_layer_call(monkeypatch, name, params):
    entry = gallery.make(name, **params)
    pts, dirs = sample_sites(entry, 2, 3)
    x, y, u = pts[0].tolist(), dirs[0].tolist(), dirs[1].tolist()
    F, G, rd = entry.metric, entry.spray, entry.randers
    calls = count_jet_passes(monkeypatch)
    layers = (
        lambda: M.metric_entries(F, x, y),
        lambda: S.spray_from_metric(F)(x, y),
        None if rd is None else lambda: S.beta_table(rd, x, order=2),
        lambda: C.riemann_entries(G, x, y),
        lambda: C.flag_curvatures(F, G, x, y, u),
    )
    got = []
    for layer in layers:
        calls.clear()
        if layer is not None:
            layer()
        got.append(None if layer is None else len(calls))
    assert tuple(got) == JET_PASSES[name]


# -- require_nonzero ----------------------------------------------------------------


def test_a_zero_direction_raises_on_floats_jets_and_columns():
    zero = [0.0, -0.0, 0]
    jet = dc.directional_derivatives(lambda ys: ys, [0.0, 0.0, 0.0], [([1.0, 2.0, 3.0], 1)]).root
    cols = [np.array([1.0, 0.0]), np.array([0.0, 0.0]), np.array([2.0, 0.0])]
    for y in (zero, np.zeros(3), jet, cols, [np.float64(0.0)] * 2, [np.array([0.0, 1.0]), 0.0]):
        with pytest.raises(MetricError, match="tangent vector must be nonzero"):
            M.require_nonzero(y)
    for y in ([0.0, 1e-300], [np.float64(0.0), 2.0], jet[:2] + [1.0], [c[:1] for c in cols], [np.array([0.0, 1.0]), 1.0]):
        M.require_nonzero(y)
