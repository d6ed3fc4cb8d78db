"""Riemann operator, Ricci, flag curvature and the Randers residual checkers."""

import math

import numpy as np
import pytest

from finslerkit import curvature as C
from finslerkit import diffcore, gallery
from finslerkit import measures as ME
from finslerkit import metrics as M
from finslerkit import spray as S
from finslerkit import verify
from finslerkit.errors import DegenerateFlagError, MetricError
from finslerkit.metrics import ball_domain
from conftest import GALLERY_SPECS, count_jet_passes, sample_sites


@pytest.fixture(scope="module")
def rot_spray(rotation2d):
    return S.randers_spray(rotation2d.randers)


@pytest.fixture(scope="module")
def funk_spray(funk2):
    return S.randers_spray(funk2.randers)


def parallel_form_data():
    """Constant form on flat space: locally Minkowskian Randers data."""
    return gallery.slab_kappa(0.35).randers


# -- Riemann operator --------------------------------------------------------------


def test_euclidean_riemann_vanishes(entries):
    G = S.spray_from_metric(entries["euclidean"].metric)
    R = C.riemann(G, [0.1, -0.2], [0.7, 0.4])
    assert np.max(np.abs(R.matrix)) <= 1e-13
    assert R.ricci == pytest.approx(0.0, abs=1e-13)


def test_riemann_rejects_the_zero_direction(entries, rot_spray):
    for G in (rot_spray, S.spray_from_metric(entries["shen_flat"].metric)):
        with pytest.raises(MetricError):
            C.riemann(G, [0.1, 0.2], [0.0, 0.0])


ZERO_DIRECTION_CALLS = {
    "riemann_entries": lambda e, x, y: C.riemann_entries(e.spray, x, y),
    "ricci_2d": lambda e, x, y: C.ricci_2d(e.spray, x, y),
    "s_curvature": lambda e, x, y: ME.s_curvature(e.spray, e.density, x, y),
    "randers_s_curvature": lambda e, x, y: ME.randers_s_curvature(e.randers, x, y),
}


@pytest.mark.parametrize("sites", ["float", "columns"])
@pytest.mark.parametrize("quantity", sorted(ZERO_DIRECTION_CALLS))
def test_a_zero_direction_raises_metric_error(rotation2d, quantity, sites):
    if sites == "float":
        x, y = [0.1, 0.2], [0.0, 0.0]
    else:  # the second of three sites has y = 0
        x = [np.array([0.1, 0.2, -0.3]), np.array([0.2, 0.0, 0.1])]
        y = [np.array([1.0, 0.0, 0.3]), np.array([0.5, 0.0, -0.2])]
    with pytest.raises(MetricError, match="nonzero"):
        ZERO_DIRECTION_CALLS[quantity](rotation2d, x, y)


def test_rotation_riemann_vanishes_everywhere(rotation2d, rot_spray):
    pts, dirs = sample_sites(rotation2d, 200, seed=3)
    worst = 0.0
    for x, y in zip(pts, dirs):
        R = C.riemann(rot_spray, list(x), list(y))
        worst = max(worst, float(np.max(np.abs(R.matrix))))
    assert worst <= 1e-7


def test_cylinder_riemann_vanishes(cylinder3):
    G = S.randers_spray(cylinder3.randers)
    pts, dirs = sample_sites(cylinder3, 50, seed=5)
    for x, y in zip(pts, dirs):
        R = C.riemann(G, list(x), list(y))
        assert np.max(np.abs(R.matrix)) <= 1e-7


def test_cylinder_third_row_is_exactly_zero(cylinder3):
    # with the closed-form spray, G^3 = 0 identically, so row 3 of R is 0
    G = S.SprayField(cylinder3.metric.domain, cylinder3.reference.spray)
    R = C.riemann(G, [0.2, -0.3, 0.5], [0.7, 0.1, -0.4])
    np.testing.assert_array_equal(R.matrix[2], np.zeros(3))


def test_riemann_operator_invariants(rotation2d, funk2, rot_spray, funk_spray):
    for entry, G in ((rotation2d, rot_spray), (funk2, funk_spray)):
        pts, dirs = sample_sites(entry, 20, seed=7)
        for x, y in zip(pts, dirs):
            R = C.riemann(G, list(x), list(y))
            scale = np.max(np.abs(R.matrix)) + 1.0
            # R annihilates the flagpole
            assert np.max(np.abs(R.matrix @ y)) <= 1e-8 * scale
            # and is self-adjoint after lowering with g
            lowered = M.fundamental_tensor(entry.metric, list(x), list(y)).g @ R.matrix
            assert np.max(np.abs(lowered - lowered.T)) <= 1e-8 * scale


# g_y R_y is self-adjoint for the geodesic spray of F: g_ij R^j_k = g_kj R^j_i.
# Per site the asymmetry is scaled by max|g| (1 + max|R|): g grows toward the
# rim of shen_flat, and R is rounding noise on the K = 0 entries.
SELF_ADJOINT_TOL = 1e-11


def self_adjoint_residual(F, G, x, y) -> float:
    g = diffcore.values_array(M.metric_entries(F, x, y))
    R = diffcore.values_array(C.riemann_entries(G, x, y), sites=g.shape[2:])
    gR = np.einsum("ijm,jkm->ikm", g, R)
    asym = np.max(np.abs(gR - gR.transpose(1, 0, 2)), axis=(0, 1))
    scale = np.max(np.abs(g), axis=(0, 1)) * (1.0 + np.max(np.abs(R), axis=(0, 1)))
    return float(np.max(asym / scale))


def _battery_columns(entry):
    pts, dirs = verify._sample_sites(entry, 200, 5)  # the battery's sites at seed 5
    return verify._cols(pts), verify._cols(dirs)


@pytest.mark.parametrize("name,params", GALLERY_SPECS)
def test_g_lowers_riemann_to_a_symmetric_matrix(name, params):
    entry = gallery.make(name, **params)
    assert self_adjoint_residual(entry.metric, entry.spray, *_battery_columns(entry)) <= SELF_ADJOINT_TOL


def test_the_spray_of_another_metric_is_not_self_adjoint(rotation2d):
    # the Levi-Civita spray of alpha is not the geodesic spray of F = alpha + beta
    G = S.levi_civita_spray(rotation2d.randers.alpha)
    assert self_adjoint_residual(rotation2d.metric, G, *_battery_columns(rotation2d)) > SELF_ADJOINT_TOL


# -- the spray form against the four-term assembly ---------------------------------

EPS = np.finfo(float).eps


def reference_riemann(G, x, y):
    """R^i_k by the four-term assembly, with the y-Hessian of G and the mixed
    x/y block taken separately:

        R^i_k = 2 dG^i/dx^k - y^j d2G^i/dx^j dy^k
                + 2 G^j d2G^i/dy^j dy^k - dG^i/dy^j dG^j/dy^k

    Returns (R, T) as float arrays ((n, n) at one site, (n, n, m) over column
    arrays), T[i][k] the sum of the magnitudes of the terms of R^i_k.
    """
    n, sites = len(y), np.shape(y[0])
    G_at = G.at(list(x))
    Gval = G_at(list(y))
    _, dGdx = diffcore.gradient(lambda xs: G(xs, list(y)), x)
    y_blocks = lambda xs: diffcore.gradient(G.at(xs), list(y))[1]
    mixed = diffcore.directional_derivatives(y_blocks, x, [(list(y), 1)]).partial([1])
    _, dGdy = diffcore.gradient(G_at, y)
    hess = diffcore.hessian(G_at, y)
    R = [[None] * n for _ in range(n)]
    T = [[None] * n for _ in range(n)]
    for i in range(n):
        for k in range(n):
            terms = [2.0 * dGdx[k][i], -mixed[k][i]]
            acc = terms[0] + terms[1]
            for j in range(n):
                a, b = 2.0 * (Gval[j] * hess[j][k][i]), dGdy[j][i] * dGdy[k][j]
                acc = acc + a - b
                terms += [a, b]
            R[i][k] = acc
            T[i][k] = np.sum(np.abs(diffcore.values_array(terms, sites=sites)), axis=0)
    return diffcore.values_array(R, sites=sites), diffcore.values_array(T, sites=sites)


def spray_of(entry, kind):
    return entry.spray if kind == "default" else S.spray_from_metric(entry.metric)


@pytest.mark.parametrize("kind", ["default", "generic"])
@pytest.mark.parametrize("name", [name for name, _ in GALLERY_SPECS])
def test_riemann_matches_the_four_term_reference(entries, name, kind):
    """riemann_entries on column arrays, and riemann on floats at a few of
    the same sites, lie within 64 eps max|term| of the reference, the largest
    term magnitude over the sampled sites: they differ by rounding."""
    entry = entries[name]
    G = spray_of(entry, kind)
    pts, dirs = sample_sites(entry, 24, seed=13)
    xs, ys = list(pts.T), list(dirs.T)
    want, T = reference_riemann(G, xs, ys)
    bound = 64 * EPS * np.max(T)
    got = diffcore.values_array(C.riemann_entries(G, xs, ys), sites=(len(pts),))
    assert np.max(np.abs(got - want)) <= bound
    for s in range(4):
        x, y = list(pts[s]), list(dirs[s])
        assert np.max(np.abs(C.riemann(G, x, y).matrix - reference_riemann(G, x, y)[0])) <= bound


def counting_spray(n):
    """A polynomial spray (no derivatives inside) that counts its evaluations."""
    calls = []

    def G(x, y):
        calls.append(1)
        return [x[(i + 1) % n] * y[i] * y[(i + 1) % n] + y[i] * y[0] for i in range(n)]

    return S.SprayField(ball_domain(n), G), calls


@pytest.mark.parametrize("n", [2, 3, 4])
def test_riemann_spray_evaluations_do_not_grow_with_dimension(n):
    G, calls = counting_spray(n)
    C.riemann_entries(G, [0.1, 0.2, -0.1, 0.05][:n], [0.7, -0.3, 0.4, 0.2][:n])
    # the x-gradient, which carries the value, and the y-gradient on the jet
    # along the spray
    assert len(calls) == 2


@pytest.mark.parametrize("n", [2, 3])
def test_riemann_via_difference_takes_2n_plus_2_and_5n_plus_2_evaluations(n):
    G, calls = counting_spray(n)
    G_ref, ref_calls = counting_spray(n)
    C.riemann_via_difference(G, G_ref, [0.1, 0.2, -0.1][:n], [0.7, -0.3, 0.4][:n])
    # through H: the x-gradient, which carries the value 2H, and the y-gradient
    # along (-y, 2G); G alone: the direction 2G; G_ref alone: R~ (2) and N on
    # the jet along 2H; within the older per-direction bounds
    assert len(calls) <= 2 * n + 2
    assert len(ref_calls) <= 5 * n + 2


@pytest.mark.parametrize("n", [2, 3, 4])
def test_riemann_via_difference_evaluations_do_not_grow_with_dimension(n):
    G, calls = counting_spray(n)
    G_ref, ref_calls = counting_spray(n)
    C.riemann_via_difference(G, G_ref, [0.1, 0.2, -0.1, 0.05][:n], [0.7, -0.3, 0.4, 0.2][:n])
    # through H: the x-gradient, which carries the value 2H, and the y-gradient
    # along (-y, 2G); G alone: the direction 2G; G_ref alone: R~ (2) and N on
    # the jet along 2H
    assert (len(calls), len(ref_calls)) == (3, 5)


@pytest.mark.parametrize("n", [2, 3])
def test_flag_curvature_spray_evaluations_do_not_grow_with_dimension(n):
    G, calls = counting_spray(n)
    F = gallery.euclidean_alpha(n, ball_domain(n)).finsler()
    C.flag_curvature(F, [0.1, 0.2, -0.1][:n], [0.7, -0.3, 0.4][:n], [0.2, 0.9, 0.1][:n], G=G)
    # d_{x,u}G, which carries the value, d_{y,u}G on the jet along the spray,
    # d_{y,v}G
    assert len(calls) == 3


# -- Ricci -------------------------------------------------------------------------


def test_funk_ricci_value(funk2, funk_spray):
    x, y = [0.15, -0.2], [0.9, 0.5]
    fv = float(funk2.metric(x, y))
    assert C.ricci(funk_spray, x, y) == pytest.approx(-0.25 * fv * fv, rel=1e-6)


def test_ricci_2d_euclidean(entries):
    G = S.spray_from_metric(entries["euclidean"].metric)
    assert C.ricci_2d(G, [0.0, 0.0], [1.0, 0.5]) == pytest.approx(0.0, abs=1e-12)


def test_rotation_spray_identities(rotation2d, rot_spray):
    # divergence dG1/du + dG2/dv and the first-order Ricci combination both
    # vanish identically for the rotating-disk spray
    from finslerkit.diffcore import TaylorResult, directional_derivatives

    x, y = [0.3, 0.4], [0.8, -0.5]
    parts = {}
    for k, (kind, e) in enumerate(
        [("x", [1.0, 0.0]), ("x", [0.0, 1.0]), ("y", [1.0, 0.0]), ("y", [0.0, 1.0])]
    ):
        if kind == "x":
            res = directional_derivatives(lambda xs: rot_spray(xs, y), x, [(e, 1)])
        else:
            res = directional_derivatives(lambda ys: rot_spray(x, ys), y, [(e, 1)])
        parts[k] = [TaylorResult(res.root[i], res.tags, res.orders).partial([1]) for i in range(2)]
    div = parts[2][0] + parts[3][1]
    assert abs(div) <= 1e-8
    combo = parts[0][0] + parts[1][1] + parts[2][0] * parts[3][1] - parts[3][0] * parts[2][1]
    assert abs(combo) <= 1e-8


def test_ricci_2d_matches_trace(rotation2d, funk2, rot_spray, funk_spray):
    for entry, G in ((rotation2d, rot_spray), (funk2, funk_spray)):
        pts, dirs = sample_sites(entry, 25, seed=11)
        for x, y in zip(pts, dirs):
            full = C.riemann(G, list(x), list(y)).ricci
            assert C.ricci_2d(G, list(x), list(y)) == pytest.approx(full, abs=1e-7 * (1 + abs(full)))


def test_ricci_2d_takes_only_the_blocks_it_reads(monkeypatch):
    # a polynomial spray whose evaluation takes no derivatives itself
    G = S.SprayField(
        ball_domain(2),
        lambda x, y: [x[1] * y[0] * y[1] + y[0] * y[0], x[0] * y[1] * y[1]],
    )
    calls = count_jet_passes(monkeypatch)
    C.ricci_2d(G, [0.1, 0.2], [0.7, -0.3])
    # dG/dx and G: one gradient pass; one jet along the spray around the dG/dy
    # gradient pass, giving S at order 0 and D(S) at order 1; no Hessian
    assert calls == ["gradient", "directional", "gradient"]


# -- flag curvature ------------------------------------------------------------------


def test_flag_curvature_builds_g_once(monkeypatch, rotation2d):
    calls = []
    real = C.metric_entries
    monkeypatch.setattr(C, "metric_entries", lambda *a: calls.append(a) or real(*a))
    C.flag_curvature(rotation2d.metric, [0.1, 0.2], [0.8, -0.3], [0.2, 0.9])
    assert len(calls) == 1


def test_riemann_builds_no_g(monkeypatch, rotation2d):
    calls = []
    for mod in (M, S, C):
        real = mod.metric_entries
        monkeypatch.setattr(mod, "metric_entries", lambda *a, real=real: calls.append(a) or real(*a))
    R = C.riemann(S.randers_spray(rotation2d.randers), [0.1, 0.2], [0.8, -0.3])
    assert np.isfinite(R.ricci)
    assert calls == []


def test_flag_curvature_euclidean(entries):
    K = C.flag_curvature(entries["euclidean"].metric, [0.1, 0.3], [1.0, 0.0], [0.0, 1.0])
    assert K == pytest.approx(0.0, abs=1e-12)


def test_funk_flag_curvature_random_flags(funk2, funk_spray):
    rng = np.random.default_rng(13)
    pts, dirs = sample_sites(funk2, 50, seed=13)
    for x, y in zip(pts, dirs):
        u = rng.normal(size=2)
        K = C.flag_curvature(funk2.metric, list(x), list(y), list(u), G=funk_spray)
        assert K == pytest.approx(-0.25, abs=1e-7)


def test_bao_shen_flag_curvature(entries):
    entry = entries["bao_shen_s3"]
    G = S.randers_spray(entry.randers)
    rng = np.random.default_rng(17)
    pts, dirs = sample_sites(entry, 10, seed=17)
    for x, y in zip(pts, dirs):
        u = rng.normal(size=3)
        K = C.flag_curvature(entry.metric, list(x), list(y), list(u), G=G)
        assert K == pytest.approx(1.0, abs=1e-6)


def test_flag_invariance_under_edge_changes(funk2, funk_spray):
    x, y = [0.2, 0.1], [0.8, -0.4]
    u = [0.3, 0.9]
    K0 = C.flag_curvature(funk2.metric, x, y, u, G=funk_spray)
    for c in (0.5, -2.0):
        shifted = [u[0] + c * y[0], u[1] + c * y[1]]
        K1 = C.flag_curvature(funk2.metric, x, y, shifted, G=funk_spray)
        assert K1 == pytest.approx(K0, rel=1e-9)
    for lam in (0.3, -4.0):
        K2 = C.flag_curvature(funk2.metric, x, y, [lam * u[0], lam * u[1]], G=funk_spray)
        assert K2 == pytest.approx(K0, rel=1e-9)


def test_degenerate_flag_rejected(funk2):
    with pytest.raises(DegenerateFlagError):
        C.flag_curvature(funk2.metric, [0.1, 0.1], [0.5, 0.5], [1.0, 1.0])


@pytest.mark.parametrize("name", [name for name, _ in GALLERY_SPECS])
def test_flag_curvature_matches_the_matrix_formula(entries, name):
    """K = u.g.(R u) / (g(y,y) g(u,u) - g(y,u)^2) on float arrays, with g from
    fundamental_tensor and R from the four-term reference, as an oracle for the
    generic path; they differ by rounding, bounded through the reference's
    term magnitudes T by 64 eps (|u.g| T |u|) / denom."""
    entry = entries[name]
    G = entry.spray
    rng = np.random.default_rng(29)
    pts, dirs = sample_sites(entry, 3, seed=29)
    for x, y in zip(pts, dirs):
        u = rng.normal(size=entry.dim)
        g = M.fundamental_tensor(entry.metric, list(x), list(y)).g
        R, T = reference_riemann(G, list(x), list(y))
        denom = (y @ g @ y) * (u @ g @ u) - (y @ g @ u) ** 2
        want = (u @ g @ (R @ u)) / denom
        got = C.flag_curvature(entry.metric, list(x), list(y), list(u), G=G)
        assert abs(got - want) <= 64 * EPS * (np.abs(u @ g) @ T @ np.abs(u)) / denom


def test_flag_curvature_rejects_a_zero_pole_and_a_non_pd_site(funk2):
    with pytest.raises(MetricError):
        C.flag_curvature(funk2.metric, [0.1, 0.1], [0.0, 0.0], [1.0, 0.0])
    # a form with norm > 1 destroys positive definiteness opposite the drift
    F = M.FinslerField(
        M.whole_space_domain(2), lambda x, y: diffcore.sqrt(y[0] * y[0] + y[1] * y[1]) + 1.2 * y[0]
    )
    with pytest.raises(MetricError):
        C.flag_curvature(F, [0.0, 0.0], [-1.0, 0.3], [0.0, 1.0])


# -- curvature via a reference spray ----------------------------------------------------


def test_difference_formula_with_equal_sprays(rot_spray, rotation2d):
    x, y = [0.25, -0.15], [1.0, 0.6]
    direct = C.riemann(rot_spray, x, y)
    via = C.riemann_via_difference(rot_spray, rot_spray, x, y)
    np.testing.assert_allclose(via.matrix, direct.matrix, atol=1e-12)


def test_difference_formula_rotation_vs_levi_civita(rotation2d, rot_spray):
    G_ref = S.levi_civita_spray(rotation2d.randers.alpha)
    pts, dirs = sample_sites(rotation2d, 20, seed=19)
    for x, y in zip(pts, dirs):
        via = C.riemann_via_difference(rot_spray, G_ref, list(x), list(y))
        direct = C.riemann(rot_spray, list(x), list(y))
        assert np.max(np.abs(via.matrix - direct.matrix)) <= 1e-7
        assert np.max(np.abs(via.matrix)) <= 1e-7


def test_difference_formula_funk_vs_euclidean(funk2, funk_spray, entries):
    G_ref = S.spray_from_metric(entries["euclidean"].metric)
    pts, dirs = sample_sites(funk2, 20, seed=23)
    for x, y in zip(pts, dirs):
        via = C.riemann_via_difference(funk_spray, G_ref, list(x), list(y))
        direct = C.riemann(funk_spray, list(x), list(y))
        assert np.max(np.abs(via.matrix - direct.matrix)) <= 1e-7


@pytest.mark.parametrize("pair", ["cylinder3-levi-civita", "bao_shen_s3-generic-levi-civita", "shen_flat-funk"])
def test_difference_formula_matches_riemann(entries, cylinder3, pair):
    """riemann_via_difference agrees with riemann on G within 1e-12 (1 + max|R|)."""
    s3, shen, funk = entries["bao_shen_s3"], entries["shen_flat"], entries["funk"]
    entry, G, G_ref, sites = {
        "cylinder3-levi-civita": (
            cylinder3, S.randers_spray(cylinder3.randers), S.levi_civita_spray(cylinder3.randers.alpha), 4),
        "bao_shen_s3-generic-levi-civita": (
            s3, S.spray_from_metric(s3.metric), S.levi_civita_spray(s3.randers.alpha), 2),
        "shen_flat-funk": (shen, S.spray_from_metric(shen.metric), S.randers_spray(funk.randers), 4),
    }[pair]
    pts, dirs = sample_sites(entry, sites, seed=31)
    for x, y in zip(pts, dirs):
        direct = C.riemann(G, list(x), list(y)).matrix
        via = C.riemann_via_difference(G, G_ref, list(x), list(y)).matrix
        assert np.max(np.abs(via - direct)) <= 1e-12 * (1.0 + np.max(np.abs(direct)))


# -- Randers zero-curvature residuals -----------------------------------------------------


def test_k0_residuals_rotation(rotation2d):
    pts, dirs = sample_sites(rotation2d, 100, seed=29)
    for x, y in zip(pts, dirs):
        out = C.k0_residuals(rotation2d.randers, list(x), list(y))
        assert np.max(np.abs(out.residual_a)) <= 1e-7
        assert np.max(np.abs(out.residual_b)) <= 1e-7
        assert out.s_zero_max <= 1e-10


def test_k0_residuals_cylinder(cylinder3):
    pts, dirs = sample_sites(cylinder3, 30, seed=31)
    for x, y in zip(pts, dirs):
        out = C.k0_residuals(cylinder3.randers, list(x), list(y))
        assert np.max(np.abs(out.residual_a)) <= 1e-7
        assert np.max(np.abs(out.residual_b)) <= 1e-7


def test_k0_residuals_parallel_form():
    rd = parallel_form_data()
    out = C.k0_residuals(rd, [0.4, -0.7], [1.0, 0.3])
    assert np.max(np.abs(out.residual_a)) <= 1e-10
    assert np.max(np.abs(out.residual_b)) <= 1e-10
    assert out.s_zero_max <= 1e-10


def test_k0_blocks_reassemble_riemann(entries):
    # the two residual blocks must satisfy R = residual_a - residual_b / alpha;
    # checked on a curved S = 0 metric with nonzero curvature, which pins the
    # sign arrangement of the block decomposition
    entry = entries["bao_shen_s3"]
    rd = entry.randers
    G = S.randers_spray(rd)
    pts, dirs = sample_sites(entry, 10, seed=37)
    for x, y in zip(pts, dirs):
        out = C.k0_residuals(rd, list(x), list(y))
        a = rd.alpha.value(list(x))
        alpha = math.sqrt(float(y @ a @ y))
        assembled = out.residual_a - out.residual_b / alpha
        direct = C.riemann(G, list(x), list(y)).matrix
        scale = 1.0 + np.max(np.abs(direct))
        assert np.max(np.abs(assembled - direct)) <= 1e-7 * scale


def test_ricci_trace_rotation(rotation2d):
    pts, dirs = sample_sites(rotation2d, 30, seed=41)
    for x, y in zip(pts, dirs):
        rt = C.randers_ricci_trace(rotation2d.randers, list(x), list(y))
        assert abs(rt.value) <= 1e-7
        assert abs(rt.trace_condition) <= 1e-7
        assert abs(rt.ricci_bar_condition) <= 1e-7


def test_ricci_trace_parallel_form():
    rd = parallel_form_data()
    rt = C.randers_ricci_trace(rd, [0.1, 0.9], [0.4, -1.2])
    assert rt.value == pytest.approx(0.0, abs=1e-12)
    assert rt.trace_condition == pytest.approx(0.0, abs=1e-12)
    assert rt.ricci_bar_condition == pytest.approx(0.0, abs=1e-12)


def test_ricci_trace_on_curved_metric(entries):
    # constant flag curvature 1 forces Ric = (n-1) F^2; the two
    # Ricci-vanishing condition residuals must be visibly nonzero there
    entry = entries["bao_shen_s3"]
    x, y = [0.2, -0.1, 0.3], [0.8, 0.4, -0.5]
    rt = C.randers_ricci_trace(entry.randers, x, y)
    fv = float(entry.metric(x, y))
    assert rt.value == pytest.approx(2.0 * fv * fv, rel=1e-9)
    assert abs(rt.trace_condition) > 1e-2
    assert abs(rt.ricci_bar_condition) > 1e-2


def test_ricci_trace_matches_spray_ricci(entries):
    for name in ("rotation2d", "bao_shen_s3"):
        entry = entries[name]
        G = S.randers_spray(entry.randers)
        pts, dirs = sample_sites(entry, 10, seed=43)
        for x, y in zip(pts, dirs):
            rt = C.randers_ricci_trace(entry.randers, list(x), list(y))
            direct = C.riemann(G, list(x), list(y)).ricci
            assert rt.value == pytest.approx(direct, abs=1e-7 * (1 + abs(direct)))


# -- Gauss curvature ------------------------------------------------------------------


def test_gauss_curvature_flat(entries):
    assert C.gauss_curvature_riemannian(
        entries["euclidean"].randers.alpha, [0.3, -0.1]
    ) == pytest.approx(0.0, abs=1e-12)


def test_gauss_curvature_rotation_alpha(rotation2d):
    alpha = rotation2d.randers.alpha
    assert C.gauss_curvature_riemannian(alpha, [0.0, 0.0]) == pytest.approx(-5.0, abs=1e-8)
    assert C.gauss_curvature_riemannian(alpha, [0.3, 0.4]) == pytest.approx(-7.0, abs=1e-8)


def test_gauss_curvature_matches_reference_grid(rotation2d):
    alpha = rotation2d.randers.alpha
    pts = rotation2d.metric.domain.sample_points(25, seed=47)
    for x in pts:
        got = C.gauss_curvature_riemannian(alpha, list(x))
        assert got == pytest.approx(rotation2d.reference.gauss_alpha(list(x)), rel=1e-8)
