"""Volume densities, distortion and the three S-curvature routes."""

import math

import numpy as np
import pytest

from finslerkit import diffcore as dc
from finslerkit import gallery
from finslerkit import measures as ME
from finslerkit import spray as S
from finslerkit.errors import MetricError
from finslerkit.metrics import (
    FinslerField,
    OneFormField,
    RandersData,
    whole_space_domain,
)

from conftest import RANDERS_SPECS, sample_sites


# -- radial-quadrature density -------------------------------------------------------


@pytest.mark.parametrize("name,params", RANDERS_SPECS)
def test_quadrature_density_matches_randers_closed_form(name, params):
    entry = gallery.make(name, **params)
    pts, _ = sample_sites(entry, 8, seed=13)
    for x in pts:
        q = ME.bh_density(entry.metric, list(x))
        closed = ME.randers_density(entry.randers, list(x))
        assert abs(q.value - closed) <= 1e-13 * closed
        assert q.error <= 1e-6 * closed


def test_quadrature_density_converges_on_funk_4(monkeypatch):
    entry = gallery.funk(4)
    pts = entry.metric.domain.sample_points(4, seed=21, shrink=0.75)
    for k in (4, 8, 16):
        monkeypatch.setattr(ME, "QUAD_K", k)
        for x in pts:
            q = ME.bh_density(entry.metric, list(x))
            closed = ME.randers_density(entry.randers, list(x))
            assert abs(q.value - closed) <= 1e-13 * closed
            if k >= 8:
                assert q.error <= 1e-13 * closed


def test_sphere_rules_integrate_polynomials_exactly():
    # int_{S^{n-1}} u_1^2 = |S^{n-1}| / n and int u_1^2 u_n^2 = |S^{n-1}| / (n (n + 2))
    for n in (2, 3, 4, 5):
        dirs, w = ME._sphere_rule(n, 8)
        area = n * ME.unit_ball_volume(n)
        assert np.allclose(np.sum(dirs * dirs, axis=0), 1.0, rtol=0, atol=1e-15)
        assert w.sum() == pytest.approx(area, rel=1e-14)
        assert np.dot(w, dirs[0] ** 2) == pytest.approx(area / n, rel=1e-14)
        assert np.dot(w, dirs[0] ** 2 * dirs[-1] ** 2) == pytest.approx(area / (n * (n + 2)), rel=1e-14)


def test_quadrature_node_budget_bounds_high_dimensions():
    entry = gallery.euclidean(7)
    q = ME.bh_density(entry.metric, [0.0] * 7)
    assert q.value == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("bad", [math.nan, 0.0, -1.0])
def test_quadrature_rejects_a_bad_value_on_a_node(bad):
    def f(x, y):
        r = dc.sqrt(y[0] * y[0] + y[1] * y[1])
        return np.where(np.asarray(y[1]) / r > 0.9, bad, r)

    with pytest.raises(MetricError):
        ME.bh_density(FinslerField(whole_space_domain(2), f), [0.0, 0.0])


# -- Monte Carlo density -----------------------------------------------------------


def _disk_norm_nan_where(mask):
    def f(x, y):
        r = dc.sqrt(y[0] * y[0] + y[1] * y[1])
        return np.where(mask(np.asarray(y[0]), np.asarray(y[1]), r), np.nan, r)

    return FinslerField(whole_space_domain(2), f)


def test_mc_rejects_a_non_finite_box_ray():
    F = _disk_norm_nan_where(lambda y0, y1, r: y0 > 0.9)
    with pytest.raises(MetricError):
        ME.bh_density_mc(F, [0.0, 0.0], n_samples=20_000, seed=1)


def test_mc_rejects_a_non_finite_sample():
    # NaN only inside the indicatrix: every box ray is finite, some samples are not
    F = _disk_norm_nan_where(lambda y0, y1, r: (y0 - 0.3) ** 2 + y1 * y1 < 0.01)
    with pytest.raises(MetricError):
        ME.bh_density_mc(F, [0.0, 0.0], n_samples=20_000, seed=1)


def test_mc_density_euclidean(entries):
    mc = ME.bh_density_mc(entries["euclidean"].metric, [0.0, 0.0], n_samples=1_000_000, seed=42)
    assert mc.stderr < 0.005
    assert abs(mc.value - 1.0) <= 3.0 * mc.stderr


def test_mc_density_constant_form():
    for n, kappa in ((2, 0.4), (3, 0.25)):
        dom = whole_space_domain(n)
        alpha = gallery.euclidean_alpha(n, dom)
        beta = OneFormField(dom, lambda x: [kappa] + [0.0] * (n - 1))
        rd = RandersData(alpha, beta)
        mc = ME.bh_density_mc(rd.finsler(), [0.0] * n, n_samples=400_000, seed=7)
        expect = (1.0 - kappa * kappa) ** ((n + 1) / 2.0)
        assert abs(mc.value - expect) / expect <= 0.01


def test_mc_density_matches_closed_form_rotation(rotation2d):
    x = [0.25, -0.4]
    mc = ME.bh_density_mc(rotation2d.metric, x, n_samples=400_000, seed=11)
    closed = ME.randers_density(rotation2d.randers, x)
    assert abs(mc.value - closed) / closed <= 0.01


def test_mc_rejects_unbounded_indicatrix():
    dom = whole_space_domain(2)
    F = FinslerField(dom, lambda x, y: dc.sqrt(y[0] * y[0] + y[1] * y[1]) + y[0])
    with pytest.raises(MetricError):
        ME.bh_density_mc(F, [0.0, 0.0], n_samples=10_000, seed=1)


def test_mc_sample_floor():
    with pytest.raises(ValueError):
        ME.bh_density_mc(gallery.euclidean(2).metric, [0.0, 0.0], n_samples=100, seed=1)


# -- closed-form densities ------------------------------------------------------------


def test_randers_density_riemannian_case(rotation2d):
    alpha = rotation2d.randers.alpha
    rd0 = RandersData(alpha, OneFormField(alpha.domain, lambda x: [0.0, 0.0]))
    x = [0.3, 0.4]
    assert ME.randers_density(rd0, x) == pytest.approx(
        math.sqrt(np.linalg.det(alpha.value(x))), rel=1e-12
    )


def test_declared_densities_are_the_randers_closed_form(entries):
    """Every entry that declares a constant Reference.density is Randers,
    and randers_density gives that constant at sampled sites."""
    declared = {name: e for name, e in entries.items() if e.reference.density is not None}
    assert sorted(declared) == ["cylinder", "euclidean", "funk", "rotation2d", "slab"]
    for entry in declared.values():
        pts, _ = sample_sites(entry, 8, seed=17)
        for x in pts:
            assert ME.randers_density(entry.randers, list(x)) == pytest.approx(entry.reference.density, abs=1e-12)


# -- distortion -------------------------------------------------------------------------


def test_distortion_euclidean(entries):
    sigma = ME.constant_density_field(1.0)
    assert ME.distortion(entries["euclidean"].metric, sigma, [0.1, 0.2], [1.0, 0.7]) == pytest.approx(
        0.0, abs=1e-12
    )


def test_distortion_riemannian_vanishes_for_all_y(rotation2d):
    alpha = rotation2d.randers.alpha
    rd0 = RandersData(alpha, OneFormField(alpha.domain, lambda x: [0.0, 0.0]))
    sigma = ME.riemannian_density_field(alpha)
    for y in ([1.0, 0.0], [0.3, -0.9], [2.0, 1.0]):
        mu = ME.distortion(rd0.finsler(), sigma, [0.2, 0.3], y)
        assert mu == pytest.approx(0.0, abs=1e-12)


def test_slab_distortion_is_position_free():
    entry = gallery.slab_kappa(0.45)
    sigma = ME.randers_density_field(entry.randers)
    y = [0.8, -0.6]
    mu1 = ME.distortion(entry.metric, sigma, [0.0, 0.0], y)
    mu2 = ME.distortion(entry.metric, sigma, [5.0, -2.0], y)
    assert mu1 == pytest.approx(mu2, abs=1e-10)


def test_distortion_scalar_is_zero_homogeneous(funk2):
    sigma = ME.randers_density_field(funk2.randers)
    x, y = [0.2, -0.1], [0.7, 0.4]
    base = ME.distortion(funk2.metric, sigma, x, y)
    for lam in (0.5, 2.0, 7.0):
        mu = ME.distortion(funk2.metric, sigma, x, [lam * y[0], lam * y[1]])
        assert mu == pytest.approx(base, rel=1e-12)


# -- S-curvature --------------------------------------------------------------------------


def test_minkowski_s_curvature_vanishes(entries):
    entry = entries["minkowski"]
    G = S.spray_from_metric(entry.metric)
    sigma = ME.constant_density_field(1.0)
    assert ME.s_curvature(G, sigma, [0.3, -0.1], [1.0, 0.4]) == pytest.approx(0.0, abs=1e-12)
    dyn = ME.s_curvature_dynamic(entry.metric, sigma, [0.3, -0.1], [1.0, 0.4], G=G)
    assert dyn == pytest.approx(0.0, abs=1e-6)


def test_rotation_s_curvature_vanishes(rotation2d):
    G = S.randers_spray(rotation2d.randers)
    sigma = ME.randers_density_field(rotation2d.randers)
    pts, dirs = sample_sites(rotation2d, 25, seed=3)
    for x, y in zip(pts, dirs):
        assert abs(ME.s_curvature(G, sigma, list(x), list(y))) <= 1e-8
        assert abs(ME.randers_s_curvature(rotation2d.randers, list(x), list(y))) <= 1e-10
    dyn = ME.s_curvature_dynamic(rotation2d.metric, sigma, list(pts[0]), list(dirs[0]), G=G)
    assert abs(dyn) <= 1e-6


def test_funk_s_curvature_value(funk2):
    x, y = [0.1, 0.05], [0.7, -0.4]
    fv = float(funk2.metric(x, y))
    got = ME.randers_s_curvature(funk2.randers, x, y)
    assert got == pytest.approx(1.5 * fv, rel=1e-6)
    G = S.randers_spray(funk2.randers)
    sigma = ME.randers_density_field(funk2.randers)
    assert ME.s_curvature(G, sigma, x, y) == pytest.approx(got, abs=1e-8 * (1 + abs(got)))
    dyn = ME.s_curvature_dynamic(funk2.metric, sigma, x, y, dt=1e-3, G=G)
    assert dyn == pytest.approx(got, abs=1e-4)


@pytest.mark.parametrize("name,params", RANDERS_SPECS)
def test_three_s_routes_agree(name, params):
    entry = gallery.make(name, **params)
    G = S.randers_spray(entry.randers)
    sigma = ME.randers_density_field(entry.randers)
    pts, dirs = sample_sites(entry, 5, seed=5)
    for x, y in zip(pts, dirs):
        closed = ME.randers_s_curvature(entry.randers, list(x), list(y))
        local = ME.s_curvature(G, sigma, list(x), list(y))
        dyn = ME.s_curvature_dynamic(entry.metric, sigma, list(x), list(y), G=G)
        scale = 1.0 + abs(closed)
        assert abs(local - closed) <= 1e-8 * scale
        assert abs(dyn - closed) <= 1e-6 * scale


def test_s_homogeneity(funk2):
    x, y = [0.2, -0.1], [0.6, 0.8]
    base = ME.randers_s_curvature(funk2.randers, x, y)
    for lam in (0.5, 2.0, 7.0):
        scaled = ME.randers_s_curvature(funk2.randers, x, [lam * y[0], lam * y[1]])
        assert scaled == pytest.approx(lam * base, rel=1e-9)


def test_s_rejects_monte_carlo_density(rotation2d):
    G = S.randers_spray(rotation2d.randers)
    sigma = ME.VolumeDensity(sigma=lambda x: 1.0, method="monte-carlo")
    with pytest.raises(MetricError):
        ME.s_curvature(G, sigma, [0.1, 0.2], [1.0, 0.0])


def test_s_accepts_a_user_density_under_any_other_label(rotation2d):
    G = S.randers_spray(rotation2d.randers)
    closed = ME.randers_density_field(rotation2d.randers)
    pulled = ME.VolumeDensity(sigma=closed.sigma, method="pulled-back")
    x, y = [0.1, 0.2], [1.0, 0.3]
    assert ME.s_curvature(G, pulled, x, y) == ME.s_curvature(G, closed, x, y)


# -- the S = 0 pointwise criterion -----------------------------------------------------------


def test_criterion_holds_on_both_rotation_examples(rotation2d, cylinder3):
    for entry in (rotation2d, cylinder3):
        pts = entry.metric.domain.sample_points(25, seed=7)
        for x in pts:
            assert np.max(np.abs(ME.s_zero_criterion(entry.randers, list(x)))) <= 1e-10


def test_criterion_discriminates():
    dom = whole_space_domain(2)
    alpha = gallery.euclidean_alpha(2, dom)
    beta = OneFormField(dom, lambda x: [0.3 + 0.05 * x[0], 0.05 * x[1]])
    rd = RandersData(alpha, beta)
    residual = np.max(np.abs(ME.s_zero_criterion(rd, [0.2, 0.4])))
    assert residual > 1e-3
    # and the S-curvature itself is indeed nonzero there
    assert abs(ME.randers_s_curvature(rd, [0.2, 0.4], [1.0, 0.5])) > 1e-3


def test_randers_s_curvature_builds_one_beta_table(monkeypatch, rotation2d):
    calls = []
    real = ME.beta_table
    monkeypatch.setattr(ME, "beta_table", lambda *a, **kw: calls.append(a) or real(*a, **kw))
    ME.randers_s_curvature(rotation2d.randers, [0.25, 0.35], [1.0, 0.5])
    assert len(calls) == 1


def test_rho_gradient_matches_finite_differences(rotation2d):
    x = [0.25, 0.35]
    rho = ME.rho_gradient(rotation2d.randers, x)
    h = 1e-6
    for i in range(2):
        xp = list(x)
        xm = list(x)
        xp[i] += h
        xm[i] -= h
        fd = (
            ME.rho_gradient(rotation2d.randers, xp).value
            - ME.rho_gradient(rotation2d.randers, xm).value
        ) / (2 * h)
        assert rho.grad[i] == pytest.approx(fd, abs=1e-6)


def test_s_form_equals_minus_rho_gradient_when_criterion_holds(rotation2d, cylinder3):
    for entry in (rotation2d, cylinder3):
        pts = entry.metric.domain.sample_points(10, seed=9)
        for x in pts:
            tbl = S.beta_table(entry.randers, list(x), order=1)
            rho = ME.rho_gradient(entry.randers, list(x))
            np.testing.assert_allclose(
                np.array(tbl.s_form, dtype=float), -rho.grad, atol=1e-9
            )


def test_mc_chunk_size_does_not_move_the_estimate(monkeypatch, entries):
    F = entries["bao_shen_s3"].metric
    x = F.domain.sample_points(1, seed=5)[0]
    chunked = ME.bh_density_mc(F, x, n_samples=60_000, seed=2)
    monkeypatch.setattr(ME, "MC_CHUNK", 60_000)
    assert ME.bh_density_mc(F, x, n_samples=60_000, seed=2) == chunked
