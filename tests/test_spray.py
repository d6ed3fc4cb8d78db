"""Geodesic coefficients, covariant tables, integration, projective residuals."""

import logging
import math
import re

import numpy as np
import pytest

from finslerkit import diffcore as dc
from finslerkit import gallery
from finslerkit import spray as S
from finslerkit.errors import IntegrationError, MetricError
from finslerkit.metrics import FinslerField, RandersData, whole_space_domain, zero_one_form

from conftest import RANDERS_SPECS, sample_sites


# -- generic spray ---------------------------------------------------------------


def test_euclidean_spray_vanishes(entries):
    G = S.spray_from_metric(entries["euclidean"].metric)
    out = G([0.3, -0.2], [1.0, 0.7])
    assert max(abs(float(v)) for v in out) <= 1e-14


def test_funk_spray_is_projectively_flat(funk2):
    G = S.spray_from_metric(funk2.metric)
    for x, y in [([0.1, 0.2], [1.0, -0.5]), ([0.4, -0.3], [0.2, 1.0])]:
        res = S.projective_residual(G, x, y)
        assert np.max(np.abs(res)) <= 1e-9


def test_generic_spray_matches_closed_form_on_rotation(rotation2d):
    G = S.spray_from_metric(rotation2d.metric)
    pts, dirs = sample_sites(rotation2d, 100, seed=13)
    for x, y in zip(pts, dirs):
        got = np.array([float(v) for v in G(list(x), list(y))])
        ref = np.array([float(v) for v in rotation2d.reference.spray(list(x), list(y))])
        np.testing.assert_allclose(got, ref, rtol=1e-8, atol=1e-10)


# -- Levi-Civita ------------------------------------------------------------------


def test_christoffels_vanish_for_constant_metric(entries):
    gamma = S.christoffels(entries["euclidean"].randers.alpha, [0.4, 0.1])
    assert np.max(np.abs(gamma)) == 0.0


def test_christoffel_symmetry(rotation2d):
    gamma = S.christoffels(rotation2d.randers.alpha, [0.25, -0.4])
    np.testing.assert_array_equal(gamma, np.swapaxes(gamma, 1, 2))


def test_levi_civita_matches_closed_form(rotation2d):
    G = S.levi_civita_spray(rotation2d.randers.alpha)
    pts, dirs = sample_sites(rotation2d, 50, seed=17)
    for x, y in zip(pts, dirs):
        got = np.array([float(v) for v in G(list(x), list(y))])
        ref = np.array(rotation2d.reference.spray_alpha(list(x), list(y)))
        np.testing.assert_allclose(got, ref, rtol=1e-8, atol=1e-10)


# -- covariant tables ---------------------------------------------------------------


def test_parallel_form_on_flat_space_has_no_derivatives():
    entry = gallery.slab_kappa(0.4)
    tbl = S.beta_table(entry.randers, [0.7, -0.3], order=2)
    assert np.max(np.abs(np.array(tbl.r, dtype=float))) == 0.0
    assert np.max(np.abs(np.array(tbl.s, dtype=float))) == 0.0


def test_rotation_tables_at_reference_point(rotation2d):
    tbl = S.beta_table(rotation2d.randers, [0.3, 0.4], order=2)
    assert float(tbl.r[0][0]) == pytest.approx(-0.4266666666666667, abs=1e-12)
    assert float(tbl.s[0][1]) == pytest.approx(1.7777777777777777, abs=1e-12)
    assert float(tbl.s_form[0]) == pytest.approx(0.4, abs=1e-12)
    assert float(tbl.s_form[1]) == pytest.approx(0.5333333333333333, abs=1e-12)


def test_rotation_tables_match_closed_forms(rotation2d):
    pts = rotation2d.metric.domain.sample_points(50, seed=19)
    for x in pts:
        tbl = S.beta_table(rotation2d.randers, list(x), order=1)
        ref = rotation2d.reference.tables(list(x))
        np.testing.assert_allclose(np.array(tbl.b, dtype=float), ref["b"], rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(np.array(tbl.r, dtype=float), ref["r"], rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(np.array(tbl.s, dtype=float), ref["s"], rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(
            np.array(tbl.s_form, dtype=float), ref["s_form"], rtol=1e-9, atol=1e-12
        )


def test_table_structure_identities(rotation2d):
    tbl = S.beta_table(rotation2d.randers, [0.2, -0.5], order=2)
    n = 2
    r = np.array(tbl.r, dtype=float)
    s = np.array(tbl.s, dtype=float)
    b_cov = np.array(tbl.b_cov, dtype=float)
    np.testing.assert_array_equal(s, -s.T)
    np.testing.assert_allclose(r + s, b_cov, atol=1e-12)
    # s_j b^j = 0
    a_inv = np.array(tbl.a_inv, dtype=float)
    b_up = a_inv @ np.array(tbl.b, dtype=float)
    assert abs(np.array(tbl.s_form, dtype=float) @ b_up) <= 1e-12


def test_second_order_tables_match_fd_of_first_order(entries):
    # independent route: difference the first-order tables numerically and
    # apply the Christoffel corrections by hand, on a curved alpha
    entry = entries["bao_shen_s3"]
    rd = entry.randers
    x0 = [0.21, -0.13, 0.32]
    n, h = 3, 1e-6
    tbl0 = S.beta_table(rd, x0, order=2)
    gamma = np.array(
        [[[float(tbl0.gamma[i][j][k]) for k in range(n)] for j in range(n)] for i in range(n)]
    )

    def s_form_at(x):
        return np.array([float(v) for v in S.beta_table(rd, list(x), order=1).s_form])

    def s_up_at(x):
        return np.array(
            [[float(v) for v in row] for row in S.beta_table(rd, list(x), order=1).s_up]
        )

    ds = np.zeros((n, n))
    dsup = np.zeros((n, n, n))
    for k in range(n):
        xp, xm = list(x0), list(x0)
        xp[k] += h
        xm[k] -= h
        ds[:, k] = (s_form_at(xp) - s_form_at(xm)) / (2 * h)
        dsup[:, :, k] = (s_up_at(xp) - s_up_at(xm)) / (2 * h)
    s_form0 = np.array([float(v) for v in tbl0.s_form])
    s_up0 = np.array([[float(v) for v in row] for row in tbl0.s_up])
    s_cov_fd = ds - np.einsum("l,ljk->jk", s_form0, gamma)
    sup_cov_fd = (dsup + np.einsum("ilk,lj->ijk", gamma, s_up0)
                  - np.einsum("ljk,il->ijk", gamma, s_up0))
    s_cov = np.array([[float(v) for v in row] for row in tbl0.s_form_cov])
    sup_cov = np.array(
        [[[float(tbl0.s_up_cov[i][j][k]) for k in range(n)] for j in range(n)] for i in range(n)]
    )
    assert np.max(np.abs(s_cov - s_cov_fd)) <= 1e-6
    assert np.max(np.abs(sup_cov - sup_cov_fd)) <= 1e-6


def reference_second_order_table(randers, x):
    """(s_{j|k}, s^i_{j|k}) by product rules on raw coordinate partials: the
    second derivatives of b_i and the derivative of a^{ij} = -a^{ip} d a_pq a^{qj}
    replace the jet derivative of the first-order table."""
    n = randers.dim
    tbl = S.beta_table(randers, x, order=1)
    b, a_inv, gamma, s, s_up, s_form = tbl.b, tbl.a_inv, tbl.gamma, tbl.s, tbl.s_up, tbl.s_form
    da, _ = dc.derivative_blocks(lambda xs, ys: randers.alpha.matrix(xs), x, [], "x")
    db, d2b = dc.derivative_blocks(lambda xs, ys: randers.beta.covector(xs), x, [], "x", 2)
    R = range(n)

    def total(terms):
        terms = list(terms)
        acc = terms[0]
        for t in terms[1:]:
            acc = acc + t
        return acc

    ds = [[[(d2b[j][k][i] - d2b[i][k][j]) * 0.5 for k in R] for j in R] for i in R]
    d_ainv = [
        [[-total(a_inv[i][p] * da[k][p][q] * a_inv[q][j] for p in R for q in R) for k in R] for j in R]
        for i in R
    ]
    d_sup = [
        [[total(d_ainv[i][p][k] * s[p][j] + a_inv[i][p] * ds[p][j][k] for p in R) for k in R] for j in R]
        for i in R
    ]
    d_sform = [[total(db[k][i] * s_up[i][j] + b[i] * d_sup[i][j][k] for i in R) for k in R] for j in R]
    s_form_cov = [[d_sform[j][k] - total(s_form[l] * gamma[l][j][k] for l in R) for k in R] for j in R]
    s_up_cov = [
        [
            [
                d_sup[i][j][k]
                + total(gamma[i][l][k] * s_up[l][j] for l in R)
                - total(gamma[l][j][k] * s_up[i][l] for l in R)
                for k in R
            ]
            for j in R
        ]
        for i in R
    ]
    return s_form_cov, s_up_cov


@pytest.mark.parametrize("name,kw", RANDERS_SPECS, ids=[n for n, _ in RANDERS_SPECS])
def test_second_order_tables_match_the_product_rule_reference(name, kw):
    rd = gallery.make(name, **kw).randers
    pts = rd.domain.sample_points(12, seed=29)
    sites = [list(p) for p in pts[:4]] + [list(pts.T)]
    for x in sites:
        tbl = S.beta_table(rd, x, order=2)
        for got, ref in zip((tbl.s_form_cov, tbl.s_up_cov), reference_second_order_table(rd, x)):
            got, ref = dc.values_array(got, sites=np.shape(x[0])), dc.values_array(ref, sites=np.shape(x[0]))
            tol = 64 * np.finfo(float).eps * max(1.0, np.max(np.abs(ref)))
            assert np.max(np.abs(got - ref)) <= tol


def test_contractions_against_direct_sums(rotation2d):
    tbl = S.beta_table(rotation2d.randers, [0.15, 0.35], order=2)
    y = [0.8, -0.6]
    c = tbl.contract(y)
    s_form_cov = np.array(tbl.s_form_cov, dtype=float)
    assert float(c.s00) == pytest.approx(float(y @ s_form_cov @ y), abs=1e-13)
    sup = np.array(tbl.s_up, dtype=float)
    np.testing.assert_allclose([float(v) for v in c.si0], sup @ y, atol=1e-13)


# -- Randers closed-form spray ---------------------------------------------------------


def test_zero_form_spray_reduces_to_levi_civita(rotation2d):
    alpha = rotation2d.randers.alpha
    rd0 = RandersData(alpha, zero_one_form(alpha.domain))
    G0 = S.randers_spray(rd0)
    Glc = S.levi_civita_spray(alpha)
    x, y = [0.3, -0.2], [1.0, 0.4]
    np.testing.assert_allclose(
        [float(v) for v in G0(x, y)], [float(v) for v in Glc(x, y)], atol=1e-13
    )


@pytest.mark.parametrize("name,params", RANDERS_SPECS)
def test_randers_spray_agrees_with_generic(name, params):
    entry = gallery.make(name, **params)
    Gr = S.randers_spray(entry.randers)
    Gg = S.spray_from_metric(entry.metric)
    pts, dirs = sample_sites(entry, 200, seed=29)
    worst = 0.0
    for x, y in zip(pts, dirs):
        a = np.array([float(v) for v in Gr(list(x), list(y))])
        b = np.array([float(v) for v in Gg(list(x), list(y))])
        worst = max(worst, float(np.max(np.abs(a - b)) / (1.0 + np.max(np.abs(b)))))
    assert worst <= 1e-8


@pytest.mark.parametrize("name,params", RANDERS_SPECS)
def test_spray_at_a_site_equals_the_spray(name, params):
    entry = gallery.make(name, **params)
    pts, dirs = sample_sites(entry, 4, seed=31)
    sprays = (S.randers_spray(entry.randers), S.levi_civita_spray(entry.randers.alpha),
              S.spray_from_metric(entry.metric))
    for G in sprays:
        for x, y in [*((list(x), list(y)) for x, y in zip(pts, dirs)), (list(pts.T), list(dirs.T))]:
            assert dc.values_array(G.at(x)(y)).tobytes() == dc.values_array(G(x, y)).tobytes()


def test_q_term_is_divergence_free(rotation2d):
    # Q^i = alpha s^i_0 has vanishing y-divergence
    rd = rotation2d.randers
    x = [0.3, 0.4]
    tbl = S.beta_table(rd, x, order=1)

    def Q(xs, ys):
        c = tbl.contract(ys)
        alpha = dc.sqrt(c.alpha2)
        return [alpha * c.si0[i] for i in range(2)]

    div = 0.0
    y = [0.9, -0.3]
    for i in range(2):
        e = [0.0, 0.0]
        e[i] = 1.0
        res = dc.directional_derivatives(lambda xs, ys, i=i: Q(xs, ys)[i], x, y, y_dirs=[(e, 1)])
        div += float(res.partial([1]))
    assert abs(div) <= 1e-10


def test_spray_two_homogeneity(entries):
    for entry in entries.values():
        G = entry.spray
        pts, dirs = sample_sites(entry, 10, seed=37)
        for x, y in zip(pts, dirs):
            base = np.array([float(v) for v in G(list(x), list(y))])
            for lam in (0.5, 2.0, 7.0):
                scaled = np.array([float(v) for v in G(list(x), list(lam * y))])
                np.testing.assert_allclose(
                    scaled, lam * lam * base, rtol=1e-10, atol=1e-10 * (1 + np.abs(base).max())
                )


# -- geodesics ----------------------------------------------------------------------


def test_euclidean_geodesics_are_straight(entries):
    G = S.spray_from_metric(entries["euclidean"].metric)
    traj = S.geodesic_integrate(G, [0.0, 0.0], [0.3, 0.4], T=1.0, dt=1e-2)
    expect = np.outer(traj.t, [0.3, 0.4])
    np.testing.assert_allclose(traj.x, expect, atol=1e-12)


def test_funk_geodesics_trace_the_chord(funk2):
    G = S.randers_spray(funk2.randers)
    y0 = np.array([0.6, 0.3])
    traj = S.geodesic_integrate(G, [0.0, 0.0], list(y0), T=1.0, dt=1e-3, speed_check=funk2.metric)
    perp = np.array([-y0[1], y0[0]]) / np.linalg.norm(y0)
    assert np.max(np.abs(traj.x @ perp)) <= 1e-6
    assert not traj.boundary_exit


@pytest.mark.parametrize("name,params", RANDERS_SPECS)
def test_geodesic_speed_is_conserved(name, params):
    entry = gallery.make(name, **params)
    G = S.randers_spray(entry.randers)
    pts = entry.metric.domain.sample_points(1, seed=41, shrink=0.5)
    rng = np.random.default_rng([41, 77])
    d = rng.normal(size=entry.dim)
    d /= np.linalg.norm(d)
    traj = S.geodesic_integrate(
        G, list(pts[0]), list(0.25 * d), T=1.0, dt=1e-3, speed_check=entry.metric
    )
    assert not traj.boundary_exit
    rel = np.max(np.abs(traj.speed - traj.speed[0])) / abs(traj.speed[0])
    assert rel <= 1e-6


def test_boundary_exit_is_flagged(rotation2d):
    G = S.randers_spray(rotation2d.randers)
    traj = S.geodesic_integrate(G, [0.8, 0.0], [1.0, 0.0], T=2.0, dt=1e-2)
    assert traj.boundary_exit
    assert np.all(np.sum(traj.x**2, axis=1) < 1.0)


def test_speed_drift_raises(rotation2d):
    # a wrong spray (dropped drift terms) violates speed conservation
    bad = S.SprayField(
        rotation2d.metric.domain,
        lambda x, y: [v * 0.5 for v in rotation2d.reference.spray_alpha(x, y)],
    )
    with pytest.raises(IntegrationError):
        S.geodesic_integrate(
            bad, [0.5, 0.0], [1.0, 1.0], T=1.0, dt=1e-2,
            speed_check=rotation2d.metric, speed_rtol=0.01,
        )


def _nan_past(x_max):
    """A zero spray on the plane that turns NaN once x^1 exceeds x_max."""

    def G(x, y):
        past = np.asarray(dc.value(x[0])) > x_max
        return [np.where(past, np.nan, 0.0) * y[0], 0.0 * y[1]]

    return S.SprayField(whole_space_domain(2), G)


def test_non_finite_state_stops_the_geodesic():
    traj = S.geodesic_integrate(_nan_past(0.05), [0.0, 0.0], [1.0, 0.0], T=0.2, dt=0.01)
    assert traj.boundary_exit
    assert np.all(np.isfinite(traj.x)) and np.all(np.isfinite(traj.v))
    assert 0.05 <= traj.x[-1][0] < 0.07


def test_non_finite_state_stops_only_its_row_of_an_ensemble():
    traj = S.geodesic_integrate(
        _nan_past(0.05), np.zeros((2, 2)), np.array([[1.0, 0.0], [-1.0, 0.0]]), T=0.2, dt=0.01
    )
    assert traj.boundary_exit.tolist() == [True, False]
    assert np.all(np.isfinite(traj.x))
    assert 0.05 <= traj.x[-1, 0, 0] < 0.07
    assert traj.x[-1, 1, 0] == pytest.approx(-0.2)


def test_non_finite_speed_raises():
    flat = S.SprayField(whole_space_domain(2), lambda x, y: [0.0 * y[0], 0.0 * y[1]])
    speed = FinslerField(
        whole_space_domain(2),
        lambda x, y: (np.nan if float(x[0]) > 0.05 else 1.0) * (y[0] * y[0] + y[1] * y[1]) ** 0.5,
    )
    with pytest.raises(IntegrationError):
        S.geodesic_integrate(flat, [0.0, 0.0], [1.0, 0.0], T=0.2, dt=0.01, speed_check=speed)


def test_ensemble_matches_single_geodesics(rotation2d):
    G = S.randers_spray(rotation2d.randers)
    pts, dirs = sample_sites(rotation2d, 3, seed=9)
    ens = S.geodesic_integrate(G, pts, 0.5 * dirs, T=0.1, dt=1e-2, speed_check=rotation2d.metric)
    for i in range(3):
        one = S.geodesic_integrate(
            G, list(pts[i]), list(0.5 * dirs[i]), T=0.1, dt=1e-2, speed_check=rotation2d.metric
        )
        np.testing.assert_allclose(ens.x[:, i], one.x, rtol=1e-13, atol=1e-15)
        np.testing.assert_allclose(ens.speed[:, i], one.speed, rtol=1e-13)


def _bits(a) -> bytes:
    return np.asarray(a, dtype=float).tobytes()


@pytest.mark.parametrize("spec,T", [("rotation2d", 3.0), ("bao_shen_s3:eps=0.3", 3.0), ("funk:n=2", -3.0)])
def test_each_ensemble_row_is_its_single_geodesic_bit_for_bit(spec, T):
    # fast rows leave the chart (funk integrated back to the rim raises at a stage)
    entry = gallery.parse_spec(spec)
    G = S.randers_spray(entry.randers)
    pts, dirs = sample_sites(entry, 5, seed=3)
    vel = dirs * np.array([0.5, 1.0, 3.0, 0.2, 8.0])[:, None]
    kw = dict(T=T, dt=1e-2, speed_check=entry.metric, speed_rtol=0.5)
    ens = S.geodesic_integrate(G, pts, vel, **kw)
    assert ens.boundary_exit.any() and not ens.boundary_exit.all()
    for i in range(5):
        one = S.geodesic_integrate(G, list(pts[i]), list(vel[i]), **kw)
        k = len(one.t)
        assert one.boundary_exit == ens.boundary_exit[i]
        assert _bits(ens.t[:k]) == _bits(one.t)
        for field in ("x", "v", "speed"):
            rows, alone = getattr(ens, field)[:, i], getattr(one, field)
            assert _bits(rows[:k]) == _bits(alone)
            # a row that stopped keeps its last state in the later samples
            assert _bits(rows[k:]) == _bits(np.repeat(alone[-1:], len(ens.t) - k, axis=0))


def test_an_ensemble_drift_names_the_first_drifting_row(rotation2d):
    bad = S.SprayField(
        rotation2d.metric.domain,
        lambda x, y: [v * 0.5 for v in rotation2d.reference.spray_alpha(x, y)],
    )
    pts = np.array([[0.5, 0.0], [0.0, 0.3], [-0.2, 0.1]])
    vel = np.array([[0.1, 0.1], [1.0, 1.0], [1.0, -0.5]])
    kw = dict(T=1.0, dt=1e-2, speed_check=rotation2d.metric)
    drifts = []
    for x, v in zip(pts, vel):
        one = S.geodesic_integrate(bad, list(x), list(v), speed_rtol=math.inf, **kw)
        k = np.flatnonzero(~(np.abs(one.speed - one.speed[0]) <= 0.01 * abs(one.speed[0])))[0]
        drifts.append((k, f"from {one.speed[0]} to {one.speed[k]} at t={one.t[k]}"))
    assert [k for k, _ in drifts] == [16, 6, 11]  # row 1 drifts first
    with pytest.raises(IntegrationError, match=re.escape(f"geodesic speed drifted {drifts[1][1]}")):
        S.geodesic_integrate(bad, pts, vel, speed_rtol=0.01, **kw)


@pytest.mark.parametrize("T,dt", [(math.inf, 1e-2), (-math.inf, 1e-2), (math.nan, 1e-2),
                                  (1.0, math.inf), (1.0, math.nan), (1.0, 0.0), (1.0, -1e-2), (1e300, 1e-300)])
def test_a_non_finite_time_or_step_is_rejected(rotation2d, T, dt):
    G = S.randers_spray(rotation2d.randers)
    with pytest.raises(ValueError, match="must be finite"):
        S.geodesic_integrate(G, [0.1, 0.0], [1.0, 0.0], T=T, dt=dt)


def test_zero_time_returns_the_start_sample_alone(rotation2d):
    G = S.randers_spray(rotation2d.randers)
    one = S.geodesic_integrate(G, [0.1, 0.0], [1.0, 0.0], T=0.0, dt=0.5, speed_check=rotation2d.metric)
    assert one.t.tolist() == [0.0] and one.x.tolist() == [[0.1, 0.0]] and one.v.tolist() == [[1.0, 0.0]]
    assert one.speed.shape == (1,) and not one.boundary_exit
    ens = S.geodesic_integrate(G, np.zeros((3, 2)), np.eye(3, 2) + 0.5, T=0.0, dt=0.5)
    assert ens.x.shape == (1, 3, 2) and not ens.boundary_exit.any()


@pytest.mark.parametrize("x0,y0", [([0.1, 0.0], [1.0, 0.0, 0.0]), ([0.1, 0.0, 0.0], [1.0, 0.0]),
                                   ([0.1, 0.0, 0.0], [1.0, 0.0, 0.0]),
                                   (np.zeros((2, 2)), np.ones((3, 2))), (np.zeros((2, 3)), np.ones((2, 3)))],
                         ids=["dir-3d", "from-3d", "both-3d", "rows-differ", "ensemble-3d"])
def test_start_points_and_velocities_must_match_the_spray(rotation2d, x0, y0):
    G = S.randers_spray(rotation2d.randers)
    with pytest.raises(ValueError, match="must share a shape ending in 2"):
        S.geodesic_integrate(G, x0, y0, T=0.1, dt=1e-2)


# -- projective residual -----------------------------------------------------------------


def test_shen_flat_projective_residual(entries):
    G = S.spray_from_metric(entries["shen_flat"].metric)
    pts, dirs = sample_sites(entries["shen_flat"], 20, seed=43)
    for x, y in zip(pts, dirs):
        assert np.max(np.abs(S.projective_residual(G, list(x), list(y)))) <= 1e-8


def test_rotation_projective_residual_regression(rotation2d):
    # oracle from the closed-form spray: G^1 y^2 - G^2 y^1 at ((0.3, 0.4), (1, 1))
    x, y = [0.3, 0.4], [1.0, 1.0]
    g1, g2 = (float(v) for v in rotation2d.reference.spray(x, y))
    oracle = g1 * y[1] - g2 * y[0]
    res = S.projective_residual(S.randers_spray(rotation2d.randers), x, y)
    assert res[0, 1] == pytest.approx(oracle, rel=1e-10)
    assert abs(oracle) > 1.0  # decisively not projectively flat
    assert oracle == pytest.approx(3.7004783375006587, rel=1e-9)


def test_row_stops_are_logged(caplog, funk2):
    # integrated backwards, a funk geodesic reaches the rim in finite time
    G = S.randers_spray(funk2.randers)
    with caplog.at_level(logging.DEBUG, logger="finslerkit"):
        traj = S.geodesic_integrate(
            G, np.array([[0.0, 0.0], [0.0, 0.0]]), np.array([[1.0, 0.0], [0.0, 0.1]]),
            T=-2.0, dt=1e-2,
        )
    assert traj.boundary_exit.tolist() == [True, False]
    (record,) = caplog.records
    assert record.name == "finslerkit" and record.levelno == logging.DEBUG
    assert record.getMessage().startswith("geodesic row 0 stopped after t=-0.")
    assert "MetricError" in record.getMessage()


def test_row_stop_reasons_are_logged(caplog):
    with caplog.at_level(logging.DEBUG, logger="finslerkit"):
        S.geodesic_integrate(
            _nan_past(0.05), np.zeros((2, 2)), np.array([[1.0, 0.0], [0.0, 1.0]]),
            T=0.2, dt=0.01,
        )
    assert [r.getMessage() for r in caplog.records] == [
        "geodesic ensemble of 2 rows at t=0: spray not recorded: "
        "a recorded value was converted to a Python or numpy value",
        "geodesic row 0 stopped after t=0.05: non-finite state",
    ]


def test_a_zero_start_velocity_is_rejected(funk2):
    G = S.randers_spray(funk2.randers)
    with pytest.raises(MetricError):
        S.geodesic_integrate(G, [0.0, 0.0], [0.0, 0.0], T=0.01, dt=0.005)
    with pytest.raises(MetricError):
        S.geodesic_integrate(G, np.zeros((2, 2)), np.array([[0.5, 0.0], [0.0, 0.0]]), T=0.01, dt=0.005)


def test_an_empty_ensemble_is_rejected(rotation2d):
    G = S.randers_spray(rotation2d.randers)
    with pytest.raises(ValueError, match="at least one start point"):
        S.geodesic_integrate(G, np.zeros((0, 2)), np.zeros((0, 2)), T=0.01, dt=0.005)


def test_a_stage_on_the_rim_stops_a_single_row(funk2):
    # the second stage lands exactly on |x| = 1, where funk's F divides by zero
    G = S.randers_spray(funk2.randers)
    traj = S.geodesic_integrate(G, [0.9, 0.0], [20.0, 0.0], T=1.0, dt=1e-2)
    assert traj.boundary_exit and len(traj.t) == 1
