"""Shortest-time transform: closed form, root solve, shift and volume checks."""

import dataclasses
import math
import warnings

import mpmath as mp
import numpy as np
import pytest

from finslerkit import diffcore as dc
from finslerkit import navigation as N
from finslerkit.errors import ConvergenceError, DriftError
from finslerkit.gallery import euclidean_alpha, minkowski
from finslerkit.metrics import FinslerField, ball_domain, whole_space_domain

from conftest import count_jet_passes


@pytest.fixture(scope="module")
def euclid_ball():
    dom = ball_domain(2, name="nav-disk")
    return euclidean_alpha(2, dom)


@pytest.fixture(scope="module")
def radial(euclid_ball):
    return N.DriftField(euclid_ball.domain, lambda x: [-x[0], -x[1]], name="radial")


@pytest.fixture(scope="module")
def rotation(euclid_ball):
    return N.DriftField(euclid_ball.domain, lambda x: [-x[1], x[0]], name="rotation")


def test_zero_drift_is_identity(euclid_ball):
    zero = N.DriftField(euclid_ball.domain, lambda x: [0.0, 0.0], name="zero")
    rd = N.zermelo_riemannian(euclid_ball, zero)
    x = [0.3, -0.2]
    np.testing.assert_allclose(rd.alpha.value(x), np.eye(2), atol=1e-15)
    np.testing.assert_allclose(rd.beta.value(x), np.zeros(2), atol=1e-15)
    F = euclid_ball.finsler()
    y = [0.7, 0.4]
    assert N.zermelo_general(F, zero, x, y) == pytest.approx(float(F(x, y)), abs=1e-12)


def test_radial_drift_gives_funk_formula(euclid_ball, radial):
    rd = N.zermelo_riemannian(euclid_ball, radial)
    for x in ([0.0, 0.0], [0.3, 0.4], [-0.5, 0.2]):
        lam = 1.0 - (x[0] ** 2 + x[1] ** 2)
        a_expect = np.array(
            [
                [(x[0] * x[0] + lam) / lam**2, x[0] * x[1] / lam**2],
                [x[0] * x[1] / lam**2, (x[1] * x[1] + lam) / lam**2],
            ]
        )
        b_expect = np.array([x[0] / lam, x[1] / lam])
        np.testing.assert_allclose(rd.alpha.value(x), a_expect, atol=1e-12)
        np.testing.assert_allclose(rd.beta.value(x), b_expect, atol=1e-12)
    # explicit displayed value of the deformed norm
    x, y = [0.2, -0.3], [0.8, 0.5]
    lam = 1.0 - (x[0] ** 2 + x[1] ** 2)
    xy = x[0] * y[0] + x[1] * y[1]
    y2 = y[0] ** 2 + y[1] ** 2
    expect = (math.sqrt(xy * xy + y2 * lam) + xy) / lam
    assert rd.finsler()(x, y) == pytest.approx(expect, abs=1e-12)


def test_rotation_drift_matches_gallery_pair(euclid_ball, rotation, rotation2d):
    rd = N.zermelo_riemannian(euclid_ball, rotation)
    for x in ([0.3, 0.4], [-0.2, 0.6], [0.0, 0.0]):
        np.testing.assert_allclose(
            rd.alpha.value(x), rotation2d.randers.alpha.value(x), atol=1e-12
        )
        np.testing.assert_allclose(
            rd.beta.value(x), rotation2d.randers.beta.value(x), atol=1e-12
        )


def test_root_solve_reproduces_funk_values(euclid_ball, radial):
    F = euclid_ball.finsler()
    rng = np.random.default_rng(9)
    for _ in range(50):
        x = rng.uniform(-0.6, 0.6, size=2)
        y = rng.normal(size=2)
        lam = 1.0 - float(x @ x)
        xy = float(x @ y)
        expect = (math.sqrt(xy * xy + float(y @ y) * lam) + xy) / lam
        got = N.zermelo_general(F, radial, list(x), list(y))
        assert got == pytest.approx(expect, abs=1e-10 * (1 + expect))


def test_root_solve_matches_closed_form(euclid_ball, rotation):
    rd = N.zermelo_riemannian(euclid_ball, rotation)
    F = euclid_ball.finsler()
    rng = np.random.default_rng(3)
    for _ in range(500):
        x = rng.uniform(-0.6, 0.6, size=2)
        y = rng.normal(size=2)
        got = N.zermelo_general(F, rotation, list(x), list(y))
        expect = float(rd.finsler()(list(x), list(y)))
        assert got == pytest.approx(expect, abs=1e-10 * (1 + expect))


def test_navigation_metric_homogeneity(euclid_ball, radial):
    F = euclid_ball.finsler()
    x, y = [0.4, 0.1], [0.3, -0.9]
    base = N.zermelo_general(F, radial, x, y)
    for lam in (0.25, 2.0, 16.0):
        scaled = N.zermelo_general(F, radial, x, [lam * y[0], lam * y[1]])
        assert scaled == pytest.approx(lam * base, rel=1e-12)


def test_indicatrix_shift(euclid_ball, radial, rotation):
    F = euclid_ball.finsler()
    zero = N.DriftField(euclid_ball.domain, lambda x: [0.0, 0.0], name="zero")
    assert N.indicatrix_shift_check(F, zero, [0.2, 0.1]) <= 1e-12
    assert N.indicatrix_shift_check(F, rotation, [0.3, 0.4]) <= 1e-10
    assert N.indicatrix_shift_check(F, radial, [0.5, -0.2]) <= 1e-10


def test_volume_preserved_under_zero_drift(euclid_ball):
    zero = N.DriftField(euclid_ball.domain, lambda x: [0.0, 0.0], name="zero")
    gap = N.volume_preservation_check(
        euclid_ball.finsler(), zero, [0.1, 0.2], n_samples=50_000, seed=5
    )
    assert gap.rel_gap <= 1e-12


@pytest.mark.parametrize("n", [2, 3])
def test_volume_check_is_exact_for_a_zero_drift(n):
    alpha = euclidean_alpha(n, ball_domain(n, name=f"nav-ball{n}"))
    zero = N.DriftField(alpha.domain, lambda x: [0.0 * c for c in x], name="zero")
    gap = N.volume_preservation_check(alpha.finsler(), zero, [0.1, 0.2, -0.3][:n])
    assert gap.rel_gap <= 4.4e-16
    assert gap.sigma_f.value == pytest.approx(1.0, abs=4.4e-16)


def test_volume_check_is_deterministic(euclid_ball, rotation):
    F, x = euclid_ball.finsler(), [0.3, 0.4]
    one = N.volume_preservation_check(F, rotation, x, n_samples=20_000, seed=1)
    two = N.volume_preservation_check(F, rotation, x, n_samples=50_000, seed=2)
    assert one == two
    assert one.rel_gap <= 1e-13


def test_volume_check_tracks_a_strong_rotation_in_3d():
    # the rotating drift preserves the euclidean volume: sigma = 1 exactly
    alpha = euclidean_alpha(3, ball_domain(3, name="nav-ball3"))
    spin = N.DriftField(alpha.domain, lambda x: [-x[1], x[0], 0.0 * x[2]], name="rotation")
    for r, tol in ((0.5, 1e-11), (0.8, 1e-11), (0.9, 1e-8)):
        gap = N.volume_preservation_check(alpha.finsler(), spin, [r, 0.0, 0.0])
        assert abs(gap.sigma_nav.value - 1.0) <= tol
        assert abs(gap.sigma_nav.value - 1.0) <= gap.sigma_nav.error + 4.4e-16


def test_volume_preserved_under_rotation(euclid_ball, rotation):
    gap = N.volume_preservation_check(
        euclid_ball.finsler(), rotation, [0.3, 0.4], n_samples=200_000, seed=7
    )
    assert gap.rel_gap <= 0.01
    assert abs(gap.sigma_f.value - 1.0) <= 0.01
    assert abs(gap.sigma_nav.value - 1.0) <= 0.01


def test_radial_navigation_density_identity(euclid_ball, radial):
    # closed form: (1 - ||b~||^2)^{(n+1)/2} sqrt(det a~) = 1 for a flat source
    from finslerkit.measures import randers_density

    rd = N.zermelo_riemannian(euclid_ball, radial)
    for x in ([0.0, 0.0], [0.4, 0.3], [-0.6, 0.1]):
        assert randers_density(rd, x) == pytest.approx(1.0, abs=1e-12)


def test_travel_time_straight_segment_no_drift(euclid_ball):
    zero = N.DriftField(euclid_ball.domain, lambda x: [0.0, 0.0], name="zero")
    seg = lambda t: ([0.5 * t - 0.25, 0.0], [0.5, 0.0])
    T = N.travel_time(euclid_ball.finsler(), zero, seg, 0.0, 1.0, n=64)
    assert T == pytest.approx(0.5, abs=1e-9)


def test_navigation_at_a_zero_tangent_vector_is_zero(euclid_ball, rotation):
    # F~(x, 0) = 0, the value F(x, 0) has for the source norm, at one site
    # and at the zero-y sites of column arrays; nonzero y keeps its root
    F = euclid_ball.finsler()
    x = [0.1, 0.0]
    assert N.zermelo_general(F, rotation, x, [0.0, 0.0]) == 0.0
    nav = N.navigation_metric(F, rotation)
    assert nav(x, [0.0, 0.0]) == 0.0
    xs = [np.array([0.1, 0.2, -0.3, 0.0]), np.array([0.0, 0.1, 0.2, -0.4])]
    ys = [np.array([0.0, 0.6, 0.0, -0.2]), np.array([0.0, 0.8, 0.0, 0.5])]
    got = nav(xs, ys)
    assert got[0] == 0.0 and got[2] == 0.0
    for i in (1, 3):
        one = N.zermelo_general(F, rotation, [xs[0][i], xs[1][i]], [ys[0][i], ys[1][i]])
        assert got[i] == pytest.approx(one, rel=1e-15) and got[i] > 0.0


def test_a_zero_drift_site_never_evaluates_the_source_at_zero():
    # minkowski computes F(x, 0) as 0/0; where v = 0, F~ = F needs neither
    # F(x, -v) nor F(x, v), at one site, in a record and beside a drifting site
    F = minkowski(2, MINKOWSKI_EPS).metric
    v = N.radial_drift(ball_domain(2))
    nav = N.navigation_metric(F, v)
    origin, y = [0.0, 0.0], [0.6, 0.5]
    xs, ys = [np.array([0.0, 0.3]), np.array([0.0, -0.2])], [np.array([0.6, 0.6]), np.array([0.5, 0.5])]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        one = N.zermelo_general(F, v, origin, y)
        got = nav(xs, ys)
    assert one == pytest.approx(F(origin, y), rel=1e-15)
    assert got[0] == pytest.approx(one, rel=1e-15)
    assert got[1] == pytest.approx(N.zermelo_general(F, v, [0.3, -0.2], y), rel=1e-15)
    notes = []
    rec = dc.Replay(nav.func, notes.append)
    assert rec(origin, y).hex() == nav(origin, y).hex()
    assert rec.out is not None and notes[0].startswith("compiled ")


@pytest.mark.parametrize("n", [0, -1])
def test_travel_time_needs_a_positive_interval_count(euclid_ball, rotation, n):
    seg = lambda t: ([0.5 * t - 0.25, 0.0], [0.5, 0.0])
    with pytest.raises(ValueError, match=f"n={n}"):
        N.travel_time(euclid_ball.finsler(), rotation, seg, 0.0, 1.0, n=n)


def test_travel_time_of_a_stationary_curve_is_zero(euclid_ball, rotation):
    still = lambda t: ([0.1, 0.0], [0.0, 0.0])
    assert N.travel_time(euclid_ball.finsler(), rotation, still, 0.0, 1.0, n=16) == 0.0


def test_travel_time_combined_force_path(euclid_ball, rotation):
    # drive the object with a fixed unit internal force; the elapsed time
    # equals the deformed-metric length of the swept path
    u = np.array([0.8, 0.6])
    dt = 1e-3
    steps = 600  # stay well inside the disk over the driven stretch
    xs = [np.array([0.1, 0.0])]
    for _ in range(steps):
        c = xs[-1]

        def vel(p):
            return np.array(rotation(list(p))) + u

        k1 = vel(c)
        k2 = vel(c + dt / 2 * k1)
        k3 = vel(c + dt / 2 * k2)
        k4 = vel(c + dt * k3)
        xs.append(c + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4))
    path = np.array(xs)

    def curve(t):
        k = min(int(t / dt), len(path) - 2)
        frac = t / dt - k
        pos = path[k] * (1 - frac) + path[k + 1] * frac
        return pos, np.array(rotation(list(pos))) + u

    T = N.travel_time(euclid_ball.finsler(), rotation, curve, 0.0, steps * dt, n=256)
    assert T == pytest.approx(steps * dt, abs=1e-6)


def test_travel_time_blows_up_toward_boundary(euclid_ball, radial):
    F = euclid_ball.finsler()
    times = []
    for r_end in (0.5, 0.9, 0.99, 0.999):
        seg = lambda t, r=r_end: ([t * r, 0.0], [r, 0.0])
        times.append(N.travel_time(F, radial, seg, 0.0, 1.0, n=512))
    assert all(t2 > t1 for t1, t2 in zip(times, times[1:]))
    assert times[-1] > 5.0  # grows without bound as the endpoint nears the rim


def test_navigation_metric_object(euclid_ball, rotation):
    nav = N.navigation_metric(euclid_ball.finsler(), rotation)
    x = [0.3, 0.4]
    rd = N.zermelo_riemannian(euclid_ball, rotation)
    assert nav(x, [1.0, 1.0]) == pytest.approx(float(rd.finsler()(x, [1.0, 1.0])), abs=1e-10)
    # a unit vector of the deformed metric lands on the source indicatrix
    # after subtracting the drift
    d = [0.6, -0.8]
    ft = nav(x, d)
    vx = rotation(x)
    shifted = [d[0] / ft - vx[0], d[1] / ft - vx[1]]
    assert float(euclid_ball.finsler()(x, shifted)) == pytest.approx(1.0, abs=1e-12)


def test_drift_too_strong_rejected(euclid_ball):
    strong = N.DriftField(euclid_ball.domain, lambda x: [1.5, 0.0], name="gale")
    with pytest.raises(DriftError):
        N.zermelo_general(euclid_ball.finsler(), strong, [0.0, 0.0], [1.0, 0.0])
    with pytest.raises(DriftError):
        N.zermelo_riemannian(euclid_ball, strong)


def test_the_drift_check_takes_one_array_pass_and_names_the_first_failing_point(euclid_ball):
    # alpha(v) = 2 |x1| >= 1 at some of the 16 sample points only
    half = N.DriftField(euclid_ball.domain, lambda x: [2.0 * x[0], 0.0], name="half")
    first = next(p for p in euclid_ball.domain.sample_points(16, seed=3) if abs(2.0 * p[0]) >= 1.0)
    calls = []
    alpha = dataclasses.replace(euclid_ball, matrix=lambda x: calls.append(1) or euclid_ball.matrix(x))
    with pytest.raises(DriftError) as err:
        N.zermelo_riemannian(alpha, half)
    assert str(err.value) == f"alpha(v) >= 1 at {tuple(float(c) for c in first)}"
    assert len(calls) == 1
    calls.clear()
    N.zermelo_riemannian(alpha, N.DriftField(euclid_ball.domain, lambda x: [0.4 * x[0], 0.0]))
    assert len(calls) == 1


def test_every_navigation_path_rejects_a_too_strong_drift(euclid_ball):
    F = euclid_ball.finsler()
    strong = N.DriftField(euclid_ball.domain, lambda x: [1.5, 0.0], name="gale")
    with pytest.raises(DriftError):
        N.volume_preservation_check(F, strong, [0.0, 0.0], n_samples=20_000)
    with pytest.raises(DriftError):
        N.indicatrix_shift_check(F, strong, [0.0, 0.0], n_dirs=8)
    with pytest.raises(DriftError):
        N.travel_time(F, strong, lambda t: ([0.1 * t, 0.0], [0.1, 0.0]), 0.0, 1.0, n=8)
    with pytest.raises(DriftError):
        N.navigation_metric(F, strong)([np.zeros(3), np.zeros(3)], [np.ones(3), np.zeros(3)])


def _recorded_solves(monkeypatch):
    solves = []
    real = N._scales

    def recording(F, v, x, y):
        t = real(F, v, x, y)
        solves.append(([np.asarray(c) for c in x], [np.asarray(c) for c in y], t))
        return t

    monkeypatch.setattr(N, "_scales", recording)
    return solves


def test_travel_time_solves_all_nodes_at_once(monkeypatch, euclid_ball, rotation):
    closed = N.zermelo_riemannian(euclid_ball, rotation).finsler()
    solves = _recorded_solves(monkeypatch)
    arc = lambda t: ([0.5 * math.cos(t), 0.5 * math.sin(t)], [-math.sin(t) + 0.2, math.cos(t)])
    T = N.travel_time(euclid_ball.finsler(), rotation, arc, 0.0, 2.0, n=32)
    assert len(solves) == 1
    xs, ys, t = solves[0]
    assert t.shape == (33,) and len(np.unique(xs[0])) == 33
    expect = np.asarray(closed(xs, ys), dtype=float)
    np.testing.assert_allclose(1.0 / t, expect, rtol=1e-10)
    h = 2.0 / 32
    simpson = h / 3.0 * (expect[0] + expect[-1] + 4.0 * expect[1:-1:2].sum() + 2.0 * expect[2:-1:2].sum())
    assert T == pytest.approx(simpson, rel=1e-10)


def test_indicatrix_shift_solves_all_directions_at_once(monkeypatch, euclid_ball, rotation):
    closed = N.zermelo_riemannian(euclid_ball, rotation).finsler()
    solves = _recorded_solves(monkeypatch)
    assert N.indicatrix_shift_check(euclid_ball.finsler(), rotation, [0.3, -0.4], n_dirs=16) <= 1e-10
    assert len(solves) == 1
    xs, ys, t = solves[0]
    assert t.shape == (16,)
    np.testing.assert_allclose(1.0 / t, np.asarray(closed(xs, ys), dtype=float), rtol=1e-10)


def test_indicatrix_shift_propagates_nan(monkeypatch, euclid_ball, rotation):
    real = N._scales

    def one_nan(F, v, x, y):
        t = real(F, v, x, y).copy()
        t[3] = np.nan
        return t

    monkeypatch.setattr(N, "_scales", one_nan)
    assert math.isnan(N.indicatrix_shift_check(euclid_ball.finsler(), rotation, [0.3, -0.4], n_dirs=8))


# -- Newton's method on the navigation scale ---------------------------------------

MINKOWSKI_EPS = 0.3
# fixed before measuring: the 50-digit roots leave only the float solve's error
ORACLE_RTOL = 1e-13


def _mp_navigation(x, y, v):
    """F~(x, y) of the minkowski(n, 0.3) source, whose norm does not depend on
    x: 1/t for the root of Phi(t y - v) = 1, bracketed by mpmath in (0, t0]
    with t0 = (1 + Phi(v)) / Phi(y) and solved at 50 digits."""
    with mp.workdps(50):
        eps = mp.mpf(MINKOWSKI_EPS)

        def phi(z):
            q2 = mp.fsum(c * c for c in z)
            return mp.sqrt(q2 + eps * mp.fsum(c**4 for c in z) / q2)

        Y, V = [mp.mpf(c) for c in y], [mp.mpf(c) for c in v]
        t0 = (1 + phi(V)) / phi(Y)
        psi = lambda t: phi([t * a - b for a, b in zip(Y, V)]) - 1
        return 1 / mp.findroot(psi, (mp.mpf(0), t0), solver="illinois")


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("drift", [N.radial_drift, N.rotation_drift])
def test_the_solve_matches_a_50_digit_root_of_a_non_riemannian_source(n, drift):
    # no closed form: F~ of a quartic Minkowski norm (with v = -x the Funk
    # metric of its unit ball) against mpmath at sites with Phi(-v) up to 0.95
    F = minkowski(n, MINKOWSKI_EPS).metric
    v = drift(F.domain)
    rng = np.random.default_rng([n, 13])
    sites, dirs = [], []
    for target in (0.1, 0.3, 0.6, 0.9, 0.95):
        for _ in range(3):
            u = rng.normal(size=n).tolist()
            scale = target / float(F(u, [-c for c in v(u)]))
            sites.append([scale * c for c in u])
            dirs.append(rng.normal(size=n).tolist())
    expect = [_mp_navigation(x, y, v(x)) for x, y in zip(sites, dirs)]
    assert max(float(F(x, [-c for c in v(x)])) for x in sites) == pytest.approx(0.95, abs=1e-12)
    one = [N.zermelo_general(F, v, x, y) for x, y in zip(sites, dirs)]
    cols = N.navigation_metric(F, v)([np.array(c) for c in zip(*sites)], [np.array(c) for c in zip(*dirs)])
    for got in (one, list(cols)):
        gaps = [float(abs(g - e) / e) for g, e in zip(got, expect)]
        assert max(gaps) <= ORACLE_RTOL


def test_a_solve_takes_a_few_jet_passes(monkeypatch):
    # one pass per Newton step; bisection took ~57 psi evaluations a root
    passes = count_jet_passes(monkeypatch)
    rng = np.random.default_rng(21)
    for n in (2, 3):
        dom = ball_domain(n)
        for F in (euclidean_alpha(n, dom).finsler(), minkowski(n, MINKOWSKI_EPS).metric):
            for drift in (N.radial_drift(dom), N.rotation_drift(dom)):
                xs = [list(0.8 * rng.uniform(-1.0, 1.0, n) / math.sqrt(n)) for _ in range(8)]
                ys = [list(rng.normal(size=n)) for _ in range(8)]
                for x, y in zip(xs, ys):
                    passes.clear()
                    N.zermelo_general(F, drift, x, y)
                    assert 2 <= len(passes) <= 8
                passes.clear()
                N.navigation_metric(F, drift)([np.array(c) for c in zip(*xs)], [np.array(c) for c in zip(*ys)])
                assert 2 <= len(passes) <= 8  # the sites step together


def test_the_one_site_path_is_recorded_and_replays_bit_for_bit(euclid_ball, rotation):
    nav = N.navigation_metric(euclid_ball.finsler(), rotation)
    notes = []
    rec = dc.Replay(nav.func, notes.append)
    rng = np.random.default_rng(4)
    x0, y0 = np.array([0.3, -0.2]), np.array([0.6, 0.5])
    for _ in range(60):
        x, y = (x0 + rng.uniform(-0.01, 0.01, 2)).tolist(), (y0 + rng.uniform(-0.01, 0.01, 2)).tolist()
        got, direct = rec(x, y), nav(x, y)
        assert type(got) is float and got.hex() == direct.hex()
    assert rec.recordable and rec.out is not None
    assert not [m for m in notes if m.startswith("not recorded")]
    # a replay falls back where a site needs another step count: rare this close
    assert notes.count("guard failed, stage evaluated directly") <= 6


def _nan_at(site, F):
    """F with NaN values at the base point `site` only, on floats and columns."""
    def func(x, y):
        at_site = np.logical_and.reduce([np.asarray(a) == b for a, b in zip(x, site)])
        return F(x, y) * np.where(at_site, np.nan, 1.0)

    return FinslerField(F.domain, func, name="nan-at-site")


@pytest.mark.parametrize("source", ["euclidean", "minkowski"])
def test_a_nan_source_never_gives_a_finite_value(source):
    F = euclidean_alpha(2, whole_space_domain(2)).finsler() if source == "euclidean" else minkowski(2).metric
    bad = [0.2, 0.1]
    G, v = _nan_at(bad, F), N.rotation_drift(F.domain)
    for solve in (lambda x, y: N.zermelo_general(G, v, x, y), N.navigation_metric(G, v)):
        try:
            assert math.isnan(solve(bad, [0.6, -0.3]))
        except ConvergenceError:
            pass
    xs = [np.array([0.3, 0.2, -0.1]), np.array([0.0, 0.1, 0.4])]
    ys = [np.array([0.5, 0.6, 0.1]), np.array([1.0, -0.3, 0.2])]
    try:
        got = N.navigation_metric(G, v)(xs, ys)
    except ConvergenceError:
        return
    assert math.isnan(got[1])
    for i in (0, 2):
        one = N.zermelo_general(F, v, [xs[0][i], xs[1][i]], [ys[0][i], ys[1][i]])
        assert got[i] == pytest.approx(one, rel=1e-15)


def test_a_nan_drift_never_gives_a_finite_value(euclid_ball):
    F = euclid_ball.finsler()
    v = N.DriftField(euclid_ball.domain, lambda x: [x[0] * math.nan, 0.0 * x[1]], name="nan")
    assert math.isnan(N.zermelo_general(F, v, [0.1, 0.2], [0.3, 0.4]))
    xs, ys = [np.array([0.1, 0.2]), np.array([0.0, 0.3])], [np.array([0.3, 1.0]), np.array([0.4, 0.0])]
    got = N.navigation_metric(F, v)(xs, ys)
    assert np.isnan(got).all()
