"""Fundamental tensor, Cartan torsions and torsion norms."""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.optimize

from finslerkit import _linalg
from finslerkit import diffcore as dc
from finslerkit import gallery
from finslerkit import metrics as M
from finslerkit.errors import MetricError

from conftest import GALLERY_SPECS, RANDERS_SPECS, sample_sites, squared
from fd_oracle import fd_partials


@pytest.fixture(scope="module")
def slab05():
    return gallery.slab_kappa(0.5)


def euclid_field(n=2):
    dom = M.whole_space_domain(n)
    return M.FinslerField(dom, lambda x, y: dc.sqrt(sum(v * v for v in y)), name="euclid")


# -- fundamental tensor ---------------------------------------------------------


def test_euclidean_g_is_identity():
    F = euclid_field(2)
    g = M.fundamental_tensor(F, [0.0, 0.0], [0.3, -0.8])
    np.testing.assert_allclose(g.g, np.eye(2), atol=1e-14)
    np.testing.assert_allclose(g.g_inv, np.eye(2), atol=1e-14)
    assert g.det == pytest.approx(1.0, abs=1e-14)


def test_randers_with_zero_form_reduces_to_riemannian(rotation2d):
    alpha = rotation2d.randers.alpha
    rd = M.RandersData(alpha, M.zero_one_form(alpha.domain))
    x = [0.2, -0.4]
    a = alpha.value(x)
    for y in ([1.0, 0.0], [0.3, 0.7], [-1.0, 2.0]):
        g = M.fundamental_tensor(rd.finsler(), x, y)
        np.testing.assert_allclose(g.g, a, atol=1e-12)


def test_slab_g_determinant_matches_fd_oracle(slab05):
    F = slab05.metric
    x, y = (0.0, 0.0), (1.0, 0.0)
    g = M.fundamental_tensor(F, list(x), list(y))
    F2 = squared(F)
    g_fd = np.empty((2, 2))
    for i in range(2):
        for j in range(2):
            oy = [0, 0]
            oy[i] += 1
            oy[j] += 1
            g_fd[i, j] = 0.5 * fd_partials(F2, x, y, (0, 0), oy, step=1e-3)[(0, 0), tuple(oy)]
    assert np.linalg.det(g_fd) == pytest.approx(g.det, abs=1e-8)


@pytest.mark.parametrize("name", [name for name, _ in GALLERY_SPECS])
def test_fundamental_tensor_inverse_and_determinant(entries, name):
    entry = entries[name]
    pts, dirs = sample_sites(entry, 3, seed=31)
    for x, y in zip(pts, dirs):
        g = M.fundamental_tensor(entry.metric, list(x), list(y))
        np.testing.assert_allclose(g.g_inv @ g.g, np.eye(entry.dim), rtol=0.0, atol=1e-13)
        assert g.det == pytest.approx(np.linalg.det(g.g), rel=1e-13)


def test_non_positive_definite_rejected():
    # a form with norm > 1 destroys positive definiteness opposite the drift
    dom = M.whole_space_domain(2)
    F = M.FinslerField(dom, lambda x, y: dc.sqrt(y[0] * y[0] + y[1] * y[1]) + 1.2 * y[0])
    with pytest.raises(MetricError):
        M.fundamental_tensor(F, [0.0, 0.0], [-1.0, 0.3])


def test_zero_vector_rejected():
    F = euclid_field(2)
    with pytest.raises(MetricError):
        M.fundamental_tensor(F, [0.0, 0.0], [0.0, 0.0])


# -- Cartan torsions --------------------------------------------------------------


def test_cartan_vanishes_for_riemannian(rotation2d):
    alpha_f = rotation2d.randers.alpha.finsler()
    val = M.cartan_first(alpha_f, [0.2, 0.3], [1.0, 0.4], [1.0, 2.0], [0.3, -1.0], [2.0, 0.5])
    assert abs(val) <= 1e-10


def test_cartan_with_pole_argument_vanishes(slab05):
    y = [1.0, 0.7]
    val = M.cartan_first(slab05.metric, [0.0, 0.0], y, [1.0, 2.0], [0.3, -1.0], y)
    assert abs(val) <= 1e-10


def test_cartan_nonzero_for_slab():
    # at y = e1 the diagonal value C(u, u, u) vanishes by the v -> -v
    # reflection symmetry, so probe a generic flag angle
    F = gallery.slab_kappa(0.3).metric
    y = [math.cos(1.0), math.sin(1.0)]
    g = M.fundamental_tensor(F, [0.0, 0.0], y)
    gy = g.g @ y
    u = np.array([-gy[1], gy[0]])
    u = u / math.sqrt(g.inner(u, u))
    assert abs(g.inner(y, u)) < 1e-14
    val = M.cartan_first(F, [0.0, 0.0], y, list(u), list(u), list(u))
    assert abs(val) > 1e-3


def test_cartan_second_pole_identity(slab05):
    x, y = [0.0, 0.0], [1.0, 0.7]
    u, v, w = [1.0, 2.0], [0.3, -1.0], [2.0, 0.5]
    c1 = M.cartan_first(slab05.metric, x, y, u, v, w)
    c2 = M.cartan_second(slab05.metric, x, y, u, v, w, y)
    assert c2 == pytest.approx(-c1, abs=1e-9)


def test_cartan_second_slab_profile_value():
    # angle profile of the kappa-slab at theta = 0 with the normalized
    # g-orthogonal edge: 6k(k+1)/(1+k) - 7.5k = -0.75 for k = 0.5
    k = 0.5
    F = gallery.slab_kappa(k).metric
    x, y = [0.0, 0.0], [1.0, 0.0]
    yperp = [0.0, (k + 1.0) / math.sqrt(1.0 + k)]
    val = M.cartan_second(F, x, y, yperp, yperp, yperp, yperp)
    fsq = float(F(x, y)) ** 2
    assert val / fsq == pytest.approx(-0.75, abs=1e-12)


def test_cartan_totally_symmetric(slab05):
    import itertools

    x, y = [0.0, 0.0], [0.8, 0.6]
    args = ([1.0, 0.3], [-0.2, 1.1], [0.5, -0.7])
    base = M.cartan_first(slab05.metric, x, y, *args)
    for perm in itertools.permutations(args):
        assert M.cartan_first(slab05.metric, x, y, *perm) == pytest.approx(base, abs=1e-10)


# -- torsion norms ------------------------------------------------------------------


def test_norms_vanish_for_riemannian():
    F = euclid_field(2)
    assert M.cartan_norm(F, [0.0, 0.0], samples=256) <= 1e-12
    assert M.cartan_second_norm(F, [0.0, 0.0], samples=256) <= 1e-12


def test_slab_second_norm_equals_profile_max():
    for k in (0.25, 0.5, 0.8):
        entry = gallery.slab_kappa(k)
        est = M.cartan_second_norm(entry.metric, [0.0, 0.0], samples=4096)
        prof = entry.reference.cartan2_profile
        opt = scipy.optimize.minimize_scalar(
            lambda t: -abs(prof(t)), bounds=(0.0, 2.0 * math.pi), method="bounded",
            options={"xatol": 1e-12},
        )
        assert est == pytest.approx(-opt.fun, abs=1e-6)
        assert est <= 13.5 * k + 1e-9


def test_slab_first_norm_bound():
    k = 0.6
    F = gallery.slab_kappa(k).metric
    est = M.cartan_norm(F, [0.0, 0.0], samples=4096)
    bound = 3.0 / math.sqrt(2.0) * math.sqrt(1.0 - math.sqrt(1.0 - k * k))
    assert est <= bound + 1e-9


def test_rotation_norm_below_absolute_bound(rotation2d):
    est = M.cartan_norm(rotation2d.metric, [0.3, 0.4], samples=2048)
    assert est <= 3.0 / math.sqrt(2.0)


@pytest.mark.parametrize("name,params", RANDERS_SPECS)
def test_torsion_bounds_across_gallery(name, params):
    entry = gallery.make(name, **params)
    pts = entry.metric.domain.sample_points(100, seed=23)
    for x in pts:
        nb = M.beta_norm(entry.randers, list(x))
        cn = M.cartan_norm(entry.metric, list(x), samples=256, seed=3)
        c2n = M.cartan_second_norm(entry.metric, list(x), samples=256, seed=3)
        assert cn <= 3.0 / math.sqrt(2.0) * math.sqrt(1.0 - math.sqrt(1.0 - nb * nb)) + 1e-9
        assert c2n <= 13.5 * nb + 1e-9


# -- the nested-tag route with golden section, against one jet and zoom rounds ---

EPS = np.finfo(float).eps


def _reference_ratio_2d(F, x, theta, second):
    y = [np.cos(theta), np.sin(theta)]
    g = M.metric_entries(F, x, y)
    u = [-(g[1][0] * y[0] + g[1][1] * y[1]), g[0][0] * y[0] + g[0][1] * y[1]]
    guu = _linalg.quad_form(g, u, u)
    fval = F(x, y)
    if second:
        return fval * fval * np.abs(M.cartan_second(F, x, y, u, u, u, u)) / (guu * guu)
    return fval * np.abs(M.cartan_first(F, x, y, u, u, u)) / guu**1.5


def _reference_golden_max(fun, a, b, tol=1e-10):
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    fc, fd = fun(c), fun(d)
    while np.any(abs(b - a) > tol):
        left = fc > fd  # the maximum lies in [a, d]
        a, b = np.where(left, a, c), np.where(left, d, b)
        probe = np.where(left, b - invphi * (b - a), a + invphi * (b - a))
        fp = fun(probe)
        c, fc, d, fd = (
            np.where(left, probe, d), np.where(left, fp, fd), np.where(left, c, probe), np.where(left, fc, fp)
        )
    return np.maximum(fc, fd)


def reference_torsion_norm(F, x, samples, seed, second):
    """||C|| (||C~|| when `second`) at column arrays x of m sites, from g
    and nested order-1 tags: 2-D takes g from the F^2 y-Hessian, u = g y
    rotated by a right angle, the torsion from nested tags and F evaluated
    apart, then a golden section on the bracket of the best grid angle;
    n >= 3 takes Gram-Schmidt in g and the nested-tag torsion on the same
    seeded samples as cartan_norm."""
    n, m = F.dim, len(x[0])
    if n == 2:
        thetas = np.linspace(0.0, 2.0 * math.pi, samples, endpoint=False)
        grid = [np.repeat(v, samples) for v in x]
        vals = _reference_ratio_2d(F, grid, np.tile(thetas, m), second)
        k = np.argmax(np.reshape(vals, (m, samples)), axis=-1)
        dt = 2.0 * math.pi / samples
        return _reference_golden_max(
            lambda t: _reference_ratio_2d(F, x, t, second), thetas[k] - dt, thetas[k] + dt
        )
    rng = np.random.default_rng([seed, 0xC2 if second else 0xC1])
    if n == 3:
        ys = M._fibonacci_sphere(samples)
    else:
        ys = rng.normal(size=(samples, n))
        ys /= np.linalg.norm(ys, axis=1)[:, None]
    us = rng.normal(size=(samples, n))
    cx = [np.repeat(v, samples) for v in x]
    cy = [np.tile(ys[:, i], m) for i in range(n)]
    cu = [np.tile(us[:, i], m) for i in range(n)]
    g = M.metric_entries(F, cx, cy)
    coef = _linalg.quad_form(g, cy, cu) / _linalg.quad_form(g, cy, cy)
    u = [cu[i] - coef * cy[i] for i in range(n)]
    guu = _linalg.quad_form(g, u, u)
    fval = F(cx, cy)
    if second:
        ratio = fval * fval * np.abs(M.cartan_second(F, cx, cy, u, u, u, u)) / (guu * guu)
    else:
        ratio = fval * np.abs(M.cartan_first(F, cx, cy, u, u, u)) / guu**1.5
    good = np.reshape(guu > 1e-14, (m, samples))
    return np.max(np.where(good, np.reshape(ratio, (m, samples)), -np.inf), axis=-1)


@pytest.mark.parametrize("name", [name for name, _ in GALLERY_SPECS])
def test_torsion_norms_match_the_reference_route(entries, name):
    """Both norms at 4 float sites (default samples) and at 12 column-array
    sites (1024 samples, as the battery and `finsler scan` take them) lie
    within 64 eps max(1, |reference|) of the reference route: they differ by
    rounding only."""
    F = entries[name].metric
    pts = F.domain.sample_points(12, seed=29)
    for second, norm in ((False, M.cartan_norm), (True, M.cartan_second_norm)):
        want = reference_torsion_norm(F, list(pts.T), 1024, 4, second)
        got = norm(F, list(pts.T), samples=1024, seed=4)
        assert np.all(np.abs(got - want) <= 64 * EPS * np.maximum(1.0, np.abs(want)))
        for x in pts[:4]:
            want = reference_torsion_norm(F, [np.array([v]) for v in x], 4096, 0, second)[0]
            got = norm(F, list(x))
            assert abs(got - want) <= 64 * EPS * max(1.0, abs(want))


def counting_field(entry):
    """The entry's metric, counting its evaluations."""
    calls = []

    def func(x, y):
        calls.append(1)
        return entry.metric.func(x, y)

    return M.FinslerField(entry.metric.domain, func, name=entry.name), calls


@pytest.mark.parametrize("norm", [M.cartan_norm, M.cartan_second_norm])
def test_2d_norm_takes_a_grid_and_at_most_8_zoom_passes_of_2_evaluations(monkeypatch, entries, norm):
    F, calls = counting_field(entries["slab"])
    passes = []
    best = M._best_flags

    def counted(*args):
        passes.append(1)
        return best(*args)

    monkeypatch.setattr(M, "_best_flags", counted)
    norm(F, [0.1, -0.2], samples=1024)
    assert 2 <= len(passes) <= 1 + 8
    # one order-1 jet along u0 for the Gram-Schmidt coefficient, then one jet along u
    assert len(calls) == 2 * len(passes)


@pytest.mark.parametrize("norm", [M.cartan_norm, M.cartan_second_norm])
def test_sampled_norm_takes_2_evaluations_per_slice(entries, norm):
    F, calls = counting_field(entries["cylinder"])
    x = list(F.domain.sample_points(5, seed=2).T)
    norm(F, x, samples=1024, seed=1)
    # slices of 4096 // 1024 = 4 sites: one order-1 jet along the sample for
    # the Gram-Schmidt coefficient, then one jet along u
    assert len(calls) == 2 * 2


@pytest.mark.parametrize("samples", [1, 2, 3, 4, 5, 6, 7, 8, 1024])
def test_refined_2d_norm_is_never_below_the_grid(entries, samples):
    grid = np.linspace(0.0, 2.0 * math.pi, samples, endpoint=False)
    y, u0 = [np.cos(grid), np.sin(grid)], [-np.sin(grid), np.cos(grid)]
    for name in ("minkowski", "funk", "slab"):
        F = entries[name].metric
        pts = F.domain.sample_points(4, seed=17)
        for second, norm in ((False, M.cartan_norm), (True, M.cartan_second_norm)):
            got = norm(F, list(pts.T), samples=samples)
            for s, x in enumerate(pts):
                floor = M._best_flags(F, list(x), y, u0, second)[0][0]
                assert got[s] >= floor
                assert norm(F, list(x), samples=samples) >= floor


# -- beta norm and validity -----------------------------------------------------------


def test_beta_norm_zero_cases(funk2):
    alpha = funk2.randers.alpha
    rd0 = M.RandersData(alpha, M.zero_one_form(alpha.domain))
    assert M.beta_norm(rd0, [0.1, 0.2]) == pytest.approx(0.0, abs=1e-14)
    # the radial drift vanishes at the center, so the form does too
    assert M.beta_norm(funk2.randers, [0.0, 0.0]) == pytest.approx(0.0, abs=1e-14)


def test_beta_norm_matches_direct_computation(rotation2d):
    x = [0.3, 0.4]
    tables = rotation2d.reference.tables(x)
    a_inv = np.linalg.inv(tables["a"])
    expect = math.sqrt(tables["b"] @ a_inv @ tables["b"])
    assert M.beta_norm(rotation2d.randers, x) == pytest.approx(expect, abs=1e-12)


def test_randers_field_is_alpha_plus_beta(rotation2d):
    rd = rotation2d.randers
    x, y = [0.2, -0.1], [0.7, 1.1]
    assert rd.finsler()(x, y) == rd.alpha.norm(x, y) + rd.beta.pairing(x, y)


# -- 0-homogeneity and recovery invariants ---------------------------------------------


@pytest.mark.parametrize("name,params", RANDERS_SPECS)
def test_g_zero_homogeneity_and_recovery(name, params):
    entry = gallery.make(name, **params)
    pts, dirs = sample_sites(entry, 20, seed=9)
    for x, y in zip(pts, dirs):
        g1 = M.fundamental_tensor(entry.metric, list(x), list(y))
        fv = float(entry.metric(list(x), list(y)))
        assert g1.inner(y, y) == pytest.approx(fv * fv, rel=1e-10)
        for lam in (0.5, 2.0):
            g2 = M.fundamental_tensor(entry.metric, list(x), list(lam * y))
            np.testing.assert_allclose(g2.g, g1.g, rtol=1e-10, atol=1e-12)


def test_domain_predicate_is_open_at_samples(entries):
    for entry in entries.values():
        pts = entry.metric.domain.sample_points(20, seed=31)
        rng = np.random.default_rng(4)
        for x in pts:
            for _ in range(4):
                bump = rng.normal(size=entry.dim)
                bump *= 1e-6 / np.linalg.norm(bump)
                assert entry.metric.domain.contains(x + bump)


def test_sampled_norm_without_usable_flags_raises():
    # g_y has rank one, so every u orthogonalized against y has g_y(u, u) = 0
    for n in (2, 3):
        F = M.FinslerField(M.whole_space_domain(n), lambda x, y: dc.sqrt(y[0] * y[0]))
        with pytest.raises(MetricError):
            M.cartan_norm(F, [0.0] * n, samples=64, seed=1)


@pytest.mark.parametrize("name,params,sites,samples,bound_mb", [
    ("minkowski", {"n": 2}, 144, 1024, 30.0),
    ("cylinder", {"n": 3}, 64, 1024, 15.0),
    ("minkowski", {"n": 2}, 2000, 16, 10.0),
], ids=["minkowski-params0-144-30.0", "cylinder-params1-64-15.0", "minkowski-zoom-2000-sites-16-samples"])
def test_torsion_grids_are_sliced_by_sites(name, params, sites, samples, bound_mb):
    # the whole sites x samples grid held ~150 MB (2-D) and ~50 MB (3-D) at
    # once; with 16 samples the zoom rounds (sites x 33 probes) are the larger
    # window, ~30 MB at once over 2000 sites
    entry = gallery.make(name, **params)
    pts = entry.metric.domain.sample_points(sites, seed=5)
    tracemalloc.start()
    try:
        M.cartan_second_norm(entry.metric, list(pts.T), samples=samples, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound_mb * 1e6


@pytest.mark.parametrize("name,params", [("rotation2d", {}), ("cylinder", {"n": 3})])
def test_torsion_norms_do_not_depend_on_the_slice_size(monkeypatch, name, params):
    entry = gallery.make(name, **params)
    x = list(entry.metric.domain.sample_points(7, seed=8).T)
    norms = []
    for chunk in (10**9, 1000, 1):
        monkeypatch.setattr(M, "TORSION_CHUNK", chunk)
        norms.append([f(entry.metric, x, samples=256, seed=2) for f in (M.cartan_norm, M.cartan_second_norm)])
    assert np.array(norms[0]).tobytes() == np.array(norms[1]).tobytes() == np.array(norms[2]).tobytes()


@pytest.mark.parametrize("norm", [M.cartan_norm, M.cartan_second_norm])
def test_torsion_norms_need_a_sample(norm, slab05):
    with pytest.raises(ValueError, match="at least 1 sample, got 0"):
        norm(slab05.metric, [0.0, 0.0], samples=0)
