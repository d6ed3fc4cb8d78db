"""Acceptance battery: one test per criterion, each printing a pass/fail line.

Criteria cover the headline claims (the two rotating examples have vanishing
flag curvature and S-curvature), the closed-form reference data, the torsion
bounds, volume preservation under the navigation transform, and every
cross-oracle pair, at their stated tolerances and sample counts.
"""

import math
import time

import numpy as np
import scipy.optimize

from finslerkit import curvature as C
from finslerkit import gallery
from finslerkit import measures as ME
from finslerkit import metrics as M
from finslerkit import navigation as N
from finslerkit import spray as S
from finslerkit.verify import (
    max_flag_deviation,
    max_riemann_residual,
    max_s_residual,
    run_verification,
)

from conftest import disk_sites, jet_partials, squared
from fd_oracle import fd_partials

SEED = 42


def report(num, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"{status}  criterion {num:02d}: {label}  {detail}")
    assert ok, f"criterion {num:02d} failed: {label} {detail}"


def test_criterion_01_rotation_disk_flat_and_s_free(rotation2d):
    t0 = time.monotonic()
    pts, dirs = disk_sites(200, SEED, radius=0.95, dim=2)
    G = S.randers_spray(rotation2d.randers)
    r_res = max_riemann_residual(G, pts, dirs)
    sigma = ME.randers_density_field(rotation2d.randers)
    s_res = max_s_residual(G, sigma, pts, dirs)
    elapsed = time.monotonic() - t0
    ok = r_res <= 1e-7 and s_res <= 1e-8 and elapsed < 10.0
    report(1, "rotating disk: R = 0 and S = 0 over 200 sites (r <= 0.95)", ok,
           f"max|R|={r_res:.2e} max|S|={s_res:.2e} {elapsed:.1f}s")


def test_criterion_02_rotating_cylinder_flat_and_s_free(cylinder3):
    t0 = time.monotonic()
    pts, dirs = disk_sites(200, SEED + 1, radius=0.95, dim=3, z_extent=1.0)
    G = S.randers_spray(cylinder3.randers)
    r_res = max_riemann_residual(G, pts, dirs)
    sigma = ME.randers_density_field(cylinder3.randers)
    s_res = max_s_residual(G, sigma, pts, dirs)
    # the closed-form spray has vanishing third component, so the third row
    # of the curvature matrix is exactly zero
    G_exact = S.SprayField(cylinder3.metric.domain, cylinder3.reference.spray)
    row3_exact = True
    for x, y in zip(pts[:20], dirs[:20]):
        R = C.riemann(G_exact, list(x), list(y))
        row3_exact = row3_exact and np.all(R.matrix[2] == 0.0)
    elapsed = time.monotonic() - t0
    ok = r_res <= 1e-7 and s_res <= 1e-8 and row3_exact and elapsed < 20.0
    report(2, "rotating cylinder: R = 0, S = 0, third curvature row exactly 0", ok,
           f"max|R|={r_res:.2e} max|S|={s_res:.2e} row3_exact={row3_exact} {elapsed:.1f}s")


def test_criterion_03_gauss_curvature_of_disk_alpha(rotation2d):
    alpha = rotation2d.randers.alpha
    pts, _ = disk_sites(50, SEED + 2, radius=0.9, dim=2)
    worst = 0.0
    for x in pts:
        got = C.gauss_curvature_riemannian(alpha, list(x))
        expect = rotation2d.reference.gauss_alpha(list(x))
        worst = max(worst, abs(got - expect) / abs(expect))
    report(3, "Gauss curvature of the disk alpha matches -(5+x^2+y^2)/(1-x^2-y^2)",
           worst <= 1e-8, f"worst rel={worst:.2e}")


def test_criterion_04_tensor_tables(rotation2d):
    pts, dirs = disk_sites(100, SEED + 3, radius=0.95, dim=2)
    G = S.randers_spray(rotation2d.randers)
    Glc = S.levi_civita_spray(rotation2d.randers.alpha)
    worst = 0.0

    def rel_gap(got, ref):
        got = np.asarray(got, dtype=float)
        ref = np.asarray(ref, dtype=float)
        return float(np.max(np.abs(got - ref) / (1.0 + np.abs(ref))))

    for x, y in zip(pts, dirs):
        tbl = S.beta_table(rotation2d.randers, list(x), order=1)
        ref = rotation2d.reference.tables(list(x))
        worst = max(worst, rel_gap(tbl.b, ref["b"]), rel_gap(tbl.r, ref["r"]),
                    rel_gap(tbl.s, ref["s"]), rel_gap(tbl.s_form, ref["s_form"]))
        got_g = [float(v) for v in G(list(x), list(y))]
        ref_g = [float(v) for v in rotation2d.reference.spray(list(x), list(y))]
        worst = max(worst, rel_gap(got_g, ref_g))
        got_lc = [float(v) for v in Glc(list(x), list(y))]
        ref_lc = [float(v) for v in rotation2d.reference.spray_alpha(list(x), list(y))]
        worst = max(worst, rel_gap(got_lc, ref_lc))
    report(4, "b, r, s, s_i, Levi-Civita and full sprays match closed forms (100 pts)",
           worst <= 1e-8, f"worst rel={worst:.2e}")


def test_criterion_05_funk_curvature_and_straight_geodesics(funk2):
    G = S.randers_spray(funk2.randers)
    pts, dirs = disk_sites(100, SEED + 4, radius=0.8, dim=2)
    rng = np.random.default_rng([SEED, 0xAC])
    flags = rng.normal(size=(100, 2))
    k_res = max_flag_deviation(funk2.metric, G, pts, dirs, flags, -0.25)
    worst_dev = 0.0
    for k in range(3):
        x0 = pts[k] * 0.3
        y0 = dirs[k]
        traj = S.geodesic_integrate(G, list(x0), list(y0), T=1.0, dt=1e-3)
        rel = traj.x - x0
        perp = np.array([-y0[1], y0[0]])
        worst_dev = max(worst_dev, float(np.max(np.abs(rel @ perp))))
    ok = k_res <= 1e-7 and worst_dev <= 1e-6
    report(5, "ball metric: K = -1/4 on 100 flags, geodesics straight to 1e-6", ok,
           f"max|K+1/4|={k_res:.2e} transverse={worst_dev:.2e}")


def test_criterion_06_projectively_flat_square_metric(entries):
    entry = entries["shen_flat"]
    G = S.spray_from_metric(entry.metric)
    pts, dirs = disk_sites(100, SEED + 5, radius=0.9, dim=2)
    rng = np.random.default_rng([SEED, 0xAD])
    flags = rng.normal(size=(100, 2))
    k_res = max_flag_deviation(entry.metric, G, pts, dirs, flags, 0.0)
    proj = 0.0
    for x, y in zip(pts, dirs):
        proj = max(proj, float(np.max(np.abs(S.projective_residual(G, list(x), list(y))))))
    ok = k_res <= 1e-6 and proj <= 1e-8
    report(6, "unit-ball square metric: K = 0 and projectively flat (100 flags, r <= 0.9)",
           ok, f"max|K|={k_res:.2e} proj={proj:.2e}")


def test_criterion_07_torsion_bounds_across_kappa():
    worst_profile = 0.0
    ok = True
    for kappa in np.arange(0.1, 0.95, 0.1):
        entry = gallery.slab_kappa(float(kappa))
        x0 = [0.0, 0.0]
        c2 = M.cartan_second_norm(entry.metric, x0, samples=4096, seed=SEED)
        prof = entry.reference.cartan2_profile
        opt = scipy.optimize.minimize_scalar(
            lambda t: -abs(prof(t)), bounds=(0.0, 2.0 * math.pi), method="bounded",
            options={"xatol": 1e-12},
        )
        worst_profile = max(worst_profile, abs(c2 - (-opt.fun)))
        ok = ok and abs(c2 - (-opt.fun)) <= 1e-6 and c2 <= 13.5 * kappa
        c1 = M.cartan_norm(entry.metric, x0, samples=4096, seed=SEED)
        bound = 3.0 / math.sqrt(2.0) * math.sqrt(1.0 - math.sqrt(1.0 - kappa * kappa))
        ok = ok and c1 <= bound + 1e-9
    report(7, "second-torsion norm equals its angle-profile max; both torsion bounds hold",
           ok, f"worst profile gap={worst_profile:.2e}")


def test_criterion_08_s_vanishing_and_route_agreement(entries):
    ok = True
    worst_crit = 0.0
    for name in ("rotation2d", "cylinder"):
        entry = entries[name]
        pts = entry.metric.domain.sample_points(50, SEED + 6)
        for x in pts:
            worst_crit = max(worst_crit, float(np.max(np.abs(
                ME.s_zero_criterion(entry.randers, list(x))))))
    ok = ok and worst_crit <= 1e-10
    worst_route = 0.0
    for name in ("euclidean", "funk", "rotation2d", "cylinder", "bao_shen_s3", "slab"):
        entry = entries[name]
        G = S.randers_spray(entry.randers)
        sigma = ME.randers_density_field(entry.randers)
        pts = entry.metric.domain.sample_points(10, SEED + 7)
        rng = np.random.default_rng([SEED, 0xAE])
        dirs = rng.normal(size=(10, entry.dim))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        for x, y in zip(pts, dirs):
            closed = ME.randers_s_curvature(entry.randers, list(x), list(y))
            local = ME.s_curvature(G, sigma, list(x), list(y))
            dyn = ME.s_curvature_dynamic(entry.metric, sigma, list(x), list(y), G=G)
            worst_route = max(worst_route, abs(local - closed), abs(dyn - closed))
    ok = ok and worst_route <= 1e-10
    report(8, "S = 0 pointwise criterion holds; the three S routes agree", ok,
           f"criterion={worst_crit:.2e} route gap={worst_route:.2e}")


def test_criterion_09_zero_curvature_residuals(rotation2d, cylinder3):
    worst_ab = 0.0
    worst_cond = 0.0
    for entry in (rotation2d, cylinder3):
        pts, dirs = disk_sites(50, SEED + 8, radius=0.9, dim=entry.dim,
                               z_extent=1.0 if entry.dim > 2 else 0.0)
        for x, y in zip(pts, dirs):
            out = C.k0_residuals(entry.randers, list(x), list(y))
            worst_ab = max(worst_ab, float(np.max(np.abs(out.residual_a))),
                           float(np.max(np.abs(out.residual_b))))
            rt = C.randers_ricci_trace(entry.randers, list(x), list(y))
            worst_cond = max(worst_cond, abs(rt.trace_condition), abs(rt.ricci_bar_condition))
    ok = worst_ab <= 1e-7 and worst_cond <= 1e-7
    report(9, "both zero-curvature blocks and both Ricci conditions vanish", ok,
           f"blocks={worst_ab:.2e} conditions={worst_cond:.2e}")


def test_criterion_10_volume_preservation():
    dom = M.ball_domain(2, name="accept-disk")
    alpha = gallery.euclidean_alpha(2, dom)
    rotation = N.DriftField(dom, lambda x: [-x[1], x[0]], name="rotation")
    radial = N.DriftField(dom, lambda x: [-x[0], -x[1]], name="radial")
    gap_rot = N.volume_preservation_check(alpha.finsler(), rotation, [0.3, 0.4],
                                          n_samples=1_000_000, seed=SEED)
    gap_rad = N.volume_preservation_check(alpha.finsler(), radial, [0.2, -0.5],
                                          n_samples=1_000_000, seed=SEED)
    rot2d = gallery.rotation2d()
    x0 = [0.25, -0.4]
    mc = ME.bh_density_mc(rot2d.metric, x0, n_samples=1_000_000, seed=SEED)
    closed = ME.randers_density(rot2d.randers, x0)
    closed_gap = abs(mc.value - closed) / closed
    ok = gap_rot.rel_gap <= 0.01 and gap_rad.rel_gap <= 0.01 and closed_gap <= 0.01
    report(10, "navigation preserves volume; closed-form density matches Monte Carlo",
           ok, f"rot={gap_rot.rel_gap:.2e} rad={gap_rad.rel_gap:.2e} closed={closed_gap:.2e}")


def test_criterion_11_cross_oracles(entries):
    # closed-form vs metric-derived sprays
    worst_spray = 0.0
    n_spray = 0
    for name in ("rotation2d", "funk", "cylinder"):
        entry = entries[name]
        Gr = S.randers_spray(entry.randers)
        Gg = S.spray_from_metric(entry.metric)
        pts = entry.metric.domain.sample_points(70, SEED + 9)
        rng = np.random.default_rng([SEED, 0xB0])
        dirs = rng.normal(size=(70, entry.dim))
        for x, y in zip(pts, dirs):
            a = np.array([float(v) for v in Gr(list(x), list(y))])
            b = np.array([float(v) for v in Gg(list(x), list(y))])
            worst_spray = max(worst_spray, float(np.max(np.abs(a - b)) / (1.0 + np.max(np.abs(b)))))
            n_spray += 1

    # curvature through the difference formula vs the direct formula
    worst_diff = 0.0
    n_diff = 0
    pairs = [
        (entries["funk"], S.spray_from_metric(entries["euclidean"].metric)),
        (entries["rotation2d"], S.levi_civita_spray(entries["rotation2d"].randers.alpha)),
    ]
    for entry, G_ref in pairs:
        G = S.randers_spray(entry.randers)
        pts = entry.metric.domain.sample_points(100, SEED + 10)
        rng = np.random.default_rng([SEED, 0xB1])
        dirs = rng.normal(size=(100, entry.dim))
        for x, y in zip(pts, dirs):
            via = C.riemann_via_difference(G, G_ref, list(x), list(y))
            direct = C.riemann(G, list(x), list(y))
            worst_diff = max(worst_diff, float(np.max(np.abs(via.matrix - direct.matrix))))
            n_diff += 1

    # two-dimensional Ricci shortcut vs the trace
    worst_2d = 0.0
    n_2d = 0
    for name in ("rotation2d", "funk"):
        entry = entries[name]
        G = S.randers_spray(entry.randers)
        pts = entry.metric.domain.sample_points(100, SEED + 11)
        rng = np.random.default_rng([SEED, 0xB2])
        dirs = rng.normal(size=(100, 2))
        for x, y in zip(pts, dirs):
            worst_2d = max(worst_2d, abs(
                C.ricci_2d(G, list(x), list(y)) - C.riemann(G, list(x), list(y)).ricci))
            n_2d += 1

    # jets vs the finite-difference oracle on downstream derivative orders
    worst_fd = 0.0
    n_fd = 0
    for name, entry in entries.items():
        pts = entry.metric.domain.sample_points(7, SEED + 12, shrink=0.5)
        rng = np.random.default_rng([SEED, 0xB3])
        dirs = rng.normal(size=(7, entry.dim))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        n = entry.dim
        order_sets = [((0,) * n, (2,) + (0,) * (n - 1)),
                      ((0,) * n, (4,) + (0,) * (n - 1)),
                      ((1,) + (0,) * (n - 1), (1,) + (0,) * (n - 1)),
                      ((2,) + (0,) * (n - 1), (0,) * n)]
        F2 = squared(entry.metric)
        for x, y in zip(pts, dirs):
            for ox, oy in order_sets:
                jv = jet_partials(F2, x, y, ox, oy)
                fv = fd_partials(F2, x, y, ox, oy)
                worst_fd = max(worst_fd, max(abs(jv[k] - fv[k]) for k in jv))
                n_fd += 1

    ok = (worst_spray <= 1e-8 and n_spray >= 200 and worst_diff <= 1e-7 and n_diff >= 200
          and worst_2d <= 1e-7 and n_2d >= 200 and worst_fd <= 1e-5 and n_fd >= 200)
    report(11, "all cross-oracles agree (sprays, curvature routes, trace shortcut, jets vs fd)",
           ok, f"spray={worst_spray:.2e} diff={worst_diff:.2e} 2d={worst_2d:.2e} fd={worst_fd:.2e}")


def test_criterion_12_rotating_sphere_unit_curvature(entries):
    # stretch goal on the derived chart: a failure here would implicate the
    # chart construction rather than the engine, hence the separate report
    entry = entries["bao_shen_s3"]
    G = S.randers_spray(entry.randers)
    pts, dirs = disk_sites(20, SEED + 13, radius=0.55, dim=3, z_extent=0.55)
    rng = np.random.default_rng([SEED, 0xB4])
    flags = rng.normal(size=(20, 3))
    k_res = max_flag_deviation(entry.metric, G, pts, dirs, flags, 1.0)
    report(12, "rotating sphere (derived chart): K = 1 on 20 flags", k_res <= 1e-6,
           f"max|K-1|={k_res:.2e}")


def test_criterion_13_full_verification_battery_under_budget(entries):
    t0 = time.monotonic()
    all_passed = True
    for entry in entries.values():
        rep = run_verification(entry, points=200, seed=SEED)
        all_passed = all_passed and rep.passed
    elapsed = time.monotonic() - t0
    ok = all_passed and elapsed < 120.0
    report(13, "full verification battery passes across the gallery in under 2 minutes",
           ok, f"{elapsed:.1f}s")
