"""The batched verification battery against per-site loops.

`run_verification` evaluates every sampled-site check in one array pass.  The
reference here recomputes each of those residuals the slow way, one site at a
time through the public single-site functions, and the two must agree within
1e-3 of the check's tolerance (exactly when the tolerance is 0).
"""

import math

import numpy as np
import pytest

from finslerkit import curvature as C
from finslerkit import diffcore as dc
from finslerkit import gallery
from finslerkit import measures as ME
from finslerkit import metrics as M
from finslerkit import spray as S
from finslerkit.verify import _sample_sites, run_verification

from conftest import GALLERY_SPECS

POINTS = 20
SEED = 5


def reference_residuals(entry, points, seed):
    """Residual of every batched check, from per-site loops."""
    ref, F, rd = entry.reference, entry.metric, entry.randers
    G = entry.spray
    n_small = max(10, points // 10)
    pts, dirs = _sample_sites(entry, points, seed)
    small = [(list(x), list(y)) for x, y in zip(pts[:n_small], dirs[:n_small])]
    out = {}

    m = min(points, 100)
    rng = np.random.default_rng([seed, 0xA1])
    hom = euler = recover = 0.0
    for x, y in zip(F.domain.sample_points(m, seed), rng.normal(size=(m, entry.dim))):
        x, y = list(x), list(y / np.linalg.norm(y))
        f1 = float(F(x, y))
        for lam in (0.5, 2.0, 7.0):
            hom = max(hom, abs(float(F(x, [lam * v for v in y])) - lam * f1) / abs(f1))
        d = dc.directional_derivatives(F.func, x, y, y_dirs=[(y, 1)]).partial([1])
        euler = max(euler, abs(float(d) - f1) / abs(f1))
        recover = max(recover, abs(M.fundamental_tensor(F, x, y).inner(y, y) - f1 * f1) / (f1 * f1))
    out.update(f_homogeneity=hom, euler_identity=euler, g_recovers_f2=recover)

    out["g_zero_homogeneity"] = max(
        float(np.max(np.abs(M.fundamental_tensor(F, x, [lam * v for v in y]).g - g1)))
        / (1.0 + np.max(np.abs(g1)))
        for x, y in small
        for g1 in [M.fundamental_tensor(F, x, y).g]
        for lam in (0.5, 2.0, 7.0)
    )
    spray_at = lambda H, x, y: np.array([float(v) for v in H(x, y)])
    out["spray_homogeneity"] = max(
        float(np.max(np.abs(spray_at(G, x, [lam * v for v in y]) - lam * lam * gv)))
        / (1.0 + np.max(np.abs(gv)))
        for x, y in small
        for gv in [spray_at(G, x, y)]
        for lam in (0.5, 2.0, 7.0)
    )
    if rd is not None:
        Gg = S.spray_from_metric(F)
        out["spray_cross_oracle"] = max(
            float(np.max(np.abs(a - b))) / (1.0 + np.max(np.abs(b)))
            for x, y in small
            for a, b in [(spray_at(G, x, y), spray_at(Gg, x, y))]
        )

    every = [(list(x), list(y)) for x, y in zip(pts, dirs)]
    if ref.flag_curvature == 0.0:
        out["riemann_zero"] = max(float(np.max(np.abs(C.riemann(G, x, y).matrix))) for x, y in every)
    if ref.flag_curvature is not None:
        flags = np.random.default_rng([seed, 0xF2]).normal(size=(m, entry.dim))
        out["flag_constant"] = max(
            abs(C.flag_curvature(F, x, y, list(u), G=G) - ref.flag_curvature)
            for (x, y), u in zip(every[:m], flags)
        )
    if entry.dim == 2:
        out["ricci_2d_agrees"] = max(
            abs(r - C.ricci_2d(G, x, y)) / (1.0 + abs(r))
            for x, y in small
            for r in [C.riemann(G, x, y).ricci]
        )

    sigma = entry.density
    if sigma is not None and ref.s_curvature == 0.0:
        out["s_zero"] = max(abs(ME.s_curvature(G, sigma, x, y)) for x, y in every)

    if rd is not None:
        closed = dynamic = 0.0
        for x, y in small[: max(5, n_small // 2)]:
            s_cf = ME.randers_s_curvature(rd, x, y)
            s_dyn = ME.s_curvature_dynamic(F, sigma, x, y, dt=5e-4, G=G)
            closed = max(closed, abs(ME.s_curvature(G, sigma, x, y) - s_cf) / (1.0 + abs(s_cf)))
            dynamic = max(dynamic, abs(s_dyn - s_cf) / (1.0 + abs(s_cf)))
        out.update(s_three_way_closed=closed, s_three_way_dynamic=dynamic)
        if ref.s_curvature == 0.0:
            out["s_zero_criterion"] = max(
                float(np.max(np.abs(ME.s_zero_criterion(rd, x)))) for x, _ in small
            )
        if ref.s_curvature == 0.0 and ref.flag_curvature == 0.0:
            k0 = [C.k0_residuals(rd, x, y) for x, y in small]
            out["k0_residuals"] = max(
                float(np.max(np.abs(np.concatenate([o.residual_a, o.residual_b])))) for o in k0
            )
            traces = [C.randers_ricci_trace(rd, x, y) for x, y in small]
            out["ricci_trace_conditions"] = max(
                max(abs(t.value), abs(t.trace_condition), abs(t.ricci_bar_condition)) for t in traces
            )
        res_c = res_c2 = 0.0
        for x, _ in small[: max(3, n_small // 3)]:
            nb = M.beta_norm(rd, x)
            bound_c = 3.0 / math.sqrt(2.0) * math.sqrt(1.0 - math.sqrt(1.0 - nb * nb))
            res_c = max(res_c, M.cartan_norm(F, x, samples=1024, seed=seed) - bound_c)
            res_c2 = max(res_c2, M.cartan_second_norm(F, x, samples=1024, seed=seed) - 13.5 * nb)
        out.update(cartan_bound=res_c, cartan_second_bound=res_c2)

    if ref.projectively_flat is not None:
        observed = max(float(np.max(np.abs(S.projective_residual(G, x, y)))) for x, y in small)
        if ref.projectively_flat:
            out["projective_flat"] = observed
        else:
            out["projective_nonflat"] = max(0.0, 1e-3 - observed)
    return out


@pytest.mark.parametrize("name,params", GALLERY_SPECS, ids=[s[0] for s in GALLERY_SPECS])
def test_batched_residuals_match_per_site_loops(name, params):
    entry = gallery.make(name, **params)
    report = run_verification(entry, points=POINTS, seed=SEED)
    expected = reference_residuals(entry, POINTS, SEED)
    checks = {c.check_id: c for c in report.checks}
    assert set(expected) <= set(checks)
    for check_id, want in expected.items():
        check = checks[check_id]
        got = check.max_residual
        if check.tolerance == 0.0:
            assert got == want, check_id
        else:
            assert abs(got - want) <= 1e-3 * check.tolerance, (check_id, got, want)
