"""Identity-verification battery for gallery metrics.

Runs every check applicable to a metric (homogeneity, positive definiteness,
spray cross-oracles, curvature and S-curvature identities, torsion bounds,
volume checks) with seeded sampling and produces a machine-readable report.
Each check evaluates all its sites in one array pass and carries the
mathematical claim it certifies, the sample count, seed, tolerance, and the
worst residual observed; it passes only on a finite residual within tolerance.
"""

from __future__ import annotations

import logging
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import metrics as M
from .curvature import (
    flag_curvatures,
    k0_residuals,
    randers_ricci_trace,
    ricci_2d,
    riemann_entries,
)
from .diffcore import values_array
from .errors import DegenerateFlagError
from .gallery import GalleryEntry
from .measures import (
    bh_density_mc,
    constant_density_field,
    randers_density,
    randers_density_field,
    randers_s_curvature,
    s_curvature,
    s_curvature_dynamic,
    s_zero_criterion,
)
from .metrics import metric_entries
from .spray import geodesic_integrate, projective_residual, randers_spray, spray_from_metric

log = logging.getLogger("finslerkit")


@dataclass
class CheckResult:
    check_id: str
    claim: str
    n_samples: int
    seed: int
    max_residual: float
    tolerance: float
    passed: bool
    detail: dict = field(default_factory=dict)


@dataclass
class VerificationReport:
    metric: str
    params: dict
    seed: int
    points: int
    checks: list
    passed: bool

    def to_dict(self) -> dict:
        return {
            "metric": self.metric,
            "params": self.params,
            "seed": self.seed,
            "points": self.points,
            "passed": self.passed,
            "checks": [asdict(c) for c in self.checks],
        }


def _sample_sites(entry: GalleryEntry, n: int, seed: int):
    pts = entry.metric.domain.sample_points(n, seed)
    rng = np.random.default_rng([seed, 0xF1])
    dirs = rng.normal(size=(n, entry.dim))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    return pts, dirs


def density_field(entry: GalleryEntry):
    """The differentiable volume density of a gallery entry, or None."""
    if entry.randers is not None:
        return randers_density_field(entry.randers)
    if entry.name == "minkowski":
        return constant_density_field(1.0)
    return None


def _cols(mat: np.ndarray) -> list:
    return [mat[:, i] for i in range(mat.shape[1])]


def _worst(*residuals) -> float:
    """The largest entry over all residual arrays: the one reduction every
    check uses.  A NaN anywhere makes the result NaN, so it cannot pass."""
    return float(np.max(np.concatenate([np.ravel(r) for r in residuals])))


def max_riemann_residual(G, pts: np.ndarray, dirs: np.ndarray) -> float:
    """max |R^i_k| over a batch of (x, y) sites, evaluated in one array pass."""
    return _worst(np.abs(values_array(riemann_entries(G, _cols(pts), _cols(dirs)))))


def max_flag_deviation(F, G, pts, dirs, flags, constant: float) -> float:
    """max |K(P, y) - constant| over a batch of flags (array pass).

    Degenerate flags are left out, and their count is logged at debug level;
    raises DegenerateFlagError when every flag is degenerate."""
    K, degenerate = flag_curvatures(F, G, _cols(pts), _cols(dirs), _cols(flags))
    log.debug("max_flag_deviation dropped %d of %d flags as degenerate", np.count_nonzero(degenerate), len(K))
    if np.all(degenerate):
        raise DegenerateFlagError(f"all {len(K)} sampled flags are degenerate")
    return _worst(np.abs(K[~degenerate] - constant))


def max_s_residual(G, sigma, pts, dirs) -> float:
    """max |S| via the local formula over a batch of (x, y) sites."""
    return _worst(np.abs(s_curvature(G, sigma, _cols(pts), _cols(dirs))))


def run_verification(
    entry: GalleryEntry,
    points: int = 200,
    seed: int = 42,
    tol_overrides: dict | None = None,
) -> VerificationReport:
    tols = {
        "f_homogeneity": 1e-12,
        "euler_identity": 1e-12,
        "g_recovers_f2": 1e-10,
        "g_zero_homogeneity": 1e-10,
        "spray_homogeneity": 1e-10,
        "spray_cross_oracle": 1e-8,
        "riemann_zero": 1e-7,
        "ricci_2d_agrees": 1e-7,
        "flag_constant": 1e-6,
        "s_zero": 1e-8,
        "s_three_way_closed": 1e-8,
        "s_three_way_dynamic": 1e-6,
        "s_zero_criterion": 1e-10,
        "k0_residuals": 1e-7,
        "ricci_trace_conditions": 1e-7,
        "cartan_bound": 1e-9,
        "cartan_second_bound": 1e-9,
        "cartan_second_profile": 1e-6,
        "volume_closed_vs_mc": 1e-2,
        "projective_flat": 1e-8,
        "projective_nonflat": 0.0,
        "geodesic_speed": 1e-6,
    }
    if entry.name == "funk":
        tols["flag_constant"] = 1e-7
    tol_overrides = tol_overrides or {}
    unknown = sorted(set(tol_overrides) - set(tols))
    if unknown:
        raise ValueError(f"unknown check id(s) {', '.join(unknown)}; known: {', '.join(sorted(tols))}")
    tols.update(tol_overrides)

    checks: list[CheckResult] = []
    ref = entry.reference
    F = entry.metric
    rd = entry.randers
    G = randers_spray(rd) if rd is not None else spray_from_metric(F)
    n_small = max(10, points // 10)
    pts, dirs = _sample_sites(entry, points, seed)
    # the small-sample checks run on the first n_small sites, as column arrays
    x, y = _cols(pts[:n_small]), _cols(dirs[:n_small])

    def at_sites(entries, m=n_small) -> np.ndarray:
        return values_array(entries, sites=(m,))

    def add(check_id, claim, n_samples, residual, detail=None):
        tol = tols[check_id]
        checks.append(
            CheckResult(
                check_id=check_id,
                claim=claim,
                n_samples=n_samples,
                seed=seed,
                max_residual=float(residual),
                tolerance=tol,
                passed=bool(math.isfinite(residual) and residual <= tol),
                detail=detail or {},
            )
        )

    # homogeneity / metric sanity ------------------------------------------
    base = M.check_metric(F, n_points=min(points, 100), seed=seed)
    add("f_homogeneity", "F(x, t y) = t F(x, y) for t > 0", base["n_points"], base["homogeneity"])
    add("euler_identity", "y^i dF/dy^i = F", base["n_points"], base["euler"])
    add("g_recovers_f2", "g_y(y, y) = F(x, y)^2", base["n_points"], base["g_recovers_F2"])

    g1 = at_sites(metric_entries(F, x, y))
    g_scale = 1.0 + np.max(np.abs(g1), axis=(0, 1))
    res = [
        np.max(np.abs(at_sites(metric_entries(F, x, [lam * c for c in y])) - g1), axis=(0, 1)) / g_scale
        for lam in (0.5, 2.0, 7.0)
    ]
    add("g_zero_homogeneity", "g_{t y} = g_y for t > 0", n_small, _worst(*res))

    gv = at_sites(G(x, y))
    gv_scale = 1.0 + np.max(np.abs(gv), axis=0)
    res = [
        np.max(np.abs(at_sites(G(x, [lam * c for c in y])) - lam * lam * gv), axis=0) / gv_scale
        for lam in (0.5, 2.0, 7.0)
    ]
    add("spray_homogeneity", "G^i(x, t y) = t^2 G^i(x, y)", n_small, _worst(*res))

    # spray cross-oracle ----------------------------------------------------
    if rd is not None:
        gg = at_sites(spray_from_metric(F)(x, y))
        res = np.max(np.abs(gv - gg), axis=0) / (1.0 + np.max(np.abs(gg), axis=0))
        add(
            "spray_cross_oracle",
            "closed-form and metric-derived sprays agree",
            n_small,
            _worst(res),
        )

    # curvature -------------------------------------------------------------
    if ref.flag_curvature is not None and ref.flag_curvature == 0.0:
        res = max_riemann_residual(G, pts, dirs)
        add("riemann_zero", "R^i_k = 0 at sampled (x, y)", len(pts), res)

    if ref.flag_curvature is not None:
        rng = np.random.default_rng([seed, 0xF2])
        m = min(points, 100)
        flags = rng.normal(size=(m, entry.dim))
        res = max_flag_deviation(F, G, pts[:m], dirs[:m], flags, ref.flag_curvature)
        add(
            "flag_constant",
            f"flag curvature equals {ref.flag_curvature}",
            m,
            res,
            detail={"constant": ref.flag_curvature},
        )

    if entry.dim == 2:
        r_full = np.trace(at_sites(riemann_entries(G, x, y)))
        r_2d = ricci_2d(G, x, y)
        res = np.abs(r_full - r_2d) / (1.0 + np.abs(r_full))
        add("ricci_2d_agrees", "two-dimensional trace shortcut equals tr R", n_small, _worst(res))

    # S-curvature -----------------------------------------------------------
    sigma = density_field(entry)
    if sigma is not None and ref.s_curvature == 0.0:
        res = max_s_residual(G, sigma, pts, dirs)
        add("s_zero", "S(x, y) = 0 at sampled (x, y)", len(pts), res)

    if rd is not None:
        m = max(5, n_small // 2)
        xm, ym = _cols(pts[:m]), _cols(dirs[:m])
        s_cf = randers_s_curvature(rd, xm, ym)
        s_gen = s_curvature(G, sigma, xm, ym)
        s_dyn = s_curvature_dynamic(F, sigma, xm, ym, dt=5e-4, G=G)
        scale = 1.0 + np.abs(s_cf)
        add(
            "s_three_way_closed",
            "local-formula S equals closed-form S",
            m,
            _worst(np.abs(s_gen - s_cf) / scale),
        )
        add(
            "s_three_way_dynamic",
            "distortion-rate S equals closed-form S",
            m,
            _worst(np.abs(s_dyn - s_cf) / scale),
        )

        if ref.s_curvature == 0.0:
            add(
                "s_zero_criterion",
                "r_ij + b_i s_j + b_j s_i = 0",
                n_small,
                _worst(np.abs(s_zero_criterion(rd, x))),
            )

        if ref.s_curvature == 0.0 and ref.flag_curvature == 0.0:
            out = k0_residuals(rd, x, y)
            res_a = _worst(np.abs(out.residual_a))
            res_b = _worst(np.abs(out.residual_b))
            add(
                "k0_residuals",
                "rational and 1/alpha curvature blocks vanish",
                n_small,
                _worst(res_a, res_b),
                detail={"residual_a": res_a, "residual_b": res_b},
            )
            rt = randers_ricci_trace(rd, x, y)
            add(
                "ricci_trace_conditions",
                "traced curvature and both Ricci-vanishing conditions are zero",
                n_small,
                _worst(np.abs(rt.value), np.abs(rt.trace_condition), np.abs(rt.ricci_bar_condition)),
            )

    # torsion bounds ---------------------------------------------------------
    if rd is not None:
        m = max(3, n_small // 3)
        xt = _cols(pts[:m])
        nb = at_sites(M.beta_norm(rd, xt), m)
        cn = M.cartan_norm(F, xt, samples=1024, seed=seed)
        c2n = M.cartan_second_norm(F, xt, samples=1024, seed=seed)
        bound_c = 3.0 / math.sqrt(2.0) * np.sqrt(1.0 - np.sqrt(1.0 - nb * nb))
        bound_c2 = 13.5 * nb
        # detail reports the last site
        detail = {"cartan_norm": float(cn[-1]), "cartan_bound": float(bound_c[-1]),
                  "cartan_second_norm": float(c2n[-1]), "cartan_second_bound": float(bound_c2[-1])}
        add(
            "cartan_bound",
            "||C|| <= 3/sqrt(2) sqrt(1 - sqrt(1 - ||beta||^2))",
            m,
            _worst(cn - bound_c, 0.0),
            detail=detail,
        )
        add(
            "cartan_second_bound",
            "||C~|| <= 13.5 ||beta||",
            m,
            _worst(c2n - bound_c2, 0.0),
            detail=detail,
        )
        if ref.cartan2_profile is not None:
            x0 = [0.0] * entry.dim
            est = M.cartan_second_norm(F, x0, samples=4096, seed=seed)
            grid = np.linspace(0.0, 2.0 * math.pi, 200_001)
            target = float(np.max(np.abs(ref.cartan2_profile(grid))))
            add(
                "cartan_second_profile",
                "||C~|| equals the closed-form angle-profile maximum",
                4096,
                abs(est - target),
                detail={"estimate": est, "profile_max": target},
            )

    # volume ------------------------------------------------------------------
    if rd is not None or ref.density is not None:
        x0 = list(pts[0])
        mc = bh_density_mc(F, x0, n_samples=200_000, seed=seed)
        closed = randers_density(rd, x0) if rd is not None else float(ref.density)
        gap = abs(mc.value - closed) / max(abs(closed), 1e-300)
        add(
            "volume_closed_vs_mc",
            "closed-form density matches Monte-Carlo estimate",
            mc.n_samples,
            gap,
            detail={"mc": mc.value, "mc_stderr": mc.stderr, "closed_form": closed},
        )

    # projective behaviour ------------------------------------------------------
    if ref.projectively_flat is not None:
        observed = _worst(np.abs(projective_residual(G, x, y)))
    if ref.projectively_flat is True:
        add(
            "projective_flat",
            "G^i y^j - G^j y^i = 0 (straight-line geodesics in the chart)",
            n_small,
            observed,
        )
    elif ref.projectively_flat is False:
        add(
            "projective_nonflat",
            "chart projective residual exceeds 1e-3 somewhere (not projectively flat)",
            n_small,
            _worst(0.0, 1e-3 - observed),
            detail={"observed_max": observed},
        )

    # geodesic speed conservation -------------------------------------------------
    x0, y0 = list(pts[0]), list(dirs[0] * 0.5)
    traj = geodesic_integrate(G, x0, y0, T=0.5, dt=2e-3, speed_check=F, speed_rtol=0.5)
    drift = float(np.max(np.abs(traj.speed - traj.speed[0])) / abs(traj.speed[0]))
    add(
        "geodesic_speed",
        "F(dx/dt) is constant along geodesics",
        len(traj.t),
        drift,
    )

    return VerificationReport(
        metric=entry.name,
        params=entry.params,
        seed=seed,
        points=points,
        checks=checks,
        passed=all(c.passed for c in checks),
    )
