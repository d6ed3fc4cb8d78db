"""Identity-verification battery for gallery metrics.

Runs every check applicable to a metric (homogeneity, positive definiteness,
spray cross-oracles, curvature and S-curvature identities, torsion bounds,
volume checks) with seeded sampling and produces a machine-readable report.
CHECKS lists every check id with its claim and default tolerance; the entry
supplies its spray, density (the S checks need one) and tolerance overrides;
six check groups yield the residuals of the checks that apply.  Each check
evaluates all its sites in one array pass and carries the claim it certifies,
the sample count, seed, tolerance, and the worst residual observed; it passes
only on a finite residual within tolerance.
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
    randers_density,
    randers_s_curvature,
    s_curvature,
    s_curvature_dynamic,
    s_zero_criterion,
)
from .metrics import metric_entries
from .spray import geodesic_integrate, projective_residual, spray_from_metric

log = logging.getLogger("finslerkit")

# every battery check in report order: check id -> (claim, default tolerance);
# a claim is %-formatted with the check's detail
CHECKS = {
    "f_homogeneity": ("F(x, t y) = t F(x, y) for t > 0", 1e-12),
    "euler_identity": ("y^i dF/dy^i = F", 1e-12),
    "g_recovers_f2": ("g_y(y, y) = F(x, y)^2", 1e-10),
    "g_zero_homogeneity": ("g_{t y} = g_y for t > 0", 1e-10),
    "spray_homogeneity": ("G^i(x, t y) = t^2 G^i(x, y)", 1e-10),
    "spray_cross_oracle": ("closed-form and metric-derived sprays agree", 1e-8),
    "riemann_zero": ("R^i_k = 0 at sampled (x, y)", 1e-7),
    "flag_constant": ("flag curvature equals %(constant)s", 1e-6),
    "ricci_2d_agrees": ("two-dimensional trace shortcut equals tr R", 1e-7),
    "s_zero": ("S(x, y) = 0 at sampled (x, y)", 1e-8),
    "s_three_way_closed": ("local-formula S equals closed-form S", 1e-8),
    "s_three_way_dynamic": ("distortion-rate S equals closed-form S", 1e-6),
    "s_zero_criterion": ("r_ij + b_i s_j + b_j s_i = 0", 1e-10),
    "k0_residuals": ("rational and 1/alpha curvature blocks vanish", 1e-7),
    "ricci_trace_conditions": ("traced curvature and both Ricci-vanishing conditions are zero", 1e-7),
    "cartan_bound": ("||C|| <= 3/sqrt(2) sqrt(1 - sqrt(1 - ||beta||^2))", 1e-9),
    "cartan_second_bound": ("||C~|| <= 13.5 ||beta||", 1e-9),
    "cartan_second_profile": ("||C~|| equals the closed-form angle-profile maximum", 1e-6),
    "volume_closed_vs_mc": ("closed-form density matches Monte-Carlo estimate", 1e-2),
    "projective_flat": ("G^i y^j - G^j y^i = 0 (straight-line geodesics in the chart)", 1e-8),
    "projective_nonflat": ("chart projective residual exceeds 1e-3 somewhere (not projectively flat)", 0.0),
    "geodesic_speed": ("F(dx/dt) is constant along geodesics", 1e-6),
}

# the small-sample checks run on max(MIN_POINTS, points // 10) of the sites
MIN_POINTS = 10


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


class _Battery:
    """What every check group reads: the metric, its spray and the seeded
    sites; the small-sample checks use the first n_small sites, as the
    column arrays x and y."""

    def __init__(self, entry: GalleryEntry, points: int, seed: int):
        self.entry, self.points, self.seed = entry, points, seed
        self.F, self.rd, self.ref = entry.metric, entry.randers, entry.reference
        self.G = entry.spray
        self.n_small = max(MIN_POINTS, points // 10)
        self.pts, self.dirs = _sample_sites(entry, points, seed)
        self.x, self.y = _cols(self.pts[: self.n_small]), _cols(self.dirs[: self.n_small])

    def at_sites(self, entries, m: int | None = None) -> np.ndarray:
        return values_array(entries, sites=(m or self.n_small,))


# Each check group yields (check_id, n_samples, residual[, detail]) for the
# checks of CHECKS that apply to the battery's metric.


def _homogeneity(f, y, degree: int, axis):
    """f(y) and the worst relative gap |f(t y) - t^degree f(y)| over
    t in (0.5, 2, 7), reduced over `axis`."""
    v = f(y)
    scale = 1.0 + np.max(np.abs(v), axis=axis)
    gaps = [np.max(np.abs(f([t * c for c in y]) - t**degree * v), axis=axis) / scale for t in (0.5, 2.0, 7.0)]
    return v, _worst(*gaps)


def _metric_checks(b: _Battery):
    base = M.check_metric(b.F, n_points=min(b.points, 100), seed=b.seed)
    yield "f_homogeneity", base["n_points"], base["homogeneity"]
    yield "euler_identity", base["n_points"], base["euler"]
    yield "g_recovers_f2", base["n_points"], base["g_recovers_F2"]
    _, res = _homogeneity(lambda y: b.at_sites(metric_entries(b.F, b.x, y)), b.y, 0, (0, 1))
    yield "g_zero_homogeneity", b.n_small, res
    gv, res = _homogeneity(lambda y: b.at_sites(b.G(b.x, y)), b.y, 2, 0)
    yield "spray_homogeneity", b.n_small, res
    if b.rd is not None:
        gg = b.at_sites(spray_from_metric(b.F)(b.x, b.y))
        res = np.max(np.abs(gv - gg), axis=0) / (1.0 + np.max(np.abs(gg), axis=0))
        yield "spray_cross_oracle", b.n_small, _worst(res)


def _curvature_checks(b: _Battery):
    K = b.ref.flag_curvature
    if K == 0.0:
        yield "riemann_zero", len(b.pts), max_riemann_residual(b.G, b.pts, b.dirs)
    if K is not None:
        m = min(b.points, 100)
        flags = np.random.default_rng([b.seed, 0xF2]).normal(size=(m, b.entry.dim))
        res = max_flag_deviation(b.F, b.G, b.pts[:m], b.dirs[:m], flags, K)
        yield "flag_constant", m, res, {"constant": K}
    if b.entry.dim == 2:
        r_full = np.trace(b.at_sites(riemann_entries(b.G, b.x, b.y)))
        r_2d = ricci_2d(b.G, b.x, b.y)
        yield "ricci_2d_agrees", b.n_small, _worst(np.abs(r_full - r_2d) / (1.0 + np.abs(r_full)))


def _s_checks(b: _Battery):
    sigma = b.entry.density
    if sigma is not None and b.ref.s_curvature == 0.0:
        yield "s_zero", len(b.pts), max_s_residual(b.G, sigma, b.pts, b.dirs)
    if b.rd is None:
        return
    m = max(5, b.n_small // 2)
    xm, ym = _cols(b.pts[:m]), _cols(b.dirs[:m])
    s_cf = randers_s_curvature(b.rd, xm, ym)
    s_gen = s_curvature(b.G, sigma, xm, ym)
    s_dyn = s_curvature_dynamic(b.F, sigma, xm, ym, G=b.G)
    scale = 1.0 + np.abs(s_cf)
    yield "s_three_way_closed", m, _worst(np.abs(s_gen - s_cf) / scale)
    yield "s_three_way_dynamic", m, _worst(np.abs(s_dyn - s_cf) / scale)
    if b.ref.s_curvature != 0.0:
        return
    yield "s_zero_criterion", b.n_small, _worst(np.abs(s_zero_criterion(b.rd, b.x)))
    if b.ref.flag_curvature == 0.0:
        out = k0_residuals(b.rd, b.x, b.y)
        res_a, res_b = _worst(np.abs(out.residual_a)), _worst(np.abs(out.residual_b))
        yield "k0_residuals", b.n_small, _worst(res_a, res_b), {"residual_a": res_a, "residual_b": res_b}
        rt = randers_ricci_trace(b.rd, b.x, b.y)
        res = _worst(np.abs(rt.value), np.abs(rt.trace_condition), np.abs(rt.ricci_bar_condition))
        yield "ricci_trace_conditions", b.n_small, res


def _torsion_checks(b: _Battery):
    if b.rd is None:
        return
    m = max(3, b.n_small // 3)
    xt = _cols(b.pts[:m])
    nb = b.at_sites(M.beta_norm(b.rd, xt), m)
    cn = M.cartan_norm(b.F, xt, samples=1024, seed=b.seed)
    c2n = M.cartan_second_norm(b.F, xt, samples=1024, seed=b.seed)
    bound_c = 3.0 / math.sqrt(2.0) * np.sqrt(1.0 - np.sqrt(1.0 - nb * nb))
    bound_c2 = 13.5 * nb
    # detail reports the last site
    detail = {"cartan_norm": float(cn[-1]), "cartan_bound": float(bound_c[-1]),
              "cartan_second_norm": float(c2n[-1]), "cartan_second_bound": float(bound_c2[-1])}
    yield "cartan_bound", m, _worst(cn - bound_c, 0.0), detail
    yield "cartan_second_bound", m, _worst(c2n - bound_c2, 0.0), detail
    if b.ref.cartan2_profile is not None:
        est = M.cartan_second_norm(b.F, [0.0] * b.entry.dim, samples=4096, seed=b.seed)
        target = float(np.max(np.abs(b.ref.cartan2_profile(np.linspace(0.0, 2.0 * math.pi, 200_001)))))
        yield "cartan_second_profile", 4096, abs(est - target), {"estimate": est, "profile_max": target}


def _volume_checks(b: _Battery):
    if b.rd is None:
        return
    x0 = list(b.pts[0])
    mc = bh_density_mc(b.F, x0, n_samples=200_000, seed=b.seed)
    closed = randers_density(b.rd, x0)
    gap = abs(mc.value - closed) / max(abs(closed), 1e-300)
    yield "volume_closed_vs_mc", mc.n_samples, gap, {"mc": mc.value, "mc_stderr": mc.stderr, "closed_form": closed}


def _geodesic_checks(b: _Battery):
    flat = b.ref.projectively_flat
    if flat is not None:
        observed = _worst(np.abs(projective_residual(b.G, b.x, b.y)))
        if flat:
            yield "projective_flat", b.n_small, observed
        else:
            yield "projective_nonflat", b.n_small, _worst(0.0, 1e-3 - observed), {"observed_max": observed}
    x0, y0 = list(b.pts[0]), list(b.dirs[0] * 0.5)
    traj = geodesic_integrate(b.G, x0, y0, T=0.5, dt=2e-3, speed_check=b.F, speed_rtol=0.5)
    drift = float(np.max(np.abs(traj.speed - traj.speed[0])) / abs(traj.speed[0]))
    yield "geodesic_speed", len(traj.t), drift


_GROUPS = (_metric_checks, _curvature_checks, _s_checks, _torsion_checks, _volume_checks, _geodesic_checks)


def _tolerances(entry: GalleryEntry, tol_overrides: dict) -> dict:
    """The tolerance of every check: the CHECKS default, then the entry's
    tolerances, then the overrides; an unknown override id raises ValueError."""
    unknown = sorted(set(tol_overrides) - set(CHECKS))
    if unknown:
        raise ValueError(f"unknown check id(s) {', '.join(unknown)}; known: {', '.join(sorted(CHECKS))}")
    tols = {check_id: tol for check_id, (_, tol) in CHECKS.items()}
    return {**tols, **entry.reference.tolerances, **tol_overrides}


def run_verification(
    entry: GalleryEntry,
    points: int = 200,
    seed: int = 42,
    tol_overrides: dict | None = None,
) -> VerificationReport:
    """Run every check of CHECKS that applies to `entry` on `points` seeded
    sites; `tol_overrides` maps check ids to tolerances."""
    if points < MIN_POINTS:
        raise ValueError(f"verify needs at least {MIN_POINTS} points, got {points}")
    tols = _tolerances(entry, tol_overrides or {})
    battery = _Battery(entry, points, seed)
    found = {}
    for group in _GROUPS:
        for check_id, n_samples, residual, *detail in group(battery):
            detail = detail[0] if detail else {}
            tol = tols[check_id]
            found[check_id] = CheckResult(
                check_id=check_id,
                claim=CHECKS[check_id][0] % detail,
                n_samples=n_samples,
                seed=seed,
                max_residual=float(residual),
                tolerance=tol,
                passed=bool(math.isfinite(residual) and residual <= tol),
                detail=detail,
            )
    checks = [found[check_id] for check_id in CHECKS if check_id in found]
    return VerificationReport(
        metric=entry.name,
        params=entry.params,
        seed=seed,
        points=points,
        checks=checks,
        passed=all(c.passed for c in checks),
    )
