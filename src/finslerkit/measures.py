"""Volume densities, distortion and the S-curvature.

Three independent S-curvature routes are provided: the local formula from
the spray and the volume density, the dynamic definition (rate of change of
distortion along a short geodesic), and the Randers closed form.  They are
cross-checked in tests; only differentiable density sources are accepted by
the local formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from . import _linalg
from .diffcore import derivative_blocks, directional_derivatives, log, sqrt, value, values_array
from .errors import MetricError
from .metrics import FinslerField, RandersData, RiemannianField, metric_entries, require_nonzero
from .spray import SprayField, beta_table, geodesic_integrate

# Radial quadrature: 2k trapezoid nodes in the azimuth and k Gauss nodes on
# every further polar axis; the error estimate is the same rule at k/2.  Above
# n = 5 the product rule would pass QUAD_MAX_NODES, and k shrinks to fit.
QUAD_K_2D = 32
QUAD_K = 16
QUAD_MAX_NODES = 2**17

# Monte Carlo samples drawn and evaluated per pass; the generator yields the
# same stream in any chunking, so this bounds memory without moving estimates.
MC_CHUNK = 25_000


@dataclass(frozen=True)
class VolumeDensity:
    """Chart density sigma(x) of a volume form sigma(x) dx^1 ... dx^n; the
    method "monte-carlo" declares a sampled, non-differentiable density."""

    sigma: Callable
    method: str

    def __call__(self, x):
        return self.sigma(x)

    @property
    def differentiable(self) -> bool:
        return self.method != "monte-carlo"


@dataclass
class QuadDensity:
    """Radial-quadrature density with the gap to the same rule at half order."""

    value: float
    error: float


@dataclass
class McDensity:
    """Monte-Carlo density estimate with its standard error."""

    value: float
    stderr: float
    n_samples: int
    seed: int


def unit_ball_volume(n: int) -> float:
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)


def _det_generic(a):
    """Determinant of a small list-matrix of generic scalars (PD assumed)."""
    L = _linalg.cholesky(a)
    return _linalg.det_from_cholesky(L)


def randers_density(randers: RandersData, x) -> float:
    """sigma_F(x) = (1 - ||beta||^2)^{(n+1)/2} sqrt(det a)."""
    return float(value(_randers_sigma(randers, x)))


def _randers_sigma(randers: RandersData, x):
    n = randers.dim
    a = randers.alpha.matrix(x)
    b = randers.beta.covector(x)
    a_inv, det = _linalg.spd_factor(a)
    beta2 = _linalg.quad_form(a_inv, b, b)
    return sqrt(1.0 - beta2) ** (n + 1) * sqrt(det)


def randers_density_field(randers: RandersData) -> VolumeDensity:
    return VolumeDensity(
        sigma=lambda x: _randers_sigma(randers, x), method="closed-form-randers"
    )


def riemannian_density_field(alpha: RiemannianField) -> VolumeDensity:
    return VolumeDensity(
        sigma=lambda x: sqrt(_det_generic(alpha.matrix(x))), method="riemannian-det"
    )


def constant_density_field(c: float = 1.0) -> VolumeDensity:
    return VolumeDensity(sigma=lambda x: c, method="constant")


# -- Busemann-Hausdorff density by radial quadrature ----------------------------


@lru_cache(maxsize=None)
def _sphere_rule(n: int, k: int):
    """Nodes (n, m) and weights (m,) of a product rule on S^{n-1}.

    The azimuth takes the trapezoid rule with 2k nodes; the polar axis t of
    S^{j-1}, j = 3..n, carries the weight (1 - t^2)^{(j-3)/2} and k Gauss
    nodes: Gauss-Legendre times the factor for an integer power,
    Chebyshev-U times (1 - t^2)^{(j-4)/2} for a half-integer one.
    """
    phi = np.pi * np.arange(2 * k) / k
    dirs = np.stack([np.cos(phi), np.sin(phi)])
    w = np.full(2 * k, np.pi / k)
    for j in range(3, n + 1):
        if j % 2:
            t, wt = np.polynomial.legendre.leggauss(k)
        else:
            a = np.pi * np.arange(1, k + 1) / (k + 1)
            t, wt = np.cos(a), np.pi / (k + 1) * np.sin(a) ** 2
        wt = wt * (1.0 - t * t) ** ((j - 3) // 2)
        s = np.sqrt(1.0 - t * t)
        dirs = np.vstack([(s[:, None] * dirs[:, None, :]).reshape(j - 1, -1), np.repeat(t, w.size)])
        w = np.outer(wt, w).ravel()
    dirs.flags.writeable = w.flags.writeable = False  # shared by every caller
    return dirs, w


def bh_density(F: FinslerField, x) -> QuadDensity:
    """Busemann-Hausdorff density sigma_F(x) = Vol(B^n) / Vol{F(x, .) < 1}
    by radial quadrature: Vol{F(x, .) < 1} = (1/n) int_{S^{n-1}} F(x, u)^{-n} du.

    F is evaluated once, on column arrays of the nodes of the rule and of
    its half-order companion; `error` is the gap between the two.  Raises
    MetricError where F is not positive and finite at a node.
    """
    n = F.dim
    k = QUAD_K_2D if n == 2 else QUAD_K
    while k > 2 and 2 * k ** (n - 1) > QUAD_MAX_NODES:
        k -= 2
    (dirs, w), (dirs_half, w_half) = _sphere_rule(n, k), _sphere_rule(n, k // 2)
    m = w.size + w_half.size
    fv = np.asarray(F([np.full(m, float(c)) for c in x], list(np.hstack([dirs, dirs_half]))), dtype=float)
    if not np.all(np.isfinite(fv) & (fv > 0.0)):
        raise MetricError("F is not positive and finite on every ray: no bounded indicatrix")
    r = fv ** -n
    full, half = n * unit_ball_volume(n) / np.array([w @ r[: w.size], w_half @ r[w.size :]])
    return QuadDensity(value=float(full), error=float(abs(full - half)))


# -- Monte Carlo Busemann-Hausdorff density ------------------------------------


def _indicatrix_box(F: FinslerField, x):
    """Axis-aligned box covering {F(x, .) < 1} from sampled boundary points.

    Boundary points are d / F(x, d) over 2048 directions d; the box is the
    componentwise hull, inflated by 10% for safety.  Raises MetricError if F
    fails to be positive on some sampled ray (unbounded indicatrix).
    """
    n, n_dirs = F.dim, 2048
    rng = np.random.default_rng([11, n_dirs])
    dirs = rng.normal(size=(n_dirs, n))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    ys = [dirs[:, i] for i in range(n)]
    xs = [np.full(n_dirs, float(v)) for v in x]
    fvals = np.asarray(F(xs, ys), dtype=float)
    if not np.all(np.isfinite(fvals)):
        raise MetricError("F is not finite on a sampled ray")
    if np.any(fvals <= 1e-14):
        raise MetricError("indicatrix is unbounded: F vanishes on a sampled ray")
    pts = dirs / fvals[:, None]
    if float(np.max(np.abs(pts))) > 1e4:
        raise MetricError("indicatrix is unbounded (or too eccentric to box)")
    lo = pts.min(axis=0) * 1.10
    hi = pts.max(axis=0) * 1.10
    return lo, hi


def bh_density_mc(F: FinslerField, x, n_samples: int = 1_000_000, seed: int = 0) -> McDensity:
    """Busemann-Hausdorff density sigma_F(x) = Vol(B^n) / Vol{F(x, .) < 1}
    by seeded Monte Carlo over a bounding box of the indicatrix.

    Estimates are deterministic per seed.
    """
    if n_samples < 10_000:
        raise ValueError("n_samples must be at least 1e4")
    n = F.dim
    lo, hi = _indicatrix_box(F, x)
    box_vol = float(np.prod(hi - lo))
    rng = np.random.default_rng([seed, 0xB11])
    hits = 0
    done = 0
    while done < n_samples:
        m = min(MC_CHUNK, n_samples - done)
        pts = rng.uniform(lo, hi, size=(m, n))
        fv = np.asarray(F([np.full(m, float(v)) for v in x], list(pts.T)), dtype=float)
        if not np.all(np.isfinite(fv)):
            raise MetricError("F is not finite at a Monte Carlo sample")
        hits += int(np.count_nonzero(fv < 1.0))
        done += m
    p = hits / n_samples
    vol = box_vol * p
    if vol <= 0.0:
        raise MetricError("Monte Carlo indicatrix volume estimate is zero")
    se_vol = box_vol * math.sqrt(max(p * (1.0 - p), 1e-300) / n_samples)
    sigma = unit_ball_volume(n) / vol
    return McDensity(
        value=sigma, stderr=sigma * se_vol / vol, n_samples=n_samples, seed=seed
    )


# -- distortion and S-curvature -------------------------------------------------


def distortion(F: FinslerField, sigma: VolumeDensity, x, y):
    """mu(x, y) = ln( sqrt(det g(x, y)) / sigma(x) ); raises MetricError
    where g is not positive definite."""
    require_nonzero(y)
    det = value(_det_generic(metric_entries(F, x, y)))
    return 0.5 * log(det) - log(value(sigma(x)))


def s_curvature(G: SprayField, sigma: VolumeDensity, x, y) -> float:
    """S(x, y) = dG^i/dy^i - y^i d/dx^i [ ln sigma(x) ].

    Rejects a density declared sampled ("monte-carlo"), so sampling noise is
    never presented as curvature.  Column arrays of sites give an array of
    values.
    """
    if not sigma.differentiable:
        raise MetricError(f"density method {sigma.method!r} is not differentiable")
    G_at = G.at(list(x))
    dGdy, _ = derivative_blocks(lambda _, ys: G_at(ys), x, y, "y")
    div = 0.0
    for i in range(len(y)):
        div = div + value(dGdy[i][i])
    res = directional_derivatives(lambda xs, ys: log(sigma(xs)), x, y, x_dirs=[(list(y), 1)])
    return div - value(res.partial([1]))


def s_curvature_dynamic(
    F: FinslerField,
    sigma: VolumeDensity,
    x,
    y,
    dt: float = 5e-4,
    G: Optional[SprayField] = None,
) -> float:
    """S as the t-derivative of the distortion along the geodesic through (x, y):
    central difference of mu(c'(t)) at t = 0 with a short Runge-Kutta arc.
    Column arrays of sites are integrated as one geodesic ensemble per
    direction of time and give an array of values."""
    from .spray import spray_from_metric

    if G is None:
        G = spray_from_metric(F)
    sub = 8
    x0, y0 = np.asarray(x, dtype=float).T, np.asarray(y, dtype=float).T
    fwd = geodesic_integrate(G, x0, y0, dt, dt / sub)
    bwd = geodesic_integrate(G, x0, y0, -dt, dt / sub)
    mu_f = distortion(F, sigma, list(fwd.x[-1].T), list(fwd.v[-1].T))
    mu_b = distortion(F, sigma, list(bwd.x[-1].T), list(bwd.v[-1].T))
    return (mu_f - mu_b) / (2.0 * dt)


@dataclass
class RhoGradient:
    """rho = ln sqrt(1 - ||beta||^2) and its gradient rho_i = -b^j b_{j|i} / (1 - ||beta||^2).

    Column arrays of sites give arrays: `grad` is then (n, m)."""

    value: float
    grad: np.ndarray


def rho_gradient(randers: RandersData, x) -> RhoGradient:
    return _rho_from_table(beta_table(randers, x, order=1))


def _rho_from_table(tbl) -> RhoGradient:
    n = len(tbl.b)
    b_up = _linalg.matvec(tbl.a_inv, tbl.b)
    beta2 = _linalg.sum_prod(tbl.b, b_up)
    denom = 1.0 - value(beta2)
    if np.any(denom <= 0.0):
        raise MetricError("||beta|| >= 1: invalid Randers data")
    grad = values_array(
        [-sum(b_up[j] * tbl.b_cov[j][i] for j in range(n)) for i in range(n)],
        sites=np.shape(denom),
    ) / denom
    return RhoGradient(value=0.5 * log(denom), grad=grad)


def randers_s_curvature(randers: RandersData, x, y):
    """Closed form S = (n+1) { P - rho_0 } with P = (r_00 - 2 alpha s_0)/(2F);
    an array of values over column arrays of sites."""
    n = randers.dim
    tbl = beta_table(randers, x, order=1)
    c = tbl.contract(y)
    alpha = sqrt(value(c.alpha2))
    beta_v = value(_linalg.sum_prod(tbl.b, y))
    P = (value(c.r00) - 2.0 * alpha * value(c.s0)) / (2.0 * (alpha + beta_v))
    rho = _rho_from_table(tbl)
    rho0 = _linalg.sum_prod(list(rho.grad), y)
    return (n + 1) * (P - rho0)


def s_zero_criterion(randers: RandersData, x) -> np.ndarray:
    """Symmetric residual r_ij + b_i s_j + b_j s_i; zero iff S = 0 at x.

    An (n, n) array at one point, (n, n, m) over column arrays of m sites."""
    return beta_table(randers, x, order=1).s_zero_residual()
