"""Metric representations and the pointwise tensors built directly from F.

A Finsler metric is represented by its evaluable norm F(x, y) on the slit
tangent bundle of a single chart.  Riemannian metrics and Randers data
(alpha + beta) are structured special cases.  From F alone this module
computes the fundamental tensor g_y, the first and second Cartan torsions,
and sampled estimates of their pointwise norms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from . import _linalg
from .diffcore import derivative_blocks, directional_derivatives, sqrt, value, values_array
from .errors import DomainError, MetricError

# points of a sites x samples torsion grid evaluated in one array pass
TORSION_CHUNK = 4096


@dataclass(frozen=True)
class ChartDomain:
    """An open subset of R^n described by a predicate plus a sampling box."""

    dim: int
    contains: Callable[[Sequence[float]], bool]
    name: str
    sample_box: tuple = ()

    def require(self, x) -> None:
        if not self.contains(x):
            raise DomainError(f"point {tuple(float(v) for v in x)} outside domain {self.name}")

    def sample_points(self, n: int, seed: int, shrink: float = 1.0) -> np.ndarray:
        """Deterministic interior points, rejection-sampled from the box."""
        if not self.sample_box:
            raise ValueError(f"domain {self.name} has no sampling box")
        rng = np.random.default_rng([seed, 0xD0])
        lo = np.array([b[0] for b in self.sample_box])
        hi = np.array([b[1] for b in self.sample_box])
        mid = 0.5 * (lo + hi)
        lo = mid + shrink * (lo - mid)
        hi = mid + shrink * (hi - mid)
        out = []
        while len(out) < n:
            cand = rng.uniform(lo, hi, size=(4 * n, self.dim))
            for row in cand:
                if self.contains(row):
                    out.append(row)
                    if len(out) == n:
                        break
        return np.array(out)


def ball_domain(n: int, name: str = "") -> ChartDomain:
    """The open unit ball.  Its sampling box stays clear of the rim, where
    round-off is amplified by the metric blow-up."""
    r2 = (1.0 - 1e-9) ** 2
    return ChartDomain(
        dim=n,
        contains=lambda x: float(sum(v * v for v in x)) < r2,
        name=name or f"ball{n}(r=1.0)",
        sample_box=tuple((-0.62, 0.62) for _ in range(n)),
    )


def whole_space_domain(n: int) -> ChartDomain:
    return ChartDomain(
        dim=n,
        contains=lambda x: True,
        name=f"R^{n}",
        sample_box=tuple((-1.0, 1.0) for _ in range(n)),
    )


def cylinder_domain(n: int) -> ChartDomain:
    r2 = (1.0 - 1e-9) ** 2
    return ChartDomain(
        dim=n,
        contains=lambda x: float(x[0] * x[0] + x[1] * x[1]) < r2,
        name=f"cylinder{n}(r=1.0)",
        sample_box=((-0.62, 0.62), (-0.62, 0.62)) + tuple((-1.0, 1.0) for _ in range(n - 2)),
    )


@dataclass(frozen=True)
class FinslerField:
    """A Finsler metric as an evaluable scalar F(x, y), y != 0.

    The callable must be written with generic arithmetic (diffcore.sqrt and
    friends) so it also evaluates on jets and on arrays of batched points.
    A single-row geodesic records it once and replays it (diffcore.Replay):
    a value branch must compare the generic scalar rather than float() it,
    or the field is evaluated with jets at every stage.
    """

    domain: ChartDomain
    func: Callable
    name: str = "finsler"

    def __call__(self, x, y):
        return self.func(x, y)

    @property
    def dim(self) -> int:
        return self.domain.dim

    def squared(self, x, y):
        f = self.func(x, y)
        return f * f


@dataclass(frozen=True)
class RiemannianField:
    """Riemannian metric a_ij(x); the callable returns an n x n nested list."""

    domain: ChartDomain
    matrix: Callable
    name: str = "riemannian"

    @property
    def dim(self) -> int:
        return self.domain.dim

    def value(self, x) -> np.ndarray:
        return np.array(self.matrix(x), dtype=float)

    def norm(self, x, y):
        a = self.matrix(x)
        return sqrt(_linalg.quad_form(a, y, y))

    def finsler(self) -> FinslerField:
        return FinslerField(self.domain, lambda x, y: self.norm(x, y), name=self.name)


@dataclass(frozen=True)
class OneFormField:
    """A 1-form b_i(x); the callable returns a length-n list."""

    domain: ChartDomain
    covector: Callable
    name: str = "one-form"

    def value(self, x) -> np.ndarray:
        return np.array(self.covector(x), dtype=float)

    def pairing(self, x, y):
        b = self.covector(x)
        return _linalg.sum_prod(b, y)


def zero_one_form(domain: ChartDomain) -> OneFormField:
    n = domain.dim
    return OneFormField(domain, lambda x: [0.0] * n, name="zero")


@dataclass(frozen=True)
class RandersData:
    """Randers structure F = alpha + beta with ||beta||_alpha < 1."""

    alpha: RiemannianField
    beta: OneFormField
    name: str = "randers"

    @property
    def domain(self) -> ChartDomain:
        return self.alpha.domain

    @property
    def dim(self) -> int:
        return self.alpha.dim

    def __call__(self, x, y):
        return self.alpha.norm(x, y) + self.beta.pairing(x, y)

    @cached_property
    def field(self) -> FinslerField:
        return FinslerField(self.domain, self.__call__, name=self.name)

    def finsler(self) -> FinslerField:
        return self.field


def beta_norm(randers: RandersData, x):
    """||beta||_alpha(x) = sqrt(a^{ij} b_i b_j); must be < 1 for validity.

    A float at one chart point; an array when x holds column arrays of sites.
    """
    a = [[value(e) for e in row] for row in randers.alpha.matrix(x)]
    b = [value(e) for e in randers.beta.covector(x)]
    a_inv, _ = _linalg.spd_factor(a)
    return sqrt(np.maximum(_linalg.quad_form(a_inv, b, b), 0.0))


# -- fundamental tensor -----------------------------------------------------


@dataclass
class FundamentalTensor:
    """g_ij(x, y) = 1/2 d^2(F^2)/dy^i dy^j with its inverse and determinant."""

    g: np.ndarray
    g_inv: np.ndarray
    det: float

    def inner(self, u, v) -> float:
        return float(np.asarray(u) @ self.g @ np.asarray(v))


def metric_entries(F: FinslerField, x, y) -> list:
    """Entries of g as a nested list of generic scalars (jet-safe)."""
    _, hess = derivative_blocks(F.squared, x, y, "y", order=2)
    return [[e * 0.5 for e in row] for row in hess]


def require_nonzero(y) -> None:
    """Raise MetricError if y (or y at some site of column arrays) is zero."""
    if np.any(np.all([np.asarray(value(v)) == 0.0 for v in y], axis=0)):
        raise MetricError("tangent vector must be nonzero (slit tangent bundle)")


def fundamental_tensor(F: FinslerField, x, y) -> FundamentalTensor:
    """Fundamental tensor at (x, y); raises MetricError when not PD."""
    require_nonzero(y)
    g = metric_entries(F, x, y)
    g_inv, det = _linalg.spd_factor(g)
    return FundamentalTensor(g=values_array(g), g_inv=values_array(g_inv), det=float(value(det)))


# -- Cartan torsions ---------------------------------------------------------


def cartan_first(F: FinslerField, x, y, u, v, w):
    """First Cartan torsion C_y(u, v, w): quarter of the third y-derivative of F^2."""
    res = directional_derivatives(F.squared, x, y, y_dirs=[(u, 1), (v, 1), (w, 1)])
    return res.partial([1, 1, 1]) * 0.25


def cartan_second(F: FinslerField, x, y, u, v, w, z):
    """Second Cartan torsion C~_y(u, v, w, z): quarter of the fourth y-derivative."""
    res = directional_derivatives(F.squared, x, y, y_dirs=[(u, 1), (v, 1), (w, 1), (z, 1)])
    return res.partial([1, 1, 1, 1]) * 0.25


# -- torsion norms ------------------------------------------------------------
#
# The pointwise norms are suprema over flags {y, u} with g_y(y, u) = 0 of
# the ratios F |C(u, u, u)| / g_y(u, u)^(3/2) and F^2 |C~(u, u, u, u)| /
# g_y(u, u)^2, which are homogeneous of degree 0 in u.  Both y and u are
# search variables; u is a start edge u0 Gram-Schmidt orthogonalized against
# y in g_y.  In dimension 2 the orthogonal complement of y is a line, so the
# search is over the angle of y alone.  Every norm routine takes one chart
# point (floats) or column arrays of m sites, in which case all sites are
# searched in one array pass per run of sites and the norms come back as an
# array.

# equally spaced probes per zoom round, the centre included; odd, and
# 2 / (_ZOOM_PROBES - 1) is a power of 2, so every probe spacing is exact
_ZOOM_PROBES = 33


def _flag_ratio(F, x, y, u0, second):
    """The norm integrand at the flag {y, u} and g_y(u, u), u = u0 - c y
    g_y-orthogonal to y.  One order-1 jet of F^2 along u0 gives the
    coefficient c = g_y(y, u0) / g_y(y, y) = d_u0 F^2 / (2 F^2); one jet of
    F^2 along u then has value F^2, half its second derivative is g_y(u, u)
    and a quarter of its third (fourth) is the torsion."""
    res = directional_derivatives(F.squared, x, y, y_dirs=[(u0, 1)])
    coef = res.partial([1]) / (2.0 * res.value)
    u = [a - coef * b for a, b in zip(u0, y)]
    del res, coef  # not held through the order-3 (4) jet
    order = 4 if second else 3
    res = directional_derivatives(F.squared, x, y, y_dirs=[(u, order)])
    f2, guu = res.value, res.partial([2]) * 0.5
    val = np.abs(res.partial([order]) * 0.25)
    if second:
        return f2 * val / (guu * guu), guu
    return sqrt(f2) * val / guu**1.5, guu


def _best_flags(F, x, y, u0, second):
    """The largest integrand over the usable flags of each site, and its flag
    index, as arrays over the sites.  x holds one site (floats, which
    broadcast over the flags) or column arrays of m sites; y and u0 hold n
    arrays of k flags, shaped (k,) when every site takes the same flags or
    (m, k).  A flag is usable when g_y(u, u) > 1e-14.  The sites x flags
    grid is evaluated in one array pass per run of whole sites of at most
    TORSION_CHUNK points.  Raises MetricError at a site without a usable flag."""
    m, k = np.size(x[0]), np.shape(y[0])[-1]
    step = max(1, TORSION_CHUNK // k)  # sites per run, one at least
    best, index = [], []
    for s in (slice(i, i + step) for i in range(0, m, step)):
        if np.shape(x[0]):  # the run's sites, each repeated over its flags
            cx = [np.repeat(v[s], k) for v in x]
            cy, cu = ([np.broadcast_to(v, (m, k))[s].ravel() for v in w] for w in (y, u0))
        else:
            cx, cy, cu = x, [np.ravel(v) for v in y], [np.ravel(v) for v in u0]
        with np.errstate(divide="ignore", invalid="ignore"):  # unusable flags are dropped below
            ratio, guu = _flag_ratio(F, cx, cy, cu, second)
        good = np.reshape(guu > 1e-14, (-1, k))
        if not np.all(np.any(good, axis=-1)):
            raise MetricError(f"no flag with g_y(u, u) > 1e-14 at some site of {F.name}")
        vals = np.where(good, np.reshape(ratio, (-1, k)), -np.inf)
        i = np.argmax(vals, axis=-1)
        best.append(vals[np.arange(len(i)), i])
        index.append(i)
    return np.concatenate(best), np.concatenate(index)


def _fibonacci_sphere(m: int) -> np.ndarray:
    """m near-uniform directions on the 2-sphere (golden-angle lattice)."""
    k = np.arange(m)
    z = 1.0 - (2.0 * k + 1.0) / m
    phi = math.pi * (3.0 - math.sqrt(5.0)) * k
    r = np.sqrt(np.maximum(1.0 - z * z, 0.0))
    return np.column_stack([r * np.cos(phi), r * np.sin(phi), z])


def _torsion_norm(F, x, samples, seed, second):
    """In dimension 2, the best of an angle grid (u0 a right angle ahead of
    y), then zoom rounds: each evaluates _ZOOM_PROBES angles across every
    site's bracket, recentres it on the best probe and shrinks its half-width
    to one probe spacing, until the bracket is 1e-10 wide; the result is
    never below the best grid sample.  In higher dimension, a lower bound:
    the best of `samples` seeded flags shared by every site, y on the unit
    sphere (Fibonacci lattice when the sphere is 2-dimensional), u0 Gaussian."""
    if samples < 1:
        raise ValueError(f"torsion norms need at least 1 sample, got {samples}")
    if F.dim == 2:
        rows = np.arange(np.size(x[0]))

        def best_at(theta):
            c, s = np.cos(theta), np.sin(theta)
            return _best_flags(F, x, [c, s], [-s, c], second)

        grid = np.linspace(0.0, 2.0 * math.pi, samples, endpoint=False)
        best, k = best_at(grid)
        centre = grid[k]
        steps = np.linspace(-1.0, 1.0, _ZOOM_PROBES)
        half = 2.0 * math.pi / samples
        while 2.0 * half > 1e-10:
            thetas = centre[:, None] + half * steps
            top, k = best_at(thetas)
            best = np.maximum(best, top)
            centre = thetas[rows, k]
            half *= steps[1] - steps[0]
    else:
        rng = np.random.default_rng([seed, 0xC2 if second else 0xC1])
        if F.dim == 3:
            ys = _fibonacci_sphere(samples)
        else:
            ys = rng.normal(size=(samples, F.dim))
            ys /= np.linalg.norm(ys, axis=1)[:, None]
        best = _best_flags(F, x, list(ys.T), list(rng.normal(size=(samples, F.dim)).T), second)[0]
    return best if np.shape(x[0]) else float(best[0])


def cartan_norm(F: FinslerField, x, samples: int = 4096, seed: int = 0):
    """Sampled estimate of ||C||_x; an array of estimates when x holds column
    arrays of sites.  Each flag's edge is Gram-Schmidt orthogonalized against
    y in g_y (2 jets of F^2 per pass); a site without a flag of g_y(u, u) >
    1e-14 raises MetricError, in every dimension.  In dimension 2 it is exact
    once the angle grid of `samples` points resolves the integrand's peaks: a
    coarse grid can pick a secondary peak, and the refinement stays around it."""
    return _torsion_norm(F, x, samples, seed, second=False)


def cartan_second_norm(F: FinslerField, x, samples: int = 4096, seed: int = 0):
    """Sampled estimate of ||C~||_x; an array of estimates when x holds column
    arrays of sites.  Each flag's edge is Gram-Schmidt orthogonalized against
    y in g_y (2 jets of F^2 per pass); a site without a flag of g_y(u, u) >
    1e-14 raises MetricError, in every dimension.  In dimension 2 it is exact
    once the angle grid of `samples` points resolves the integrand's peaks: a
    coarse grid can pick a secondary peak, and the refinement stays around it."""
    return _torsion_norm(F, x, samples, seed, second=True)


# -- sanity battery -----------------------------------------------------------


def check_metric(F: FinslerField, n_points: int = 100, seed: int = 7) -> dict:
    """Homogeneity, Euler identity, positive definiteness and g-recovers-F^2
    residuals over seeded samples, evaluated at all samples in one array
    pass; raises MetricError on non-PD g.  A NaN residual stays NaN."""
    pts = F.domain.sample_points(n_points, seed)
    rng = np.random.default_rng([seed, 0xA1])
    dirs = rng.normal(size=(n_points, F.dim))
    # row by row, so each direction is rounded exactly as a single-site caller's
    dirs = np.array([d / np.linalg.norm(d) for d in dirs])
    x, y = list(pts.T), list(dirs.T)
    f1 = np.asarray(F(x, y), dtype=float)
    scale = np.maximum(np.abs(f1), 1e-30)
    hom = [np.abs(F(x, [lam * v for v in y]) - lam * f1) / scale for lam in (0.5, 2.0, 7.0)]
    euler = np.abs(directional_derivatives(F.func, x, y, y_dirs=[(y, 1)]).partial([1]) - f1) / scale
    g = metric_entries(F, x, y)
    _linalg.cholesky(g)  # raises MetricError where g is not positive definite
    recover = np.abs(_linalg.quad_form(g, y, y) - f1 * f1) / np.maximum(f1 * f1, 1e-30)
    return {
        "homogeneity": float(np.max(hom)),
        "euler": float(np.max(euler)),
        "g_recovers_F2": float(np.max(recover)),
        "n_points": n_points,
        "seed": seed,
    }
