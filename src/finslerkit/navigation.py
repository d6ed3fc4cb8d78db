"""Shortest-time (navigation) transform of a Finsler metric by a drift field.

Given a metric F and a drift v with F(-v) < 1, the deformed metric F~ is
defined implicitly by F( y / F~(y) - v ) = 1: its unit ball is the F-unit
ball translated by v, travel time along a curve equals its F~-length, and
the volume form is preserved.  For Riemannian F the transform has a Randers
closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import _linalg
from .diffcore import value
from .errors import ConvergenceError, DriftError
from .metrics import (
    ChartDomain,
    FinslerField,
    OneFormField,
    RandersData,
    RiemannianField,
)


@dataclass(frozen=True)
class DriftField:
    """A vector field v(x) pushing the moving object; needs F(-v) < 1.

    `func` is evaluated on column arrays of sites, like a FinslerField.
    """

    domain: ChartDomain
    func: Callable
    name: str = "drift"

    def __call__(self, x):
        return self.func(x)


def radial_drift(domain: ChartDomain) -> DriftField:
    """The inward radial field v = -x."""
    return DriftField(domain, lambda x: [-c for c in x], name="radial")


def rotation_drift(domain: ChartDomain) -> DriftField:
    """The rotation field v = (-x2, x1, 0, ...) in the plane of the first two axes."""
    n = domain.dim
    return DriftField(domain, lambda x: [-x[1], x[0]] + [0.0] * (n - 2), name="rotation")


# -- closed form for Riemannian sources -----------------------------------------


def zermelo_riemannian(alpha: RiemannianField, v: DriftField) -> RandersData:
    """Randers data of the navigation metric of (alpha, v):

        a~_ij = (w_i w_j + lam a_ij) / lam^2,   b~_i = -w_i / lam,

    with w = a v and lam = 1 - alpha(v)^2.  Requires alpha(v) < 1.
    """
    n = alpha.dim

    def scalars(x):
        """a(x), w = a v and lam at x."""
        a = alpha.matrix(x)
        vx = v(x)
        return a, _linalg.matvec(a, vx), 1.0 - _linalg.quad_form(a, vx, vx)

    for x in alpha.domain.sample_points(16, seed=3):
        if float(value(scalars(list(x))[2])) <= 0.0:
            raise DriftError(f"alpha(v) >= 1 at {tuple(float(c) for c in x)}")

    def matrix(x):
        a, w, lam = scalars(x)
        return [
            [(w[i] * w[j] + lam * a[i][j]) / (lam * lam) for j in range(n)]
            for i in range(n)
        ]

    def covector(x):
        _, w, lam = scalars(x)
        return [-w[i] / lam for i in range(n)]

    return RandersData(
        alpha=RiemannianField(alpha.domain, matrix, name=f"nav({alpha.name},{v.name})"),
        beta=OneFormField(alpha.domain, covector, name=f"nav-form({v.name})"),
        name=f"navigation({alpha.name},{v.name})",
    )


# -- general solve ----------------------------------------------------------------


def _scales(F: FinslerField, v: DriftField, x, y) -> np.ndarray:
    """The t > 0 with F(x, t y - v(x)) = 1 at every site; F~(x, y) = 1 / t.

    x and y hold floats (one site) or column arrays of sites; the result has
    their broadcast shape.  psi(t) = F(x, t y - v) starts below 1 (psi(0) =
    F(-v) < 1), is convex and grows without bound, so psi < 1 exactly below
    the root.  Each root is bracketed in (h/2, h], h a power of two, by
    doubling and then halving h, and bisected 53 times: to about one ulp,
    however small t is.  At y = 0 psi stays below 1 and t is infinite, so
    F~(x, 0) = 0 as F(x, 0) is.  Raises DriftError where F(-v) >= 1 at some
    site and ConvergenceError where doubling fails to bracket.
    """
    shape = np.broadcast_shapes(*(np.shape(c) for c in (*x, *y)))
    xs = [np.broadcast_to(np.asarray(c, dtype=float), shape).ravel() for c in x]
    ys = [np.broadcast_to(np.asarray(c, dtype=float), shape).ravel() for c in y]
    vs = v(xs)

    def psi(t):
        return np.asarray(F(xs, [t * a - b for a, b in zip(ys, vs)]), dtype=float)

    p0 = psi(np.zeros(len(ys[0])))
    bad = np.flatnonzero(~(p0 < 1.0))
    if bad.size:
        i = bad[0]
        raise DriftError(f"drift too strong at {tuple(float(c[i]) for c in xs)}: F(-v) = {p0[i]} >= 1")
    moving = np.any([c != 0.0 for c in ys], axis=0)
    h = np.ones_like(p0)
    for _ in range(200):
        below = ~(psi(h) >= 1.0) & moving
        if not below.any():
            break
        h = np.where(below, 2.0 * h, h)
    else:
        raise ConvergenceError("could not bracket the navigation scale")
    while True:  # ends: psi(0) < 1
        above = psi(0.5 * h) >= 1.0
        if not above.any():
            break
        h = np.where(above, 0.5 * h, h)
    lo, hi = 0.5 * h, h
    for _ in range(53):
        mid = 0.5 * (lo + hi)
        inside = psi(mid) < 1.0
        lo = np.where(inside, mid, lo)
        hi = np.where(inside, hi, mid)
    return np.where(moving, 0.5 * (lo + hi), np.inf).reshape(shape)


def zermelo_general(F: FinslerField, v: DriftField, x, y) -> float:
    """Navigation metric value F~(x, y) by root solving F(y/F~ - v) = 1."""
    return 1.0 / float(_scales(F, v, x, y))


def navigation_metric(F: FinslerField, v: DriftField) -> FinslerField:
    """Deformed metric F~ induced by a source metric and a drift field.

    Evaluation solves F(y/F~ - v) = 1 at each site, on floats (giving a
    float) or on column arrays of sites (giving an array); positive
    1-homogeneity is structural (scaling y scales the solved parameter
    inversely).  It does not evaluate on jets; use zermelo_riemannian for
    differentiable Randers data when the source is Riemannian.
    """

    def func(x, y):
        ft = 1.0 / _scales(F, v, x, y)
        return float(ft) if ft.ndim == 0 else ft

    return FinslerField(F.domain, func, name=f"navigation({F.name})")


# -- identity checks ---------------------------------------------------------------


def indicatrix_shift_check(
    F: FinslerField, v: DriftField, x, n_dirs: int = 64, seed: int = 0
) -> float:
    """Max |F(y - v) - 1| over unit-F~ vectors y: the F~ indicatrix must be
    the F indicatrix translated by v."""
    n = F.dim
    rng = np.random.default_rng([seed, 0x51])
    dirs = rng.normal(size=(n_dirs, n))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    xs = [np.full(n_dirs, float(c)) for c in x]
    ys = list(dirs.T)
    ft = navigation_metric(F, v)(xs, ys)
    shifted = [d / ft - c for d, c in zip(ys, v(xs))]
    return float(np.max(np.abs(np.asarray(F(xs, shifted), dtype=float) - 1.0)))


@dataclass
class VolumeGap:
    """Busemann-Hausdorff densities of F and of its navigation deformation."""

    sigma_f: object
    sigma_nav: object
    rel_gap: float


def volume_preservation_check(
    F: FinslerField, v: DriftField, x, n_samples: int = 1_000_000, seed: int = 0
) -> VolumeGap:
    """Check that the navigation transform preserves the volume form: both
    densities are rated by radial quadrature (`measures.bh_density`), the
    deformed metric by root solves, not through the shift identity.

    The result is deterministic; `n_samples` and `seed` are inert and kept
    only for existing callers.
    """
    from .measures import bh_density

    sig_f = bh_density(F, x)
    sig_nav = bh_density(navigation_metric(F, v), x)
    gap = abs(sig_f.value - sig_nav.value) / max(sig_f.value, 1e-300)
    return VolumeGap(sigma_f=sig_f, sigma_nav=sig_nav, rel_gap=gap)


def travel_time(
    F: FinslerField,
    v: DriftField,
    curve: Callable,
    t0: float,
    t1: float,
    n: int = 256,
) -> float:
    """Composite-Simpson integral of F~ along a curve.

    `curve(t)` must return (position, velocity).  For a curve driven at the
    combined-force velocity the result is the elapsed parameter time.
    """
    if n % 2:
        n += 1
    nodes = [curve(float(t)) for t in np.linspace(t0, t1, n + 1)]
    pos = np.array([p for p, _ in nodes], dtype=float)
    vel = np.array([w for _, w in nodes], dtype=float)
    vals = navigation_metric(F, v)(list(pos.T), list(vel.T))
    h = (t1 - t0) / n
    return float(h / 3.0 * (vals[0] + vals[-1] + 4.0 * vals[1:-1:2].sum() + 2.0 * vals[2:-1:2].sum()))
