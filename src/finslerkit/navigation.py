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
from .diffcore import directional_derivatives, value
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

    pts = alpha.domain.sample_points(16, seed=3)
    lam = np.broadcast_to(np.asarray(value(scalars(list(pts.T))[2]), dtype=float), len(pts))
    bad = np.flatnonzero(~(lam > 0.0))
    if bad.size:
        raise DriftError(f"alpha(v) >= 1 at {tuple(float(c) for c in pts[bad[0]])}")

    def matrix(a, w, lam):
        return [[(w[i] * w[j] + lam * a[i][j]) / (lam * lam) for j in range(n)] for i in range(n)]

    def covector(a, w, lam):
        return [-w[i] / lam for i in range(n)]

    def site(x):  # (a~, b~) from one evaluation of the scalars
        s = scalars(x)
        return matrix(*s), covector(*s)

    return RandersData(
        alpha=RiemannianField(alpha.domain, lambda x: matrix(*scalars(x)), name=f"nav({alpha.name},{v.name})"),
        beta=OneFormField(alpha.domain, lambda x: covector(*scalars(x)), name=f"nav-form({v.name})"),
        name=f"navigation({alpha.name},{v.name})",
        site=site,
    )


# -- general solve ----------------------------------------------------------------


def _scales(F: FinslerField, v: DriftField, x, y):
    """The t > 0 with F(x, t y - v(x)) = 1 at every site; F~(x, y) = 1 / t.

    psi(t) = F(x, t y - v) is convex, psi(0) = F(-v) < 1, and psi >= 1 at
    t0 = (1 + F(v)) / F(y) by the triangle inequality, so Newton's method
    from t0 falls monotonically to the root: one jet pass (psi and psi') a
    step, until a step lowers t by no more than 4 eps t (about 5 passes).
    x and y hold one site of generic scalars (floats or a diffcore.Replay's
    recorded floats; no numpy) or column arrays of sites, solved together in
    their broadcast shape.  F.at(x) is taken once.  At y = 0, t = inf and
    F~(x, 0) = 0 as F(x, 0) is; a NaN in F gives a NaN t.  Raises DriftError
    where F(-v) >= 1 at a site, ConvergenceError where a site takes 100 steps.
    """
    cols = any(isinstance(c, np.ndarray) for c in (*x, *y))
    if cols:
        shape = np.broadcast_shapes(*(np.shape(c) for c in (*x, *y)))
        x, y = ([np.broadcast_to(np.asarray(c, dtype=float), shape).ravel() for c in z] for z in (x, y))
    vs, at = v(x), F.at(x)
    p0 = at([-b for b in vs])

    def step(t):  # s = (psi(t) - 1) / psi'(t) from one jet pass along y, and s > 4 eps t
        res = directional_derivatives(at, [t * a - b for a, b in zip(y, vs)], [(y, 1)])
        s = (res.value - 1.0) / res.partial([1])
        return s, s > 2.0**-50 * t

    if not cols:
        if p0 >= 1.0:
            raise DriftError(f"drift too strong at ({', '.join(map(str, x))}): F(-v) = {p0} >= 1")
        if all(c == 0.0 for c in y):
            return np.inf
        t = (1.0 + at(vs)) / at(y)
        for _ in range(100):
            s, more = step(t)
            if not more:
                return t - s
            t = t - s
    else:
        p0 = np.broadcast_to(np.asarray(p0, dtype=float), x[0].shape)
        i = np.argmax(p0 >= 1.0)  # the first site with F(-v) >= 1, if any
        if p0[i] >= 1.0:
            raise DriftError(f"drift too strong at {tuple(float(c[i]) for c in x)}: F(-v) = {p0[i]} >= 1")
        active = moving = np.any([c != 0.0 for c in y], axis=0)
        with np.errstate(divide="ignore", invalid="ignore"):  # F(x, 0) and psi' = 0 at rest
            # a site at rest starts anywhere finite and takes no step
            t = (1.0 + np.asarray(at(vs), dtype=float)) / np.where(moving, at(y), 1.0)
            for _ in range(100):
                s, more = step(t)
                t, active = np.where(active, t - s, t), active & more
                if not active.any():
                    return np.where(moving, t, np.inf).reshape(shape)
    raise ConvergenceError("Newton did not settle the navigation scale")


def zermelo_general(F: FinslerField, v: DriftField, x, y) -> float:
    """Navigation metric value F~(x, y) by root solving F(y/F~ - v) = 1."""
    return 1.0 / float(_scales(F, v, x, y))


def navigation_metric(F: FinslerField, v: DriftField) -> FinslerField:
    """Deformed metric F~ induced by a source metric and a drift field.

    Evaluation solves F(y/F~ - v) = 1 by Newton's method (`_scales`) on
    column arrays of sites, giving an array, or at one site of floats,
    giving a float without numpy, so a diffcore.Replay records it.
    Positive 1-homogeneity is structural (scaling y scales the solved
    parameter inversely).  It does not evaluate on jets; use
    zermelo_riemannian for differentiable Randers data when the source is
    Riemannian.
    """
    return FinslerField(F.domain, lambda x, y: 1.0 / _scales(F, v, x, y), name=f"navigation({F.name})")


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
    x, ys = [float(c) for c in x], list(dirs.T)
    ft = navigation_metric(F, v)(x, ys)
    shifted = [d / ft - c for d, c in zip(ys, v(x))]
    return float(np.max(np.abs(np.asarray(F.at(x)(shifted), dtype=float) - 1.0)))


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
    pos, vel = (np.array(z, dtype=float) for z in zip(*nodes))
    vals = navigation_metric(F, v)(list(pos.T), list(vel.T))
    h = (t1 - t0) / n
    return float(h / 3.0 * (vals[0] + vals[-1] + 4.0 * vals[1:-1:2].sum() + 2.0 * vals[2:-1:2].sum()))
