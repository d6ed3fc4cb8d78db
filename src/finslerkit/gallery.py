"""Built-in metrics with analytic reference data.

Each entry couples a metric (generic Finsler field or Randers data) with
whatever closed forms are known for it: spray coefficients, covariant tables,
curvature constants, densities.  Those references are test oracles, not code
paths: engine computations must reproduce them within module tolerances.
An entry also carries what the engine runs on: its spray, its differentiable
volume density and its verification-tolerance overrides.
"""

from __future__ import annotations

import dataclasses
import inspect
import logging
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import _linalg
from .diffcore import sqrt, value
from .errors import MetricError
from .metrics import (
    ChartDomain,
    FinslerField,
    OneFormField,
    RandersData,
    RiemannianField,
    ball_domain,
    cylinder_domain,
    whole_space_domain,
    zero_one_form,
)
from .measures import VolumeDensity, constant_density_field, randers_density_field
from .navigation import DriftField, radial_drift, rotation_drift, zermelo_riemannian
from .spray import SprayField, randers_spray, spray_from_metric

log = logging.getLogger("finslerkit")


@dataclass
class Reference:
    """Optional analytic providers of a gallery entry, its density and its tolerance overrides."""

    flag_curvature: Optional[float] = None     # constant K, when known
    s_curvature: Optional[float] = None        # constant S (0 for the core examples)
    density: Optional[float] = None            # constant sigma_F of a Randers entry, when known
    projectively_flat: Optional[bool] = None
    spray: Optional[Callable] = None           # G^i(x, y) closed form
    spray_alpha: Optional[Callable] = None     # Levi-Civita G~^i(x, y) of alpha
    tables: Optional[Callable] = None          # x -> dict of covariant tables
    gauss_alpha: Optional[Callable] = None     # Gauss curvature of alpha (2D)
    cartan2_profile: Optional[Callable] = None # theta -> C~ ratio profile (slab)
    ricci_fn: Optional[Callable] = None        # Ric(x, y) closed form
    density_field: Optional[VolumeDensity] = None  # differentiable density of a non-Randers entry
    tolerances: dict = field(default_factory=dict) # check id -> tolerance replacing the CHECKS default


@dataclass
class GalleryEntry:
    name: str
    params: dict
    metric: FinslerField
    randers: Optional[RandersData] = None
    drift: Optional[DriftField] = None        # navigation data used to build it
    source_alpha: Optional[RiemannianField] = None
    reference: Reference = field(default_factory=Reference)

    @property
    def dim(self) -> int:
        return self.metric.dim

    @property
    def spray(self) -> SprayField:
        """A new spray: the Randers closed form, else the one derived from F."""
        return randers_spray(self.randers) if self.randers is not None else spray_from_metric(self.metric)

    @property
    def density(self) -> Optional[VolumeDensity]:
        """The differentiable density: the Randers closed form, else the reference's."""
        return randers_density_field(self.randers) if self.randers is not None else self.reference.density_field


# -- helpers -------------------------------------------------------------------


def _require_dim(name: str, n: int, least: int) -> None:
    if n < least:
        raise ValueError(f"{name} requires n >= {least}, got n={n}")


def euclidean_alpha(n: int, domain: Optional[ChartDomain] = None) -> RiemannianField:
    dom = domain or whole_space_domain(n)
    eye = [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]
    return RiemannianField(dom, lambda x: eye, name=f"euclidean{n}")


# -- entries ---------------------------------------------------------------------


def euclidean(n: int = 2) -> GalleryEntry:
    """Flat Euclidean norm; everything vanishes."""
    _require_dim("euclidean", n, 2)
    alpha = euclidean_alpha(n)
    rd = RandersData(alpha, zero_one_form(alpha.domain), name=f"euclidean{n}")
    ref = Reference(
        flag_curvature=0.0,
        s_curvature=0.0,
        density=1.0,
        projectively_flat=True,
        spray=lambda x, y: [0.0] * n,
    )
    return GalleryEntry("euclidean", {"n": n}, rd.finsler(), randers=rd, reference=ref)


def minkowski(n: int = 2, eps: float = 0.3) -> GalleryEntry:
    """An x-independent (locally Minkowskian) non-Riemannian norm:
    F = sqrt(|y|^2 + eps * (sum y_i^4) / |y|^2).  Flat and S-free but with
    nonvanishing Cartan torsion."""
    _require_dim("minkowski", n, 2)
    if not 0.0 <= eps < 1.0:
        raise ValueError("eps must lie in [0, 1)")
    dom = whole_space_domain(n)

    def func(x, y):
        q2 = _linalg.sum_prod(y, y)
        q4 = _linalg.sum_prod([yi * yi for yi in y], [yi * yi for yi in y])
        return sqrt(q2 + eps * q4 / q2)

    ref = Reference(
        flag_curvature=0.0,
        s_curvature=0.0,
        projectively_flat=True,
        spray=lambda x, y: [0.0] * n,
        density_field=constant_density_field(1.0),
    )
    return GalleryEntry(
        "minkowski", {"n": n, "eps": eps},
        FinslerField(dom, func, name=f"minkowski{n}"), reference=ref,
    )


def funk(n: int = 2) -> GalleryEntry:
    """Navigation metric of the Euclidean ball with inward radial drift
    v = -x: unit-ball metric with constant flag curvature -1/4, straight
    geodesics, and unit volume density."""
    _require_dim("funk", n, 2)
    dom = ball_domain(n, name=f"funk-ball{n}")
    alpha = euclidean_alpha(n, dom)
    drift = radial_drift(dom)
    rd = zermelo_riemannian(alpha, drift)
    rd = dataclasses.replace(rd, name=f"funk{n}")
    F = rd.finsler()
    ref = Reference(
        flag_curvature=-0.25,
        density=1.0,
        projectively_flat=True,
        ricci_fn=lambda x, y: -0.25 * (n - 1) * float(F(list(x), list(y))) ** 2,
        tolerances={"flag_constant": 1e-7},
    )
    return GalleryEntry("funk", {"n": n}, F, randers=rd, drift=drift, source_alpha=alpha, reference=ref)


def shen_flat(n: int = 2) -> GalleryEntry:
    """Projectively flat zero-curvature metric on the unit ball:

        F = ( sqrt(|y|^2 - (|x|^2 |y|^2 - <x,y>^2)) + <x,y> )^2
            / ( (1 - |x|^2)^2 sqrt(|y|^2 - (|x|^2 |y|^2 - <x,y>^2)) )

    The radicand is clamped at zero when a float rounding error drives it
    slightly negative near the boundary of its positivity set; each clamp is
    logged at debug level on the "finslerkit" logger, except where a replay
    (diffcore.Replay) repeats a recorded one.
    """
    _require_dim("shen_flat", n, 2)
    dom = ball_domain(n, name=f"shen-ball{n}")

    def func(x, y):
        xy = _linalg.sum_prod(x, y)
        y2 = _linalg.sum_prod(y, y)
        x2 = _linalg.sum_prod(x, x)
        rad = y2 - (x2 * y2 - xy * xy)
        base = value(rad)
        if isinstance(base, np.ndarray):
            if np.any(base < -1e-12 * np.asarray(value(y2))):
                raise MetricError("degenerate radicand outside the unit ball")
            if isinstance(rad, np.ndarray):
                clamped = np.count_nonzero(rad < 1e-300)
                if clamped:
                    log.debug("shen_flat radicand clamped at %d of %d sites", clamped, rad.size)
                rad = np.maximum(rad, 1e-300)
        elif base <= 0.0:  # compared, not float()-ed, so a recorded field keeps the branch
            if base < -1e-12 * value(y2):
                raise MetricError("degenerate radicand outside the unit ball")
            # no value in the message: formatting a recorded one would float() it
            log.debug("shen_flat radicand clamped at the boundary of positivity")
            rad = 1e-300  # rounding guard at the boundary of positivity
        root = sqrt(rad)
        one_minus = 1.0 - x2
        num = root + xy
        return num * num / (one_minus * one_minus * root)

    ref = Reference(flag_curvature=0.0, projectively_flat=True)
    return GalleryEntry(
        "shen_flat", {"n": n}, FinslerField(dom, func, name=f"shen-flat{n}"), reference=ref,
    )


# -- the rotating-disk and rotating-cylinder metrics -----------------------------


def _rotation_randers(n: int, dom: ChartDomain) -> tuple[RandersData, DriftField, RiemannianField]:
    """Navigation data of flat space with the rotation field (-x2, x1, 0, ...)."""
    alpha = euclidean_alpha(n, dom)
    drift = rotation_drift(dom)

    def site(x):
        """(a, b) at x from one evaluation of delta and the drift."""
        delta = 1.0 - (x[0] * x[0] + x[1] * x[1])
        w = drift(x)
        a = [
            [(w[i] * w[j] + (delta if i == j else 0.0)) / (delta * delta) for j in range(n)]
            for i in range(n)
        ]
        return a, [x[1] / delta, -x[0] / delta] + [0.0] * (n - 2)

    rd = RandersData(
        alpha=RiemannianField(dom, lambda x: site(x)[0], name=f"rotation-alpha{n}"),
        beta=OneFormField(dom, lambda x: site(x)[1], name=f"rotation-beta{n}"),
        name=f"rotation{n}",
        site=site,
    )
    return rd, drift, alpha


def _rotation_tables(x) -> dict:
    """Closed-form covariant tables of the rotating-disk Randers data."""
    X, Y = x[0], x[1]
    delta = 1.0 - X * X - Y * Y
    d2 = delta * delta
    a = np.array([[ (1 - X * X) / d2, -X * Y / d2], [-X * Y / d2, (1 - Y * Y) / d2]])
    b = np.array([Y / delta, -X / delta])
    r = np.array([[-2 * X * Y / d2, (X * X - Y * Y) / d2], [(X * X - Y * Y) / d2, 2 * X * Y / d2]])
    s = np.array([[0.0, 1.0 / d2], [-1.0 / d2, 0.0]])
    s_form = np.array([X / delta, Y / delta])
    return {"a": a, "b": b, "r": r, "s": s, "s_form": s_form}


def _rotation_spray_alpha(x, y):
    """Levi-Civita coefficients of the rotating-disk alpha."""
    X, Y = x[0], x[1]
    u, v = y[0], y[1]
    delta = 1.0 - X * X - Y * Y
    beta_t = -(-Y * u + X * v) / delta
    xuyv = X * u + Y * v
    g1 = -X * (u * u + v * v) / (2.0 * delta) - (Y * xuyv - v) / delta * beta_t + xuyv / delta * u
    g2 = -Y * (u * u + v * v) / (2.0 * delta) + (X * xuyv - u) / delta * beta_t + xuyv / delta * v
    return [g1, g2]


def _rotation_spray(n):
    """Closed-form spray of the rotating metric (disk n=2, cylinder n>=3)."""

    def spray(x, y):
        X, Y = x[0], x[1]
        u, v = y[0], y[1]
        delta = 1.0 - X * X - Y * Y
        y2 = _linalg.sum_prod(y, y)
        rad = (-Y * u + X * v) ** 2 + y2 * delta
        F = (sqrt(rad) - (-Y * u + X * v)) / delta
        xuyv = X * u + Y * v
        g1 = -X * y2 / (2.0 * delta) - (Y * xuyv - v) / delta * F
        g2 = -Y * y2 / (2.0 * delta) + (X * xuyv - u) / delta * F
        return [g1, g2] + [0.0] * (n - 2)

    return spray


def rotation2d() -> GalleryEntry:
    """Rotating-disk metric: zero flag curvature and zero S-curvature on the
    unit disk, not projectively flat."""
    dom = ball_domain(2, name="disk")
    rd, drift, alpha = _rotation_randers(2, dom)
    ref = Reference(
        flag_curvature=0.0,
        s_curvature=0.0,
        density=1.0,
        projectively_flat=False,
        spray=_rotation_spray(2),
        spray_alpha=_rotation_spray_alpha,
        tables=_rotation_tables,
        gauss_alpha=lambda x: -(5.0 + x[0] ** 2 + x[1] ** 2) / (1.0 - x[0] ** 2 - x[1] ** 2),
    )
    return GalleryEntry(
        "rotation2d", {}, rd.finsler(), randers=rd, drift=drift, source_alpha=alpha, reference=ref,
    )


def cylinder(n: int = 3) -> GalleryEntry:
    """Rotating-cylinder metric in dimension n >= 3: the first two coordinates
    carry the rotation, the rest are flat; K = 0 and S = 0."""
    _require_dim("cylinder", n, 3)
    dom = cylinder_domain(n)
    rd, drift, alpha = _rotation_randers(n, dom)
    ref = Reference(
        flag_curvature=0.0,
        s_curvature=0.0,
        density=1.0,
        projectively_flat=False,
        spray=_rotation_spray(n),
    )
    return GalleryEntry(
        "cylinder", {"n": n}, rd.finsler(), randers=rd, drift=drift, source_alpha=alpha, reference=ref,
    )


# -- rotating three-sphere --------------------------------------------------------


def _s3_alpha(dom: ChartDomain) -> RiemannianField:
    """Round metric of the unit three-sphere in central-projection coordinates:
    a_ij = [ (1+|x|^2) delta_ij - x_i x_j ] / (1+|x|^2)^2."""

    def matrix(x):
        s2 = 1.0 + _linalg.sum_prod(x, x)
        return [
            [((s2 if i == j else 0.0) - x[i] * x[j]) / (s2 * s2) for j in range(3)]
            for i in range(3)
        ]

    return RiemannianField(dom, matrix, name="round-s3")


def _s3_unit_field(x):
    """Unit left-invariant field of the quaternionic frame, pushed to the chart.

    With the chart q = (1, x)/sqrt(1+|x|^2) and right multiplication by the
    imaginary unit i, the integral curves push forward to
    W = (1 + x1^2, x1 x2 + x3, x1 x3 - x2); the round metric gives |W| = 1.
    """
    x1, x2, x3 = x[0], x[1], x[2]
    return [1.0 + x1 * x1, x1 * x2 + x3, x1 * x3 - x2]


def bao_shen_s3(eps: float = 0.3) -> GalleryEntry:
    """Navigation deformation of the round three-sphere by eps times a unit
    left-invariant (Killing) field; constant flag curvature 1 for |eps| < 1."""
    if not abs(eps) < 1.0:
        raise ValueError("|eps| must be < 1")
    dom = ChartDomain(
        dim=3,
        contains=lambda x: float(_linalg.sum_prod(x, x)) < 9.0,
        name="s3-chart",
        sample_box=((-0.6, 0.6),) * 3,
    )
    alpha = _s3_alpha(dom)
    drift = DriftField(dom, lambda x: [eps * w for w in _s3_unit_field(x)], name="hopf")
    rd = zermelo_riemannian(alpha, drift)
    rd = dataclasses.replace(rd, name=f"bao-shen-s3({eps})")
    ref = Reference(flag_curvature=1.0, s_curvature=0.0, projectively_flat=False)
    return GalleryEntry(
        "bao_shen_s3", {"eps": eps}, rd.finsler(), randers=rd, drift=drift, source_alpha=alpha, reference=ref,
    )


# -- constant-coefficient slab -----------------------------------------------------


def slab_kappa(kappa: float = 0.5) -> GalleryEntry:
    """Flat Randers norm F = |y| + kappa y_1 on the plane.

    Locally Minkowskian, with the exact second-torsion angle profile
    6 k (k + cos t)/(1 + k cos t) - 7.5 k cos t on the unit circle.
    """
    if not 0.0 <= kappa < 1.0:
        raise ValueError("kappa must lie in [0, 1)")
    dom = whole_space_domain(2)
    alpha = euclidean_alpha(2, dom)
    beta = OneFormField(dom, lambda x: [kappa, 0.0], name=f"slab-form({kappa})")
    rd = RandersData(alpha, beta, name=f"slab({kappa})")

    def profile(theta):
        c = np.cos(theta)
        return 6.0 * kappa * (kappa + c) / (1.0 + kappa * c) - 7.5 * kappa * c

    ref = Reference(
        flag_curvature=0.0,
        s_curvature=0.0,
        density=(1.0 - kappa * kappa) ** 1.5,
        projectively_flat=True,
        spray=lambda x, y: [0.0, 0.0],
        cartan2_profile=profile,
    )
    return GalleryEntry(
        "slab", {"kappa": kappa}, rd.finsler(), randers=rd, reference=ref,
    )


# -- registry ------------------------------------------------------------------------


_BUILDERS = {
    "euclidean": euclidean,
    "minkowski": minkowski,
    "funk": funk,
    "shen_flat": shen_flat,
    "rotation2d": rotation2d,
    "cylinder": cylinder,
    "bao_shen_s3": bao_shen_s3,
    "slab": slab_kappa,
}


def names() -> list[str]:
    return sorted(_BUILDERS)


def make(name: str, **params) -> GalleryEntry:
    """Build a gallery entry by name; raises ValueError for unknown names,
    unknown parameters, a non-integer value of an integer parameter or
    out-of-range parameters."""
    key = name.replace("-", "_")
    if key not in _BUILDERS:
        raise ValueError(f"unknown gallery metric {name!r}; known: {', '.join(names())}")
    accepted = inspect.signature(_BUILDERS[key]).parameters
    for k, v in params.items():
        if k not in accepted or (accepted[k].annotation == "int" and not isinstance(v, (int, np.integer))):
            spec = ":".join([name, ",".join(f"{p}={q}" for p, q in params.items())])
            problem = f"has no parameter {k!r}" if k not in accepted else f"needs an integer {k}, got {v!r}"
            accepts = ", ".join(accepted) or "no parameters"
            raise ValueError(f"metric spec {spec!r} {problem}; {name} accepts: {accepts}")
    return _BUILDERS[key](**params)


def parse_spec(spec: str) -> GalleryEntry:
    """Parse a CLI metric spec of the form `name[:key=val,...]`."""
    name, _, rest = spec.partition(":")
    params = {}
    if rest:
        for item in rest.split(","):
            k, eq, v = item.partition("=")
            k = k.strip()
            if not eq:
                raise ValueError(f"malformed parameter {item!r} in metric spec {spec!r}")
            if k in params:
                raise ValueError(f"repeated parameter {k!r} in metric spec {spec!r}")
            try:
                params[k] = int(v)
            except ValueError:
                try:
                    params[k] = float(v)
                except ValueError:
                    raise ValueError(f"non-numeric parameter {item!r} in metric spec {spec!r}")
    return make(name.strip(), **params)
