"""Geodesic coefficients, Levi-Civita data, covariant tables for beta,
geodesic integration and projective-flatness residuals.

Spray fields evaluate on jets, so curvature operators can differentiate
through them; the generic construction from F and the Randers closed form
are independent routes that must agree and are cross-checked in tests.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import _linalg
from .diffcore import directional_derivatives, gradient, sqrt, values_array
from .errors import DomainError, IntegrationError, MetricError
from .metrics import (
    Field,
    FinslerField,
    RandersData,
    RiemannianField,
    metric_entries,
    require_nonzero,
)

log = logging.getLogger("finslerkit")


class SprayField(Field):
    """Geodesic coefficients G^i(x, y) as an evaluable vector field; see
    metrics.Field for the site and the float record."""


# -- generic spray from the metric itself ------------------------------------


def spray_from_metric(F: FinslerField) -> SprayField:
    """Spray with G^i = 1/4 g^{il} { [F^2]_{x^k y^l} y^k - [F^2]_{x^l} }.

    This is the standard contraction of the displayed Christoffel-style
    formula; it needs one directional x-derivative along y and one x-gradient
    of F^2 besides g itself, and evaluates on jets.
    """
    n = F.dim

    def G(x, y):
        g = metric_entries(F, x, y)
        g_inv, _ = _linalg.spd_factor(g)

        def y_gradient(xs):  # the y-gradient of F(xs, .)^2 at y
            return gradient(F.squared_at(xs), y)[1]

        _, grad = gradient(lambda xs: F.squared_at(xs)(y), x)
        # one x-jet along y, shared by the n y-jets, whose tags come after it
        mixed = directional_derivatives(y_gradient, x, [(y, 1)]).partial([1])
        rhs = [mixed[l] - grad[l] for l in range(n)]
        return [0.25 * _linalg.sum_prod(g_inv[i], rhs) for i in range(n)]

    return SprayField(F.domain, G)


# -- Levi-Civita data ----------------------------------------------------------


def _christoffel(a_inv, da):
    """Gamma^i_{jk} = 1/2 a^{il} (d_j a_kl + d_k a_jl - d_l a_jk) as nested
    lists, from a^{ij} and da[k][i][j] = d a_ij / d x^k (jet-safe)."""
    n = len(a_inv)
    gamma = [[[None] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(j, n):
                acc = None
                for l in range(n):
                    t = a_inv[i][l] * (da[j][k][l] + da[k][j][l] - da[l][j][k])
                    acc = t if acc is None else acc + t
                gamma[i][j][k] = gamma[i][k][j] = acc * 0.5
    return gamma


def _levi_civita(alpha: RiemannianField, x):
    """(a_ij, a^{ij}, Gamma^i_{jk}) at x as nested lists (jet-safe)."""
    a, da = gradient(alpha.matrix, x)
    a_inv, _ = _linalg.spd_factor(a)
    return a, a_inv, _christoffel(a_inv, da)


def christoffels(alpha: RiemannianField, x) -> np.ndarray:
    """Levi-Civita coefficients Gamma^i_{jk} at a chart point (floats) as an
    (n, n, n) array, symmetric in the last two slots."""
    return values_array(_levi_civita(alpha, x)[2])


def levi_civita_spray(alpha: RiemannianField) -> SprayField:
    """Quadratic spray G^i = 1/2 Gamma^i_{jk}(x) y^j y^k of a Riemannian metric."""
    n = alpha.dim

    def at(x):
        gamma = _levi_civita(alpha, x)[2]

        def G(y):
            return [_linalg.quad_form(gamma[i], y, y) * 0.5 for i in range(n)]

        return G

    return SprayField(alpha.domain, lambda x, y: at(x)(y), site=at)


# -- covariant tables for beta -------------------------------------------------


@dataclass
class BetaTable:
    """Pointwise covariant data of (alpha, beta) used by Randers formulas.

    All index gymnastics use a^{ij}; `s_up_cov[i][j][k]` is s^i_{j|k} and
    `s_form_cov[j][k]` is s_{j|k}.  Second-order entries are present only
    when the table was built with order=2.
    """

    x: tuple
    a: list
    a_inv: list
    b: list
    gamma: list
    b_cov: list        # b_{i|j}
    r: list            # r_ij
    s: list            # s_ij
    s_up: list         # s^i_j
    s_form: list       # s_j = b_i s^i_j
    s_form_cov: Optional[list] = None  # s_{j|k}
    s_up_cov: Optional[list] = None    # s^i_{j|k}

    def s_zero_residual(self) -> np.ndarray:
        """r_ij + b_i s_j + b_j s_i as a float array; zero iff S = 0 at x."""
        r, b, s = self.r, self.b, self.s_form
        n = len(b)
        return values_array([[r[i][j] + b[i] * s[j] + b[j] * s[i] for j in range(n)] for i in range(n)])

    def contract(self, y) -> "BetaContractions":
        n = len(self.b)
        y = list(y)
        y_low = _linalg.matvec(self.a, y)
        alpha2 = _linalg.sum_prod(y_low, y)
        s0 = _linalg.sum_prod(self.s_form, y)
        r00 = _linalg.quad_form(self.r, y, y)
        si0 = [_linalg.sum_prod(self.s_up[i], y) for i in range(n)]
        sk0 = [_linalg.sum_prod(self.s[k], y) for k in range(n)]
        out = BetaContractions(
            y=y, y_low=y_low, alpha2=alpha2, r00=r00, s0=s0, si0=si0, sk0=sk0
        )
        if self.s_form_cov is not None:
            out.s00 = _linalg.quad_form(self.s_form_cov, y, y)
            out.s0k = [
                _linalg.sum_prod([self.s_form_cov[p][k] for p in range(n)], y)
                for k in range(n)
            ]
            out.sk0_cov = [_linalg.sum_prod(self.s_form_cov[k], y) for k in range(n)]
            out.si_00 = [
                _linalg.quad_form(self.s_up_cov[i], y, y) for i in range(n)
            ]
            out.si_k0 = [
                [_linalg.sum_prod(self.s_up_cov[i][k], y) for k in range(n)]
                for i in range(n)
            ]
            out.si_0k = [
                [
                    _linalg.sum_prod([self.s_up_cov[i][p][k] for p in range(n)], y)
                    for k in range(n)
                ]
                for i in range(n)
            ]
        return out


@dataclass
class BetaContractions:
    """y-contractions of a BetaTable (index 0 means contraction with y)."""

    y: list
    y_low: list
    alpha2: object
    r00: object
    s0: object
    si0: list
    sk0: list              # s_{k0} = s_{kp} y^p
    s00: object = None     # s_{0|0}
    s0k: Optional[list] = None   # s_{0|k}
    sk0_cov: Optional[list] = None  # s_{k|0}
    si_00: Optional[list] = None    # s^i_{0|0}
    si_k0: Optional[list] = None    # s^i_{k|0}
    si_0k: Optional[list] = None    # s^i_{0|k}


def beta_table(randers: RandersData, x, order: int = 2) -> BetaTable:
    """Covariant derivative tables of beta with respect to alpha at x.

    The second covariant derivatives differentiate the first-order table in
    x in one gradient pass, whose value gives the table's first-order
    fields, and add the Christoffel corrections,
    s_{j|k} = d_k s_j - s_l Gamma^l_{jk} and
    s^i_{j|k} = d_k s^i_j + Gamma^i_{lk} s^l_j - Gamma^l_{jk} s^i_l,
    so the same pipeline serves any Randers data, not just metrics with
    closed-form tables.
    """
    if order < 2:
        return BetaTable(tuple(x), *_first_order_table(randers, x))
    n = randers.dim
    fields, d = gradient(lambda xs: _first_order_table(randers, xs), x)
    table = BetaTable(tuple(x), *fields)
    gamma, s_up, s_form = table.gamma, table.s_up, table.s_form
    # d[k][-1] = d_k s_j, d[k][-2] = d_k s^i_j
    table.s_form_cov = [
        [d[k][-1][j] - _sum(s_form[l] * gamma[l][j][k] for l in range(n)) for k in range(n)]
        for j in range(n)
    ]
    table.s_up_cov = [
        [
            [
                d[k][-2][i][j]
                + _sum(gamma[i][l][k] * s_up[l][j] for l in range(n))
                - _sum(gamma[l][j][k] * s_up[i][l] for l in range(n))
                for k in range(n)
            ]
            for j in range(n)
        ]
        for i in range(n)
    ]
    return table


def _first_order_table(randers: RandersData, x) -> list:
    """The fields of beta_table(order=1) after x, in BetaTable's order
    (jet-safe in x)."""
    n = randers.dim
    (a, b), d = gradient(randers.ab, x)  # d[k] = [d_k a, d_k b]
    a_inv, _ = _linalg.spd_factor(a)
    gamma = _christoffel(a_inv, [dk[0] for dk in d])
    db = [dk[1] for dk in d]
    b_cov = [
        [
            db[j][i] - _sum(b[l] * gamma[l][i][j] for l in range(n))
            for j in range(n)
        ]
        for i in range(n)
    ]
    r = [[(b_cov[i][j] + b_cov[j][i]) * 0.5 for j in range(n)] for i in range(n)]
    s = [[(b_cov[i][j] - b_cov[j][i]) * 0.5 for j in range(n)] for i in range(n)]
    s_up = [[_sum(a_inv[i][p] * s[p][j] for p in range(n)) for j in range(n)] for i in range(n)]
    s_form = [_sum(b[i] * s_up[i][j] for i in range(n)) for j in range(n)]
    return [a, a_inv, b, gamma, b_cov, r, s, s_up, s_form]


def _sum(it):
    acc = None
    for t in it:
        acc = t if acc is None else acc + t
    return 0.0 if acc is None else acc


# -- Randers closed-form spray -------------------------------------------------


def randers_spray(randers: RandersData) -> SprayField:
    """Spray via G^i = G~^i + P y^i + Q^i with
    P = (r_00 - 2 alpha s_0) / (2F) and Q^i = alpha s^i_0."""
    n = randers.dim

    def at(x):
        tbl = beta_table(randers, x, order=1)

        def G(y):
            c = tbl.contract(y)
            alpha = sqrt(c.alpha2)
            beta_v = _linalg.sum_prod(tbl.b, y)
            P = (c.r00 - 2.0 * alpha * c.s0) / (2.0 * (alpha + beta_v))
            return [
                _linalg.quad_form(tbl.gamma[i], y, y) * 0.5 + P * y[i] + alpha * c.si0[i] for i in range(n)
            ]

        return G

    return SprayField(randers.domain, lambda x, y: at(x)(y), site=at)


# -- geodesics -----------------------------------------------------------------


@dataclass
class Trajectory:
    """Sampled geodesic: times, (steps, n) positions and velocities, and
    whether it stopped early (left the chart, a stage raised, or its state
    turned non-finite); `speed` holds F(x'(t)) when it was checked."""

    t: np.ndarray
    x: np.ndarray
    v: np.ndarray
    boundary_exit: bool
    speed: Optional[np.ndarray] = None


def _rk4(rhs, h, s):
    """One classical Runge-Kutta step of s' = rhs(s) for a state of 2n
    Python floats.  Returns (the new state, None), or (None, the error) when
    a stage left the chart (on Python floats a pole raises
    ZeroDivisionError).  Module-level, so no closure cycle keeps rhs and its
    recorded fields alive after geodesic_integrate returns."""
    try:
        k1 = rhs(s)
        k2 = rhs([a + 0.5 * h * b for a, b in zip(s, k1)])
        k3 = rhs([a + 0.5 * h * b for a, b in zip(s, k2)])
        k4 = rhs([a + h * b for a, b in zip(s, k3)])
    except (MetricError, DomainError, ArithmeticError) as e:
        return None, e
    return [a + (h / 6.0) * (p + 2.0 * q + 2.0 * r + w) for a, p, q, r, w in zip(s, k1, k2, k3, k4)], None


def geodesic_integrate(
    G: SprayField,
    x0: Sequence[float],
    y0: Sequence[float],
    T: float,
    dt: float = 1e-3,
    speed_check: Optional[FinslerField] = None,
    speed_rtol: float = 0.01,
) -> Trajectory:
    """Fixed-step classical Runge-Kutta solution of x'' + 2 G(x, x') = 0
    from one start point `x0` with velocity `y0`.

    The geodesic stops, with `boundary_exit` set, when it leaves the chart
    domain, when a stage raises MetricError, DomainError or an
    ArithmeticError, or when its state turns non-finite; the stop is logged
    at debug level on the "finslerkit" logger.  If `speed_check` is given,
    F(x'(t)) is recorded and a drift beyond `speed_rtol` (or a non-finite
    speed) raises IntegrationError.  A zero start velocity raises
    MetricError; x0 and y0 that are not both vectors of G's dimension, a
    non-finite T and a dt that is not finite and positive raise ValueError.
    T == 0 returns the start sample alone.

    The state is a list of Python floats.  G and `speed_check` are recorded
    at their first evaluation and replayed at later ones (diffcore.Replay),
    bit-identically.  Each field keeps its one record (`replay`) for its
    lifetime, so a later geodesic of the same field records nothing new.
    The call that records a field compiles its record to straight-line
    Python in pieces of at most 256 records, and every call runs that code.
    A stage where a recorded comparison changes is evaluated directly.  The
    log says when a field cannot be recorded, when a comparison changes and
    when a record is compiled.
    """
    if not (0 < dt < math.inf and math.isfinite(T / dt)):
        raise ValueError(f"T must be finite and dt finite and positive, got T={T} and dt={dt}")
    n = G.dim
    X0, V0 = np.asarray(x0, dtype=float), np.asarray(y0, dtype=float)
    if X0.shape != (n,) or V0.shape != (n,):
        raise ValueError(f"x0 {X0.shape} and y0 {V0.shape} must both have shape ({n},)")
    G.domain.require(X0)
    require_nonzero(V0)
    steps = max(1, int(round(abs(T) / dt))) if T else 0
    h = T / max(steps, 1)
    ts = [0.0]

    def replayed(field, what):
        if field is None:
            return None
        field.replay.note = lambda why: log.debug("geodesic row 0 at t=%g: %s %s", ts[-1], what, why)
        return field.replay

    spray, speed_field = replayed(G, "spray"), replayed(speed_check, "speed check")

    def rhs(s):
        return s[n:] + [-2.0 * g for g in spray(s[:n], s[n:])]

    def stop_reason(new, error):
        if error is not None:
            return f"a stage raised {type(error).__name__}: {error}"
        if not all(map(math.isfinite, new)):
            return "non-finite state"
        if not G.domain.contains(new[:n]):
            return "left the domain"
        return None

    s = X0.tolist() + V0.tolist()
    states, exited = [s], False
    speeds = None if speed_field is None else [speed_field(s[:n], s[n:])]
    for k in range(steps):
        new, error = _rk4(rhs, h, s)
        why = stop_reason(new, error)
        if why is not None:
            log.debug("geodesic row 0 stopped after t=%g: %s", k * h, why)
            exited = True
            break
        s = new
        ts.append((k + 1) * h)
        states.append(s)
        if speeds is not None:
            f, f0 = speed_field(s[:n], s[n:]), speeds[0]
            if not abs(f - f0) <= speed_rtol * abs(f0):
                raise IntegrationError(f"geodesic speed drifted from {f0} to {f} at t={ts[-1]}")
            speeds.append(f)
    path = np.array(states)
    speed = None if speeds is None else np.array(speeds, dtype=float)
    return Trajectory(t=np.array(ts), x=path[:, :n], v=path[:, n:], boundary_exit=exited, speed=speed)


def projective_residual(G: SprayField, x, y) -> np.ndarray:
    """Antisymmetric matrix G^i y^j - G^j y^i; zero iff G is proportional to y.

    Chart-level proxy for straight-line geodesics (projective flatness in the
    chart): the matrix vanishes at (x, y) exactly when G^i = P y^i there.
    Column arrays of sites give an (n, n, m) array.
    """
    yv = np.asarray(y, dtype=float)
    gv = values_array(G(list(x), list(y)), sites=yv.shape[1:])
    return gv[:, None] * yv[None, :] - yv[:, None] * gv[None, :]
