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
from typing import Callable, Optional, Sequence

import numpy as np

from . import _linalg
from .diffcore import Replay, basis, derivative_blocks, directional_derivatives, sqrt, values_array
from .errors import DomainError, IntegrationError, MetricError
from .metrics import (
    ChartDomain,
    FinslerField,
    RandersData,
    RiemannianField,
    metric_entries,
    require_nonzero,
)

log = logging.getLogger("finslerkit")


@dataclass(frozen=True)
class SprayField:
    """Geodesic coefficients G^i(x, y) as an evaluable vector field.

    `site`, when given, maps x to y -> func(x, y) with the work that depends
    on x alone done once.
    """

    domain: ChartDomain
    func: Callable
    site: Optional[Callable] = None

    def __call__(self, x, y):
        return self.func(x, y)

    def at(self, x) -> Callable:
        """y -> G(x, y) at the site x, for loops over y at a fixed x."""
        return self.site(x) if self.site is not None else lambda ys: self.func(x, ys)

    @property
    def dim(self) -> int:
        return self.domain.dim


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
        grad, _ = derivative_blocks(F.squared, x, y, "x")
        rhs = [
            directional_derivatives(
                F.squared, x, y, x_dirs=[(y, 1)], y_dirs=[(basis(n, l), 1)]
            ).partial([1, 1]) - grad[l]
            for l in range(n)
        ]
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
    a = alpha.matrix(x)
    da, _ = derivative_blocks(lambda xs, ys: alpha.matrix(xs), x, [], "x")
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
    x with jets and add the Christoffel corrections,
    s_{j|k} = d_k s_j - s_l Gamma^l_{jk} and
    s^i_{j|k} = d_k s^i_j + Gamma^i_{lk} s^l_j - Gamma^l_{jk} s^i_l,
    so the same pipeline serves any Randers data, not just metrics with
    closed-form tables.
    """
    table = _first_order_table(randers, x)
    if order < 2:
        return table
    n = randers.dim
    gamma, s_up, s_form = table.gamma, table.s_up, table.s_form

    def first_order_s(xs, ys):
        t = _first_order_table(randers, xs)
        return [t.s_form, t.s_up]

    d, _ = derivative_blocks(first_order_s, x, [], "x")  # d[k] = [d_k s_j, d_k s^i_j]
    table.s_form_cov = [
        [d[k][0][j] - _sum(s_form[l] * gamma[l][j][k] for l in range(n)) for k in range(n)]
        for j in range(n)
    ]
    table.s_up_cov = [
        [
            [
                d[k][1][i][j]
                + _sum(gamma[i][l][k] * s_up[l][j] for l in range(n))
                - _sum(gamma[l][j][k] * s_up[i][l] for l in range(n))
                for k in range(n)
            ]
            for j in range(n)
        ]
        for i in range(n)
    ]
    return table


def _first_order_table(randers: RandersData, x) -> BetaTable:
    """The table of beta_table(order=1) (jet-safe in x)."""
    n = randers.dim
    b = randers.beta.covector(x)
    a0, a_inv, gamma = _levi_civita(randers.alpha, x)
    db, _ = derivative_blocks(lambda xs, ys: randers.beta.covector(xs), x, [], "x")
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
    return BetaTable(
        x=tuple(x), a=a0, a_inv=a_inv, b=b, gamma=gamma,
        b_cov=b_cov, r=r, s=s, s_up=s_up, s_form=s_form,
    )


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
    """Sampled geodesic: times, positions, velocities and an exit flag.

    For an ensemble of m geodesics `x` and `v` are (steps, m, n) arrays,
    `speed` is (steps, m) and `boundary_exit` is a per-row boolean array; a
    row that stopped early keeps its last good state in the later samples.
    """

    t: np.ndarray
    x: np.ndarray
    v: np.ndarray
    boundary_exit: bool
    speed: Optional[np.ndarray] = None


def _rk4(rhs, h, s):
    """One classical Runge-Kutta step of s' = rhs(s) for a state of 2n
    columns: Python floats for one row, (live,) arrays for an ensemble.
    Returns the new rows as lists and, per row, None or the error a stage
    that left the chart raised (on Python floats a pole raises
    ZeroDivisionError); once an ensemble stage raises, every row steps alone
    on floats.  Module-level, so no closure cycle keeps rhs and its recorded
    fields alive after geodesic_integrate returns."""
    ensemble = isinstance(s[0], np.ndarray)
    try:
        k1 = rhs(s)
        k2 = rhs([a + 0.5 * h * b for a, b in zip(s, k1)])
        k3 = rhs([a + 0.5 * h * b for a, b in zip(s, k2)])
        k4 = rhs([a + h * b for a, b in zip(s, k3)])
    except (MetricError, DomainError, ArithmeticError) as e:
        if not ensemble:
            return [None], [e]
        rows = [_rk4(rhs, h, row) for row in np.array(s).T.tolist()]
        return [r for (r,), _ in rows], [e for _, (e,) in rows]
    new = [a + (h / 6.0) * (p + 2.0 * q + 2.0 * r + w) for a, p, q, r, w in zip(s, k1, k2, k3, k4)]
    return (np.array(new).T.tolist(), [None] * len(s[0])) if ensemble else ([new], [None])


def geodesic_integrate(
    G: SprayField,
    x0: Sequence[float],
    y0: Sequence[float],
    T: float,
    dt: float = 1e-3,
    speed_check: Optional[FinslerField] = None,
    speed_rtol: float = 0.01,
) -> Trajectory:
    """Fixed-step classical Runge-Kutta solution of x'' + 2 G(x, x') = 0.

    `x0` and `y0` are one start point and velocity, or (m, n) arrays of m of
    them integrated as an ensemble: every Runge-Kutta stage evaluates the
    spray once for all rows still running.  A row stops, with its
    `boundary_exit` flag set, when it leaves the chart domain, when a stage
    raises MetricError, DomainError or an ArithmeticError, or when its state
    turns non-finite; each stop is logged at debug level on the "finslerkit"
    logger.  If `speed_check` is given, F(x'(t)) is recorded and a drift
    beyond `speed_rtol` (or a non-finite speed) raises IntegrationError.  A zero start velocity raises MetricError;
    an empty ensemble, x0 and y0 of different shapes or not of G's dimension,
    a non-finite T and a dt that is not finite and positive raise ValueError.
    T == 0 returns the start sample alone.

    Each row's state is a list of Python floats.  A stage steps one column
    state: the floats of the row when m == 1, (live,) arrays for an ensemble.
    G and `speed_check` are recorded at their first evaluation, on the floats
    of row 0, and replayed at later ones (diffcore.Replay), bit-identically;
    the log says when a field cannot be recorded or a comparison changes.
    """
    if not (0 < dt < math.inf and math.isfinite(T / dt)):
        raise ValueError(f"T must be finite and dt finite and positive, got T={T} and dt={dt}")
    single = np.ndim(x0) == 1
    X0, V0 = (np.atleast_2d(np.asarray(v, dtype=float)) for v in (x0, y0))
    if X0.shape != V0.shape or X0.shape[-1:] != (G.dim,):
        raise ValueError(f"x0 {np.shape(x0)} and y0 {np.shape(y0)} must share a shape ending in {G.dim}")
    if len(X0) == 0:
        raise ValueError("geodesic_integrate needs at least one start point")
    for x in X0:
        G.domain.require(x)
    require_nonzero(list(V0.T))
    m, n = X0.shape
    steps = max(1, int(round(abs(T) / dt))) if T else 0
    h = T / max(steps, 1)
    ts, label = [0.0], "row 0" if m == 1 else f"ensemble of {m} rows"

    def replayed(field, what):
        if field is None:
            return None
        return Replay(field, lambda why: log.debug("geodesic %s at t=%g: %s %s", label, ts[-1], what, why))

    spray, speed_field = replayed(G, "spray"), replayed(speed_check, "speed check")

    def rhs(s):
        return s[n:] + [-2.0 * g for g in spray(s[:n], s[n:])]

    def columns(live):  # the column state of the rows `live`
        return rows[live[0]] if m == 1 else list(np.array([rows[i] for i in live]).T)

    def speeds_of(live):
        s = columns(live)
        f = speed_field(s[:n], s[n:])
        return [f] if m == 1 else values_array(f, sites=(len(live),)).tolist()

    def stop_reason(s, error):
        if error is not None:
            return f"a stage raised {type(error).__name__}: {error}"
        if not all(map(math.isfinite, s)):
            return "non-finite state"
        if not G.domain.contains(s[:n]):
            return "left the domain"
        return None

    rows = [x + v for x, v in zip(X0.tolist(), V0.tolist())]
    live, states = list(range(m)), [rows]
    speeds = None if speed_field is None else [speeds_of(live)]
    for k in range(steps):
        new, errors = _rk4(rhs, h, columns(live))
        rows, moved = list(rows), []
        for i, s, error in zip(live, new, errors):
            why = stop_reason(s, error)
            if why is None:
                rows[i] = s
                moved.append(i)
            else:
                log.debug("geodesic row %d stopped after t=%g: %s", i, k * h, why)
        live = moved
        if not live:
            break
        ts.append((k + 1) * h)
        states.append(rows)
        if speeds is not None:
            f0, fk = speeds[0], list(speeds[-1])
            for i, f in zip(live, speeds_of(live)):
                fk[i] = f
                if not abs(f - f0[i]) <= speed_rtol * abs(f0[i]):
                    raise IntegrationError(f"geodesic speed drifted from {f0[i]} to {f} at t={ts[-1]}")
            speeds.append(fk)
    path = np.array(states)
    speed = None if speeds is None else np.array(speeds, dtype=float)
    exited = np.isin(np.arange(m), live, invert=True)
    if single:
        path, speed, exited = path[:, 0], None if speed is None else speed[:, 0], bool(exited[0])
    return Trajectory(
        t=np.array(ts), x=path[..., :n], v=path[..., n:], boundary_exit=exited, speed=speed
    )


def projective_residual(G: SprayField, x, y) -> np.ndarray:
    """Antisymmetric matrix G^i y^j - G^j y^i; zero iff G is proportional to y.

    Chart-level proxy for straight-line geodesics (projective flatness in the
    chart): the matrix vanishes at (x, y) exactly when G^i = P y^i there.
    Column arrays of sites give an (n, n, m) array.
    """
    yv = np.asarray(y, dtype=float)
    gv = values_array(G(list(x), list(y)), sites=yv.shape[1:])
    return gv[:, None] * yv[None, :] - yv[:, None] * gv[None, :]
