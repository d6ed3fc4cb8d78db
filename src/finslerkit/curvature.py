"""Riemann curvature, Ricci and flag curvature, plus the Randers residual
checkers that characterize vanishing curvature when the S-curvature is zero.

The Riemann operator is assembled from the spray in its spray form (Shen,
Differential Geometry of Spray and Finsler Spaces, 2001):

    R^i_k = 2 dG^i/dx^k + D(dG^i/dy^k) - dG^i/dy^j dG^j/dy^k,

D = -y^j d/dx^j + 2 G^j d/dy^j the derivative along (-y, 2G) on TM.  One jet
tag moving x by -y and y by 2G around the y-derivatives of G gives dG/dy at
order 0 and D(dG/dy) = -y^j d2G/dx^j dy + 2 G^j d2G/dy^j dy at order 1.

Everything here differentiates *through* spray fields with jets, so any
spray that evaluates generically (closed-form or built from F) works.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _linalg
from .diffcore import derivative_blocks, directional_derivatives, joint_derivative
from .diffcore import value, values_array
from .errors import DegenerateFlagError
from .metrics import (
    FinslerField,
    RandersData,
    RiemannianField,
    metric_entries,
    require_nonzero,
)
from .spray import SprayField, beta_table, levi_civita_spray, spray_from_metric


@dataclass
class RiemannOperator:
    """R_y as a matrix R^i_k at (x, y) with its trace."""

    matrix: np.ndarray
    ricci: float


def _along_spray(G: SprayField, x, y, G_at, y_part):
    """y_part(G.at(x), x, y) and its derivative D along the vector (-y, 2G)
    on TM, from one jet tag that moves x by -y and y by 2G(x, y) together.

    y_part(G_xs, xs, ys) takes y-derivatives of zs -> G_xs(zs) at ys.
    """
    return joint_derivative(
        lambda xs, ys: y_part(G.at(xs), xs, ys),
        x, y, [-c for c in y], [2.0 * g for g in G_at(list(y))],
    )


def _y_gradient(G_xs, xs, ys):
    """dG^i/dy^k as [k][i]."""
    return derivative_blocks(lambda _, zs: G_xs(zs), xs, ys, "y")[0]


def _spray_form_blocks(H: SprayField, x, y, G_at):
    """dH^i/dx^k, dH^i/dy^k and D(dH^i/dy^k), each as [k][i], with D the
    derivative along (-y, 2G) and G_at the site function of G at x:
    2n + 1 evaluations of H and one of G_at.  H = G gives the blocks of the
    spray form of R."""
    dHdx, _ = derivative_blocks(H, x, y, "x")
    return (dHdx, *_along_spray(H, x, y, G_at, _y_gradient))


def riemann_entries(G: SprayField, x, y) -> list:
    """R^i_k as a nested list of generic scalars (jet-safe inputs allowed).

    2n + 1 spray evaluations: the value, n x-derivatives and the n
    y-derivatives taken on the jet along the spray.
    """
    n = len(y)
    dGdx, dGdy, DdGdy = _spray_form_blocks(G, x, y, G.at(list(x)))
    R = [[None] * n for _ in range(n)]
    for i in range(n):
        for k in range(n):
            acc = 2.0 * dGdx[k][i] + DdGdy[k][i]
            for j in range(n):
                acc = acc - dGdy[j][i] * dGdy[k][j]
            R[i][k] = acc
    return R


def riemann(G: SprayField, x, y) -> RiemannOperator:
    """Riemann curvature operator at (x, y) from the spray form of R;
    raises MetricError at y = 0."""
    require_nonzero(y)
    return _operator(values_array(riemann_entries(G, x, y)))


def _operator(mat: np.ndarray) -> RiemannOperator:
    return RiemannOperator(matrix=mat, ricci=float(np.trace(mat)))


def ricci(G: SprayField, x, y) -> float:
    """Ricci scalar: trace of the Riemann operator."""
    return riemann(G, x, y).ricci


def ricci_2d(G: SprayField, x, y):
    """Two-dimensional Ricci shortcut (a float at one site, an array over
    column arrays of sites).

    With S = dG^1/du + dG^2/dv (u, v the tangent coordinates) and D the
    derivative along (-y, 2G):

        Ric = 2 { G^1_x + G^2_y + G^1_u G^2_v - G^1_v G^2_u } - S^2 + D(S)

    S and dG/dy come at order 0 of the jet along the spray, D(S) at order 1.
    """
    if G.dim != 2:
        raise ValueError("ricci_2d requires a two-dimensional spray")
    dGdx, dGdy, DdGdy = _spray_form_blocks(G, x, y, G.at(list(x)))
    S = dGdy[0][0] + dGdy[1][1]
    val = (
        2.0 * (dGdx[0][0] + dGdx[1][1] + dGdy[0][0] * dGdy[1][1] - dGdy[1][0] * dGdy[0][1])
        - S * S
        + (DdGdy[0][0] + DdGdy[1][1])
    )
    return value(val)


def flag_curvature(F: FinslerField, x, y, u, G: Optional[SprayField] = None) -> float:
    """Flag curvature K(P, y) for the flag P = span{y, u} with pole y.

    K = g_y(R_y(u), u) / [ g_y(y,y) g_y(u,u) - g_y(y,u)^2 ].
    This is flag_curvatures at one site; G defaults to the generic spray of F.
    Raises DegenerateFlagError when u is (numerically) parallel to y, and
    MetricError at y = 0 or where g is not positive definite.
    """
    require_nonzero(y)
    K, degenerate = flag_curvatures(F, spray_from_metric(F) if G is None else G, x, y, u)
    if degenerate:
        raise DegenerateFlagError("flag edge is parallel to the pole")
    return float(K)


def flag_curvatures(F: FinslerField, G: SprayField, x, y, u):
    """Flag curvatures K(span{y, u}, y) at a batch of sites in one array pass.

    x, y and u hold column arrays (one per coordinate, one element per site).
    Returns (K, degenerate): `degenerate` marks the flags whose edge is
    numerically parallel to the pole, where K is NaN (and flag_curvature raises
    DegenerateFlagError).  Raises MetricError where g is not positive definite.
    """
    g = metric_entries(F, x, y)
    _linalg.cholesky(g)  # MetricError where g is not positive definite
    gyy, guu, gyu = (_linalg.quad_form(g, a, b) for a, b in ((y, y), (u, u), (y, u)))
    denom = np.asarray(value(gyy * guu - gyu * gyu), dtype=float)
    num = np.asarray(value(_linalg.quad_form(g, u, _riemann_times(G, x, y, u))), dtype=float)
    degenerate = denom <= 1e-10 * np.asarray(value(gyy * guu), dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        K = np.where(degenerate, np.nan, num / denom)
    return K, degenerate


def _riemann_times(G: SprayField, x, y, u) -> list:
    """R^i_k u^k = 2 d_{x,u}G^i + D(d_{y,u}G^i) - d_{y,v}G^i with v = d_{y,u}G,
    d_{x,u} and d_{y,u} the derivatives along u in x and in y: four spray
    evaluations in any dimension, without the matrix R."""

    def along(G_xs, xs, ys, w):
        return directional_derivatives(lambda _, zs: G_xs(zs), xs, ys, y_dirs=[(w, 1)]).partial([1])

    G_at = G.at(list(x))
    dxu = directional_derivatives(G, x, y, x_dirs=[(u, 1)]).partial([1])
    v, Dv = _along_spray(G, x, y, G_at, lambda G_xs, xs, ys: along(G_xs, xs, ys, u))
    return [2.0 * a + b - c for a, b, c in zip(dxu, Dv, along(G_at, x, y, v))]


# -- curvature via a reference spray ------------------------------------------


def riemann_via_difference(G: SprayField, G_ref: SprayField, x, y) -> RiemannOperator:
    """Riemann curvature of G from that of a reference spray G~: with
    H = G - G~, N = dG~/dy and D the derivative along (-y, 2G),

        R^i_k = R~^i_k + 2 dH^i/dx^k + D(dH^i/dy^k) + 2 H^j dN^i_k/dy^j
                - N^i_j dH^j/dy^k - dH^i/dy^j N^j_k - dH^i/dy^j dH^j/dy^k

    2n + 2 evaluations of G and 5n + 2 of G~; raises MetricError at y = 0.
    """
    require_nonzero(y)
    n = len(y)

    def H_at(xs):
        G_xs, ref_xs = G.at(xs), G_ref.at(xs)
        return lambda ys: [a - b for a, b in zip(G_xs(ys), ref_xs(ys))]

    H = SprayField(G.domain, lambda xs, ys: H_at(xs)(ys), site=H_at)
    dHdx, dHdy, DdHdy = _spray_form_blocks(H, x, y, G.at(list(x)))
    # N and its y-derivative along 2H, from one jet moving y by 2H
    N, HdN = joint_derivative(
        lambda xs, ys: _y_gradient(G_ref.at(xs), xs, ys),
        x, y, [0.0] * n, [2.0 * h for h in H_at(list(x))(list(y))],
    )
    base = riemann_entries(G_ref, x, y)
    R = [[None] * n for _ in range(n)]
    for i in range(n):
        for k in range(n):
            acc = base[i][k] + 2.0 * dHdx[k][i] + DdHdy[k][i] + HdN[k][i]
            for j in range(n):
                acc = acc - N[j][i] * dHdy[k][j] - dHdy[j][i] * (N[k][j] + dHdy[k][j])
            R[i][k] = acc
    return _operator(values_array(R))


# -- Randers zero-curvature residuals ------------------------------------------


@dataclass
class K0Residuals:
    """Residuals of the two vanishing-curvature conditions for S = 0 Randers data.

    residual_a is the alpha-rational block (including the Riemannian curvature
    of alpha); residual_b is the coefficient of 1/alpha.  Both vanish iff the
    full Riemann curvature vanishes, given S = 0; `s_zero_max` flags how well
    the S = 0 hypothesis holds at x.
    """

    residual_a: np.ndarray
    residual_b: np.ndarray
    s_zero_max: float


def _k0_blocks(randers: RandersData, x, y):
    """The rational and alpha^{-1} blocks of R^i_k minus the alpha-curvature term."""
    n = randers.dim
    tbl = beta_table(randers, x, order=2)
    c = tbl.contract(y)
    a2 = c.alpha2
    ylow = c.y_low
    A = [[None] * n for _ in range(n)]
    B = [[None] * n for _ in range(n)]
    s_j_sj0 = sum(tbl.s_form[j] * c.si0[j] for j in range(n))
    for i in range(n):
        for k in range(n):
            d = 1.0 if i == k else 0.0
            A[i][k] = (
                (c.s00 * d - c.s0k[k] * y[i])
                + (c.sk0_cov[k] - c.s0k[k]) * y[i]
                + c.s0 * (c.s0 * d - tbl.s_form[k] * y[i])
                - (
                    a2 * sum(tbl.s_up[i][j] * tbl.s_up[j][k] for j in range(n))
                    - sum(tbl.s_up[i][j] * c.si0[j] for j in range(n)) * ylow[k]
                )
                + 3.0 * c.sk0[k] * c.si0[i]
            )
            B[i][k] = (
                s_j_sj0 * (a2 * d - ylow[k] * y[i])
                + a2 * (s_j_sj0 * d - sum(tbl.s_form[j] * tbl.s_up[j][k] for j in range(n)) * y[i])
                + a2 * (c.si_k0[i][k] - c.si_0k[i][k])
                - (a2 * c.si_0k[i][k] - c.si_00[i] * ylow[k])
            )
    return values_array(A), values_array(B), tbl


def _alpha_riemann(randers: RandersData, x, y) -> np.ndarray:
    """Riemann curvature matrix of alpha (Levi-Civita spray) as a float array."""
    return values_array(riemann_entries(levi_civita_spray(randers.alpha), x, y))


def k0_residuals(randers: RandersData, x, y) -> K0Residuals:
    """Residuals of the two curvature-vanishing conditions at (x, y).

    residual_a = Rbar^i_k + [rational block]; residual_b = [1/alpha block].
    Rbar is the Riemann curvature of alpha (Levi-Civita spray).  With column
    arrays of sites the residuals are (n, n, m) arrays and `s_zero_max` has
    one entry per site.
    """
    A, B, tbl = _k0_blocks(randers, x, y)
    s_zero_max = np.max(np.abs(tbl.s_zero_residual()), axis=(0, 1))
    return K0Residuals(
        residual_a=_alpha_riemann(randers, x, y) + A, residual_b=B, s_zero_max=s_zero_max
    )


@dataclass
class RicciTrace:
    """Traced curvature of an S = 0 Randers metric plus the two
    Ricci-vanishing condition residuals (arrays over column arrays of sites)."""

    value: float
    trace_condition: float       # s^k_{0|k} - (n-1) s_j s^j_0
    ricci_bar_condition: float   # Ric(alpha) + (n-1)(s_{0|0}+s_0^2) - alpha^2 s^k_j s^j_k + 2 s_{k0} s^k_0


def randers_ricci_trace(randers: RandersData, x, y) -> RicciTrace:
    """Trace formula for the Ricci curvature of an S = 0 Randers metric:

        Ric = Ric(alpha) + (n-1){ s_{0|0} + s_0 s_0 } + 2 s_{k0} s^k_0
              - alpha^2 s^k_j s^j_k + 2 { s^k_{0|k} - (n-1) s_j s^j_0 } alpha
    """
    n = randers.dim
    tbl = beta_table(randers, x, order=2)
    c = tbl.contract(y)
    a2 = c.alpha2
    alpha = a2 ** 0.5
    ric_bar = np.trace(_alpha_riemann(randers, x, y))
    sk0_sk0 = sum(c.sk0[k] * c.si0[k] for k in range(n))
    skj_sjk = sum(tbl.s_up[k][j] * tbl.s_up[j][k] for k in range(n) for j in range(n))
    sk_0k = sum(c.si_0k[k][k] for k in range(n))
    s_j_sj0 = sum(tbl.s_form[j] * c.si0[j] for j in range(n))
    ricci_bar = ric_bar + (n - 1) * (c.s00 + c.s0**2) - a2 * skj_sjk + 2.0 * sk0_sk0
    trace = sk_0k - (n - 1) * s_j_sj0
    return RicciTrace(
        value=ricci_bar + 2.0 * trace * alpha, trace_condition=trace, ricci_bar_condition=ricci_bar
    )


def gauss_curvature_riemannian(alpha: RiemannianField, x) -> float:
    """Sectional (Gauss) curvature of a 2D Riemannian metric at x: the flag
    curvature of alpha on span{e1, e2} under its Levi-Civita spray."""
    if alpha.dim != 2:
        raise ValueError("gauss curvature is defined for 2D metrics")
    return flag_curvature(alpha.finsler(), x, [1.0, 0.0], [0.0, 1.0], G=levi_civita_spray(alpha))
