"""Structural identities on randomly generated Randers data.

The gallery metrics all satisfy special identities (S = 0, K = 0, constant
curvature); these property tests draw generic curved data instead, where
nothing vanishes, and check the relations that must hold anyway: spray
cross-oracles, table recompositions, trace identities, and the S-criterion
equivalence.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import finslerkit._linalg as L
from finslerkit import curvature as C
from finslerkit import measures as ME
from finslerkit import spray as S
from finslerkit.metrics import (
    OneFormField,
    RandersData,
    RiemannianField,
    fundamental_tensor,
    whole_space_domain,
)


def make_random_randers(a_params, b_params):
    """Smooth 2D Randers data from bounded parameter tuples.

    alpha is a Gaussian-bump perturbation of the flat metric; beta is a
    bounded 1-form with slowly varying coefficients, scaled to keep its
    norm safely below 1.
    """
    dom = whole_space_domain(2)
    p, q, r = a_params
    c1, c2, d1, d2 = b_params

    def matrix(x):
        from finslerkit.diffcore import exp

        bump = exp(-(x[0] * x[0] + x[1] * x[1]))
        off = 0.3 * r * bump
        return [
            [1.0 + 0.5 * p * bump, off],
            [off, 1.0 + 0.5 * q * bump],
        ]

    def covector(x):
        from finslerkit.diffcore import sin, cos

        return [
            0.2 * (c1 + 0.5 * d1 * sin(x[1])),
            0.2 * (c2 + 0.5 * d2 * cos(x[0])),
        ]

    return RandersData(
        alpha=RiemannianField(dom, matrix, name="random-alpha"),
        beta=OneFormField(dom, covector, name="random-form"),
    )


unit = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)
site = st.floats(min_value=-0.8, max_value=0.8, allow_nan=False)


@given(a=st.tuples(unit, unit, unit), b=st.tuples(unit, unit, unit, unit),
       x1=site, x2=site, y1=unit, y2=unit)
@settings(max_examples=20, deadline=None)
def test_spray_routes_agree_on_random_data(a, b, x1, x2, y1, y2):
    if abs(y1) + abs(y2) < 0.1:
        y1 = 1.0
    rd = make_random_randers(a, b)
    x, y = [x1, x2], [y1, y2]
    closed = np.array([float(v) for v in S.randers_spray(rd)(x, y)])
    generic = np.array([float(v) for v in S.spray_from_metric(rd.finsler())(x, y)])
    np.testing.assert_allclose(closed, generic, rtol=1e-9, atol=1e-10)


@given(a=st.tuples(unit, unit, unit), b=st.tuples(unit, unit, unit, unit), x1=site, x2=site)
@settings(max_examples=20, deadline=None)
def test_table_identities_on_random_data(a, b, x1, x2):
    rd = make_random_randers(a, b)
    tbl = S.beta_table(rd, [x1, x2], order=1)
    r = np.array(tbl.r, dtype=float)
    s = np.array(tbl.s, dtype=float)
    b_cov = np.array(tbl.b_cov, dtype=float)
    np.testing.assert_allclose(r, r.T, atol=1e-12)
    np.testing.assert_array_equal(s, -s.T)
    np.testing.assert_allclose(r + s, b_cov, atol=1e-12)
    b_up = L.matvec(tbl.a_inv, tbl.b)
    assert abs(float(L.sum_prod(tbl.s_form, b_up))) <= 1e-12


@given(a=st.tuples(unit, unit, unit), b=st.tuples(unit, unit, unit, unit),
       x1=site, x2=site, y1=unit, y2=unit)
@settings(max_examples=15, deadline=None)
def test_s_routes_agree_on_random_data(a, b, x1, x2, y1, y2):
    if abs(y1) + abs(y2) < 0.1:
        y2 = -1.0
    rd = make_random_randers(a, b)
    x, y = [x1, x2], [y1, y2]
    closed = ME.randers_s_curvature(rd, x, y)
    local = ME.s_curvature(S.randers_spray(rd), ME.randers_density_field(rd), x, y)
    assert local == pytest.approx(closed, abs=1e-8 * (1 + abs(closed)))


@given(a=st.tuples(unit, unit, unit), b=st.tuples(unit, unit, unit, unit),
       x1=site, x2=site, y1=unit, y2=unit)
@settings(max_examples=10, deadline=None)
def test_ricci_2d_shortcut_on_random_data(a, b, x1, x2, y1, y2):
    if abs(y1) + abs(y2) < 0.1:
        y1 = 1.0
    rd = make_random_randers(a, b)
    x, y = [x1, x2], [y1, y2]
    G = S.randers_spray(rd)
    full = C.riemann(G, x, y).ricci
    shortcut = C.ricci_2d(G, x, y)
    assert shortcut == pytest.approx(full, abs=1e-7 * (1 + abs(full)))


def test_k0_residuals_flag_broken_hypothesis():
    # on data with S != 0 the checker still runs but flags the hypothesis
    rd = make_random_randers((0.8, -0.5, 0.4), (1.0, -0.6, 0.9, 0.3))
    out = C.k0_residuals(rd, [0.3, -0.2], [1.0, 0.4])
    assert out.s_zero_max > 1e-3


@given(a=st.tuples(unit, unit, unit), b=st.tuples(unit, unit, unit, unit),
       x1=site, x2=site, y1=unit, y2=unit)
@settings(max_examples=10, deadline=None)
def test_riemann_operator_kernel_on_random_data(a, b, x1, x2, y1, y2):
    if abs(y1) + abs(y2) < 0.1:
        y2 = 1.0
    rd = make_random_randers(a, b)
    x, y = [x1, x2], [y1, y2]
    G = S.randers_spray(rd)
    R = C.riemann(G, x, y)
    scale = 1.0 + np.max(np.abs(R.matrix))
    assert np.max(np.abs(R.matrix @ y)) <= 1e-8 * scale
    lowered = fundamental_tensor(rd.finsler(), x, y).g @ R.matrix
    assert np.max(np.abs(lowered - lowered.T)) <= 1e-8 * scale
