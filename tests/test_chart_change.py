"""Chart-change metamorphic oracle.

Flag curvature and S-curvature are invariants: pulling a metric back by a
diffeomorphism phi, F'(x, y) = F(phi(x), Dphi(x) y), and its volume form,
sigma'(x) = sigma(phi(x)) det Dphi(x), gives at (x, y) the values of F at
(phi(x), Dphi(x) y), the flag span{y, u} mapping to span{Dphi y, Dphi u}.
phi is affine plus a small quadratic term; Dphi comes from `gradient(phi, x)`,
so inside F' it nests under the outer jets of the generic spray.  The
control F(phi(x), y), which drops Dphi, misses both.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finslerkit import _linalg
from finslerkit import curvature as C
from finslerkit import diffcore as dc
from finslerkit import measures as ME
from finslerkit import spray as S
from finslerkit.metrics import FinslerField, OneFormField, RandersData, RiemannianField, whole_space_domain

from test_random_randers import make_random_randers

# fixed before any gap was measured
TOL = 1e-10


def within(got, want):
    return abs(got - want) <= TOL * (1.0 + abs(want))


def chart_change(c, A, Q):
    """phi(x) = c + A x + (x^T Q_i x)_i, jet-safe."""
    n = len(c)
    return lambda x: [c[i] + _linalg.sum_prod(A[i], x) + _linalg.quad_form(Q[i], x, x) for i in range(n)]


def jacobian(phi, x):
    """Dphi[i][k] = d phi^i / d x^k (jet-safe)."""
    _, d1 = dc.gradient(phi, x)
    return [[d1[k][i] for k in range(len(x))] for i in range(len(x))]


def det(m):
    """Determinant of a 2 x 2 or 3 x 3 list-matrix (jet-safe), by cofactors."""
    if len(m) == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    minor = lambda j, k: m[1][j] * m[2][k] - m[1][k] * m[2][j]
    return m[0][0] * minor(1, 2) + m[0][1] * minor(2, 0) + m[0][2] * minor(0, 1)


def pulled_back(F, phi, with_jacobian=True):
    def func(x, y):
        v = _linalg.matvec(jacobian(phi, x), y) if with_jacobian else y
        return F(phi(x), v)

    return FinslerField(F.domain, func, name=f"pullback({F.name})")


def density(rd, phi):
    sigma = ME.randers_density_field(rd)
    return ME.VolumeDensity(lambda x: sigma(phi(x)) * det(jacobian(phi, x)), method="pullback")


def invariants(rd, phi, x, y, u, with_jacobian=True):
    """((K', K), (S', S)): K' and S' of the pulled-back Randers metric at
    (x, y) and the flag span{y, u}, through its generic spray; K and S of F
    at (phi(x), Dphi y) and the flag span{Dphi y, Dphi u}, through the Randers
    closed forms."""
    Fp = pulled_back(rd.finsler(), phi, with_jacobian)
    J = [[float(e) for e in row] for row in jacobian(phi, x)]
    px, py, pu = [float(v) for v in phi(x)], _linalg.matvec(J, y), _linalg.matvec(J, u)
    K_ref = C.flag_curvature(rd.finsler(), px, py, pu, G=S.randers_spray(rd))
    S_ref = float(ME.randers_s_curvature(rd, px, py))
    G = S.spray_from_metric(Fp)
    K = C.flag_curvature(Fp, x, y, u, G=G)
    S_val = float(ME.s_curvature(G, density(rd, phi), x, y))
    return (K, K_ref), (S_val, S_ref)


unit = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)
small = st.floats(min_value=-0.25, max_value=0.25, allow_nan=False)
tiny = st.floats(min_value=-0.05, max_value=0.05, allow_nan=False)
site = st.floats(min_value=-0.5, max_value=0.5, allow_nan=False)


def phi_2d(c, a, q):
    """Dphi stays within 0.35 of the identity entrywise on the sites, so det Dphi >= 0.3."""
    A = [[1.0 + a[0], a[1]], [a[2], 1.0 + a[3]]]
    Q = [[[q[0], q[1]], [q[1], q[2]]], [[q[3], q[4]], [q[4], q[5]]]]
    return chart_change(list(c), A, Q)


@given(a=st.tuples(unit, unit, unit), b=st.tuples(unit, unit, unit, unit),
       c=st.tuples(unit, unit), lin=st.tuples(small, small, small, small), q=st.tuples(*[tiny] * 6),
       x=st.tuples(site, site), theta=st.floats(min_value=0.0, max_value=6.283))
@settings(max_examples=25, deadline=None)
def test_curvatures_are_chart_invariant_2d(a, b, c, lin, q, x, theta):
    rd = make_random_randers(a, b)
    y = [np.cos(theta), np.sin(theta)]
    u = [-y[1], y[0]]
    (K, K_ref), (S_val, S_ref) = invariants(rd, phi_2d(c, lin, q), list(x), y, u)
    assert within(K, K_ref), (K, K_ref)
    assert within(S_val, S_ref), (S_val, S_ref)


def random_randers_3d(rng):
    """3D Randers data in the style of make_random_randers: a = I + P exp(-|x|^2)
    with |P_ij| <= 0.2, so a >= 0.4 I, and |b_i| <= 0.225, so ||beta|| < 0.62."""
    P = rng.uniform(-0.2, 0.2, (3, 3))
    P = ((P + P.T) / 2).tolist()
    c, d = rng.uniform(-1.0, 1.0, 3).tolist(), rng.uniform(-1.0, 1.0, 3).tolist()

    def matrix(x):
        bump = dc.exp(-(x[0] * x[0] + x[1] * x[1] + x[2] * x[2]))
        return [[(1.0 if i == j else 0.0) + P[i][j] * bump for j in range(3)] for i in range(3)]

    def covector(x):
        return [0.15 * (c[i] + 0.5 * d[i] * dc.sin(x[(i + 1) % 3])) for i in range(3)]

    dom = whole_space_domain(3)
    return RandersData(RiemannianField(dom, matrix), OneFormField(dom, covector))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_curvatures_are_chart_invariant_3d(seed):
    rng = np.random.default_rng([seed, 0xC4])
    rd = random_randers_3d(rng)
    A = np.eye(3) + rng.uniform(-0.2, 0.2, (3, 3))
    Q = rng.uniform(-0.03, 0.03, (3, 3, 3))
    Q = (Q + Q.transpose(0, 2, 1)) / 2
    phi = chart_change(rng.uniform(-0.5, 0.5, 3).tolist(), A.tolist(), Q.tolist())
    x = rng.uniform(-0.5, 0.5, 3).tolist()
    y, u = rng.normal(size=3).tolist(), rng.normal(size=3).tolist()
    (K, K_ref), (S_val, S_ref) = invariants(rd, phi, x, y, u)
    assert within(K, K_ref), (K, K_ref)
    assert within(S_val, S_ref), (S_val, S_ref)


def test_the_control_without_the_jacobian_misses():
    rd = make_random_randers((0.6, -0.4, 0.8), (0.5, -0.7, 0.9, 0.3))
    phi = phi_2d((0.2, -0.1), (0.25, -0.2, 0.15, -0.25), (0.05, -0.03, 0.02, 0.04, -0.05, 0.01))
    x, y, u = [0.3, -0.2], [0.8, 0.6], [-0.6, 0.8]
    (K, K_ref), (S_val, S_ref) = invariants(rd, phi, x, y, u, with_jacobian=False)
    # each misses by far more than the tolerance
    assert abs(K - K_ref) > 1e5 * TOL * (1.0 + abs(K_ref))
    assert abs(S_val - S_ref) > 1e5 * TOL * (1.0 + abs(S_ref))
