"""Small symmetric-positive-definite linear algebra over generic scalars.

The routines accept matrices as lists of lists whose entries are floats,
numpy arrays, or jets; everything reduces to ring operations plus `sqrt`,
so Cholesky works unchanged on jet towers.  Failure of positive definiteness
surfaces as MetricError.
"""

from __future__ import annotations

import numpy as np

from .diffcore import sqrt, value
from .errors import MetricError


def _sqrt_pd(u):
    base = value(u)
    if isinstance(base, np.ndarray):
        if np.any(base <= 0.0):
            raise MetricError("matrix is not positive definite")
    elif base <= 0.0:
        raise MetricError("matrix is not positive definite")
    return sqrt(u)


def cholesky(a):
    """Lower-triangular L with A = L L^T for a symmetric PD list-matrix."""
    n = len(a)
    L = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            acc = a[i][j]
            for k in range(j):
                acc = acc - L[i][k] * L[j][k]
            if i == j:
                L[i][i] = _sqrt_pd(acc)
            else:
                L[i][j] = acc / L[j][j]
    return L

def det_from_cholesky(L):
    n = len(L)
    d = L[0][0]
    for i in range(1, n):
        d = d * L[i][i]
    return d * d


def spd_factor(a):
    """(inverse, determinant) of a symmetric PD list-matrix."""
    L = cholesky(a)
    n = len(a)
    inv = [[0.0] * n for _ in range(n)]
    for col in range(n):
        z = [0.0] * n
        for i in range(n):
            acc = 1.0 if i == col else 0.0
            for k in range(i):
                acc = acc - L[i][k] * z[k]
            z[i] = acc / L[i][i]
        w = [0.0] * n
        for i in reversed(range(n)):
            acc = z[i]
            for k in range(i + 1, n):
                acc = acc - L[k][i] * w[k]
            w[i] = acc / L[i][i]
        for i in range(n):
            inv[i][col] = w[i]
    return inv, det_from_cholesky(L)


def matvec(a, v):
    return [sum_prod(row, v) for row in a]


def sum_prod(row, v):
    acc = row[0] * v[0]
    for k in range(1, len(v)):
        acc = acc + row[k] * v[k]
    return acc


def quad_form(a, u, v):
    acc = None
    for i in range(len(u)):
        for j in range(len(v)):
            t = a[i][j] * u[i] * v[j]
            acc = t if acc is None else acc + t
    return acc
