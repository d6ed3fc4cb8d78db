import sys

import numpy as np
import pytest

from finslerkit import diffcore, gallery
from finslerkit.diffcore import basis, directional_derivatives

from fd_oracle import sub_multi_indices

GALLERY_SPECS = [
    ("euclidean", {"n": 2}),
    ("minkowski", {"n": 2, "eps": 0.3}),
    ("funk", {"n": 2}),
    ("shen_flat", {"n": 2}),
    ("rotation2d", {}),
    ("cylinder", {"n": 3}),
    ("bao_shen_s3", {"eps": 0.3}),
    ("slab", {"kappa": 0.5}),
]

RANDERS_SPECS = [
    ("euclidean", {"n": 2}),
    ("funk", {"n": 2}),
    ("rotation2d", {}),
    ("cylinder", {"n": 3}),
    ("bao_shen_s3", {"eps": 0.3}),
    ("slab", {"kappa": 0.5}),
]


@pytest.fixture(scope="session")
def entries():
    return {name: gallery.make(name, **kw) for name, kw in GALLERY_SPECS}


@pytest.fixture(scope="session")
def rotation2d():
    return gallery.rotation2d()


@pytest.fixture(scope="session")
def funk2():
    return gallery.funk(2)


@pytest.fixture(scope="session")
def cylinder3():
    return gallery.cylinder(3)


def sample_sites(entry, n, seed):
    """Seeded interior points plus unit tangent directions."""
    pts = entry.metric.domain.sample_points(n, seed)
    rng = np.random.default_rng([seed, 77])
    dirs = rng.normal(size=(n, entry.dim))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    return pts, dirs


def xy_derivatives(f, x, y, x_dirs=(), y_dirs=()):
    """directional_derivatives of f(x, y) along x_dirs in x and y_dirs in y
    together: one pass over the concatenated point (x, y), each direction
    padded with zeros, tags in the order x_dirs then y_dirs."""
    n, m = len(x), len(y)
    dirs = [([*p, *[0.0] * m], k) for p, k in x_dirs] + [([*[0.0] * n, *q], k) for q, k in y_dirs]
    return directional_derivatives(lambda z: f(z[:n], z[n:]), [*x, *y], dirs)


def count_jet_passes(monkeypatch) -> list:
    """Count jet passes: wrap every finslerkit module attribute bound to
    diffcore's directional_derivatives or gradient (`from .diffcore import`
    copies the names) so that each call appends "directional" or "gradient"
    to the returned list.  A hessian counts as its directional passes."""
    calls = []

    def counted(fn, name):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapped

    real = ((diffcore.directional_derivatives, "directional"), (diffcore.gradient, "gradient"))
    wrappers = [(fn, counted(fn, name)) for fn, name in real]
    for mod in [m for k, m in sys.modules.items() if k.split(".")[0] == "finslerkit"]:
        for attr, v in list(vars(mod).items()):
            for fn, wrapped in wrappers:
                if v is fn:
                    monkeypatch.setattr(mod, attr, wrapped)
    return calls


def squared(F):
    """(x, y) -> F(x, y)^2 as one product."""

    def f2(x, y):
        f = F(x, y)
        return f * f

    return f2


def jet_partials(f, x, y, orders_x, orders_y) -> dict:
    """Every mixed partial of f at (x, y) componentwise at most (orders_x,
    orders_y), keyed like `fd_oracle.fd_partials`, from one
    directional_derivatives call with a jet per coordinate of nonzero order."""
    xi = [i for i, k in enumerate(orders_x) if k > 0]
    yi = [i for i, k in enumerate(orders_y) if k > 0]
    res = xy_derivatives(
        f, [float(v) for v in x], [float(v) for v in y],
        [(basis(len(x), i), orders_x[i]) for i in xi],
        [(basis(len(y), i), orders_y[i]) for i in yi],
    )
    return {
        (ox, oy): float(res.partial([ox[i] for i in xi] + [oy[i] for i in yi]))
        for ox in sub_multi_indices(orders_x)
        for oy in sub_multi_indices(orders_y)
    }


def disk_sites(n, seed, radius=0.95, dim=2, z_extent=0.0):
    """Points uniform in the disk/cylinder of given radius, unit directions."""
    rng = np.random.default_rng([seed, 55])
    pts = []
    while len(pts) < n:
        cand = rng.uniform(-radius, radius, size=(4 * n, 2))
        for row in cand:
            if row @ row < radius * radius:
                pts.append(row)
                if len(pts) == n:
                    break
    pts = np.array(pts)
    if dim > 2:
        extra = rng.uniform(-z_extent, z_extent, size=(n, dim - 2))
        pts = np.hstack([pts, extra])
    dirs = rng.normal(size=(n, dim))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    return pts, dirs
