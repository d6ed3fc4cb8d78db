"""The benchmark workloads and the oracle every answer is checked against.

A workload is a list of operations built from the workload seed.  Each
operation calls the public finslerkit API once (or `finsler` through
`cli.main`, in-process) and returns `(output, ok)`: `output` is a plain value
compared between the untraced and the traced pass, `ok` says whether the
answer passed its finite-value and oracle checks.  Operations are closed-loop:
one caller, the next call starts when the previous one returns.

finslerkit is imported inside the functions, never at module level, so the
set-up measurement in `run.py` can re-import the package from scratch.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE.parent / ".bench_out"
MANIFEST = HERE / "manifest.json"

# The gallery specs of the test suite's GALLERY_SPECS, as `finsler` specs.
SPECS = (
    "euclidean:n=2",
    "minkowski:n=2,eps=0.3",
    "funk:n=2",
    "shen_flat:n=2",
    "rotation2d",
    "cylinder:n=3",
    "bao_shen_s3:eps=0.3",
    "slab:kappa=0.5",
)
RANDERS_SPECS = tuple(s for s in SPECS if not s.startswith(("minkowski", "shen_flat")))

# Oracle tolerances: the battery's own tolerances for the same identities
# (flag_constant, s_three_way_closed, cartan_bound, geodesic_speed,
# volume_closed_vs_mc), applied relative to the size of the expected value.
TOL_CURVATURE = 1e-6
TOL_S = 1e-8
TOL_TORSION = 1e-9
TOL_SPEED = 1e-6
TOL_NAVIGATION = 1e-9
TOL_VOLUME = 1e-2

TORSION_SAMPLES = 1024
VOLUME_SAMPLES = 20_000
TRAVEL_INTERVALS = 32


@dataclass
class Op:
    """One timed call: `kind` groups operations for per-kind statistics."""

    name: str
    kind: str
    run: Callable[[], tuple]


@dataclass
class Setup:
    """Gallery entries and sprays built before the first timed operation."""

    entries: dict
    sprays: dict
    generic_sprays: dict


def build_setup() -> Setup:
    from finslerkit import gallery
    from finslerkit.spray import randers_spray, spray_from_metric

    entries = {spec: gallery.parse_spec(spec) for spec in SPECS}
    sprays = {
        spec: randers_spray(e.randers) if e.randers is not None else spray_from_metric(e.metric)
        for spec, e in entries.items()
    }
    generic = {spec: spray_from_metric(entries[spec].metric) for spec in RANDERS_SPECS}
    return Setup(entries, sprays, generic)


def finite(*values) -> bool:
    return all(math.isfinite(float(v)) for v in values)


def within(got: float, want: float, tol: float) -> bool:
    """Finite and |got - want| <= tol * max(1, |want|)."""
    return finite(got, want) and abs(got - want) <= tol * max(1.0, abs(want))


def _unit(rng: np.random.Generator, n: int) -> list:
    v = rng.normal(size=n)
    return [float(c) for c in v / np.linalg.norm(v)]


def _transverse(rng: np.random.Generator, y: list) -> list:
    """A unit vector Euclidean-orthogonal to y, so the flag {y, u} is never degenerate."""
    u = np.asarray(_unit(rng, len(y)))
    yv = np.asarray(y)
    u = u - (u @ yv) * yv
    return [float(c) for c in u / np.linalg.norm(u)]


def _cli(argv: list) -> tuple[int, str]:
    """Run `finsler <argv> --out FILE` in-process; return (exit code, report text)."""
    from finslerkit import cli

    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / "report.json"
    if out.exists():
        out.unlink()
    with contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv + ["--out", str(out)])
    return code, out.read_text() if out.exists() else ""


# -- battery ---------------------------------------------------------------------


def report_manifest(report: dict) -> list:
    return [[c["check_id"], c["n_samples"], c["tolerance"]] for c in report["checks"]]


def report_ok(report: dict, pinned: list) -> bool:
    """Passed, every residual finite, and the check list equal to the pinned one."""
    return (
        report["passed"] is True
        and all(c["passed"] is True and finite(c["max_residual"]) for c in report["checks"])
        and report_manifest(report) == pinned
    )


def battery_ops(setup: Setup, seed: int, smoke: bool = False) -> list:
    """`finsler verify SPEC --seed S` for the 8 gallery specs at 200 points.

    Verify seeds come from the manifest's pool: seeds whose reports pass and
    carry the pinned check list (a geodesic that leaves the chart early
    records fewer samples, which would read as a shrunken check)."""
    manifest = json.loads(MANIFEST.read_text())
    rng = random.Random(seed)
    specs = list(SPECS[-1:] if smoke else SPECS)
    rng.shuffle(specs)
    ops = []
    for spec in specs:
        vseed = rng.choice(manifest["verify_seeds"])
        pinned = manifest["checks"][spec]
        argv = ["verify", spec, "--points", str(manifest["points"]), "--seed", str(vseed)]

        def run(argv=argv, pinned=pinned):
            code, text = _cli(argv)
            ok = code == 0 and text != "" and report_ok(json.loads(text), pinned)
            return text, ok

        ops.append(Op(f"verify {spec} --seed {vseed}", f"verify.{spec.split(':')[0]}", run))
    return ops


# -- grid scan -------------------------------------------------------------------

# (spec, quantity, grid); the funk grid crosses the unit circle, so its corners
# must come back as null.
GRIDS = (
    ("rotation2d", "K", "x=-0.7:0.7:11,y=-0.7:0.7:11"),
    ("funk:n=2", "Ric", "x=-1.1:1.1:11,y=-1.1:1.1:11"),
    ("shen_flat:n=2", "K", "x=-0.6:0.6:7,y=-0.6:0.6:7"),
    ("cylinder:n=3", "S", "x=-0.6:0.6:5,y=-0.6:0.6:5,z=-0.8:0.8:5"),
    ("bao_shen_s3:eps=0.3", "K", "x=-0.5:0.5:4,y=-0.5:0.5:4,z=-0.5:0.5:4"),
    ("slab:kappa=0.5", "cartan", "x=-1:1:5,y=-1:1:5"),
    ("minkowski:n=2,eps=0.3", "cartan2", "x=-1:1:3,y=-1:1:3"),
)


def _grid_points(grid: str) -> list:
    axes = [np.linspace(float(a), float(b), int(c))
            for a, b, c in (item.partition("=")[2].split(":") for item in grid.split(","))]
    mesh = np.meshgrid(*axes, indexing="ij")
    return [list(p) for p in np.stack([m.ravel() for m in mesh], axis=1)]


def scan_ok(setup: Setup, spec: str, quantity: str, grid: str, payload: dict) -> bool:
    """Null exactly off the chart domain; in-domain values match the gallery."""
    entry = setup.entries[spec]
    y = payload["dir"]
    values = np.asarray(payload["values"], dtype=object).ravel()
    points = _grid_points(grid)
    if len(values) != len(points):
        return False
    inside = [bool(entry.metric.domain.contains(p)) for p in points]
    if any((v is None) == ins for v, ins in zip(values, inside)):
        return False
    got = [float(v) for v in values if v is not None]
    if not got or not finite(*got):
        return False
    if quantity in ("K", "S"):
        want = entry.reference.flag_curvature if quantity == "K" else entry.reference.s_curvature
        tol = TOL_CURVATURE if quantity == "K" else TOL_S
        return all(within(v, want, tol) for v in got)
    if quantity == "Ric":
        want = [entry.reference.ricci_fn(p, y) for p, ins in zip(points, inside) if ins]
        return all(within(v, w, TOL_CURVATURE) for v, w in zip(got, want))
    # cartan / cartan2 on x-independent norms: one value everywhere, and for the
    # Randers slab the bound ||C|| <= 3/sqrt(2) sqrt(1 - sqrt(1 - ||beta||^2))
    if max(got) - min(got) > TOL_TORSION * max(1.0, abs(got[0])):
        return False
    if quantity == "cartan" and entry.randers is not None:
        return got[0] <= _cartan_bound(entry, points[0]) + TOL_TORSION
    return True


def grid_scan_ops(setup: Setup, seed: int, smoke: bool = False) -> list:
    """`finsler scan` over the fixed grid set with a seeded direction and flag."""
    rng = np.random.default_rng([seed, 0x5CA])
    grids = list(GRIDS[:1] if smoke else GRIDS)
    ops = []
    for k in random.Random(seed).sample(range(len(grids)), len(grids)):
        spec, quantity, grid = grids[k]
        n = setup.entries[spec].dim
        y = _unit(rng, n)
        u = _transverse(rng, y)
        # `--dir=` form: a leading minus sign would read as an option
        argv = ["scan", spec, "--quantity", quantity, "--grid", grid,
                "--dir=" + ",".join(repr(v) for v in y), "--seed", str(seed)]
        if quantity == "K":
            argv.append("--flag=" + ",".join(repr(v) for v in u))

        def run(argv=argv, spec=spec, quantity=quantity, grid=grid):
            code, text = _cli(argv)
            ok = code == 0 and text != "" and scan_ok(setup, spec, quantity, grid, json.loads(text))
            return text, ok

        ops.append(Op(f"scan {spec} {quantity}", f"scan.{spec.split(':')[0]}.{quantity}", run))
    return ops


def in_domain_sites(setup: Setup, ops: list) -> int:
    """Grid sites inside the chart domain over the scan ops given."""
    total = 0
    for spec, _, grid in GRIDS:
        if any(op.name.startswith(f"scan {spec} ") for op in ops):
            contains = setup.entries[spec].metric.domain.contains
            total += sum(bool(contains(p)) for p in _grid_points(grid))
    return total


# -- site queries ----------------------------------------------------------------


def _cartan_bound(entry, x) -> float:
    from finslerkit.metrics import beta_norm

    nb = beta_norm(entry.randers, list(x))
    return 3.0 / math.sqrt(2.0) * math.sqrt(1.0 - math.sqrt(1.0 - nb * nb))


def _ricci_query(entry, G, x, y):
    from finslerkit.curvature import riemann

    ric = riemann(G, x, y).ricci
    f = float(entry.metric(x, y))
    return ric, within(ric, (entry.dim - 1) * entry.reference.flag_curvature * f * f, TOL_CURVATURE)


def _flag_query(entry, G, x, y, u):
    from finslerkit.curvature import flag_curvature

    k = flag_curvature(entry.metric, x, y, u, G=G)
    return k, within(k, entry.reference.flag_curvature, TOL_CURVATURE)


def _s_query(entry, G, x, y):
    from finslerkit.measures import randers_density_field, randers_s_curvature, s_curvature

    s = s_curvature(G, randers_density_field(entry.randers), x, y)
    return s, within(s, randers_s_curvature(entry.randers, x, y), TOL_S)


def _torsion_query(entry, x, seed):
    from finslerkit.metrics import cartan_norm

    c = cartan_norm(entry.metric, x, samples=TORSION_SAMPLES, seed=seed)
    return c, finite(c) and 0.0 <= c <= _cartan_bound(entry, x) + TOL_TORSION


def _geodesic_query(entry, G, x, y):
    from finslerkit.spray import geodesic_integrate

    traj = geodesic_integrate(G, x, y, T=0.04, dt=2e-3, speed_check=entry.metric)
    drift = float(np.max(np.abs(traj.speed - traj.speed[0])) / abs(traj.speed[0]))
    return [traj.x[-1].tolist(), drift], (
        not traj.boundary_exit and finite(drift, *traj.x[-1]) and drift <= TOL_SPEED
    )


def _rotating_ball(n: int):
    """Flat unit n-ball stirred by the rotation field (-x2, x1, 0, ...)."""
    from finslerkit.gallery import euclidean_alpha
    from finslerkit.metrics import ball_domain
    from finslerkit.navigation import DriftField

    dom = ball_domain(n, name=f"nav-ball{n}")
    alpha = euclidean_alpha(n, dom)
    drift = DriftField(dom, lambda x: [-x[1], x[0]] + [0.0] * (n - 2), name="rotation")
    return alpha, drift


def _navigation_query(n, x, y, x0, u0, seed):
    """zermelo_general against the closed form, the indicatrix shift, and the
    travel time of x(t) = R(t)(x0 + t u0): its velocity is R(t) u0 (unit) plus
    the drift, so the navigation time over [0, T] is exactly T."""
    from finslerkit.navigation import indicatrix_shift_check, travel_time, zermelo_general, zermelo_riemannian

    alpha, drift = _rotating_ball(n)
    F = alpha.finsler()
    general = zermelo_general(F, drift, x, y)
    closed = float(zermelo_riemannian(alpha, drift).finsler()(x, y))
    shift = indicatrix_shift_check(F, drift, x, n_dirs=16, seed=seed)
    T = 0.3
    u0 = np.asarray(u0)

    def curve(t):
        c, s = math.cos(t), math.sin(t)
        z = np.asarray(x0) + t * u0
        rot = lambda v: [c * v[0] - s * v[1], s * v[0] + c * v[1]] + list(v[2:])
        pos = rot(z)
        return pos, [a + b for a, b in zip(rot(u0), [-pos[1], pos[0]] + [0.0] * (n - 2))]

    tt = travel_time(F, drift, curve, 0.0, T, n=TRAVEL_INTERVALS)
    ok = (
        within(general, closed, TOL_NAVIGATION)
        and finite(shift) and shift <= TOL_NAVIGATION
        and within(tt, T, TOL_NAVIGATION)
    )
    return [general, shift, tt], ok


def _volume_query(n, x, seed):
    from finslerkit.navigation import volume_preservation_check

    alpha, drift = _rotating_ball(n)
    gap = volume_preservation_check(alpha.finsler(), drift, x, n_samples=VOLUME_SAMPLES, seed=seed)
    return gap.rel_gap, finite(gap.rel_gap, gap.sigma_f.value, gap.sigma_nav.value) and gap.rel_gap <= TOL_VOLUME


# Queries per (kind, spec) pair; navigation and volume run on the rotating
# ball in dimensions 2 and 3.  The mix is fixed; the seed draws the sites and
# the order.
QUERIES_PER_PAIR = {
    "riemann": 6,
    "riemann_generic": 3,
    "flag": 6,
    "s_curvature": 5,
    "torsion": 4,
    "geodesic": 2,
    "navigation": 12,
    "volume": 6,
}


def _site(domain, rng, shrink=0.8):
    x = list(domain.sample_points(1, int(rng.integers(2**31)), shrink=shrink)[0])
    return x, _unit(rng, domain.dim)


def site_query_ops(setup: Setup, seed: int, smoke: bool = False) -> list:
    """Single-site library calls across the gallery, one call per query."""
    rng = np.random.default_rng([seed, 0x51E])
    per = {k: 1 for k in QUERIES_PER_PAIR} if smoke else QUERIES_PER_PAIR
    specs = ("rotation2d", "bao_shen_s3:eps=0.3") if smoke else SPECS
    ops = []

    def add(kind, label, fn, *args):
        ops.append(Op(f"{kind} {label} #{len(ops)}", kind, lambda: fn(*args)))

    for spec in specs:
        e, G = setup.entries[spec], setup.sprays[spec]
        randers = spec in RANDERS_SPECS
        for _ in range(per["riemann"]):
            add("riemann", spec, _ricci_query, e, G, *_site(e.metric.domain, rng))
        for _ in range(per["flag"]):
            x, y = _site(e.metric.domain, rng)
            add("flag", spec, _flag_query, e, G, x, y, _transverse(rng, y))
        for _ in range(per["geodesic"]):
            x, y = _site(e.metric.domain, rng, shrink=0.5)
            add("geodesic", spec, _geodesic_query, e, G, x, [0.5 * v for v in y])
        if not randers:
            continue
        for _ in range(per["riemann_generic"]):
            add("riemann_generic", spec, _ricci_query, e, setup.generic_sprays[spec], *_site(e.metric.domain, rng))
        for _ in range(per["s_curvature"]):
            add("s_curvature", spec, _s_query, e, G, *_site(e.metric.domain, rng))
        for _ in range(per["torsion"]):
            add("torsion", spec, _torsion_query, e, _site(e.metric.domain, rng)[0], int(rng.integers(2**31)))
    for n in (2, 3):
        alpha, _ = _rotating_ball(n)
        for _ in range(per["navigation"]):
            x0 = list(rng.uniform(-0.25, 0.25, size=n))
            add("navigation", f"ball{n}", _navigation_query, n, *_site(alpha.domain, rng, shrink=0.9),
                x0, _unit(rng, n), int(rng.integers(2**31)))
        for _ in range(per["volume"]):
            add("volume", f"ball{n}", _volume_query, n, _site(alpha.domain, rng, shrink=0.9)[0],
                int(rng.integers(2**31)))
    random.Random(seed).shuffle(ops)
    return ops


def cli_ops(setup: Setup, seed: int, smoke: bool = False) -> list:
    """The battery and the grid scans, interleaved in one seed-shuffled list."""
    ops = battery_ops(setup, seed, smoke) + grid_scan_ops(setup, seed, smoke)
    random.Random(seed).shuffle(ops)
    return ops


WORKLOADS = {
    "cli": cli_ops,
    "site_queries": site_query_ops,
}
