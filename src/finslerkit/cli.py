"""Command-line interface: verification suites, pointwise curvature queries,
geodesic traces, grid scans and navigation transforms.

Exit codes: 0 success, 1 verification failure, 2 usage error.  All reports
are JSON with sorted keys (byte-stable given seed and version); trajectories
are CSV.  The default seed comes from FINSLER_SEED when set.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__, gallery
from .curvature import flag_curvature, flag_curvatures, riemann, riemann_entries
from .diffcore import basis, values_array
from .errors import FinslerError
from .measures import s_curvature
from .metrics import RiemannianField, ball_domain, cartan_norm, cartan_second_norm
from .navigation import DriftField, radial_drift, rotation_drift, volume_preservation_check
from .navigation import zermelo_general, zermelo_riemannian
from .spray import geodesic_integrate
from .verify import run_verification

# grid sites per array pass of `finsler scan`: bounds the jets held at once and the sites
# re-evaluated one by one when a pass fails (torsion norms slice by metrics.TORSION_CHUNK)
SCAN_CHUNK = 128


def _default_seed() -> int:
    env = os.environ.get("FINSLER_SEED", "42")
    try:
        return int(env)
    except ValueError:
        raise UsageError(f"FINSLER_SEED must be an integer, got {env!r}") from None


def _parse_vector(text: str, want: str, dim: int) -> list[float]:
    try:
        v = [float(t) for t in text.split(",")]
    except ValueError:
        raise UsageError(f"{want} must be a comma-separated list of numbers, got {text!r}") from None
    if len(v) != dim:
        raise UsageError(f"{want} must have dimension {dim}, got {len(v)} entries")
    if not all(map(math.isfinite, v)):
        raise UsageError(f"{want} must be finite, got {text!r}")
    return v


def _parse_number(text: str, want: str, kind=float):
    try:
        v = kind(text)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise UsageError(f"{want} must be {noun}, got {text!r}") from None
    if not math.isfinite(v):
        raise UsageError(f"{want} must be finite, got {text!r}")
    return v


class UsageError(Exception):
    pass


def _parse_direction(text: str, dim: int) -> list[float]:
    y = _parse_vector(text, "--dir", dim)
    if not any(y):
        raise UsageError("--dir must be nonzero: fields live on the slit tangent bundle")
    return y


def _emit_json(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


# -- subcommands -----------------------------------------------------------------


def cmd_verify(args) -> int:
    entry = gallery.parse_spec(args.metric)
    tols = {}
    for item in args.tol or []:
        k, eq, v = item.partition("=")
        if not eq:
            raise UsageError(f"--tol expects check=value, got {item!r}")
        tols[k] = _parse_number(v, f"--tol {k}")
    t0 = time.time()
    report = run_verification(entry, points=args.points, seed=args.seed, tol_overrides=tols or None)
    elapsed = time.time() - t0
    _emit_json(report.to_dict(), args.out)
    print(f"finsler verify {args.metric}: {'pass' if report.passed else 'FAIL'} "
          f"({len(report.checks)} checks, {elapsed:.1f}s)", file=sys.stderr)
    return 0 if report.passed else 1


def cmd_curvature(args) -> int:
    entry = gallery.parse_spec(args.metric)
    G = entry.spray
    x = _parse_vector(args.at, "--at", entry.dim)
    G.domain.require(x)
    y = _parse_direction(args.dir, entry.dim)
    R = riemann(G, x, y)
    payload = {
        "metric": entry.name,
        "params": entry.params,
        "at": x,
        "dir": y,
        "riemann": R.matrix.tolist(),
        "ricci": R.ricci,
    }
    sigma = entry.density
    if sigma is not None:
        payload["s_curvature"] = s_curvature(G, sigma, x, y)
    if args.flag:
        u = _parse_vector(args.flag, "--flag", entry.dim)
        payload["flag"] = u
        payload["flag_curvature"] = flag_curvature(entry.metric, x, y, u, G=G)
    _emit_json(payload, args.out)
    return 0


def cmd_geodesic(args) -> int:
    entry = gallery.parse_spec(args.metric)
    x0 = _parse_vector(getattr(args, "from"), "--from", entry.dim)
    y0 = _parse_direction(args.dir, entry.dim)
    traj = geodesic_integrate(entry.spray, x0, y0, T=args.time, dt=args.dt, speed_check=entry.metric)
    n = entry.dim
    header = (
        ["t"]
        + [f"x{i + 1}" for i in range(n)]
        + [f"v{i + 1}" for i in range(n)]
        + ["F", "boundary_exit"]
    )
    lines = [",".join(header)]
    last = len(traj.t) - 1
    for k in range(len(traj.t)):
        exit_flag = 1 if (traj.boundary_exit and k == last) else 0
        row = (
            [repr(float(traj.t[k]))]
            + [repr(float(v)) for v in traj.x[k]]
            + [repr(float(v)) for v in traj.v[k]]
            + [repr(float(traj.speed[k])), str(exit_flag)]
        )
        lines.append(",".join(row))
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        print(text, end="")
    return 0


def _parse_grid(spec: str) -> list[tuple[str, np.ndarray]]:
    axes = []
    for item in spec.split(","):
        name, eq, rng = item.partition("=")
        parts = rng.split(":")
        if not eq or len(parts) != 3:
            raise UsageError(f"grid axis must be name=lo:hi:count, got {item!r}")
        name = name.strip()
        want = f"--grid axis {name!r}"
        if not name or name in (a for a, _ in axes):
            raise UsageError(f"{want} needs a name of its own, got {spec!r}")
        lo, hi = _parse_number(parts[0], want), _parse_number(parts[1], want)
        count = _parse_number(parts[2], f"{want} count", int)
        if count < 1:
            raise UsageError(f"{want} count must be at least 1, got {count}")
        axes.append((name, np.linspace(lo, hi, count)))
    return axes


def _scan_values(args, entry, G, sigma, y, u, rows: np.ndarray) -> np.ndarray:
    """The scanned quantity at the chart points `rows` (k, n), in one array pass."""
    k = len(rows)
    x, ys = list(rows.T), [np.full(k, v) for v in y]
    if args.quantity == "K":
        values = flag_curvatures(entry.metric, G, x, ys, [np.full(k, v) for v in u])[0]
    elif args.quantity == "Ric":
        values = np.trace(values_array(riemann_entries(G, x, ys), sites=(k,)))
    elif args.quantity == "S":
        values = s_curvature(G, sigma, x, ys)
    elif args.quantity in ("cartan", "cartan2"):
        norm = cartan_norm if args.quantity == "cartan" else cartan_second_norm
        values = norm(entry.metric, x, samples=args.samples, seed=args.seed)
    else:
        raise UsageError(f"unknown quantity {args.quantity!r}")
    return np.broadcast_to(np.asarray(values, dtype=float), (k,))


def cmd_scan(args) -> int:
    entry = gallery.parse_spec(args.metric)
    G = entry.spray
    axes = _parse_grid(args.grid)
    if len(axes) != entry.dim:
        raise UsageError(f"grid must have {entry.dim} axes for {entry.name}")
    y = _parse_direction(args.dir, entry.dim) if args.dir else basis(entry.dim, 0)
    u = _parse_vector(args.flag, "--flag", entry.dim) if args.flag else basis(entry.dim, 1)
    sigma = entry.density
    if args.quantity == "S" and sigma is None:
        raise UsageError(f"no differentiable density available for {entry.name}")

    grids = np.meshgrid(*[a[1] for a in axes], indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    values = np.full(len(pts), np.nan)
    inside = np.flatnonzero([entry.metric.domain.contains(p) for p in pts])
    for start in range(0, len(inside), SCAN_CHUNK):
        chunk = inside[start : start + SCAN_CHUNK]
        try:
            values[chunk] = _scan_values(args, entry, G, sigma, y, u, pts[chunk])
        except FinslerError:
            # some site of the chunk failed: evaluate its sites one by one
            for i in chunk:
                try:
                    values[i] = _scan_values(args, entry, G, sigma, y, u, pts[i : i + 1])[0]
                except FinslerError:
                    pass
    values = values.reshape(grids[0].shape)
    payload = {
        "metric": entry.name,
        "params": entry.params,
        "quantity": args.quantity,
        "axes": [{"name": a[0], "values": a[1].tolist()} for a in axes],
        "dir": y,
        "seed": args.seed,
        "values": np.where(np.isnan(values), None, values).tolist(),
    }
    _emit_json(payload, args.out)
    return 0


_DRIFTS = {"radial": radial_drift, "rotation": rotation_drift}


def _parse_drift(spec: str, dom) -> DriftField:
    name, colon, rest = spec.partition(":")
    name = name.strip()
    if name in _DRIFTS:
        if colon:
            raise UsageError(f"drift {name} takes no components, got {rest!r}")
        return _DRIFTS[name](dom)
    if name == "constant":
        names, comps = [f"v{i + 1}" for i in range(dom.dim)], {}
        for item in rest.split(","):
            k, eq, v = item.partition("=")
            k = k.strip()
            if not eq:
                raise UsageError(f"malformed drift component {item!r}")
            if k not in names:
                raise UsageError(f"unknown drift component {k!r}; use {', '.join(names)}")
            if k in comps:
                raise UsageError(f"drift component {k} given twice")
            comps[k] = _parse_number(v, f"--drift component {k}")
        vec = [comps.get(k, 0.0) for k in names]
        return DriftField(dom, lambda x: list(vec), name="constant")
    raise UsageError(f"unknown drift {spec!r}; use radial, rotation, or constant:v1=..,v2=..")


def cmd_navigate(args) -> int:
    alpha_entry = gallery.parse_spec(args.alpha)
    riemannian = alpha_entry.randers is not None and all(
        np.max(np.abs(alpha_entry.randers.beta.value(list(p)))) == 0.0
        for p in alpha_entry.metric.domain.sample_points(8, seed=1)
    )
    if not riemannian:
        raise UsageError("--alpha must name a Riemannian gallery metric (e.g. euclidean:n=2)")
    # the charts of the gallery's Riemannian sources all contain the unit ball
    alpha = alpha_entry.randers.alpha
    dom = ball_domain(alpha.dim, name=f"nav-ball{alpha.dim}")
    alpha = RiemannianField(dom, alpha.matrix, name=alpha.name)
    drift = _parse_drift(args.drift, dom)
    rd = zermelo_riemannian(alpha, drift)
    x = _parse_vector(args.at, "--at", alpha.dim) if args.at else [0.0] * alpha.dim
    dom.require(x)
    payload = {
        "alpha": args.alpha,
        "drift": args.drift,
        "at": x,
        "a_tilde": [[float(v) for v in row] for row in rd.alpha.matrix(x)],
        "b_tilde": [float(v) for v in rd.beta.covector(x)],
    }
    if args.dir:
        y = _parse_direction(args.dir, alpha.dim)
        payload["dir"] = y
        payload["F_tilde_closed_form"] = float(rd.finsler()(x, y))
        payload["F_tilde_root_solve"] = zermelo_general(alpha.finsler(), drift, x, y)
    if args.check_volume:
        gap = volume_preservation_check(alpha.finsler(), drift, x)
        payload["volume_preservation"] = {
            "sigma_source": gap.sigma_f.value,
            "sigma_source_error": gap.sigma_f.error,
            "sigma_navigation": gap.sigma_nav.value,
            "sigma_navigation_error": gap.sigma_nav.error,
            "rel_gap": gap.rel_gap,
            "method": "radial-quadrature",
        }
    _emit_json(payload, args.out)
    return 0


# -- parser ------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="finsler",
        description="Numerical engine for Finsler metrics on a chart: "
        "verification, curvature, geodesics, scans, navigation.",
    )
    p.add_argument("--version", action="version", version=f"finsler {__version__}")
    sub = p.add_subparsers(dest="command", required=True)
    # default None: FINSLER_SEED is read only when a command falls back on it
    seed_kw = dict(type=int, default=None, help="random seed (default: FINSLER_SEED or 42)")

    v = sub.add_parser("verify", help="run the identity-verification battery for a metric")
    v.add_argument("metric", help="metric spec, e.g. rotation2d or slab:kappa=0.5")
    v.add_argument("--points", type=int, default=200)
    v.add_argument("--seed", **seed_kw)
    v.add_argument("--tol", action="append", metavar="CHECK=VALUE", help="override a check tolerance")
    v.add_argument("--out", help="write the JSON report to a file")
    v.set_defaults(func=cmd_verify)

    c = sub.add_parser("curvature", help="Riemann matrix, Ricci, S and optional flag curvature at a point")
    c.add_argument("metric")
    c.add_argument("--at", required=True, help="chart point, comma-separated")
    c.add_argument("--dir", required=True, help="tangent direction, comma-separated")
    c.add_argument("--flag", help="transverse flag edge, comma-separated")
    c.add_argument("--out")
    c.set_defaults(func=cmd_curvature)

    g = sub.add_parser("geodesic", help="integrate a geodesic and emit a CSV trace")
    g.add_argument("metric")
    g.add_argument("--from", required=True, help="start point")
    g.add_argument("--dir", required=True, help="initial velocity")
    g.add_argument("--time", type=float, default=1.0)
    g.add_argument("--dt", type=float, default=1e-3)
    g.add_argument("--out", help="CSV output path (default: stdout)")
    g.set_defaults(func=cmd_geodesic)

    s = sub.add_parser("scan", help="evaluate a curvature quantity on a chart grid")
    s.add_argument("metric")
    s.add_argument("--quantity", choices=["K", "S", "Ric", "cartan", "cartan2"], required=True)
    s.add_argument("--grid", required=True, help="axes as name=lo:hi:count, comma-separated")
    s.add_argument("--dir", help="tangent direction (default e1)")
    s.add_argument("--flag", help="flag edge for K (default e2)")
    s.add_argument("--samples", type=int, default=1024, help="samples for torsion norms")
    s.add_argument("--seed", **seed_kw)
    s.add_argument("--out")
    s.set_defaults(func=cmd_scan)

    n = sub.add_parser("navigate", help="shortest-time transform of a Riemannian metric by a drift")
    n.add_argument("--alpha", required=True, help="Riemannian source, e.g. euclidean:n=2")
    n.add_argument("--drift", required=True, help="radial | rotation | constant:v1=..,v2=..")
    n.add_argument("--at", help="chart point (default origin)")
    n.add_argument("--dir", help="tangent vector for pointwise values")
    n.add_argument("--check-volume", action="store_true", help="radial-quadrature volume preservation check")
    n.add_argument("--out")
    n.set_defaults(func=cmd_navigate)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse exits with 2 on usage errors and 0 on --help
        return int(e.code or 0)
    try:
        if "seed" in vars(args) and args.seed is None:
            args.seed = _default_seed()
        return args.func(args)
    except (UsageError, ValueError) as e:
        print(f"finsler: {e}", file=sys.stderr)
        return 2
    except FinslerError as e:
        print(f"finsler: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
