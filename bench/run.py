"""finslerkit benchmark: one workload per run, every answer checked.

    python3 bench/run.py --workload cli|site_queries \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its `src/`.
`--trace 0` times the workload untraced for about S seconds and prints the
end-to-end metrics; `--trace 1` runs one untraced and one traced pass over
the same inputs and prints the per-layer metrics.  Human-readable lines come
first; the last line of standard output is the JSON result.  See README.md.
"""

from __future__ import annotations

import os

# one process, no extra threads: pin every BLAS / OpenMP pool before numpy loads
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text()) if (ROOT / "BENCHMARK.json").is_file() else None

SETUP_REPEATS = 9
CALIB_REPEATS = 3
FINSLERKIT_MODULES = (
    "finslerkit", "finslerkit._linalg", "finslerkit.diffcore", "finslerkit.metrics",
    "finslerkit.spray", "finslerkit.curvature", "finslerkit.measures",
    "finslerkit.navigation", "finslerkit.gallery", "finslerkit.verify", "finslerkit.cli",
)


class BenchError(Exception):
    """The checkout cannot be benchmarked (no sources, bad arguments)."""


def import_finslerkit() -> float:
    """(Re-)import the checkout's finslerkit from scratch; return the seconds taken."""
    if not (SRC / "finslerkit" / "__init__.py").is_file():
        raise BenchError(f"no finslerkit sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "finslerkit" or m.startswith("finslerkit.")]:
        del sys.modules[name]
    start = time.perf_counter()
    for name in FINSLERKIT_MODULES:
        importlib.import_module(name)
    elapsed = time.perf_counter() - start
    where = Path(sys.modules["finslerkit"].__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise BenchError(f"imported finslerkit from {where}, not from {SRC}")
    return elapsed


def calibrate() -> float:
    """Milliseconds for a fixed pure-Python loop: host speed, not program speed."""
    start = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc = (acc + i * i) % 1_000_003
    return (time.perf_counter() - start) * 1e3


def environment() -> dict:
    import numpy as np

    head = ROOT / ".git" / "HEAD"
    sha = "unknown (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        sha = ref
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            sha = (ROOT / ".git" / ref[5:]).read_text().strip()
    return {
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        **{var: os.environ[var] for var in BLAS_THREAD_VARS},
    }


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least 10 of n samples beyond it; the
    maximum (100) when fewer than 20 samples leave no such percentile above
    the median."""
    for q in range(99, 49, -1):
        if n * (100 - q) / 100 >= 10:
            return q
    return 100


def percentile(values: list, q: int) -> float:
    if q >= 100:
        return max(values)
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_op(op):
    """Time one operation; any exception is a failed answer, reported on stderr."""
    start = time.perf_counter()
    try:
        output, ok = op.run()
    except Exception:  # the benchmark must keep going and count the failure
        traceback.print_exc(file=sys.stderr)
        output, ok = None, False
    elapsed = time.perf_counter() - start
    if not ok:
        print(f"bench: wrong answer from {op.name}", file=sys.stderr)
    return elapsed, output, bool(ok)


def one_pass(ops) -> tuple[float, list, list, list]:
    """Run every op once; return (seconds, latencies, outputs, ok flags)."""
    lat, outs, oks = [], [], []
    gc.collect()
    for op in ops:
        dt, out, ok = run_op(op)
        lat.append(dt)
        outs.append(out)
        oks.append(ok)
    return sum(lat), lat, outs, oks


def timed_window(ops, seconds: float) -> dict:
    """Round-robin over the ops until `seconds` have passed, completing at least
    one full pass.  An op's latency is the fastest of its repeats (best of k):
    a shared host can run for seconds at a time in a slower phase, and the
    minimum filters that out where a median of two or three repeats cannot."""
    samples = [[] for _ in ops]
    attempted = failed = 0
    start = time.perf_counter()
    done = False
    while not done:
        gc.collect()
        for i, op in enumerate(ops):
            if attempted >= len(ops) and time.perf_counter() - start >= seconds:
                done = True
                break
            dt, _, ok = run_op(op)
            samples[i].append(dt)
            attempted += 1
            failed += not ok
    best = [min(s) for s in samples]
    q = tail_percentile(len(best))
    return {
        "attempted": attempted,
        "failed": failed,
        "pass_s": sum(best),
        "p50_ms": statistics.median(best) * 1e3,
        "tail_ms": percentile(best, q) * 1e3,
        "tail_q": q,
        "ops": len(ops),
        "passes": attempted / len(ops),
        "per_kind": _per_kind(ops, best),
        "best": best,
    }


def _per_kind(ops, latencies) -> dict:
    kinds: dict[str, list] = {}
    for op, dt in zip(ops, latencies):
        kinds.setdefault(op.kind, []).append(dt)
    return {k: statistics.median(v) * 1e3 for k, v in kinds.items()}


def measure_setup(workloads) -> tuple[float, object]:
    """Median over SETUP_REPEATS of: import finslerkit + build gallery entries and sprays."""
    samples = []
    setup = None
    for _ in range(SETUP_REPEATS):
        gc.collect()
        t_import = import_finslerkit()
        start = time.perf_counter()
        setup = workloads.build_setup()
        samples.append(t_import + time.perf_counter() - start)
    return statistics.median(samples), setup


def untraced(workload: str, ops, seconds: float, setup, workloads) -> tuple[dict, int, int]:
    w = timed_window(ops, seconds)
    values = {
        "pass_s": w["pass_s"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    print(f"  {w['ops']} distinct operations, {w['passes']:.2f} passes")
    print(f"  p50 = {w['p50_ms']:.6g} ms, p{w['tail_q']} = {w['tail_ms']:.6g} ms "
          f"over N={w['ops']} per-operation best times")
    if workload == "cli":
        group = lambda prefix: sum(b for op, b in zip(ops, w["best"]) if op.name.startswith(prefix))
        sites = workloads.in_domain_sites(setup, ops)
        print(f"  battery_s = {group('verify '):.6g} s")
        print(f"  scan_sites_per_s = {sites / group('scan '):.6g} 1/s ({sites} in-domain sites)")
    else:
        print(f"  queries_per_s = {w['ops'] / w['pass_s']:.6g} 1/s")
    for kind, ms in sorted(w["per_kind"].items()):
        print(f"  {kind}.p50_ms = {ms:.6g} ms")
    return values, w["attempted"], w["failed"]


def traced(workload: str, seed: int, ops, workloads) -> tuple[dict, int, int]:
    """One untraced pass, then set-up and one pass under the tracer; the two
    passes must give identical outputs."""
    from tracer import Tracer

    _, _, warm_ok = run_op(ops[0])  # warm-up, untimed
    t_plain, lat, plain_out, plain_ok = one_pass(ops)
    tracer = Tracer()
    tracer.install()
    try:
        workloads.build_setup()
        t_traced, _, traced_out, traced_ok = one_pass(ops)
    finally:
        tracer.remove()
    mismatched = [op.name for op, a, b in zip(ops, plain_out, traced_out) if a != b]
    for name in mismatched:
        print(f"bench: traced output differs from untraced for {name}", file=sys.stderr)
    values = tracer.summary()
    for spec in workloads.SPECS:  # specs the workload never verified took 0 s
        values.setdefault(f"verify.{spec.split(':')[0]}.s", 0.0)
    values["trace_overhead_ratio"] = t_traced / t_plain
    values["ops.p50_ms"] = statistics.median(lat) * 1e3
    values["ops.tail_ms"] = percentile(lat, tail_percentile(len(lat))) * 1e3
    per_kind = _per_kind(ops, lat) if workload == "site_queries" else {}
    for kind in workloads.QUERIES_PER_PAIR:
        values[f"site_queries.{kind}.p50_ms"] = per_kind.get(kind, 0.0)
    workloads.OUT_DIR.mkdir(exist_ok=True)
    spans = workloads.OUT_DIR / f"spans-{workload}-{seed}.npz"
    tracer.save(spans)
    print(f"  untraced pass {t_plain:.3f} s, traced pass {t_traced:.3f} s; "
          f"{len(tracer.t0)} spans written to {spans.relative_to(ROOT)}")
    failed = sum(not ok for ok in [warm_ok] + plain_ok + traced_ok) + len(mismatched)
    return values, 2 * len(ops) + 1, failed


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    """Run one workload, print every metric line and return the result object.

    `smoke` shrinks every workload to a few operations (for the smoke tests)."""
    import workloads

    if SPEC is None:
        raise BenchError(f"no BENCHMARK.json in {ROOT}")
    if workload not in workloads.WORKLOADS:
        raise BenchError(f"unknown workload {workload!r}; one of {', '.join(workloads.WORKLOADS)}")
    setup_s, setup = measure_setup(workloads)
    calib_ms = statistics.median(calibrate() for _ in range(CALIB_REPEATS))
    ops = workloads.WORKLOADS[workload](setup, seed, smoke)
    print("env " + json.dumps(environment(), sort_keys=True))
    print(f"workload {workload}: {len(ops)} operations, seed {seed}, host.calib_ms = {calib_ms:.6g} ms")
    if trace:
        values, attempted, failed = traced(workload, seed, ops, workloads)
        values["host.calib_ms"] = calib_ms
    else:
        values, attempted, failed = untraced(workload, ops, seconds, setup, workloads)
        values["setup_s"] = setup_s
    metrics = {}
    for m in SPEC["per_layer" if trace else "end_to_end"]:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{m['name']} = {values[m['name']]:.6g} {m['unit']}")
    print(f"error_ratio = {failed / attempted:.6g} ({failed} failed of {attempted} attempted)")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
