"""Regenerate bench/manifest.json: the battery's pinned check list.

    python3 bench/pin_manifest.py

For every gallery spec it records the ordered (check_id, n_samples,
tolerance) list of `finsler verify` at 200 points, and the verify seeds among
0..CANDIDATES-1 whose reports, for every spec, pass with finite residuals and
carry exactly that list.  Run it only on a commit whose verification battery
is trusted: the benchmark counts any later drift from this file as a failure.
"""

from __future__ import annotations

import json
import math
import sys
from collections import Counter

import run  # puts the checkout's src/ on sys.path
import workloads

POINTS = 200
CANDIDATES = 24


def main() -> int:
    run.import_finslerkit()
    from finslerkit import gallery
    from finslerkit.verify import run_verification

    lists, good = {}, {}
    for spec in workloads.SPECS:
        entry = gallery.parse_spec(spec)
        for seed in range(CANDIDATES):
            report = run_verification(entry, points=POINTS, seed=seed).to_dict()
            key = json.dumps(workloads.report_manifest(report))
            lists.setdefault(spec, {})[seed] = key
            good[spec, seed] = report["passed"] and all(
                math.isfinite(c["max_residual"]) for c in report["checks"]
            )
            print(spec, seed, report["passed"], file=sys.stderr, flush=True)
    checks = {spec: Counter(by_seed.values()).most_common(1)[0][0] for spec, by_seed in lists.items()}
    seeds = [
        s for s in range(CANDIDATES)
        if all(good[spec, s] and lists[spec][s] == checks[spec] for spec in workloads.SPECS)
    ]
    manifest = {
        "points": POINTS,
        "candidate_seeds": CANDIDATES,
        "verify_seeds": seeds,
        "checks": {spec: json.loads(key) for spec, key in checks.items()},
    }
    workloads.MANIFEST.write_text(dump(manifest))
    return 0


def dump(manifest: dict) -> str:
    """JSON with one check per line, so a diff of the file shows each changed check."""
    head = {k: v for k, v in manifest.items() if k != "checks"}
    specs = [
        f'  {json.dumps(spec)}: [\n' + ",\n".join(f"   {json.dumps(c)}" for c in checks) + "\n  ]"
        for spec, checks in manifest["checks"].items()
    ]
    text = json.dumps(head)[:-1] + ',\n "checks": {\n' + ",\n".join(specs) + "\n }\n}\n"
    assert json.loads(text) == manifest
    return text


if __name__ == "__main__":
    raise SystemExit(main())
