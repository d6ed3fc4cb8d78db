"""Smoke tests of the benchmark itself, at a few operations per workload.

    python3 -m pytest bench/test_smoke.py -q
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads
from tracer import patch_everywhere

WORKLOADS = list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_unit(workload, trace, capsys):
    result = run.run(workload, seed=3, seconds=0.1, trace=trace, smoke=True)
    out = capsys.readouterr().out
    declared = run.SPEC["per_layer" if trace else "end_to_end"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and math.isfinite(got["value"])
        assert any(line.startswith(f"{m['name']} = ") and line.endswith(f" {m['unit']}")
                   for line in out.splitlines())
    if trace:
        assert result["metrics"]["ops.tail_ms"]["value"] >= result["metrics"]["ops.p50_ms"]["value"]
    else:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in declared)


def test_tail_percentile_leaves_ten_samples_beyond():
    assert run.tail_percentile(220) == 95  # 11 of 220 queries lie beyond p95
    assert run.tail_percentile(1000) == 99
    assert run.tail_percentile(15) == 100  # too few operations: the maximum


def _plant_wrong_riemann():
    """Wrap riemann_entries so R^1_1 is off by 1e-3 (after each set-up re-import)."""
    from finslerkit import curvature

    original = curvature.riemann_entries

    def wrong(G, x, y):
        R = original(G, x, y)
        R[0][0] = R[0][0] + 1e-3
        return R

    patch_everywhere(original, wrong)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_planted_wrong_answer_raises_error_ratio(workload, monkeypatch, capsys):
    build = workloads.build_setup

    def build_and_plant():
        setup = build()
        _plant_wrong_riemann()
        return setup

    monkeypatch.setattr(workloads, "build_setup", build_and_plant)
    result = run.run(workload, seed=3, seconds=0.1, trace=False, smoke=True)
    assert not result["correct"]
    assert result["failed"] / result["attempted"] > 0
    assert "error_ratio = 0 " not in capsys.readouterr().out
    run.import_finslerkit()  # drop the planted modules


def test_fails_without_sources(tmp_path):
    """In a directory holding only BENCHMARK.json and bench/, exit non-zero
    without printing a result."""
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "battery", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
