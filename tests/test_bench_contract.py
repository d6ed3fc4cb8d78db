"""The names and keywords the benchmark in `bench/` binds to.

`bench/tracer.py` wraps library functions by (module, function) name and
`bench/workloads.py` calls them with fixed keywords; a rename here would
break the benchmark, so the contract is read from the bench sources (never
imported) and checked against the package.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _span_targets():
    tree = ast.parse((BENCH / "tracer.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "SPAN_TARGETS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracer.py defines no SPAN_TARGETS")


@pytest.mark.parametrize("module,function", _span_targets())
def test_every_traced_span_resolves(module, function):
    mod = importlib.import_module(f"finslerkit.{module}")
    assert callable(getattr(mod, function, None)), f"finslerkit.{module}.{function}"


def test_volume_check_keeps_the_benchmark_keywords():
    from finslerkit.navigation import volume_preservation_check

    params = inspect.signature(volume_preservation_check).parameters
    assert {"n_samples", "seed"} <= set(params)
