"""The names, keywords and battery checks the benchmark in `bench/` binds to.

`bench/tracer.py` wraps library functions by (module, function) name and
`bench/workloads.py` calls them with fixed keywords; a rename here would
break the benchmark, so the contract is read from the bench sources (never
imported) and checked against the package.  `bench/manifest.json` pins each
spec's ordered battery check list, read here as data against verify.CHECKS.
"""

import ast
import importlib
import inspect
import json
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


def _manifest_checks():
    return json.loads((BENCH / "manifest.json").read_text())["checks"]


@pytest.mark.parametrize("spec", sorted(_manifest_checks()))
def test_pinned_checks_follow_the_check_table(spec):
    from finslerkit.verify import CHECKS

    pinned = [(check_id, tol) for check_id, _, tol in _manifest_checks()[spec]]
    order = list(CHECKS)
    assert [c for c, _ in pinned] == sorted((c for c, _ in pinned), key=order.index)
    for check_id, tol in pinned:
        default = 1e-7 if (spec.startswith("funk") and check_id == "flag_constant") else CHECKS[check_id][1]
        assert tol == default, (spec, check_id)


def test_every_table_entry_is_pinned():
    from finslerkit.verify import CHECKS

    pinned = {check_id for checks in _manifest_checks().values() for check_id, _, _ in checks}
    assert pinned == set(CHECKS)
