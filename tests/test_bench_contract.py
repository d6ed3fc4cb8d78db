"""The names, keywords and battery checks the benchmark in `bench/` binds to.

`bench/tracer.py` wraps library functions by (module, function) name and
`bench/workloads.py` calls them with fixed keywords; a rename here would
break the benchmark, so the contract is read from the bench sources (parsed,
never imported) and checked against the package.  `bench/manifest.json` pins each
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


def _positional_reads():
    """(module, function, position, parameter) for every argument a
    `bench/tracer.py` hook reads by position with `_arg(args, kwargs, pos, name)`."""
    tree = ast.parse((BENCH / "tracer.py").read_text())
    reads = {
        fn.name: (call.args[2].value, call.args[3].value)
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef)
        for call in ast.walk(fn)
        if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "_arg"
    }
    extra = next(
        node.value for node in ast.walk(tree)
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "extra" for t in node.targets)
    )
    module_of = {function: module for module, function in _span_targets()}
    return {
        (module_of[key.value], key.value) + reads[hook.id]
        for key, hooks in zip(extra.keys, extra.values)
        for hook in hooks.elts
        if isinstance(hook, ast.Name) and hook.id in reads
    }


def test_positional_reads_name_the_parameter():
    found = _positional_reads()
    assert found == {("curvature", "riemann_entries", 1, "x"), ("verify", "run_verification", 0, "entry")}
    for module, function, pos, name in found:
        fn = getattr(importlib.import_module(f"finslerkit.{module}"), function)
        assert list(inspect.signature(fn).parameters)[pos] == name, (module, function, pos)


def _workload_keywords():
    """(module, dotted name, keyword) for every keyword `bench/workloads.py`
    passes to a finslerkit function it imports, called by name or as
    module.function."""
    tree = ast.parse((BENCH / "workloads.py").read_text())
    imported = {
        alias.asname or alias.name: (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "finslerkit"
        for alias in node.names
    }
    found = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if isinstance(f, ast.Name) and f.id in imported:
            target = imported[f.id]
        elif isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name) and f.value.id in imported:
            module, name = imported[f.value.id]
            target = (module, f"{name}.{f.attr}")
        else:
            continue
        found |= {target + (kw.arg,) for kw in node.keywords if kw.arg is not None}
    return found


def _resolve(module: str, dotted: str):
    obj = importlib.import_module(module)
    for part in dotted.split("."):
        obj = getattr(obj, part) if hasattr(obj, part) else importlib.import_module(f"{obj.__name__}.{part}")
    return obj


def test_workload_keywords_are_accepted():
    found = _workload_keywords()
    assert {
        ("finslerkit.spray", "geodesic_integrate", "T"),
        ("finslerkit.spray", "geodesic_integrate", "dt"),
        ("finslerkit.spray", "geodesic_integrate", "speed_check"),
        ("finslerkit.navigation", "volume_preservation_check", "n_samples"),
        ("finslerkit.navigation", "volume_preservation_check", "seed"),
    } <= found
    rejected = []
    for module, dotted, keyword in sorted(found):
        params = inspect.signature(_resolve(module, dotted)).parameters.values()
        if not any(p.name == keyword or p.kind is p.VAR_KEYWORD for p in params):
            rejected.append(f"{module}.{dotted}({keyword}=)")
    assert not rejected, rejected


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
