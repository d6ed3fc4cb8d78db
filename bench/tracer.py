"""Span tracing of the calls into finslerkit's layers, installed from outside.

`Tracer.install` replaces each target function with a wrapper at every
finslerkit module attribute bound to it (a `from .x import f` makes a copy of
the name in the importing module, so patching only the defining module would
miss those callers).  Each wrapped call records one span (name, parent span,
start, end) in flat arrays held in memory; `summary` derives call counts,
inclusive time and self time (duration minus the time covered by child
spans), and `save` writes the spans out once the run is over.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

# (module, function) pairs traced as spans named `<module>.<function>`, with
# the leading underscore of `_linalg` dropped from metric names.
SPAN_TARGETS = (
    ("diffcore", "directional_derivatives"),
    ("_linalg", "spd_factor"),
    ("metrics", "metric_entries"),
    ("metrics", "fundamental_tensor"),
    ("metrics", "cartan_norm"),
    ("metrics", "cartan_second_norm"),
    ("spray", "beta_table"),
    ("spray", "geodesic_integrate"),
    ("curvature", "riemann_entries"),
    ("curvature", "ricci_2d"),
    ("curvature", "flag_curvature"),
    ("curvature", "k0_residuals"),
    ("measures", "bh_density_mc"),
    ("measures", "s_curvature"),
    ("measures", "s_curvature_dynamic"),
    ("navigation", "zermelo_general"),
    ("navigation", "indicatrix_shift_check"),
    ("navigation", "volume_preservation_check"),
    ("navigation", "travel_time"),
    ("verify", "run_verification"),
    ("cli", "main"),
    ("gallery", "make"),
)


def _sites(x) -> int:
    return int(np.size(x[0])) if len(x) else 1


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def patch_everywhere(original, replacement) -> list:
    """Rebind every finslerkit module attribute that is `original`; return the
    (module, attribute, original) triples needed to undo it."""
    patches = []
    for modname, mod in list(sys.modules.items()):
        if modname != "finslerkit" and not modname.startswith("finslerkit."):
            continue
        for attr, val in list(vars(mod).items()):
            if val is original:
                setattr(mod, attr, replacement)
                patches.append((mod, attr, original))
    return patches


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_outer = array("b")  # 1 unless an enclosing span has the same name
        self.t0 = array("d")
        self.t1 = array("d")
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._active: dict[int, int] = defaultdict(int)
        self._patches: list[tuple] = []

    # -- recording -------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _span_wrapper(self, fn, label, name_of=None, on_result=None):
        clock = time.perf_counter
        fixed = self._name_id(label)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            nid = self._name_id(name_of(args, kwargs)) if name_of else fixed
            idx = len(self.t0)
            self.span_name.append(nid)
            self.span_parent.append(self._stack[-1] if self._stack else -1)
            self.span_outer.append(self._active[nid] == 0)
            self._active[nid] += 1
            self._stack.append(idx)
            self.t0.append(0.0)
            self.t1.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                self._stack.pop()
                self._active[nid] -= 1
                self.t0[idx] = start
                self.t1[idx] = end
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        return wrapper

    def _counting_wrapper(self, fn, label):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[label] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installing ---------------------------------------------------------------

    def install(self) -> None:
        mods = {m: sys.modules[f"finslerkit.{m}"] for m, _ in SPAN_TARGETS}
        counts = self.counts

        def riemann_sites(args, kwargs, result):
            m = _sites(_arg(args, kwargs, 1, "x"))
            counts["curvature.riemann_entries.sites"] += m
            if m >= 2:
                counts["curvature.riemann_entries.batched_sites"] += m

        def geodesic_steps(args, kwargs, result):
            counts["spray.geodesic_integrate.steps"] += len(result.t) - 1

        def mc_samples(args, kwargs, result):
            counts["measures.bh_density_mc.samples"] += result.n_samples

        def verify_name(args, kwargs):
            return f"verify.{_arg(args, kwargs, 0, 'entry').name}"

        extra = {
            "riemann_entries": (None, riemann_sites),
            "geodesic_integrate": (None, geodesic_steps),
            "bh_density_mc": (None, mc_samples),
            "run_verification": (verify_name, None),
        }
        for mod, attr in SPAN_TARGETS:
            original = getattr(mods[mod], attr)
            name_of, on_result = extra.get(attr, (None, None))
            label = f"{mod.lstrip('_')}.{attr}"
            wrapper = self._span_wrapper(original, label, name_of, on_result)
            self._patches += patch_everywhere(original, wrapper)
        spray_cls = sys.modules["finslerkit.spray"].SprayField
        call = spray_cls.__call__
        spray_cls.__call__ = self._counting_wrapper(call, "spray.SprayField.calls")
        self._patches.append((spray_cls, "__call__", call))

    def remove(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results --------------------------------------------------------------------

    def _per_name(self):
        name = np.frombuffer(self.span_name, dtype=np.int32)
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        outer = np.frombuffer(self.span_outer, dtype=np.int8).astype(bool)
        dur = np.frombuffer(self.t1) - np.frombuffer(self.t0)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        incl = np.bincount(name[outer], weights=dur[outer], minlength=k)
        self_s = np.bincount(name, weights=dur - child, minlength=k)
        return {
            n: {"calls": int(calls[i]), "incl_s": float(incl[i]), "self_s": float(self_s[i])}
            for i, n in enumerate(self.names)
        }

    def summary(self) -> dict:
        """Per-layer statistics keyed `<module>.<function>.<stat>`."""
        per = self._per_name()
        zero = {"calls": 0, "incl_s": 0.0, "self_s": 0.0}
        stat = lambda name, s: per.get(name, zero)[s]
        out = {}
        for mod, attr in SPAN_TARGETS:
            label = f"{mod.lstrip('_')}.{attr}"
            if attr == "run_verification":
                continue
            for s in ("calls", "incl_s", "self_s"):
                out[f"{label}.{s}"] = stat(label, s)
        verify = {n: v for n, v in per.items() if n.startswith("verify.")}
        for n, v in verify.items():
            out[f"{n}.s"] = v["incl_s"]
        out["verify.self_s"] = sum(v["self_s"] for v in verify.values())
        out["gallery.make.s"] = stat("gallery.make", "incl_s")
        for key in ("spray.SprayField.calls", "spray.geodesic_integrate.steps",
                    "curvature.riemann_entries.sites", "measures.bh_density_mc.samples"):
            out[key] = self.counts.get(key, 0)
        sites = self.counts.get("curvature.riemann_entries.sites", 0)
        batched = self.counts.get("curvature.riemann_entries.batched_sites", 0)
        out["curvature.batched_site_share"] = batched / sites if sites else 0.0
        return out

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            t0=np.frombuffer(self.t0),
            t1=np.frombuffer(self.t1),
        )
