"""Span recorder for the traced benchmark runs.

It wraps kspecfun's public functions from outside the package: every
binding of a wrapped function, in every ``kspecfun.*`` module and in the
package namespace, is replaced by a wrapper that records one span (function,
start, end, parent).  Modules import each other with ``from .x import f``
and look module globals up at call time, so calls inside the package are
caught as well.  Spans stay in memory until :meth:`Recorder.dump`.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import types
from array import array

LAYERS = ("scalar", "kcore", "beta", "hadamard", "furdui", "oracles", "registry", "cli")

# Functions outside the modules' __all__ that per-layer metrics need.
EXTRA = {
    "scalar": ("zeta_minus_1", "zeta_tail"),
    "registry": ("_build_entries",),
    "cli": ("_atomic_write",),
}

# Counts read from a wrapped function's return value.
RESULT_COUNTS = {"scalar.gauss_2f1": "terms_used", "oracles.adaptive_quad": "subdivisions"}

ZETA = ("scalar.zeta_int", "scalar.zeta_minus_1", "scalar.zeta_tail")


def _targets(module):
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    layer = module.__name__.rsplit(".", 1)[1]
    for name in (*names, *EXTRA.get(layer, ())):
        fn = getattr(module, name, None)
        if isinstance(fn, types.FunctionType) and fn.__module__ == module.__name__:
            yield f"{layer}.{name}", fn


class Recorder:
    """Spans of the wrapped calls, stored in flat arrays (one row per call)."""

    def __init__(self):
        self.names: list[str] = []
        self.fid = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.counts: dict[str, int] = {name: 0 for name in RESULT_COUNTS}
        self.labels: dict[int, str] = {}  # span index -> registry id (run_identity)
        self._stack = [-1]
        self._originals: list[tuple[object, str, object]] = []

    def _wrap(self, qualname: str, fn):
        fid = len(self.names)
        self.names.append(qualname)
        fids, parents, starts, ends = self.fid, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter_ns
        count_attr = RESULT_COUNTS.get(qualname)
        counts = self.counts
        labels = self.labels if qualname == "registry.run_identity" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(fids)
            fids.append(fid)
            parents.append(stack[-1])
            ends.append(0)
            if labels is not None:
                labels[idx] = args[0]
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if count_attr is not None:
                counts[qualname] += getattr(result, count_attr)
            return result

        return wrapper

    def install(self):
        """Replace every binding of each wrapped function by its wrapper."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "kspecfun" or name.startswith("kspecfun.")]
        wrappers = {}
        for module in modules:
            if module.__name__.rsplit(".", 1)[-1] in LAYERS:
                for qualname, fn in _targets(module):
                    wrappers[id(fn)] = self._wrap(qualname, fn)
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._originals.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, value in reversed(self._originals):
            setattr(module, attr, value)
        self._originals.clear()

    def self_times(self) -> list[int]:
        """Per-span self time: duration minus the part its child spans cover."""
        n = len(self.fid)
        child = [0] * n
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        return [end[i] - start[i] - child[i] for i in range(n)]

    def has_ancestor(self, i: int, fid: int) -> bool:
        p = self.parent[i]
        while p >= 0:
            if self.fid[p] == fid:
                return True
            p = self.parent[p]
        return False

    def dump(self, path: str):
        """Write every span as [name, start_ns, end_ns, parent_index, label]."""
        with open(path, "w") as handle:
            json.dump({
                "spans": [[self.names[f], s, e, p, self.labels.get(i)]
                          for i, (f, s, e, p) in enumerate(
                              zip(self.fid, self.start, self.end, self.parent))],
                "result_counts": self.counts,
            }, handle)


def layer_metrics(rec: Recorder, registry_ids, per: float = 1.0) -> dict[str, float]:
    """Per-layer figures from the recorded spans, each divided by ``per``.

    ``per`` is the number of repetitions traced (passes over a call list),
    so the figures are for one repetition.  Ratios are not divided.
    """
    self_ns = rec.self_times()
    fid_of = {name: i for i, name in enumerate(rec.names)}
    calls = [0] * len(rec.names)
    self_by_fn = [0] * len(rec.names)
    incl_by_fn = [0] * len(rec.names)
    for i, f in enumerate(rec.fid):
        calls[f] += 1
        self_by_fn[f] += self_ns[i]
        incl_by_fn[f] += rec.end[i] - rec.start[i]

    def n_calls(name):
        return calls[fid_of[name]] if name in fid_of else 0

    def under(child, ancestor):
        if child not in fid_of or ancestor not in fid_of:
            return 0
        c, a = fid_of[child], fid_of[ancestor]
        return sum(1 for i, f in enumerate(rec.fid) if f == c and rec.has_ancestor(i, a))

    def incl_s(name):
        return incl_by_fn[fid_of[name]] / 1e9 if name in fid_of else 0.0

    out: dict[str, float] = {}
    for layer in LAYERS:
        ids = [i for i, name in enumerate(rec.names) if name.startswith(layer + ".")]
        out[f"{layer}.self_s"] = sum(self_by_fn[i] for i in ids) / 1e9 / per
        out[f"{layer}.calls"] = sum(calls[i] for i in ids) / per
    for fn in ("digamma", "polygamma", "ln_gamma", "rgamma"):
        out[f"scalar.{fn}.calls"] = n_calls(f"scalar.{fn}") / per
    had = fid_of.get("hadamard.hadamard_k")
    out["hadamard.hadamard_k.self_s"] = (self_by_fn[had] / 1e9 / per) if had is not None else 0.0
    n_had = n_calls("hadamard.hadamard_k")
    out["kcore.rgamma_k.per_hadamard"] = (
        under("kcore.rgamma_k", "hadamard.hadamard_k") / n_had if n_had else 0.0)
    out["hadamard.alpha0_solve.s"] = incl_s("hadamard.alpha0_solve") / per
    out["hadamard.alpha0_solve.hadamard_calls"] = (
        under("hadamard.hadamard_k", "hadamard.alpha0_solve") / per)
    out["furdui.thm34_recursion.s"] = incl_s("furdui.thm34_recursion") / per
    out["scalar.gauss_2f1.calls"] = n_calls("scalar.gauss_2f1") / per
    out["scalar.gauss_2f1.terms"] = rec.counts["scalar.gauss_2f1"] / per
    zeta = {fid_of[z] for z in ZETA if z in fid_of}
    out["scalar.zeta.calls"] = sum(
        1 for i, f in enumerate(rec.fid)
        if f in zeta and (rec.parent[i] < 0 or rec.fid[rec.parent[i]] not in zeta)) / per
    out["oracles.adaptive_quad.calls"] = n_calls("oracles.adaptive_quad") / per
    out["oracles.adaptive_quad.panels"] = rec.counts["oracles.adaptive_quad"] / per
    n_oracle = n_calls("furdui.furdui_oracle")
    out["furdui.oracle.quad_per_call"] = (
        under("oracles.adaptive_quad", "furdui.furdui_oracle") / n_oracle if n_oracle else 0.0)
    entry_ns = dict.fromkeys(registry_ids, 0)
    seen = set()
    for i, label in rec.labels.items():
        if label in entry_ns and label not in seen:  # the first (cold) run of each id
            seen.add(label)
            entry_ns[label] = rec.end[i] - rec.start[i]
    for rid, ns in entry_ns.items():
        out[f"registry.entry.{rid}.s"] = ns / 1e9 / per
    out["registry.build_s"] = incl_s("registry._build_entries") / per
    out["cli.serialize_s"] = incl_s("registry.reports_to_json") / per
    out["cli.write_s"] = incl_s("cli._atomic_write") / per
    return out
