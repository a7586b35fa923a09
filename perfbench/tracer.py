"""Span recording for the traced run, from outside the quivertilt package.

`install()` wraps the public functions of every layer module, plus a few
methods named in `METHODS`, and records one span per call: name, start, end
and the span that was open when the call began.  Spans stay in memory in flat
arrays and are written out once, by `Recorder.dump`, when the job ends.

Modules import each other's functions by name (`from .modules import
hom_basis`), so a function is replaced under every `quivertilt.*` module-level
name bound to it, not only in the module that defines it.

`summarize()` turns the spans of one job into the per-layer figures; it runs
in the benchmark process, never in the traced job.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from collections import Counter

import numpy as np

# The layers, one per module.  `cli` is the caller, not a layer, and `les`
# is not reached by any CLI path.
LAYERS = ("algebra", "linalg", "modules", "homology", "decompose", "stable",
          "contexts", "checkers", "search")

# Methods wrapped on their classes, by layer.
METHODS = {
    "contexts": ("Context.identify_sum", "Context.realize",
                 "ExactExtSpace.realize", "StableExtSpace.realize"),
}

BUILDERS = ("contexts.build_exact_context", "contexts.build_stable_context",
            "contexts.build_sub_context")
ENUMERATORS = ("checkers.enumerate_cluster_tilting", "checkers.enumerate_cotorsion_diagonal")


def _truth(result) -> int:
    return 1 if result is True else 0


def _passed(result) -> int:
    return 1 if result.passed else 0


# Spans whose result is kept as a 0/1 outcome, for the ratios.
OUTCOMES = {
    "decompose.indecomposable_isomorphic": _truth,
    "checkers.check_n_cotorsion": _passed,
}


class Recorder:
    """Spans of one process, as parallel arrays indexed by span number."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.outcome = array("b")
        self.stack = [-1]
        self.counters: Counter = Counter()
        self.context_sizes: list[int] = []

    def wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        name_id, start, end, parent, outcome, stack = (
            self.name_id, self.start, self.end, self.parent, self.outcome, self.stack)
        clock = time.perf_counter
        judge = OUTCOMES.get(name)

        def traced(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            outcome.append(-1)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if judge is not None:
                outcome[i] = judge(result)
            return result

        if name in ENUMERATORS:
            inner = traced

            def traced(ctx, *args, **kwargs):
                forced = ctx.projective_ids | ctx.injective_ids
                self.counters["checkers.subsets"] += 2 ** (ctx.n_objects - len(forced))
                return inner(ctx, *args, **kwargs)
        elif name in BUILDERS:
            inner = traced

            def traced(*args, **kwargs):
                ctx = inner(*args, **kwargs)
                self.context_sizes.append(ctx.n_objects)
                return ctx

        return functools.update_wrapper(traced, fn)

    def dump(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name_id=np.frombuffer(self.name_id, dtype=np.intc),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.intc),
            outcome=np.frombuffer(self.outcome, dtype=np.int8),
        )


def install() -> Recorder:
    """Wrap every layer's public functions and the listed methods.

    Call after `quivertilt.cli` is imported, so every module that binds a
    layer function is loaded."""
    rec = Recorder()
    modules = {name: mod for name, mod in sys.modules.items()
               if name == "quivertilt" or name.startswith("quivertilt.")}
    wrapped = {}
    for layer in LAYERS:
        mod = modules[f"quivertilt.{layer}"]
        for attr, obj in vars(mod).items():
            if (not attr.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__):
                wrapped[obj] = rec.wrap(f"{layer}.{attr}", obj)
    for mod in modules.values():
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(mod, attr, wrapped[obj])
    for layer, methods in METHODS.items():
        mod = modules[f"quivertilt.{layer}"]
        for qualname in methods:
            cls_name, meth = qualname.split(".")
            cls = getattr(mod, cls_name)
            setattr(cls, meth, rec.wrap(f"{layer}.{qualname}", cls.__dict__[meth]))
    return rec


def _outermost_time(start, end, mask) -> float:
    """Time covered by the spans selected by `mask`, counting nested ones once.

    Spans are numbered in start order and nest, so a selected span lies inside
    an earlier selected one exactly when it starts before the latest end seen
    so far."""
    s, e = start[mask], end[mask]
    if not len(s):
        return 0.0
    reach = np.maximum.accumulate(e)
    outer = np.ones(len(s), dtype=bool)
    outer[1:] = s[1:] >= reach[:-1]
    return float((e[outer] - s[outer]).sum())


def summarize(spans) -> dict[str, float]:
    """Per-layer figures of one traced job, from its dumped spans.

    Every value is a time or a count, so figures of several jobs add up;
    ratios are formed afterwards, from `<name>.true` over `<name>.calls`.
    A function that was never called has no span and counts as zero."""
    names = [str(n) for n in spans["names"]]
    nid, start, end, parent, outcome = (spans[k] for k in
                                        ("name_id", "start", "end", "parent", "outcome"))
    dur = end - start
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    self_time = np.bincount(nid, weights=dur - child, minlength=len(names))
    calls = np.bincount(nid, minlength=len(names))
    index = {name: i for i, name in enumerate(names)}

    def of(*selected):
        return np.isin(nid, [index[n] for n in selected if n in index])

    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = float(sum(
            self_time[i] for i, n in enumerate(names) if n.split(".")[0] == layer))
    for name in names:
        out[f"{name}.calls"] = int(calls[index[name]])

    for name in ("modules.hom_basis", "homology.ext_dim", "decompose.summand_split",
                 "stable.strip_projectives", "contexts.Context.identify_sum",
                 "search.search_nakayama_stable"):
        out[f"{name}.s"] = _outermost_time(start, end, of(name))
    out["contexts.build.s"] = _outermost_time(start, end, of(*BUILDERS))
    out["checkers.enumerate.s"] = _outermost_time(start, end, of(*ENUMERATORS))

    for name in OUTCOMES:
        out[f"{name}.true"] = int((outcome[of(name)] == 1).sum())

    # A conflation is realized afresh exactly when Context.realize opens an
    # ExtSpace.realize span; every other call is served from the cache.
    realize = of("contexts.Context.realize")
    fresh = of("contexts.ExactExtSpace.realize", "contexts.StableExtSpace.realize")
    realize_ids = np.flatnonzero(realize)
    out["contexts.realize.fresh"] = int(np.isin(realize_ids, parent[fresh]).sum())
    return out
