"""Spans and counters recorded around filterlab's public functions.

``Tracer.install`` replaces each hooked function or method with a wrapper
that records into the tracer while ``enabled`` is set, and calls straight
through otherwise. A span wrapper records (name, start, end, parent) per
call; a count wrapper, used for the hot kernels, only counts calls, so the
overhead stays bounded. Module-level functions are rebound in every
filterlab module that imported them by name (``from .pcgroup import
comm_subgroup`` in ``series``, ``lie`` and ``refine``, for example), so no
call path escapes its wrapper.

Self time of a span is its duration minus the durations of its child spans;
time spent in counted-only kernels stays in the enclosing span.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from typing import Callable, Dict, List, NamedTuple, Optional

import numpy as np

SPAN, COUNT, GENERATOR = "span", "count", "generator"


class Hook(NamedTuple):
    name: str  # metric prefix, e.g. "pcgroup.Subgroup.meet"
    module: str  # filterlab submodule that defines it
    attr: str  # "func" or "Class.method"
    kind: str
    key: Optional[Callable] = None  # args -> (object to pin, key) for distinct_ratio
    before: Optional[Callable] = None  # (tracer, args): extra counting on entry
    after: Optional[Callable] = None  # (tracer, result): extra counting on exit
    oracle: bool = False  # calls under it are the oracle's own work


def _by_identity(args):
    obj, s = args[0], args[1]
    return obj, (id(obj), tuple(s))


def _comm_key(args):
    H, K = args[0], args[1]
    return H.group, (id(H.group), H.igs, K.igs)


def _rref_cells(tracer, args):
    shape = np.shape(args[0])
    tracer.extra["linalg.rref.cells"] += int(np.prod(shape)) if shape else 0


def _refine_steps(tracer, report):
    tracer.extra["refine.steps"] += len(report.steps)


def _enumerated(tracer, elements):
    if not tracer.oracle_depth:
        tracer.extra["pcgroup.enumerated_elements"] += len(elements)


HOOKS = (
    Hook("pcgroup.multiply", "pcgroup", "PcGroup.multiply", COUNT),
    Hook("pcgroup.inverse", "pcgroup", "PcGroup.inverse", COUNT),
    Hook("pcgroup.power", "pcgroup", "PcGroup.power", COUNT),
    Hook("pcgroup.sift", "pcgroup", "sift", COUNT),
    Hook("pcgroup.PcGroup.elements", "pcgroup", "PcGroup.elements", GENERATOR),
    Hook("pcgroup.Subgroup.elements", "pcgroup", "Subgroup.elements", COUNT, after=_enumerated),
    Hook("pcgroup.subgroup_from_gens", "pcgroup", "subgroup_from_gens", SPAN),
    Hook("pcgroup.Subgroup.join", "pcgroup", "Subgroup.join", COUNT),
    Hook("pcgroup.comm_subgroup", "pcgroup", "comm_subgroup", SPAN, key=_comm_key),
    Hook("pcgroup.Subgroup.meet", "pcgroup", "Subgroup.meet", SPAN),
    Hook("pcgroup.centralizer_mod", "pcgroup", "centralizer_mod", SPAN),
    Hook("series.Filter.boundary_at", "series", "Filter.boundary_at", SPAN, key=_by_identity),
    Hook("series.Layering.boundary_at", "series", "Layering.boundary_at", SPAN, key=_by_identity),
    Hook("series.verify_filter", "series", "verify_filter", SPAN),
    Hook("series.lower_central", "series", "lower_central", SPAN),
    Hook("series.upper_central", "series", "upper_central", SPAN),
    Hook("series.exponent_p_lcs", "series", "exponent_p_lcs", SPAN),
    Hook("lie.graded_lie_ring", "lie", "graded_lie_ring", SPAN),
    Hook("lie.graded_module", "lie", "graded_module", SPAN),
    Hook("lie.check_module_law_integral", "lie", "check_module_law_integral", SPAN),
    Hook("lie.CosetBasis.coords", "lie", "CosetBasis.coords", COUNT),
    Hook("scalars.all_rings", "scalars", "all_rings", SPAN),
    Hook("scalars.characteristic_subspaces", "scalars", "characteristic_subspaces", SPAN),
    Hook("scalars.radical", "scalars", "radical", SPAN),
    Hook("scalars.split_idempotents", "scalars", "split_idempotents", SPAN),
    Hook("linalg.rref", "linalg", "rref", SPAN, before=_rref_cells),
    Hook("linalg.nullspace", "linalg", "nullspace", COUNT),
    Hook("linalg.in_row_space", "linalg", "in_row_space", COUNT),
    Hook("oracle.cayley_from_pc", "oracle", "cayley_from_pc", SPAN, oracle=True),
    Hook("oracle.check_equiv", "oracle", "check_equiv", SPAN, oracle=True),
    Hook("autfilter.central_automorphisms", "autfilter", "central_automorphisms", SPAN),
    Hook("autfilter.delta_layer_dims", "autfilter", "delta_layer_dims", SPAN),
    Hook("refine.refine_to_fixpoint", "refine", "refine_to_fixpoint", SPAN, after=_refine_steps),
    Hook("refine.insert_refinement", "refine", "insert_refinement", SPAN),
    Hook("refine.lift_subspace", "refine", "lift_subspace", COUNT),
    Hook("census.analyze_file", "census", "analyze_file", SPAN),
)


class Tracer:
    """In-memory spans and counters for one traced run."""

    def __init__(self, hooks=HOOKS):
        self.hooks = hooks
        self.enabled = False
        self.names: List[str] = [h.name for h in hooks if h.kind == SPAN]
        self.span_name = array("H")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: List[int] = []
        self.calls: Dict[str, int] = {h.name: 0 for h in hooks}
        self.extra: Dict[str, int] = {
            "linalg.rref.cells": 0,
            "refine.steps": 0,
            "pcgroup.enumerated_elements": 0,
        }
        self.distinct: Dict[str, int] = {h.name: 0 for h in hooks if h.key}
        self._keys: Dict[str, set] = {h.name: set() for h in hooks if h.key}
        self._pinned: List[object] = []  # keeps id() keys unique within a unit
        self.oracle_depth = 0
        self._patches: List[tuple] = []

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, hook: Hook, fn: Callable) -> Callable:
        tr = self
        name = hook.name
        if hook.kind == COUNT:

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                if not tr.enabled:
                    return fn(*args, **kwargs)
                tr.calls[name] += 1
                result = fn(*args, **kwargs)
                if hook.after is not None:
                    hook.after(tr, result)
                return result

            return counted

        if hook.kind == GENERATOR:

            @functools.wraps(fn)
            def enumerated(*args, **kwargs):
                for x in fn(*args, **kwargs):
                    if tr.enabled and not tr.oracle_depth:
                        tr.extra["pcgroup.enumerated_elements"] += 1
                    yield x

            return enumerated

        nid = self.names.index(name)

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            if not tr.enabled:
                return fn(*args, **kwargs)
            tr.calls[name] += 1
            if hook.key is not None:
                pin, key = hook.key(args)
                keys = tr._keys[name]
                if key not in keys:
                    keys.add(key)
                    tr._pinned.append(pin)
            if hook.before is not None:
                hook.before(tr, args)
            idx = len(tr.span_start)
            tr.span_name.append(nid)
            tr.span_parent.append(tr.stack[-1] if tr.stack else -1)
            tr.span_end.append(0.0)
            tr.stack.append(idx)
            tr.oracle_depth += hook.oracle
            tr.span_start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tr.span_end[idx] = time.perf_counter()
                tr.oracle_depth -= hook.oracle
                tr.stack.pop()
            if hook.after is not None:
                hook.after(tr, result)
            return result

        return spanned

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every hook; module functions are rebound wherever imported."""
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "filterlab" and m]
        for hook in self.hooks:
            owner = sys.modules[f"filterlab.{hook.module}"]
            if "." in hook.attr:
                cls_name, meth = hook.attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                self._patch(cls, meth, orig, self._wrap(hook, orig))
                continue
            orig = getattr(owner, hook.attr)
            wrapper = self._wrap(hook, orig)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._patch(mod, attr, orig, wrapper)

    def _patch(self, target, attr, orig, wrapper) -> None:
        setattr(target, attr, wrapper)
        self._patches.append((target, attr, orig))

    def uninstall(self) -> None:
        for target, attr, orig in reversed(self._patches):
            setattr(target, attr, orig)
        self._patches.clear()

    # -- results ---------------------------------------------------------------

    def end_unit(self) -> None:
        """Fold the distinct-argument sets of one unit into the totals."""
        for name, keys in self._keys.items():
            self.distinct[name] += len(keys)
            keys.clear()
        self._pinned.clear()

    def self_times(self) -> Dict[str, float]:
        n = len(self.span_start)
        child = [0.0] * n
        parent, start, end = self.span_parent, self.span_start, self.span_end
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        out = {name: 0.0 for name in self.names}
        for i in range(n):
            out[self.names[self.span_name[i]]] += end[i] - start[i] - child[i]
        return out

    def per_layer(self, passes: int, overhead_ratio: float) -> Dict[str, float]:
        """Every per-layer metric, per pass (totals divided by ``passes``)."""
        selfs = self.self_times()
        calls = self.calls

        def ratio(a, b):
            return a / b if b else 0.0

        values: Dict[str, float] = {}
        for name, n in calls.items():
            values[f"{name}.calls"] = n / passes
        for name, s in selfs.items():
            values[f"{name}.self_s"] = s / passes
        for name, d in self.distinct.items():
            values[f"{name}.distinct_ratio"] = ratio(d, calls[name])
        values["linalg.rref.cells"] = self.extra["linalg.rref.cells"] / passes
        values["pcgroup.enumerated_elements"] = self.extra["pcgroup.enumerated_elements"] / passes
        values["refine.accept_ratio"] = ratio(self.extra["refine.steps"], calls["refine.lift_subspace"])
        values["census.refines_per_group"] = ratio(
            calls["refine.refine_to_fixpoint"], calls["census.analyze_file"]
        )
        values["trace.overhead_ratio"] = overhead_ratio
        return values

    def write_spans(self, path) -> int:
        """Write the spans as columns of one JSON object; returns the count."""
        with open(path, "w") as fh:
            json.dump(
                {
                    "names": self.names,
                    "name": self.span_name.tolist(),
                    "parent": self.span_parent.tolist(),
                    "start": self.span_start.tolist(),
                    "end": self.span_end.tolist(),
                },
                fh,
            )
        return len(self.span_start)
