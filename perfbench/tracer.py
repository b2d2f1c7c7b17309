"""Per-layer tracing of nomfol from outside the library.

``Tracer.install`` rebinds each traced function in every ``nomfol.*``
module that holds it: ``from .syntax import alpha_key`` copies the binding
into ``sequent`` and ``filters``, so those copies are rebound too.
``PredSet.member`` is wrapped on the class.  ``uninstall`` restores every
binding.

Three kinds of wrapper:

* spans, for layer boundaries that are entered rarely enough to record:
  name, start, end, parent span and op id, kept in memory;
* timed leaves (``alpha_key``, ``subst_formula``): counted, timed at the
  outermost entry, no span.  Their time stays inside the enclosing span's
  self time, as it is spent in that layer's work;
* counted leaves (``standard_eval``, ``act``, ...): entered millions of
  times per run, so only counted.

A span's self time is its duration minus the durations of its child spans.
"""
from __future__ import annotations

import sys
import time

SPANS = ("cli.run", "syntax.parse_formula", "sequent.prove",
         "sequent.find_countermodel", "tarski.tablefun",
         "tarski.tf_meet", "tarski.tf_subst", "tarski.tf_freshmeet",
         "tarski.tf_eq", "tarski.tf_neg", "foleq.interpret",
         "foleq.foleq_axiom_suite", "sigma.sigma_axiom_suite",
         "filters.point_sketch", "filters.filter_check")
TIMED_LEAVES = ("syntax.alpha_key", "syntax.subst_formula")
COUNTED = ("nominal.fresh", "nominal.act", "sequent.sequent",
           "tarski.standard_eval")
EXTRA_COUNTS = ("sequent.prove.proved", "sequent.find_countermodel.found",
                "tarski.tablefun.rows", "tarski.iter_models.models",
                "filters.member.oracle_calls")


class Tracer:
    def __init__(self, lib):
        self.lib = lib
        self.op = -1
        self.spans: list = []     # (name id, start, end, parent index, op id)
        self.stack: list[int] = []
        self.names: list[str] = []
        self.counts = dict.fromkeys(
            [k + ".calls" for k in SPANS + TIMED_LEAVES + COUNTED]
            + ["filters.member.calls", "tarski.iter_models.calls"]
            + list(EXTRA_COUNTS), 0)
        self.leaf_s = dict.fromkeys(TIMED_LEAVES, 0.0)
        self.alpha_keys: set = set()
        self._undo: list = []

    # ------------------------------------------------------------ install

    def install(self) -> None:
        lib, counts = self.lib, self.counts
        hooks = {
            "sequent.prove": self._tally("sequent.prove.proved",
                                         lambda r: r is not None),
            "sequent.find_countermodel": self._tally(
                "sequent.find_countermodel.found", lambda r: r is not None),
        }
        for key in SPANS:
            fn = self._lookup(key)
            inner = self._with_rows(fn) if key == "tarski.tablefun" else fn
            self._rebind(fn, self._span(key, inner, hooks.get(key)))
        for key in TIMED_LEAVES:
            fn = self._lookup(key)
            seen = self.alpha_keys if key == "syntax.alpha_key" else None
            self._rebind(fn, self._leaf(key, fn, seen))
        for key in COUNTED:
            fn = self._lookup(key)
            self._rebind(fn, self._counted(key, fn))

        iter_models = lib.tarski.iter_models

        def counted_models(*args, **kwargs):
            counts["tarski.iter_models.calls"] += 1
            for model in iter_models(*args, **kwargs):
                counts["tarski.iter_models.models"] += 1
                yield model
        self._rebind(iter_models, counted_models)

        pred_set = lib.filters.PredSet
        member = pred_set.member

        def member_with_misses(p, phi):
            before = len(p._memo)
            result = member(p, phi)
            if len(p._memo) > before:
                counts["filters.member.oracle_calls"] += 1
            return result
        pred_set.member = self._span("filters.member", member_with_misses)
        self._undo.append((pred_set, "member", member))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _lookup(self, key: str):
        module, attr = key.split(".")
        return getattr(getattr(self.lib, module), attr)

    def _rebind(self, original, replacement) -> None:
        for name, module in list(sys.modules.items()):
            if name != "nomfol" and not name.startswith("nomfol."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._undo.append((module, attr, original))

    # ----------------------------------------------------------- wrappers

    def _tally(self, key, test):
        def after(result):
            if test(result):
                self.counts[key] += 1
        return after

    def _with_rows(self, tablefun):
        counts = self.counts

        def tablefun_rows(k, deps, fn):
            deps = tuple(deps)
            counts["tarski.tablefun.rows"] += k ** len(set(deps))
            return tablefun(k, deps, fn)
        return tablefun_rows

    def _span(self, key, fn, after=None):
        nid = len(self.names)
        self.names.append(key)
        spans, stack, counts = self.spans, self.stack, self.counts
        calls, clock = key + ".calls", time.perf_counter

        def span(*args, **kwargs):
            counts[calls] += 1
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (nid, start, end, parent, self.op)
            if after is not None:
                after(result)
            return result
        return span

    def _leaf(self, key, fn, seen):
        counts, leaf_s, clock = self.counts, self.leaf_s, time.perf_counter
        calls = key + ".calls"
        depth = [0]

        def leaf(*args, **kwargs):
            counts[calls] += 1
            if depth[0]:
                return fn(*args, **kwargs)
            depth[0] = 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                leaf_s[key] += clock() - start
                depth[0] = 0
            if seen is not None:
                seen.add(result)
            return result
        return leaf

    def _counted(self, key, fn):
        counts, calls = self.counts, key + ".calls"

        def counted(*args, **kwargs):
            counts[calls] += 1
            return fn(*args, **kwargs)
        return counted

    # ------------------------------------------------------------ results

    def self_seconds(self) -> dict[str, float]:
        """Self time per span name, plus the timed leaves' own time."""
        child = [0.0] * len(self.spans)
        for nid, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = dict.fromkeys(self.names, 0.0)
        for i, (nid, start, end, _, _) in enumerate(self.spans):
            out[self.names[nid]] += end - start - child[i]
        out.update(self.leaf_s)
        return out

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = dict(self.counts)
        out["syntax.alpha_key.distinct"] = len(self.alpha_keys)
        for key, seconds in self.self_seconds().items():
            out[key + ".self_s"] = seconds
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("name,start,end,parent,op\n")
            for nid, start, end, parent, op in self.spans:
                fh.write(f"{self.names[nid]},{start:.9f},{end:.9f},{parent},{op}\n")
