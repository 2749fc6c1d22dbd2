"""Per-layer tracing by rebinding purify's public functions.

``Tracer.install`` replaces each listed function by a wrapper in every
module that holds the same function object: the purify modules (so that,
for instance, propcheck's imported ``typecheck`` and the trace monad's
module-level ``parallel_compose`` are caught) and the benchmark's own
modules.  A wrapper records a span (function, start, end, parent span, op)
only while tracing is on, and only for the outermost call of a recursive
function.  Self time is a span's duration minus its child spans'.  The
wrapper's own bookkeeping, including the size counts behind the ratios, is
timed and left out of every enclosing span.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict

from purify.propcheck import Unsatisfiable
from purify.terms import Ap, Join, alpha_eq, size

FUNCTIONS = {
    "surface": ("tokenize", "parse", "elaborate"),
    "check": ("typecheck",),
    "translate": ("opt_translate", "naive_translate", "seq_translate", "normalize",
                  "smart_ap", "smart_join"),
    "pretty": ("pretty",),
    "semantics": ("evaluate", "make_const_env", "actions_agree", "check_laws"),
    "metrics": ("span", "work", "parallel_compose", "sequential_compose", "dag_iso",
                "dyn_span", "simulate_latency"),
    "propcheck": ("gen_term", "shrink", "run_suite"),
    "terms": ("relabel", "alpha_eq"),
    "cli": ("main",),
}
NAMES = [f"{mod}.{fn}" for mod, fns in FUNCTIONS.items() for fn in fns]
MAX_SPANS = 200_000   # spans kept for the output file; aggregates count them all


# -- counters behind the ratios: pre(args, kw, c) runs before the call, post
# (args, kw, result, exc, c) after it; both are excluded from span times.

def _count_nodes(key):
    def pre(args, kw, c):
        c[key] += size(args[0])
    return pre


def _count_out_nodes(key):
    def post(args, kw, result, exc, c):
        if exc is None:
            c[key] += size(result)
    return post


def _normalize_post(args, kw, result, exc, c):
    if exc is None:
        c["translate.normalize.out_nodes"] += size(result)
        c["translate.normalize.changed"] += not alpha_eq(result, args[0])


def _collapsed(key, raw):
    def post(args, kw, result, exc, c):
        c[key] += exc is None and not isinstance(result, raw)
    return post


def _count_dags(*positions):
    def pre(args, kw, c):
        for i in positions:
            c["metrics.trace_dags"] += 1
            c["metrics.trace_nodes_total"] += len(args[i].nodes)
    return pre


def _tokens_post(args, kw, result, exc, c):
    if exc is None:
        c["surface.tokens"] += len(result)


def _unsat_post(args, kw, result, exc, c):
    c["propcheck.unsat"] += isinstance(exc, Unsatisfiable)


HOOKS = {
    "surface.tokenize": (None, _tokens_post),
    "check.typecheck": (_count_nodes("check.nodes"), None),
    "translate.opt_translate": (_count_nodes("translate.opt.in_nodes"),
                                _count_out_nodes("translate.opt.out_nodes")),
    "translate.normalize": (_count_nodes("translate.normalize.in_nodes"), _normalize_post),
    "translate.smart_ap": (None, _collapsed("translate.smart_ap.collapsed", Ap)),
    "translate.smart_join": (None, _collapsed("translate.smart_join.collapsed", Join)),
    "propcheck.gen_term": (None, _unsat_post),
    "metrics.dyn_span": (_count_dags(0), None),
    "metrics.simulate_latency": (_count_dags(0), None),
    "metrics.dag_iso": (_count_dags(0, 1), None),
}


class Tracer:
    def __init__(self):
        n = len(NAMES)
        self.calls = [0] * n
        self.total = [0.0] * n
        self.self_time = [0.0] * n
        self.counters: dict = defaultdict(float)
        self.spans: list = []       # (function index, start, end, parent index, op id)
        self.dropped = 0
        self._stack: list = []      # [span index, time covered by child spans]
        self._excluded = 0.0        # bookkeeping time so far, left out of spans
        self._on = False
        self._op = -1
        self._patches: list = []

    # -- switching --------------------------------------------------------

    def start_op(self, op_id: int) -> None:
        self._op, self._on = op_id, True

    def stop_op(self) -> None:
        self._on = False

    def install(self, extra_modules=()) -> None:
        mods = [m for name, m in list(sys.modules.items())
                if m is not None and (name == "purify" or name.startswith("purify."))]
        mods += list(extra_modules)
        for fid, qual in enumerate(NAMES):
            mod, fn = qual.split(".")
            orig = getattr(importlib.import_module(f"purify.{mod}"), fn)
            wrapper = self._wrap(fid, orig, *HOOKS.get(qual, (None, None)))
            for m in mods:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, attr, wrapper)
                        self._patches.append((m, attr, orig))

    def uninstall(self) -> None:
        for m, attr, orig in reversed(self._patches):
            setattr(m, attr, orig)
        self._patches.clear()

    # -- the wrapper ------------------------------------------------------

    def _wrap(self, fid: int, fn, pre, post):
        tr = self
        active = [False]
        clock = time.perf_counter

        def wrapper(*args, **kw):
            if not tr._on or active[0]:
                return fn(*args, **kw)
            t_in = clock()
            if pre is not None:
                try:
                    pre(args, kw, tr.counters)
                except Exception:  # a counter must never change the run
                    pass
            active[0] = True
            parent = tr._stack[-1][0] if tr._stack else -1
            idx = len(tr.spans) if len(tr.spans) < MAX_SPANS else -1
            if idx >= 0:
                tr.spans.append(None)
            frame = [idx, 0.0]
            tr._stack.append(frame)
            result, exc = None, None
            ex0 = tr._excluded
            t0 = clock()
            try:
                result = fn(*args, **kw)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                t1 = clock()
                dur = (t1 - t0) - (tr._excluded - ex0)
                tr._stack.pop()
                active[0] = False
                if tr._stack:
                    tr._stack[-1][1] += dur
                tr.calls[fid] += 1
                tr.total[fid] += dur
                tr.self_time[fid] += dur - frame[1]
                if idx >= 0:
                    tr.spans[idx] = (fid, t0, t1, parent, tr._op)
                else:
                    tr.dropped += 1
                if post is not None:
                    try:
                        post(args, kw, result, exc, tr.counters)
                    except Exception:
                        pass
                tr._excluded += (t0 - t_in) + (clock() - t1)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- results ----------------------------------------------------------

    def per_layer(self, passes: int, overhead: float) -> dict:
        """Per-pass calls/s/self_s of every function, plus the ratios with
        their bases (each ratio's base is a count reported beside it)."""
        c, p = self.counters, max(passes, 1)
        out: dict = {}
        for fid, qual in enumerate(NAMES):
            out[f"{qual}.calls"] = (self.calls[fid] / p, "count")
            out[f"{qual}.s"] = (self.total[fid] / p, "s")
            out[f"{qual}.self_s"] = (self.self_time[fid] / p, "s")

        def t(qual):
            return self.total[NAMES.index(qual)]

        def calls(qual):
            return self.calls[NAMES.index(qual)]

        def ratio(a, b):
            return a / b if b else 0.0

        out["surface.tokens"] = (c["surface.tokens"] / p, "count")
        out["surface.tokens_per_s"] = (ratio(c["surface.tokens"], t("surface.tokenize")), "1/s")
        out["check.nodes"] = (c["check.nodes"] / p, "count")
        out["check.nodes_per_s"] = (ratio(c["check.nodes"], t("check.typecheck")), "1/s")
        for key in ("opt", "normalize"):
            out[f"translate.{key}.in_nodes"] = (c[f"translate.{key}.in_nodes"] / p, "count")
            out[f"translate.{key}.size_ratio"] = (
                ratio(c[f"translate.{key}.out_nodes"], c[f"translate.{key}.in_nodes"]), "ratio")
        out["translate.normalize.changed_ratio"] = (
            ratio(c["translate.normalize.changed"], calls("translate.normalize")), "ratio")
        for key in ("smart_ap", "smart_join"):
            out[f"translate.{key}.collapse_ratio"] = (
                ratio(c[f"translate.{key}.collapsed"], calls(f"translate.{key}")), "ratio")
        out["propcheck.unsat_ratio"] = (ratio(c["propcheck.unsat"], calls("propcheck.gen_term")),
                                        "ratio")
        out["metrics.trace_dags"] = (c["metrics.trace_dags"] / p, "count")
        out["metrics.trace_nodes"] = (ratio(c["metrics.trace_nodes_total"], c["metrics.trace_dags"]),
                                      "count")
        out["trace.overhead_ratio"] = (overhead, "ratio")
        return out

    def write_spans(self, path: str, workload: str, seed: int) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "v": 1, "workload": workload, "seed": seed, "functions": NAMES,
                "fields": ["function", "start_s", "end_s", "parent", "op"],
                "spans": [s for s in self.spans if s is not None],
                "dropped": self.dropped,
            }, fh, separators=(",", ":"))
