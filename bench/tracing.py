"""Span tracing of the ranksets layers, installed from outside the package.

The tracer wraps public functions of ``ranksets`` at every module
attribute that holds them, so a call is recorded whichever module the
caller looked the name up in.  Spans live in memory: one stack per
thread, each span tagged with the id of the benchmark op that was
running when it started.  A span opened by a worker thread whose own
stack is empty (the thread pool in ``cli.analyze``) takes the innermost
span open on the load-generator thread as its parent.

Self time generalises "duration minus the union of the children's
intervals" to children that overlap in other threads: every instant of
an op is split evenly among the spans open at that instant that have
no open child.  For single-threaded code the two definitions agree,
and summed over an op the self times equal the op's wall time.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from collections import defaultdict

#: Layer name -> ``(module, attribute)`` of each function timed as that layer.
LAYERS = {
    "cli.main": [("ranksets.cli", "main")],
    "cli.ingest": [("ranksets.cli", "ingest")],
    "cli.analyze": [("ranksets.cli", "analyze")],
    "dispatch.rank_cs": [("ranksets._dispatch", "rank_cs")],
    "core.family": [("ranksets.core", "build_index_family")],
    "core.assembly": [
        ("ranksets.core", "PairwiseRejections.from_claims"),
        ("ranksets.core", "rankset_from_rejections"),
    ],
    "exact.stats": [("ranksets.exact", "pairwise_pvalues")],
    "exact.multiplicity": [
        ("ranksets.exact", "holm_reject"),
        ("ranksets.exact", "bonferroni_reject"),
    ],
    "cp.stats": [("ranksets.cp", "cp_box")],
    "boot.stats": [("ranksets.boot", "difference_cs")],
    "boot.multiplicity": [("ranksets.boot", "bootstrap_quantile")],
    "boot.readout": [("ranksets.boot", "boot_rank_cs")],
    "boot.naive": [("ranksets.boot", "naive_rank_cs")],
    "projections.tau": [
        ("ranksets.projections", "tau_best"),
        ("ranksets.projections", "tau_worst"),
    ],
    "sim.run_design": [("ranksets.sim", "run_design")],
}

#: Span covering the timed region of one op; its self time is the
#: part of the op spent outside every wrapped function.
OP_SPAN = "bench.op"

#: Cache name -> ``(module, attribute)`` of an ``lru_cache`` read at op
#: boundaries through ``cache_info()``.
CACHES = {
    "exact.pvalue_cache": ("ranksets.exact", "conditional_pvalue"),
    "exact.tail_cache": ("ranksets.exact", "_tail_numerator"),
    "cp.box_cache": ("ranksets.cp", "_cp_box_cached"),
    "boot.resample_cache": ("ranksets.boot", "_theta_star_cached"),
}


def _family_pairs(args, kwargs, result):
    return {"core.family.pairs": len(result.pairs)}


def _pvalue_pairs(args, kwargs, result):
    return {"exact.stats.pairs": len(result.family)}


def _rank_cs_calls(args, kwargs, result):
    return {"dispatch.rank_cs.calls": 1}


def _run_design_reps(args, kwargs, result):
    return {"sim.reps": result.reps}


def _matrix_bytes(args, kwargs, result):
    # difference_cs(sample, config, alpha, pairs): every B x m statistic
    # array it builds holds B * m float64 values.
    config = args[1] if len(args) > 1 else kwargs["config"]
    return {"boot.stats.matrix_bytes": config.B * len(result.pairs) * 8}


#: Counts recorded from a wrapped call's arguments and result.
COUNTERS = {
    "build_index_family": _family_pairs,
    "pairwise_pvalues": _pvalue_pairs,
    "rank_cs": _rank_cs_calls,
    "run_design": _run_design_reps,
    "difference_cs": _matrix_bytes,
}

#: Counters reported as their largest single value rather than a sum.
MAX_COUNTERS = {"boot.stats.matrix_bytes"}


def _resolve(module_name: str, attr: str):
    owner = sys.modules[module_name]
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    """In-memory spans and counters for one traced worker process."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (op, name, id, parent, t0, t1)
        self.counts: dict[str, float] = defaultdict(float)
        self.cache_hits: dict[str, int] = defaultdict(int)
        self.cache_misses: dict[str, int] = defaultdict(int)
        self.op = -1
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack: list[int] = []
        self._local.stack = self._main_stack
        self._caches = {}
        self._cache_start = {}

    # -- installation --------------------------------------------------

    def install(self) -> None:
        """Wrap every layer function wherever a ``ranksets`` module binds it."""
        for layer, targets in LAYERS.items():
            for module_name, attr in targets:
                owner, name = _resolve(module_name, attr)
                raw = owner.__dict__[name]
                if isinstance(raw, classmethod):
                    owner_attr = classmethod(self._wrap(raw.__func__, layer))
                    setattr(owner, name, owner_attr)
                    continue
                wrapped = self._wrap(raw, layer)
                for mod_name, module in list(sys.modules.items()):
                    if mod_name != "ranksets" and not mod_name.startswith("ranksets."):
                        continue
                    for key, value in list(vars(module).items()):
                        if value is raw:
                            setattr(module, key, wrapped)
        for cache, (module_name, attr) in CACHES.items():
            owner, name = _resolve(module_name, attr)
            self._caches[cache] = getattr(owner, name)

    def _wrap(self, fn, layer: str):
        counter = COUNTERS.get(fn.__name__)
        start, end = self._start, self._end

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = start()
            try:
                result = fn(*args, **kwargs)
            finally:
                end(span, layer)
            if counter is not None:
                self._count(counter(args, kwargs, result))
            return result

        return wrapper

    def _count(self, increments: dict[str, float]) -> None:
        # Pool threads in cli.analyze update the counters concurrently.
        with self._lock:
            for key, value in increments.items():
                if key in MAX_COUNTERS:
                    self.counts[key] = max(self.counts[key], value)
                else:
                    self.counts[key] += value

    # -- spans ---------------------------------------------------------

    def _stack(self) -> list[int]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def _start(self):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif threading.get_ident() != self._main and self._main_stack:
            parent = self._main_stack[-1]
        else:
            parent = None
        span_id = next(self._ids)
        stack.append(span_id)
        return (self.op, span_id, parent, time.perf_counter())

    def _end(self, span, name: str) -> None:
        op, span_id, parent, t0 = span
        t1 = time.perf_counter()
        self._stack().pop()
        self.spans.append((op, name, span_id, parent, t0, t1))

    def begin_op(self, op: int):
        """Open the span of one op and snapshot the cache counters."""
        self.op = op
        self._cache_start = {
            name: fn.cache_info() for name, fn in self._caches.items()
        }
        return self._start()

    def end_op(self, span) -> None:
        self._end(span, OP_SPAN)
        for name, fn in self._caches.items():
            info, before = fn.cache_info(), self._cache_start[name]
            self.cache_hits[name] += info.hits - before.hits
            self.cache_misses[name] += info.misses - before.misses

    # -- results -------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Total self seconds per span name over all ops."""
        by_op: dict[int, list[tuple]] = defaultdict(list)
        for span in self.spans:
            by_op[span[0]].append(span)
        totals: dict[str, float] = defaultdict(float)
        for spans in by_op.values():
            for name, seconds in _op_self_times(spans).items():
                totals[name] += seconds
        return dict(totals)

    def cache_entries(self, cache: str) -> int:
        return self._caches[cache].cache_info().currsize

    def hit_ratio(self, cache: str) -> float:
        hits, misses = self.cache_hits[cache], self.cache_misses[cache]
        return hits / (hits + misses) if hits + misses else 0.0

    def write_spans(self, path) -> None:
        """Write the recorded spans as tab-separated lines with a header."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("op\tname\tid\tparent\tt0\tt1\n")
            for op, name, span_id, parent, t0, t1 in self.spans:
                fh.write(f"{op}\t{name}\t{span_id}\t{parent}\t{t0!r}\t{t1!r}\n")


def _op_self_times(spans) -> dict[str, float]:
    """Self seconds per span name for the spans of one op."""
    names = {span_id: name for _, name, span_id, _, _, _ in spans}
    parents = {span_id: parent for _, _, span_id, parent, _, _ in spans}
    events = []
    for _, _, span_id, _, t0, t1 in spans:
        events.append((t0, 0, span_id))
        events.append((t1, 1, span_id))
    events.sort()
    open_children: dict[int, int] = defaultdict(int)
    open_spans: set[int] = set()
    totals: dict[str, float] = defaultdict(float)
    t_prev = events[0][0] if events else 0.0
    for t, kind, span_id in events:
        leaves = [s for s in open_spans if open_children[s] == 0]
        if leaves and t > t_prev:
            share = (t - t_prev) / len(leaves)
            for s in leaves:
                totals[names[s]] += share
        t_prev = t
        parent = parents[span_id]
        if kind == 0:
            open_spans.add(span_id)
            if parent in names:
                open_children[parent] += 1
        else:
            open_spans.discard(span_id)
            if parent in names:
                open_children[parent] -= 1
    return dict(totals)
