"""Spans and counters around the package's public calls, recorded from outside.

``Tracer.install`` rebinds each traced function, in every loaded
``domicert`` module that refers to it, to a wrapper that records a span
or bumps a counter. Calls from one module into another are therefore
seen without changing the package; calls a module makes to its own
private helpers are not.

A span is ``(name, start, end, parent, item, pid)``: ``parent`` indexes
the span that was open when this one began, ``item`` names the graph
(its graph6 string) or query being worked on. Spans stay in memory until
the run ends.

Worker-side tracing: the census pool is replaced by ``TracedPool``,
whose ``map`` times how long the parent blocks and sends each task
through ``_traced_task``. With the fork start method the workers inherit
the wrappers; with spawn or forkserver ``_traced_task`` installs a tracer
in the fresh worker. Each task returns its spans with its result, and the
parent adopts them under its ``census.pool_wait`` span, keeping the
worker's pid. Clocks agree across processes because ``perf_counter`` is
the system-wide monotonic clock on Linux.
"""

from __future__ import annotations

import functools
import inspect
import multiprocessing.pool
import os
import sys
import time
from collections import Counter
from contextlib import contextmanager

# (module, function, span name); generator functions get a span that
# covers draining them, which the package always does in one go
SPANNED = (
    ("census", "run_census", "census.run_census"),
    ("census", "generate_trees", "census.generate"),
    ("census", "generate_connected_graphs", "census.generate"),
    ("census", "verify_graph", "census.verify_graph"),
    ("domination", "solve_ev", "domination.solve_ev"),
    ("domination", "solve_pr", "domination.solve_pr"),
    ("graphs", "canonical_code", "graphs.canonical_code"),
    ("graphs", "perfect_matchings_within", "graphs.perfect_matchings"),
    ("graphs", "parse_graph6", "graphs.parse_graph6"),
    ("twinning", "detangle", "twinning.detangle"),
    ("twinning", "twinning", "twinning.twinning"),
    ("twinning", "check_claim", "twinning.check_claim"),
)
# only counted: a span each would cost more than the call itself
COUNTED = (
    ("twinning", "sharing_pairs", "twinning.sharing_pairs"),
)

# spans that time waiting, not work; they count toward no layer's self time
WAIT_SPANS = frozenset({"census.pool_wait"})

# the tracer the wrappers and pool tasks of this process report to; a
# module variable because pool workers must find it by import path
_active: Tracer | None = None


class Tracer:
    """Spans and counts of one process, plus the patches that produce them."""

    def __init__(self):
        self.spans: list[tuple | None] = []
        self.counts: Counter = Counter()
        self.item = None
        self.pid = os.getpid()
        self._stack: list[list] = []
        self._patches: list[tuple] | None = None

    def begin(self, name: str) -> int:
        # an open span lives on the stack; closing it stores a tuple, which
        # the garbage collector stops tracking, so long traces stay cheap
        index = len(self.spans)
        parent = self._stack[-1][0] if self._stack else None
        self.spans.append(None)
        self._stack.append([index, name, time.perf_counter(), parent, self.item])
        self.counts[name] += 1
        return index

    def end(self) -> None:
        index, name, start, parent, item = self._stack.pop()
        self.spans[index] = (name, start, time.perf_counter(), parent, item, self.pid)

    @contextmanager
    def span(self, name: str, item=None):
        outer = self.item
        if item is not None:
            self.item = item
        self.begin(name)
        try:
            yield
        finally:
            self.end()
            self.item = outer

    def reset(self) -> None:
        self.spans = []
        self.counts = Counter()
        self.item = None
        self.pid = os.getpid()
        self._stack = []

    def adopt(self, spans, counts, parent: int) -> None:
        offset = len(self.spans)
        for name, start, end, inner, item, pid in spans:
            self.spans.append((name, start, end, parent if inner is None else inner + offset, item, pid))
        self.counts.update(counts)

    def _count(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def call(*args, **kwargs):
            tracer.counts[name] += 1
            return fn(*args, **kwargs)
        return call

    def _wrap(self, name: str, fn):
        tracer = self
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def drain(*args, **kwargs):
                tracer.begin(name)
                try:
                    yield from fn(*args, **kwargs)
                finally:
                    tracer.end()
            return drain

        set_item = name == "census.verify_graph"
        family_counter = {"domination.solve_ev": "domination.ev_sets",
                          "domination.solve_pr": "domination.pr_sets"}.get(name)

        @functools.wraps(fn)
        def call(*args, **kwargs):
            outer = tracer.item
            tracer.begin(name)
            if set_item:
                tracer.item = tracer._stack[-1][4] = _graph6(args[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end()
                tracer.item = outer
            if family_counter:
                tracer.counts[family_counter] += len(result.sets)
            return result
        return call

    @contextmanager
    def installed(self):
        """Trace the package in this process for the duration of the block."""
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def install(self) -> None:
        global _active
        if _active is not None:
            raise RuntimeError("a tracer is already installed")
        if self._patches is None:
            self._patches = self._plan()
        for module, attr, _, replacement in self._patches:
            setattr(module, attr, replacement)
        _active = self

    def uninstall(self) -> None:
        global _active
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)
        _active = None

    def _plan(self) -> list[tuple]:
        # every (module, attribute) that refers to a traced function, with
        # the original and its wrapper
        import domicert.census
        import domicert.cli  # noqa: F401  (its imported names get rebound too)

        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "domicert" or name.startswith("domicert."))]
        wrappers = [(spec, self._wrap) for spec in SPANNED] + [(spec, self._count) for spec in COUNTED]
        patches = []
        for (module_name, attr, name), wrap in wrappers:
            original = getattr(sys.modules[f"domicert.{module_name}"], attr)
            replacement = wrap(name, original)
            for module in modules:
                for key, value in vars(module).items():
                    if value is original:
                        patches.append((module, key, original, replacement))
        patches.append((domicert.census, "Pool", domicert.census.Pool, TracedPool))
        return patches


def _graph6(graph) -> str:
    from domicert.graphs import emit_graph6

    return emit_graph6(graph)


class TracedPool(multiprocessing.pool.Pool):
    """A pool whose ``map`` records the parent's wait and the workers' spans."""

    def map(self, func, iterable, chunksize=None):
        tracer = _active
        index = tracer.begin("census.pool_wait")
        try:
            parts = super().map(_traced_task, [(func, arg) for arg in iterable], chunksize)
        finally:
            tracer.end()
        results = []
        for result, spans, counts in parts:
            tracer.adopt(spans, counts, index)
            results.append(result)
        return results


def _traced_task(task):
    func, arg = task
    tracer = _active
    if tracer is None:
        tracer = Tracer()
        tracer.install()
    tracer.reset()
    with tracer.span("census.shard"):
        result = func(arg)
    return result, tracer.spans, dict(tracer.counts)


def summarize(spans) -> tuple[Counter, Counter]:
    """Total and self time per span name.

    Self time is a span's duration minus that of its children in the same
    process; worker spans adopted under a parent-side wait do not reduce it.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, item, pid in spans:
        if parent is not None and spans[parent][5] == pid:
            child_time[parent] += end - start
    total: Counter = Counter()
    own: Counter = Counter()
    for i, (name, start, end, parent, item, pid) in enumerate(spans):
        total[name] += end - start
        own[name] += end - start - child_time[i]
    return total, own


def layer_self_times(own: Counter) -> Counter:
    layers: Counter = Counter()
    for name, seconds in own.items():
        if name not in WAIT_SPANS:
            layers[name.split(".")[0]] += seconds
    return layers
