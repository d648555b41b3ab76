"""Spans recorded from the benchmark's side of each call into latticekit.

A span has an id, a parent, the id of the query it belongs to (0 for
set-up), a name, a start and an end in nanoseconds, and the number of
array probes ``QueryStats`` counted while it was open.  Spans live in
flat integer arrays while the run goes on and are written out once, at
the end, as gzipped CSV.

The package is not instrumented.  Layer boundaries inside a query are
reached by replacing methods on the built instances with ``Tracer.wrap``,
so that the package's own calls to them pass through a timing wrapper.
"""

from __future__ import annotations

import gzip
import statistics
import time
from array import array

pc = time.perf_counter_ns

FIELDS = ("id", "parent", "query", "name", "start_ns", "end_ns", "array_probes")


class Tracer:
    """In-memory span recorder; ``stats`` is the query's ``QueryStats``."""

    def __init__(self, stats):
        self.stats = stats
        self.names: list[str] = []
        self._codes: dict[str, int] = {}
        self.cols = tuple(array("q") for _ in FIELDS)
        self._stack = [0]
        self._next = 1
        self.query_id = 0   # 0 outside queries
        self.queries = 0
        self.last_s = 0.0
        self.groups: list[dict[str, float]] = []  # set-up seconds per group

    def code(self, name: str) -> int:
        code = self._codes.get(name)
        if code is None:
            code = self._codes[name] = len(self.names)
            self.names.append(name)
        return code

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        return self._span(self.code(name), fn, args, kwargs)

    def _span(self, code: int, fn, args, kwargs):
        sid = self._next
        self._next = sid + 1
        stack = self._stack
        parent = stack[-1]
        stack.append(sid)
        stats = self.stats
        probes = stats.array_probes
        t0 = pc()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = pc()
            stack.pop()
            self.last_s = (t1 - t0) / 1e9
            ids, parents, queries, codes, starts, ends, probe_col = self.cols
            ids.append(sid)
            parents.append(parent)
            queries.append(self.query_id)
            codes.append(code)
            starts.append(t0)
            ends.append(t1)
            probe_col.append(stats.array_probes - probes)

    def query(self, name: str, fn, *args):
        """Run one query as the root span of a fresh query id."""
        self.queries += 1
        self.query_id = self.queries
        try:
            return self.call(name, fn, *args)
        finally:
            self.query_id = 0

    def group(self) -> None:
        """Start a new group of set-up totals (one set-up, or one round)."""
        self.groups.append({})

    def timed(self, name: str, fn, *args, **kwargs):
        """``call``, returning (result, seconds); the seconds also go to the
        current group's total for ``name``."""
        out = self.call(name, fn, *args, **kwargs)
        self.add(name, self.last_s)
        return out, self.last_s

    def add(self, name: str, seconds: float) -> None:
        g = self.groups[-1]
        g[name] = g.get(name, 0.0) + seconds

    def setup_seconds(self) -> dict[str, float]:
        """Median over the groups of each set-up total."""
        names = {k for g in self.groups for k in g}
        return {k: statistics.median(g.get(k, 0.0) for g in self.groups) for k in names}

    def wrap(self, name: str, fn):
        """``fn`` with every call recorded as a span named ``name``."""
        code = self.code(name)
        span = self._span
        no_kwargs: dict = {}

        def traced(*args):
            return span(code, fn, args, no_kwargs)
        return traced

    def spans(self):
        """Yield (id, parent, query, name, start, end, probes) per span."""
        names = self.names
        for row in zip(*self.cols):
            yield row[:3] + (names[row[3]],) + row[4:]

    def write(self, path) -> None:
        with gzip.open(path, "wt") as f:
            f.write(",".join(FIELDS) + "\n")
            for row in self.spans():
                f.write(",".join(map(str, row)) + "\n")


def query_layers(tracer: Tracer) -> dict[str, dict[str, float]]:
    """Per query layer (the root span name): number of queries, self
    nanoseconds, self array probes, and the count and total time of each
    kind of direct child span.  Also totals over all order tests."""
    child_ns: dict[int, int] = {}
    child_probes: dict[int, int] = {}
    roots: dict[int, str] = {}
    for sid, parent, query, name, t0, t1, probes in tracer.spans():
        if parent:
            child_ns[parent] = child_ns.get(parent, 0) + t1 - t0
            child_probes[parent] = child_probes.get(parent, 0) + probes
        elif query:
            roots[sid] = name
    out: dict[str, dict[str, float]] = {}
    tests = out.setdefault("order_index.test_order", {"count": 0, "ns": 0})
    for sid, parent, query, name, t0, t1, probes in tracer.spans():
        if name == "order_index.test_order":
            tests["count"] += 1
            tests["ns"] += t1 - t0 - child_ns.get(sid, 0)
        if sid in roots:
            agg = out.setdefault(name, {"queries": 0, "self_ns": 0, "self_probes": 0})
            agg["queries"] += 1
            agg["self_ns"] += t1 - t0 - child_ns.get(sid, 0)
            agg["self_probes"] += probes - child_probes.get(sid, 0)
        elif parent in roots:
            agg = out.setdefault(roots[parent], {"queries": 0, "self_ns": 0,
                                                 "self_probes": 0})
            agg[name + ".count"] = agg.get(name + ".count", 0) + 1
            agg[name + ".ns"] = agg.get(name + ".ns", 0) + t1 - t0
    return out
