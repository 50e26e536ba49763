"""Spans around the calls into each flexdp layer, from the benchmark's side.

`Tracer.installed()` replaces the public names that callers look up at call
time with wrappers that record a span per call, and puts every original
back on exit.  Spans are kept in memory as (id, name, start_ns, end_ns,
parent_id) and written out by the caller.  A span's self time is its
duration minus the spans directly inside it; the root span's self time is
the part of the question no wrapped call accounts for.  Work the wrappers
do for counters (LP sizes, class keys) is timed on its own as bookkeeping,
so that the self times, the bookkeeping and the remainder add up to the
root span exactly.
"""
from __future__ import annotations

import functools
from collections import Counter
from contextlib import contextmanager
from time import perf_counter_ns
from typing import Any, Callable, Iterator, Optional

from flexdp import covers, flexibility, lp, search

ROOT = "question"
BOOKKEEPING = "trace.bookkeeping"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, str, int, int, int]] = []
        self.calls: Counter[str] = Counter()
        self.busy_ns: Counter[str] = Counter()
        self.self_ns: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.classes: set[tuple] = set()
        self._stack: list[list] = []   # frames: [span id, name, child ns]
        self._next_id = 0

    # -- spans -------------------------------------------------------------

    def _open(self, name: str) -> list:
        frame = [self._next_id, name, 0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _close(self, frame: list, start: int, end: int) -> None:
        self._stack.pop()
        sid, name, child = frame
        parent = self._stack[-1] if self._stack else None
        self.spans.append((sid, name, start, end, parent[0] if parent else -1))
        self.calls[name] += 1
        self.busy_ns[name] += end - start
        self.self_ns[name] += end - start - child
        if parent is not None:
            parent[2] += end - start

    @contextmanager
    def bookkeeping(self) -> Iterator[None]:
        """Time counter work and hide it from the enclosing span's self time."""
        start = perf_counter_ns()
        try:
            yield
        finally:
            spent = perf_counter_ns() - start
            self.busy_ns[BOOKKEEPING] += spent
            if self._stack:
                self._stack[-1][2] += spent

    @contextmanager
    def root(self) -> Iterator[None]:
        frame = self._open(ROOT)
        start = perf_counter_ns()
        try:
            yield
        finally:
            self._close(frame, start, perf_counter_ns())

    def wrap(self, name: str, fn: Callable,
             after: Optional[Callable[[tuple, Any], None]] = None) -> Callable:
        """`fn` inside a span; `after(args, result)` runs as bookkeeping."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer._open(name)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(frame, start, perf_counter_ns())
            if after is not None:
                with tracer.bookkeeping():
                    after(args, result)
            return result
        return wrapper

    def wrap_generator(self, name: str, fn: Callable, counter: str) -> Callable:
        """One span per item drawn from the generator `fn` returns."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            items = fn(*args, **kwargs)
            while True:
                frame = tracer._open(name)
                start = perf_counter_ns()
                try:
                    item = next(items)
                except StopIteration:
                    return
                finally:
                    tracer._close(frame, start, perf_counter_ns())
                tracer.counts[counter] += 1
                yield item
        return wrapper

    # -- the layers --------------------------------------------------------

    def _patches(self) -> list[tuple[Any, str, Callable]]:
        counts = self.counts

        def cover_visited(args, result):
            enum, index = args
            self.classes.add((enum.g.n, enum.g.edge_items(), index))

        def colorings_found(args, result):
            counts["colorings.count"] += len(result)

        def lp_solved(args, outcome):
            program = args[0]
            rows, cols = len(program.rows), program.num_vars
            counts["lp.rows"] += rows
            counts["lp.cols"] += cols
            counts["lp.entries"] += rows * cols
            counts["lp.nonzeros"] += sum(1 for coeffs, _, _ in program.rows
                                         for a in coeffs if a)
            if outcome.status == "optimal":
                counts["lp.support"] += sum(1 for x in outcome.primal if x)
            else:
                counts["lp.infeasible"] += 1

        def internal_error(fn):
            def guarded(*args, **kwargs):
                try:
                    return fn(*args, **kwargs)
                except lp.LpInternalError:
                    counts["lp.internal_errors"] += 1
                    raise
            return guarded

        # search calls the same epsilon_star that flexibility exports; one
        # wrapper serves both bindings so each call is one span.
        epsilon_star = self.wrap("flexibility.query", flexibility.epsilon_star)
        search_epsilon_star = (epsilon_star
                               if search.epsilon_star is flexibility.epsilon_star
                               else self.wrap("flexibility.query", search.epsilon_star))
        cls = covers.CoverEnumeration
        return [
            (search, "enumerate_connected_multigraphs",
             self.wrap_generator("search.enumerate",
                                 search.enumerate_connected_multigraphs,
                                 "search.graphs.yielded")),
            (search, "canonical_code",
             self.wrap("search.canonical_code", search.canonical_code)),
            (search, "mad", self.wrap("graphs.mad", search.mad)),
            (search, "find_I_subgraph",
             self.wrap("graphs.find_I", search.find_I_subgraph)),
            (search, "epsilon_star", search_epsilon_star),
            (flexibility, "epsilon_star", epsilon_star),
            (cls, "__init__", self.wrap("covers.index", cls.__init__)),
            (cls, "at", self.wrap("covers.cover_at", cls.at, after=cover_visited)),
            (flexibility, "enumerate_colorings",
             self.wrap("colorings.enumerate", flexibility.enumerate_colorings,
                       after=colorings_found)),
            (flexibility, "solve",
             internal_error(self.wrap("lp.solve", flexibility.solve, after=lp_solved))),
            (lp, "verify_certificate", self.wrap("lp.verify", lp.verify_certificate)),
        ]

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Wrap the layer entry points; restore the originals on exit."""
        patches = self._patches()
        originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
        try:
            for owner, attr, replacement in patches:
                setattr(owner, attr, replacement)
            yield self
        finally:
            for owner, attr, original in originals:
                setattr(owner, attr, original)
        if any(getattr(owner, attr) is not original for owner, attr, original in originals):
            raise RuntimeError("a wrapped name was not restored")

    # -- results -----------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer counts, and layer times as shares of the traced wall time.

        A layer the question never calls has share 0 on every run; shares
        keep such constants from reading as measured seconds.  The shares of
        every self time, the bookkeeping and the unattributed rest sum to 1.
        """
        by_id = {sid: name for sid, name, _, _, _ in self.spans}
        codes_in_enum = sum(1 for _, name, _, _, parent in self.spans
                            if name == "search.canonical_code"
                            and by_id.get(parent) == "search.enumerate")
        solved_under = {parent for _, name, _, _, parent in self.spans
                        if name == "lp.solve"}
        lp_free = sum(1 for sid, name, _, _, _ in self.spans
                      if name == "flexibility.query" and sid not in solved_under)
        c = self.counts
        wall = self.busy_ns[ROOT]
        busy = {name: ns / wall for name, ns in self.busy_ns.items()}
        own = {name: ns / wall for name, ns in self.self_ns.items()}
        yielded = c["search.graphs.yielded"]
        return {
            "search.canonical_code.calls": self.calls["search.canonical_code"],
            "search.canonical_code.busy_share": busy.get("search.canonical_code", 0.0),
            "search.enumerate.self_share": own.get("search.enumerate", 0.0),
            "search.graphs.yielded": yielded,
            "search.enum.useful_ratio": yielded / codes_in_enum if codes_in_enum else 0.0,
            "graphs.mad.calls": self.calls["graphs.mad"],
            "graphs.mad.busy_share": busy.get("graphs.mad", 0.0),
            "graphs.find_I.calls": self.calls["graphs.find_I"],
            "graphs.find_I.busy_share": busy.get("graphs.find_I", 0.0),
            "covers.classes": len(self.classes),
            "covers.cover_at.calls": self.calls["covers.cover_at"],
            "covers.cover_at.busy_share": busy.get("covers.cover_at", 0.0),
            "covers.index.calls": self.calls["covers.index"],
            "covers.index.busy_share": busy.get("covers.index", 0.0),
            "colorings.enumerate.calls": self.calls["colorings.enumerate"],
            "colorings.enumerate.busy_share": busy.get("colorings.enumerate", 0.0),
            "colorings.count": c["colorings.count"],
            "flexibility.query.calls": self.calls["flexibility.query"],
            "flexibility.self_share": own.get("flexibility.query", 0.0),
            "flexibility.lp_free": lp_free,
            "lp.solve.calls": self.calls["lp.solve"],
            "lp.solve.self_share": own.get("lp.solve", 0.0),
            "lp.verify.calls": self.calls["lp.verify"],
            "lp.verify.busy_share": busy.get("lp.verify", 0.0),
            "lp.rows": c["lp.rows"],
            "lp.cols": c["lp.cols"],
            "lp.entries": c["lp.entries"],
            "lp.nonzeros": c["lp.nonzeros"],
            "lp.support_frac": c["lp.support"] / c["lp.cols"] if c["lp.cols"] else 0.0,
            "lp.infeasible": c["lp.infeasible"],
            "lp.internal_errors": c["lp.internal_errors"],
            "trace.wall_s": wall * 1e-9,
            "trace.unattributed_share": own[ROOT],
            "trace.bookkeeping_share": busy.get(BOOKKEEPING, 0.0),
            "trace.spans": len(self.spans),
        }

    def self_times(self) -> dict[str, float]:
        """Seconds of self time per span name, root included, plus bookkeeping.

        These partition the root spans: they sum to `trace.wall_s`.
        """
        parts = {name: ns * 1e-9 for name, ns in sorted(self.self_ns.items())}
        parts[BOOKKEEPING] = self.busy_ns[BOOKKEEPING] * 1e-9
        return parts

    def partition_gap_ns(self) -> int:
        """Root time minus every self time and the bookkeeping; 0 when consistent."""
        return (self.busy_ns[ROOT] - sum(self.self_ns.values())
                - self.busy_ns[BOOKKEEPING])
