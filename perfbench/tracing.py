"""Spans around the layer entry points of ``mhv``, recorded from outside.

``Tracer.install`` replaces public functions and methods of the package with
wrappers for the duration of a ``with`` block and puts the originals back on
exit.  Each wrapped call becomes a span (name, start, end, parent span) kept
in memory; a span's self time is its duration minus the time its child spans
cover.  Calls made thousands of times per join (``tuple_distance``) are
summed into their enclosing span instead of becoming spans of their own, and
``Beam.insert`` and ``GrowthRun.step`` are only counted, so that tracing
stays cheap enough to leave the proportions between layers intact.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Callable

import mhv.baselines
import mhv.exact
import mhv.graph
import mhv.harness
import mhv.heuristic
import mhv.treedec

clock = time.perf_counter

# Span name -> per-layer metric that sums the spans' self time.
SELF_TIME_METRICS = {
    "graph.parse": "graph.parse_ms",
    "treedec.min_fill": "treedec.min_fill_ms",
    "treedec.make_nice": "treedec.make_nice_ms",
    "treedec.validate_td": "treedec.validate_td_ms",
    "heuristic.introduce": "heuristic.introduce_ms",
    "heuristic.forget": "heuristic.forget_ms",
    "heuristic.join": "heuristic.join_self_ms",
    "heuristic.distance": "heuristic.distance_ms",
    "heuristic.merge_exact": "heuristic.merge_exact_ms",
    "heuristic.merge_heuristic": "heuristic.merge_heuristic_ms",
    "harness.generate": "harness.generate_ms",
}
# Span name -> per-layer metric that sums the spans' whole duration.
TOTAL_TIME_METRICS = {
    "harness.decompose": "harness.decompose_ms",
    "exact.solve": "exact.solve_ms",
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # (name id, parent span index or -1, start, end, self time)
        self.spans: list[tuple[int, int, float, float, float] | None] = []
        self._stack: list[list] = []
        self.summed: dict[str, list[float]] = {}  # name -> [calls, seconds]
        self.counts: dict[str, int] = {}
        self.origin = clock()

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str, fn: Callable) -> Callable:
        nid = self._name_id(name)
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            stack.append([idx, clock(), 0.0])
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                _, start, covered = stack.pop()
                parent = stack[-1][0] if stack else -1
                spans[idx] = (nid, parent, start, end, end - start - covered)
                if stack:
                    stack[-1][2] += end - start

        return wrapper

    def summed_call(self, name: str, fn: Callable) -> Callable:
        total = self.summed.setdefault(name, [0, 0.0])
        stack = self._stack

        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                took = clock() - start
                total[0] += 1
                total[1] += took
                if stack:
                    stack[-1][2] += took

        return wrapper

    def count(self, key: str, by: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + by

    @contextmanager
    def install(self):
        """Wrap the layer entry points; restore the originals on exit."""
        saved: list[tuple[object, str, object]] = []

        def patch(owner: object, attr: str, make: Callable[[Callable], Callable]) -> None:
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, make(original))

        solver = mhv.heuristic.HeuristicSolver
        beam = mhv.heuristic.Beam
        for attr, name in (
            ("handle_introduce", "heuristic.introduce"),
            ("handle_forget", "heuristic.forget"),
            ("handle_join", "heuristic.join"),
            ("merge_exact", "heuristic.merge_exact"),
            ("merge_heuristic", "heuristic.merge_heuristic"),
            ("solve", "heuristic.solve"),
        ):
            patch(solver, attr, lambda fn, name=name: self.span(name, fn))
        patch(solver, "tuple_distance", lambda fn: self.summed_call("heuristic.distance", fn))
        patch(solver, "handle_join", self._count_join_outer)
        patch(solver, "merge_exact", lambda fn: self._counted("heuristic.exact_merges", fn))
        patch(solver, "merge_heuristic", lambda fn: self._counted("heuristic.heuristic_merges", fn))
        patch(solver, "beams", self._count_beams)
        patch(beam, "insert", self._count_inserts)
        patch(mhv.baselines.GrowthRun, "step", lambda fn: self._counted("baselines.growth_steps", fn))
        # make_nice looks validate_td up in its own module, so patch it there.
        patch(mhv.treedec, "validate_td", lambda fn: self.span("treedec.validate_td", fn))
        patch(mhv.treedec, "make_nice", lambda fn: self.span("treedec.make_nice", fn))
        patch(mhv.treedec, "min_fill_decompose", lambda fn: self.span("treedec.min_fill", fn))
        # The harness bound its own names at import; wrap them as it sees them,
        # around the treedec spans above.
        patch(mhv.harness, "min_fill_decompose",
              lambda fn: self.span("harness.decompose", mhv.treedec.min_fill_decompose))
        patch(mhv.harness, "make_nice",
              lambda fn: self.span("harness.decompose", mhv.treedec.make_nice))
        patch(mhv.harness, "generate", lambda fn: self.span("harness.generate", fn))
        patch(mhv.harness, "random_tree", lambda fn: self.span("harness.generate", fn))
        patch(mhv.graph, "parse_graph", lambda fn: self.span("graph.parse", fn))
        patch(mhv.graph, "parse_colouring", lambda fn: self.span("graph.parse", fn))
        patch(mhv.exact, "solve_exact", lambda fn: self.span("exact.solve", fn))
        try:
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def _counted(self, key: str, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            self.count(key)
            return fn(*args, **kwargs)

        return wrapper

    def _count_join_outer(self, fn: Callable) -> Callable:
        def wrapper(solver, idx, first, second):
            # Outer entries under the default smaller_list join loop.
            self.count("join_outer_entries", min(len(first), len(second)))
            return fn(solver, idx, first, second)

        return wrapper

    def _count_beams(self, fn: Callable) -> Callable:
        def wrapper(solver):
            width = solver.config.width
            for idx, beam in fn(solver):
                self.count("heuristic.entries", len(beam))
                if len(beam) >= width:
                    self.count("heuristic.saturated_nodes")
                yield idx, beam

        return wrapper

    def _count_inserts(self, fn: Callable) -> Callable:
        def wrapper(beam, sol, rng):
            accepted = fn(beam, sol, rng)
            self.count("insert_calls")
            if accepted:
                self.count("insert_accepted")
            return accepted

        return wrapper

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer totals: self or total ms per layer, plus the counters."""
        ms = {metric: 0.0 for metric in (*SELF_TIME_METRICS.values(), *TOTAL_TIME_METRICS.values())}
        for span in self.spans:
            nid, _, start, end, self_time = span
            name = self.names[nid]
            if name in SELF_TIME_METRICS:
                ms[SELF_TIME_METRICS[name]] += self_time * 1000.0
            elif name in TOTAL_TIME_METRICS:
                ms[TOTAL_TIME_METRICS[name]] += (end - start) * 1000.0
        calls, seconds = self.summed.get("heuristic.distance", (0, 0.0))
        ms["heuristic.distance_ms"] += seconds * 1000.0
        c = self.counts
        out: dict[str, float] = dict(ms)
        for key in (
            "heuristic.entries",
            "heuristic.saturated_nodes",
            "heuristic.exact_merges",
            "heuristic.heuristic_merges",
            "baselines.growth_steps",
        ):
            out[key] = c.get(key, 0)
        out["heuristic.distance_calls"] = calls
        out["heuristic.join_match_ratio"] = _ratio(
            c.get("heuristic.exact_merges", 0), c.get("join_outer_entries", 0)
        )
        out["heuristic.insert_accept_ratio"] = _ratio(
            c.get("insert_accepted", 0), c.get("insert_calls", 0)
        )
        return out

    def write(self, path, meta: dict) -> None:
        """Write every span, then the summed calls and the counters, as JSON lines."""
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps({"meta": meta, "clock": "perf_counter s since tracer start"}) + "\n")
            for i, (nid, parent, start, end, self_time) in enumerate(self.spans):
                out.write(json.dumps({
                    "id": i,
                    "name": self.names[nid],
                    "parent": parent,
                    "start": start - self.origin,
                    "end": end - self.origin,
                    "self": self_time,
                }) + "\n")
            for name, (calls, seconds) in self.summed.items():
                out.write(json.dumps({"summed": name, "calls": calls, "seconds": seconds}) + "\n")
            out.write(json.dumps({"counts": self.counts}) + "\n")


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0
