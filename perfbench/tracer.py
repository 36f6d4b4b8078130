"""Spans around the calls into each ranburst layer, recorded from outside.

The benchmark never edits ``src/``. Instead :meth:`Tracer.installed` replaces
module attributes at the places where the callers look them up (``cli.run``
finds ``run_experiment`` in ``ranburst.cli``, the simulator finds
``arrival_outcome`` in ``ranburst.simulator``, and so on) and restores them on
exit.

Coarse calls become spans ``[name, start, end, parent]`` kept in memory. The
per-event calls (``arrival_outcome``, ``feasible``, ``transitions``,
``kaufman_roberts`` at every replication start) would make hundreds of
thousands of spans per pass, so they are leaves: only their call count and
total time are kept, and that time is charged to the span open around them so
that self times still add up.

Processes forked by the replication pool inherit the wrappers, but what they
record stays in the child; counts from pooled work are therefore missing.
"""

from __future__ import annotations

import contextlib
import functools
from time import perf_counter

SPAN = "span"
LEAF = "leaf"

# (module, attribute, recorded name, kind). The layer is the part of the
# recorded name before the dot: the module whose function is called.
WRAPPED = (
    ("cli", "run", "cli.run", SPAN),
    ("cli", "write_summary_csv", "cli.write_summary_csv", SPAN),
    ("cli", "write_curves_csv", "cli.write_curves_csv", SPAN),
    ("cli", "write_trajectory_csv", "cli.write_trajectory_csv", SPAN),
    ("cli", "run_experiment", "simulator.run_experiment", SPAN),
    ("cli", "summarize", "metrics.summarize", SPAN),
    ("cli", "aggregate", "metrics.aggregate", SPAN),
    ("cli", "empirical_blocking", "metrics.empirical_blocking", SPAN),
    ("cli", "time_average_counts", "metrics.time_average_counts", SPAN),
    ("metrics", "time_average_counts", "metrics.time_average_counts", SPAN),
    ("metrics", "session_curves", "metrics.session_curves", SPAN),
    ("simulator", "arrival_outcome", "traffic.arrival_outcome", LEAF),
    ("simulator", "feasible", "traffic.feasible", LEAF),
    ("simulator", "kaufman_roberts", "analytic.kaufman_roberts", LEAF),
    ("analytic", "transitions", "traffic.transitions", LEAF),
    ("analytic", "reachable_states", "analytic.reachable_states", SPAN),
    ("analytic", "build_generator", "analytic.build_generator", SPAN),
    ("analytic", "steady_state", "analytic.steady_state", SPAN),
    ("analytic", "blocking_from_generator", "analytic.blocking_from_generator", SPAN),
    ("analytic", "transient", "analytic.transient", SPAN),
)

LAYERS = ("cli", "simulator", "traffic", "metrics", "analytic")


class Tracer:
    """In-memory spans and leaf counters for one traced pass."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or None]
        self.leaves: dict[str, list] = {}  # name -> [calls, seconds]
        self._covered: list[float] = []  # per span: time inside its children
        self._open: list[int] = []

    def span(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            parent = self._open[-1] if self._open else None
            self.spans.append([name, 0.0, 0.0, parent])
            self._covered.append(0.0)
            self._open.append(idx)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._open.pop()
                self.spans[idx][1] = start
                self.spans[idx][2] = end
                if parent is not None:
                    self._covered[parent] += end - start

        return wrapper

    def leaf(self, name: str, fn):
        stat = self.leaves.setdefault(name, [0, 0.0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - start
                stat[0] += 1
                stat[1] += dt
                if self._open:
                    self._covered[self._open[-1]] += dt

        return wrapper

    @contextlib.contextmanager
    def installed(self, rb):
        """Wrap every entry of WRAPPED on the imported ``ranburst`` package."""
        saved = []
        try:
            for module_name, attr, name, kind in WRAPPED:
                module = getattr(rb, module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                wrap = self.span if kind == SPAN else self.leaf
                setattr(module, attr, wrap(name, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def totals(self, name: str) -> tuple[int, float]:
        """(calls, inclusive seconds) of one recorded name."""
        if name in self.leaves:
            calls, seconds = self.leaves[name]
            return calls, seconds
        calls = 0
        seconds = 0.0
        for span_name, start, end, _ in self.spans:
            if span_name == name:
                calls += 1
                seconds += end - start
        return calls, seconds

    def self_seconds(self) -> dict[str, float]:
        """Per layer: time in its calls minus the time in the calls they made."""
        out = dict.fromkeys(LAYERS, 0.0)
        for (name, start, end, _), covered in zip(self.spans, self._covered):
            out[name.split(".", 1)[0]] += (end - start) - covered
        for name, (_, seconds) in self.leaves.items():
            out[name.split(".", 1)[0]] += seconds
        return out

    def dump(self) -> dict:
        """JSON-ready copy of the spans and leaf counters."""
        return {
            "spans": [
                {"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in self.spans
            ],
            "leaves": {n: {"calls": c, "seconds": s} for n, (c, s) in self.leaves.items()},
        }
