"""Metric arithmetic shared by the benchmark and its traced child process.

Everything here is pure: latency ranks, failure fractions and the span
aggregator take their inputs as arguments (the aggregator takes its clock),
so the tests can drive them with synthetic timings.
"""

from __future__ import annotations

import functools
import statistics
import time


def tail_rank(n: int) -> int:
    """0-based rank of the highest sample that has at least 10 samples above it.

    With 10 samples or fewer no such rank exists and the maximum is used.
    """
    if n < 1:
        raise ValueError("no samples")
    return max(0, n - 11) if n > 10 else n - 1


def latency_summary(samples: list[float]) -> dict:
    """Median and tail latency, with the tail's rank and the sample count."""
    ordered = sorted(samples)
    n = len(ordered)
    rank = tail_rank(n)
    return {
        "p50": statistics.median(ordered),
        "tail": ordered[rank],
        "tail_percentile": 100.0 * (rank + 1) / n,
        "samples": n,
    }


def failed_fraction(attempted: int, failed: int) -> float:
    if attempted < 1:
        raise ValueError("no requests attempted")
    return failed / attempted


class Tracer:
    """Aggregates nested spans by name: calls, total time, self time, counters.

    Self time is a span's duration minus the durations of the spans nested
    directly inside it.  Spans are aggregated as they close rather than
    kept one by one, because hot layers open millions of them.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counters: dict[str, int] = {}
        self._child_time: list[float] = []

    def wrap(self, name: str, fn, count=None):
        """Return fn wrapped in a span; count(result) yields counter increments."""
        clock = self.clock
        stack = self._child_time
        agg = self.spans.setdefault(name, [0, 0.0, 0.0])
        counters = self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                agg[0] += 1
                agg[1] += elapsed
                agg[2] += elapsed - children
            if count is not None:
                for key, value in count(result).items():
                    counters[key] = counters.get(key, 0) + value
            return result

        return traced

    def to_json(self) -> dict:
        return {
            "spans": {
                name: {"calls": c, "total_s": t, "self_s": s}
                for name, (c, t, s) in self.spans.items()
            },
            "counters": dict(self.counters),
        }


def merge_traces(traces: list[dict]) -> dict:
    """Sum the span and counter aggregates of several traced requests."""
    spans: dict[str, dict] = {}
    counters: dict[str, int] = {}
    for trace in traces:
        for name, agg in trace["spans"].items():
            into = spans.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key in into:
                into[key] += agg[key]
        for name, value in trace["counters"].items():
            counters[name] = counters.get(name, 0) + value
    return {"spans": spans, "counters": counters}


def layer_metrics(trace: dict, names: list[str]) -> dict[str, float]:
    """Resolve per-layer metric names against merged trace aggregates.

    ``<span>.calls`` and ``<span>.self_s`` read a span, ``<module>.self_s``
    sums the self time of every span in that module, a bare counter name
    reads the counter, and ``analysis.useful_ratio`` is surviving over
    expanded terms.  A span or counter never entered reads 0.
    """
    spans, counters = trace["spans"], trace["counters"]
    out = {}
    for name in names:
        head, _, field = name.rpartition(".")
        if name == "analysis.useful_ratio":
            expanded = counters.get("analysis.expanded_terms", 0)
            surviving = counters.get("analysis.surviving_terms", 0)
            out[name] = surviving / expanded if expanded else 0.0
        elif field not in ("calls", "self_s"):
            out[name] = counters.get(name, 0)
        elif "." in head:
            out[name] = spans.get(head, {}).get(field, 0)
        else:
            out[name] = sum(
                agg[field] for span, agg in spans.items() if span.split(".", 1)[0] == head
            )
    return out
