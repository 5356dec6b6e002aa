"""Spans, timers and summary statistics for the benchmark.

A span is one timed call made by the benchmark into a layer of the
package: name, start, end, parent span and run id.  Spans are kept in
memory and written out once, when the run ends.  With recording off a
span still measures its own duration (the end-to-end metrics need it)
but is neither linked to a parent nor kept.
"""

from __future__ import annotations

import json
import math
import statistics
import time


class Span:
    __slots__ = ("tracer", "name", "start", "end", "parent", "id")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self.tracer = tracer
        self.name = name
        self.start = self.end = 0.0
        self.parent = self.id = None

    def __enter__(self) -> "Span":
        tr = self.tracer
        if tr.record:
            self.id = len(tr.spans)
            self.parent = tr.stack[-1].id if tr.stack else None
            tr.spans.append(self)
            tr.stack.append(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.end = time.perf_counter()
        if self.tracer.record:
            self.tracer.stack.pop()

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Span factory; ``record`` turns span keeping (tracing) on or off."""

    def __init__(self, run_id: str, record: bool) -> None:
        self.run_id = run_id
        self.record = record
        self.spans: list[Span] = []
        self.stack: list[Span] = []

    def span(self, name: str) -> Span:
        return Span(self, name)

    def self_times(self) -> dict[str, list[float]]:
        """Per span name, each span's duration minus what its children cover.

        Children of one span run one after another, so the covered part is
        the sum of their durations.
        """
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.seconds
        out: dict[str, list[float]] = {}
        for s in self.spans:
            out.setdefault(s.name, []).append(s.seconds - child_time[s.id])
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "run": self.run_id, "id": s.id, "parent": s.parent,
                    "name": s.name, "start": s.start, "end": s.end,
                }) + "\n")


def median(values) -> float:
    return float(statistics.median(values)) if values else math.nan


def tail(values) -> tuple[int, float] | None:
    """Highest whole percentile with at least ten samples above it, or None."""
    n = len(values)
    if n < 20:
        return None
    p = math.floor(100.0 * (1.0 - 10.0 / n))
    return p, float(statistics.quantiles(values, n=100, method="inclusive")[p - 1])


def describe(values) -> str:
    """'median (n=k, pXX=v)' for a list of timings."""
    t = tail(values)
    extra = f", p{t[0]}={t[1]:.6g}" if t else ""
    return f"{median(values):.6g} (n={len(values)}{extra})"
