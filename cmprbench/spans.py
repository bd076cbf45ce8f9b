"""In-memory spans recorded around the benchmark's calls into cmpr.

A span is ``[name, start_ns, end_ns, parent]``; ``parent`` is the index of
the enclosing span, or -1.  Spans nest by a stack, so the step, chunk or
pass span that is open when a call span opens becomes its parent.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict
from pathlib import Path

_OFF = contextlib.nullcontext()


class Tracer:
    """Records spans while ``enabled``; when off, ``span`` costs one branch."""

    def __init__(self):
        self.enabled = False
        self.spans: list[list] = []
        self._stack: list[int] = []

    def span(self, name: str):
        return _Span(self, name) if self.enabled else _OFF

    def units(self, unit: str) -> list[dict[str, int]]:
        """Per span named ``unit``: total nanoseconds by name of the spans
        nested anywhere below it, in the order the units opened."""
        owner = [-1] * len(self.spans)
        totals: dict[int, dict[str, int]] = {}
        for i, (name, start, end, parent) in enumerate(self.spans):
            if name == unit:
                owner[i] = i
                totals[i] = defaultdict(int)
            elif parent >= 0 and owner[parent] >= 0:
                owner[i] = owner[parent]
                totals[owner[i]][name] += end - start
        return [dict(totals[i]) for i in sorted(totals)]

    def self_times(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, total ms, and self ms (total minus the
        time covered by direct children)."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for (name, start, end, _), covered in zip(self.spans, child_ns):
            row = out.setdefault(name, {"count": 0, "total_ms": 0.0, "self_ms": 0.0})
            row["count"] += 1
            row["total_ms"] += (end - start) / 1e6
            row["self_ms"] += (end - start - covered) / 1e6
        return out

    def write(self, path: Path) -> None:
        path.write_text(
            json.dumps(
                {
                    "fields": ["name", "start_ns", "end_ns", "parent"],
                    "self_times": self.self_times(),
                    "spans": self.spans,
                }
            )
        )


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        t = self.tracer
        self.index = len(t.spans)
        t.spans.append([self.name, time.perf_counter_ns(), 0, t._stack[-1] if t._stack else -1])
        t._stack.append(self.index)

    def __exit__(self, *exc):
        t = self.tracer
        t.spans[self.index][2] = time.perf_counter_ns()
        t._stack.pop()
        return False
