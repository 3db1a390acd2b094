"""Benchmark-side span recorder for the traced pass.

Spans are recorded from the benchmark's own files, around the calls into
each layer of the program (the program's internals are not touched).  They
are kept in memory and written out once, when the pass ends.  One op is one
root span; its children wrap the outside calls the op makes.  A span's self
time is its duration minus the part of it its children cover, so the root's
self time is what the trace could not attribute to any layer.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

__all__ = ["Span", "SpanRecorder", "layer_of"]


class Span:
    """One timed interval: ``name``, ``start``, ``end``, ``parent`` and ``op_id``."""

    __slots__ = ("index", "name", "tag", "start", "end", "parent", "op_id")

    def __init__(self, index: int, name: str, tag: str, parent: int | None, op_id: int) -> None:
        self.index = index
        self.name = name
        self.tag = tag
        self.parent = parent
        self.op_id = op_id
        self.start = 0.0
        self.end = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


def layer_of(name: str, depth: int = 2) -> str:
    """The layer a span belongs to: the first ``depth`` dotted parts of its name."""
    return ".".join(name.split(".")[:depth])


class SpanRecorder:
    """Collects spans from any number of threads; each thread nests its own."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_op = 0

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, tag: str, parent: Span | None) -> Span:
        with self._lock:
            if parent is None:
                op_id = self._next_op
                self._next_op += 1
            else:
                op_id = parent.op_id
            span = Span(
                len(self.spans), name, tag, None if parent is None else parent.index, op_id
            )
            self.spans.append(span)
        return span

    @contextmanager
    def span(self, name: str, tag: str = "") -> Iterator[Span]:
        """Time the body as a child of this thread's innermost open span."""
        stack = self._stack()
        span = self._open(name, tag, stack[-1] if stack else None)
        stack.append(span)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()

    def add(self, name: str, start: float, end: float, parent: Span, tag: str = "") -> Span:
        """Record an interval measured elsewhere (the program's own tracer)."""
        span = self._open(name, tag, parent)
        span.start, span.end = start, end
        return span

    # -- reading the trace -----------------------------------------------------

    def durations(self, name: str, tag: str | None = None) -> list[float]:
        return [
            s.duration for s in self.spans if s.name == name and (tag is None or s.tag == tag)
        ]

    def self_times(self) -> dict[int, float]:
        """Self time per span index: duration minus what its children cover.

        Children of one parent run one after another on the parent's thread,
        so the covered part is the sum of their durations, clipped to the
        parent's own interval.
        """
        covered: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                parent = self.spans[span.parent]
                overlap = min(span.end, parent.end) - max(span.start, parent.start)
                covered[span.parent] += max(0.0, overlap)
        return {s.index: max(0.0, s.duration - covered[s.index]) for s in self.spans}

    def self_time_by_layer(self, depth: int = 2) -> dict[str, float]:
        """Share of all op time each layer's spans hold as self time.

        ``depth=2`` groups by module (``query.plan``), ``depth=1`` by package
        (``query``).  The root spans (``op``) keep what no child covered;
        that share is the unattributed fraction.
        """
        own = self.self_times()
        totals: dict[str, float] = defaultdict(float)
        for span in self.spans:
            totals[layer_of(span.name, depth)] += own[span.index]
        whole = sum(totals.values())
        if whole <= 0.0:
            return {}
        return {layer: seconds / whole for layer, seconds in sorted(totals.items())}

    def unattributed_fraction(self) -> float:
        own = self.self_times()
        roots = [s for s in self.spans if s.parent is None]
        wall = sum(s.duration for s in roots)
        return sum(own[s.index] for s in roots) / wall if wall > 0.0 else 0.0

    def write(self, path: Path) -> None:
        """One JSON object per span, times rebased to the first span's start."""
        base = min((s.start for s in self.spans), default=0.0)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            for s in self.spans:
                row = {
                    "id": s.index,
                    "name": s.name,
                    "start": s.start - base,
                    "end": s.end - base,
                    "parent": s.parent,
                    "op_id": s.op_id,
                }
                if s.tag:
                    row["tag"] = s.tag
                out.write(json.dumps(row, separators=(",", ":")) + "\n")
