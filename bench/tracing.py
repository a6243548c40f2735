"""Span recorder for the traced run.

Spans are opened by the benchmark around its own calls into endkit's public
functions, never inside the library.  Each span keeps its name, start, end,
parent span and operation id; spans stay in memory until the run writes them
out.  A layer's self time is its span's duration minus the time its child
spans cover.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import Counter, defaultdict


class Tracer:
    enabled = True

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, object]] = []
        self.counts: Counter[str] = Counter()
        self.samples: defaultdict[str, list[float]] = defaultdict(list)
        self.op: object = None
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append((name, 0.0, 0.0, parent, self.op))
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.op)

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] += n

    def sample(self, name: str, value: float) -> None:
        """A per-call size (states, nodes, steps), reported as a mean."""
        self.samples[name].append(value)

    def self_times(self) -> dict[str, list[float]]:
        """Self time in seconds of every span, grouped by span name."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: defaultdict[str, list[float]] = defaultdict(list)
        for (name, start, end, _, _), child in zip(self.spans, covered):
            out[name].append(end - start - child)
        return out

    def children_total(self, name: str) -> dict[object, float]:
        """Summed duration of the children of each ``name`` span, by op id."""
        parents = {i: s[4] for i, s in enumerate(self.spans) if s[0] == name}
        out: defaultdict[object, float] = defaultdict(float)
        for _, start, end, parent, _ in self.spans:
            if parent in parents:
                out[parents[parent]] += end - start
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")


class NullTracer:
    """Tracing off: spans and counts cost one attribute lookup and a call."""

    enabled = False
    op: object = None
    _NULL = contextlib.nullcontext()

    def span(self, name: str):
        return self._NULL

    def count(self, name: str, n: int = 1) -> None:
        pass

    def sample(self, name: str, value: float) -> None:
        pass
