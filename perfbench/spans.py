"""In-memory span recording and per-layer self time.

A span is (id, parent id, name, start ns, end ns, doc, req): ``doc`` is
the index of the text the call worked on and ``req`` the closed-loop
query number (-1 outside the loop), so the spans of one request share
an identifier.  Span names are ``<layer>.<call>``; the layer is the
posheap module the benchmark called into, or ``bench`` for the
benchmark's own phases, generators and oracle checks.

A disabled tracer records nothing, so untraced runs pay one attribute
test per call site.
"""

from __future__ import annotations

import csv
import time
from contextlib import contextmanager

perf = time.perf_counter_ns


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[tuple] = []
        self._stack = [-1]

    @contextmanager
    def span(self, name: str, doc: int = -1):
        """Parent span around a benchmark phase."""
        if not self.enabled:
            yield
            return
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1]
        self._stack.append(sid)
        t0 = perf()
        try:
            yield
        finally:
            t1 = perf()
            self._stack.pop()
            self.spans[sid] = (sid, parent, name, t0, t1, doc, -1)

    def add(self, name: str, t0: int, t1: int, doc: int = -1, req: int = -1) -> None:
        """Leaf span from timestamps the caller already took."""
        if self.enabled:
            self.spans.append((len(self.spans), self._stack[-1], name, t0, t1, doc, req))

    def timed(self, name: str, doc: int, fn, *args):
        """Call fn(*args) as a leaf span; returns (result, elapsed ns)."""
        t0 = perf()
        out = fn(*args)
        t1 = perf()
        if self.enabled:
            self.spans.append((len(self.spans), self._stack[-1], name, t0, t1, doc, -1))
        return out, t1 - t0


def self_times(spans) -> dict[str, int]:
    """Self time in ns per layer: each span's duration minus the part
    covered by its children (children never overlap: one thread)."""
    covered = [0] * len(spans)
    for sid, parent, _, t0, t1, _, _ in spans:
        if parent >= 0:
            covered[parent] += t1 - t0
    out: dict[str, int] = {}
    for sid, _, name, t0, t1, _, _ in spans:
        layer = name.split(".", 1)[0]
        out[layer] = out.get(layer, 0) + (t1 - t0) - covered[sid]
    return out


def write_csv(spans, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(("id", "parent", "name", "start_ns", "end_ns", "doc", "req"))
        w.writerows(spans)
