"""In-memory spans around the benchmark's calls into noa.

A span records name, start, end, parent span and op id.  Spans stay in
memory while the benchmark runs and are written out once, when it ends.
A span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: str

    @property
    def module(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self.op = ""

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        parent = self._open[-1] if self._open else None
        span = Span(sid, name, time.perf_counter(), 0.0, parent, self.op)
        self.spans.append(span)
        self._open.append(sid)
        try:
            yield
        finally:
            span.end = time.perf_counter()
            self._open.pop()

    def add(self, name: str, start: float, end: float) -> None:
        """Record a span timed elsewhere, such as in a child process.

        perf_counter reads the system-wide monotonic clock on Linux, so a
        child's start and end nest inside the span open around the child.
        """
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(len(self.spans), name, start, end, parent, self.op))

    def self_times(self) -> list[float]:
        """Self time of every span, indexed like ``spans``."""
        out = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                out[s.parent] -= s.end - s.start
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")


def null_span(name: str):
    return nullcontext()


def span_of(tracer: Tracer | None):
    """The span factory for a run: the tracer's, or a no-op when untraced."""
    return tracer.span if tracer is not None else null_span
