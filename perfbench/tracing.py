"""In-memory spans recorded around the benchmark's calls into each layer.

A span is (name, start, end, parent).  The part of a name before the
first dot is the layer, which matches a module of the package (events,
context, tensor, solver, baseline, evaluation, persistence) or ``bench``
for the benchmark's own glue.  A disabled tracer records nothing and
hands out a shared null context, so untraced runs pay one call per span.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional

_NULL = contextlib.nullcontext()


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    round: int

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.enabled = False
        self.round = -1
        self.spans: list = []
        self._stack: list = []

    def span(self, name: str):
        """Context manager recording one span as a child of the open span."""
        return self._record(name) if self.enabled else _NULL

    @contextlib.contextmanager
    def _record(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), float("nan"), parent, self.round))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index].end = time.perf_counter()

    def add(self, name: str, start: float, end: float) -> None:
        """Record an already-timed span (e.g. from a callback) under the open span."""
        if self.enabled:
            parent = self._stack[-1] if self._stack else None
            self.spans.append(Span(name, start, end, parent, self.round))

    def durations(self, name: str) -> list:
        """[(round, duration)] of every span called ``name``."""
        return [(s.round, s.duration) for s in self.spans if s.name == name]

    def self_times(self) -> dict:
        """{layer: {round: summed self time}}; self time excludes child spans."""
        child_time = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.duration
        out: dict = defaultdict(lambda: defaultdict(float))
        for i, s in enumerate(self.spans):
            out[s.layer][s.round] += s.duration - child_time[i]
        return {layer: dict(rounds) for layer, rounds in out.items()}

    def write(self, path: Path) -> None:
        Path(path).write_text(
            "\n".join(json.dumps(asdict(s)) for s in self.spans) + "\n", encoding="utf-8"
        )
