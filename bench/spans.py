"""Spans kept in memory for the traced benchmark run.

A span is (id, name, start, end, parent).  Its layer is the part of its name
before the first dot, so ``threshold.theta`` belongs to ``threshold``.  Spans
are recorded by the benchmark around the calls it makes into the package;
the package itself is not instrumented.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext


class NullTracer:
    """The untraced run: every span is a shared no-op context."""

    _null = nullcontext()

    def span(self, name: str):
        return self._null


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = [len(self.spans), name, time.perf_counter(), None, self._open[-1] if self._open else None]
        self.spans.append(record)
        self._open.append(record[0])
        try:
            yield
        finally:
            record[3] = time.perf_counter()
            self._open.pop()

    def durations(self, name: str) -> list[float]:
        return [end - start for _, n, start, end, _ in self.spans if n == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def self_times(self) -> dict[str, float]:
        """Seconds per layer: each span's duration minus what its child spans cover."""
        child_time = [0.0] * len(self.spans)
        for _, _, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, float] = {}
        for sid, name, start, end, _ in self.spans:
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + (end - start) - child_time[sid]
        return out

    def write(self, path) -> None:
        with open(path, "w") as handle:
            json.dump(
                [
                    {"id": sid, "name": name, "start": start, "end": end, "parent": parent}
                    for sid, name, start, end, parent in self.spans
                ],
                handle,
            )
