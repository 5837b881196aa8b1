"""In-memory spans around the benchmark's calls into each package layer.

A span is (name, start, end, parent, op): ``parent`` is the index of the
enclosing span or -1, and ``op`` identifies the operation (one query, one
fit, one CLI run) the span belongs to. The layer is the part of the name
before the first dot. Spans are written out once, when the run ends.
"""
from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path

clock = time.perf_counter


class Tracer:
    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[list] = []
        self._stack: list[int] = []

    def begin(self, name: str, op: int | str = 0) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        self.spans.append([name, clock(), 0.0, parent, op])
        return index

    def end(self, index: int) -> float:
        """Close the innermost span, which must be ``index``; return its duration."""
        span = self.spans[index]
        span[2] = clock()
        if self._stack.pop() != index:
            raise RuntimeError(f"span {span[0]!r} closed out of order")
        return span[2] - span[1]

    @contextmanager
    def span(self, name: str, op: int | str = 0):
        index = self.begin(name, op)
        try:
            yield
        finally:
            self.end(index)

    def durations(self, name: str) -> list[float]:
        return [end - start for span_name, start, end, _, _ in self.spans if span_name == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def mean(self, name: str) -> float:
        durations = self.durations(name)
        return sum(durations) / len(durations)

    def self_seconds(self) -> dict[str, float]:
        """Per layer: span time minus the time its child spans cover.

        The benchmark is single-threaded, so children never overlap and
        their durations simply add up.
        """
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        layers: dict[str, float] = {}
        for index, (name, start, end, _, _) in enumerate(self.spans):
            layer = name.split(".", 1)[0]
            layers[layer] = layers.get(layer, 0.0) + (end - start) - child_time[index]
        return layers

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, op in self.spans:
                record = {"run": self.run_id, "name": name, "start": start,
                          "end": end, "parent": parent, "op": op}
                handle.write(json.dumps(record) + "\n")
