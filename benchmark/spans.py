"""In-memory spans around the benchmark's calls into the program's layers.

A span is (name, start, end, parent, op): the name is "<layer>.<call>",
the parent is the index of the enclosing span (-1 at top level) and op
numbers the benchmark operation that caused it.  Spans stay in memory and
are written once, when the run ends.  With tracing off `span` records
nothing, so the untraced run executes the same calls.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, List


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: List[list] = []
        self.op = -1
        self._open: List[int] = []

    def next_op(self) -> None:
        self.op += 1

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        parent = self._open[-1] if self._open else -1
        record = [name, time.perf_counter(), None, parent, self.op]
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._open.pop()

    def durations(self, name: str) -> List[float]:
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def self_times(self) -> Dict[str, float]:
        """Total self time per span name: duration minus direct children."""
        total: Dict[str, float] = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            total[name] += end - start
            if parent >= 0:
                total[self.spans[parent][0]] -= end - start
        return total

    def write(self, path: str) -> None:
        keys = ("name", "start", "end", "parent", "op")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)
