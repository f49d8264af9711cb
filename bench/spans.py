"""In-memory spans around the benchmark's calls into govlab.

A span is (id, name, parent id, start ns, end ns).  Spans are kept in a list
while the run goes on and written to one gzip file when it ends, so tracing does
no I/O inside a timed region.
"""

from __future__ import annotations

import gzip
import json
import os
from contextlib import contextmanager, nullcontext
from pathlib import Path
from time import perf_counter_ns


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, str, int | None, int, int] | None] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(None)
        self._open.append(sid)
        start = perf_counter_ns()
        try:
            yield
        finally:
            end = perf_counter_ns()
            self._open.pop()
            self.spans[sid] = (sid, name, parent, start, end)

    def record(self, name: str, start: int, end: int) -> None:
        """Add a span timed by the caller, under the innermost open span."""
        parent = self._open[-1] if self._open else None
        self.spans.append((len(self.spans), name, parent, start, end))

    def write(self, path: Path) -> None:
        doc = {
            "fields": ["id", "name", "parent", "start_ns", "end_ns"],
            "spans": [s for s in self.spans if s is not None],
        }
        tmp = path.with_suffix(path.suffix + ".tmp")
        with gzip.open(tmp, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps(doc, separators=(",", ":")) + "\n")
        os.replace(tmp, path)


class NullTracer:
    """Tracing off: the same interface, recording nothing."""

    _nothing = nullcontext()

    def span(self, name: str):
        return self._nothing

    def record(self, name: str, start: int, end: int) -> None:
        pass
