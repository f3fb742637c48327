"""In-memory span tracer for the benchmark's traced run.

Spans are recorded from the benchmark's side, around calls into the
library's public functions; nothing inside ``cutplanar`` is traced.
Spans stay in memory and are written out once, by ``dump``.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass
class Span:
    id: int
    name: str          # "<layer>.<what>", e.g. "solvers.dp"
    job: str
    parent: int | None
    start: float       # perf_counter seconds
    end: float = 0.0


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, job: str):
        sp = Span(len(self.spans), name, job,
                  self._stack[-1] if self._stack else None,
                  time.perf_counter())
        self.spans.append(sp)
        self._stack.append(sp.id)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump([asdict(s) for s in self.spans], f)
