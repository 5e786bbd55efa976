"""In-memory spans around the benchmark's calls into the program.

A span records its name, start, end, parent span and request id. Spans
are kept in memory and summarised when the run ends. With tracing off,
`Tracer.call` is a plain call, so untraced requests pay one extra Python
call and nothing else.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    request: int
    parent: int | None
    start: float
    end: float = 0.0
    error: str | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.enabled = False
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._request = -1

    def begin_request(self, request_id: int) -> None:
        self._request = request_id
        if self.enabled:
            self._open("request", {})

    def end_request(self) -> None:
        if self.enabled:
            self._close(None)

    def call(self, name: str, fn, *args, attrs: dict | None = None, **kwargs):
        """Call fn(*args, **kwargs) inside a span named `name` when enabled."""
        if not self.enabled:
            return fn(*args, **kwargs)
        self._open(name, attrs or {})
        error = None
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            error = type(exc).__name__
            raise
        finally:
            self._close(error)

    def _open(self, name: str, attrs: dict) -> None:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self._request, parent, 0.0, attrs=attrs))
        self._stack.append(len(self.spans) - 1)
        self.spans[-1].start = time.perf_counter()

    def _close(self, error: str | None) -> None:
        end = time.perf_counter()
        span = self.spans[self._stack.pop()]
        span.end = end
        span.error = error

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.duration
        return own

    def requests(self) -> int:
        return sum(1 for s in self.spans if s.name == "request")
