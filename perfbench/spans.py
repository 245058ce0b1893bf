"""In-memory span recorder for the traced benchmark run.

Spans are kept in a list and written out once, when the run ends, so
the traced run does no I/O while it measures.  Each span records its
name, start and end (``time.perf_counter`` seconds), the id of the span
that was open when it started, and the run id shared by every span of
the run.
"""
from __future__ import annotations

import time
from contextlib import contextmanager


class Tracer:
    """Collects nested spans; the span open at entry becomes the parent."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        rec = {
            "id": len(self.spans),
            "parent": self._open[-1] if self._open else None,
            "run_id": self.run_id,
            "name": name,
            **attrs,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def children(self, span_id: int) -> list[dict]:
        return [s for s in self.spans if s["parent"] == span_id]

    def self_time(self, span_id: int) -> float:
        """Duration of a span minus the part its direct children cover.

        Children of one span never overlap (the run is single-threaded),
        so their durations add up.
        """
        rec = self.spans[span_id]
        covered = sum(c["end"] - c["start"] for c in self.children(span_id))
        return (rec["end"] - rec["start"]) - covered
