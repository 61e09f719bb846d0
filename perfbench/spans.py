"""In-memory spans around calls into the program's public functions.

The traced run wraps a fixed set of entry points (a simulation quantum,
the aligner, the sliding window, the stat engine, shared-memory result
mapping, network compilation, the service client's submit) from the
outside: ``instrument`` swaps an attribute for a timing wrapper and puts
the original back on exit.  Each span records its name, start, end,
wall and thread CPU time, parent span and run id; the benchmark writes
them out when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import threading
import time
from typing import Any, Iterator, Optional


class SpanRecorder:
    """Collects spans; thread-safe.  Spans opened on a thread nest
    under that thread's open span, else under the run's root span."""

    def __init__(self) -> None:
        self.spans: list[dict[str, Any]] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._run_id = ""
        self._root: Optional[int] = None

    @contextlib.contextmanager
    def run(self, run_id: str) -> Iterator[None]:
        """Root span of one run; every span opened inside carries
        ``run_id``."""
        self._run_id = run_id
        with self.span("run") as root:
            self._root = root
            try:
                yield
            finally:
                self._root = None

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[int]:
        stack = self._local.__dict__.setdefault("stack", [])
        span_id = next(self._ids)
        parent = stack[-1] if stack else self._root
        stack.append(span_id)
        cpu0, t0 = time.thread_time(), time.perf_counter()
        try:
            yield span_id
        finally:
            t1, cpu1 = time.perf_counter(), time.thread_time()
            stack.pop()
            with self._lock:
                self.spans.append({
                    "id": span_id, "parent": parent, "run": self._run_id,
                    "name": name, "start": t0, "end": t1,
                    "cpu_s": cpu1 - cpu0})

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def totals(self, name: str, run: Optional[str] = None
               ) -> tuple[int, float, float]:
        """``(count, wall seconds, thread CPU seconds)`` of the spans
        called ``name`` (optionally of one run only)."""
        with self._lock:
            picked = [s for s in self.spans if s["name"] == name
                      and (run is None or s["run"] == run)]
        return (len(picked), sum(s["end"] - s["start"] for s in picked),
                sum(s["cpu_s"] for s in picked))


@contextlib.contextmanager
def instrument(recorder: SpanRecorder,
               targets: list[tuple[Any, str, str]]) -> Iterator[None]:
    """Wrap each ``(owner, attribute, span name)`` for the duration of
    the block; the originals are restored even on error."""
    saved = []
    try:
        for owner, attr, name in targets:
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, recorder.wrap(name, original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
