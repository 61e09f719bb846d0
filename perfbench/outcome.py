"""What one benchmark run collected: samples, checks and layer figures."""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Optional


class Outcome:
    """Samples per metric, checked operations, per-layer figures."""

    def __init__(self, workload: str, inputs: dict[str, Any]):
        self.workload = workload
        self.inputs = inputs
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.layers: dict[str, float] = {}
        self.counts: dict[str, int] = {"distributed.leaked_segments": 0,
                                       "distributed.leftover_procs": 0}
        self.extra: dict[str, Any] = {}
        self.attempted = 0
        self.failures: list[str] = []
        self.compile_s = 0.0
        self.peak_rss_mb = 0.0
        self.recorder = None  # spans.SpanRecorder of a traced run

    def add(self, metric: str, value: Optional[float]) -> None:
        if value is None:
            self.check(f"{metric} observed", False)
        else:
            self.samples[metric].append(value)

    def check(self, what: str, ok: bool) -> None:
        """Count one checked operation; a failed one is kept by name."""
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    @property
    def failed(self) -> int:
        return len(self.failures)
