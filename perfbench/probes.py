"""Set-up time probes: fresh interpreters that import, build and compile.

``setup_s`` is the median of several probes.  They run between measured
repetitions, spread over the measuring time, so that the host's speed
while measuring weighs on set-up time as it does on wall time; taken
back to back they all land in one few-second stretch, which made
``setup_s`` swing more than any other metric between runs.  The probes
are children of one launcher process, reaped only after the workload
has read its resource figures, so their CPU time and memory stay out of
``cpu_s`` and ``peak_rss_mb``.
"""

from __future__ import annotations

import contextlib
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _command(workload: str, mode: str) -> list[str]:
    return [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", "0", mode]


def launcher(workload: str) -> None:
    """Run one set-up probe per line read from stdin and print its
    set-up seconds; return at end of input."""
    for _ in sys.stdin:
        proc = subprocess.run(
            _command(workload, "--setup-probe"), cwd=ROOT,
            capture_output=True, text=True, timeout=120, check=True)
        print(proc.stdout.strip().splitlines()[-1], flush=True)


class SetupProbes:
    """``count`` probes of ``workload``, one due every ``seconds / count``
    while the workload measures; ``finish`` takes those not yet taken."""

    def __init__(self, workload: str, seconds: float, count: int):
        self.samples: list[float] = []
        self._count = count
        self._every = seconds / count
        self._due = time.perf_counter()
        self._launcher = subprocess.Popen(
            _command(workload, "--probe-launcher"), cwd=ROOT,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def __enter__(self) -> "SetupProbes":
        return self

    def __exit__(self, *exc) -> None:
        with contextlib.suppress(BrokenPipeError):  # the launcher failed
            self._launcher.stdin.close()
        self._launcher.stdout.close()
        self._launcher.wait(timeout=150)

    def _probe(self) -> None:
        self._launcher.stdin.write("\n")
        self._launcher.stdin.flush()
        line = self._launcher.stdout.readline()
        if not line:
            raise RuntimeError("set-up probe failed")
        self.samples.append(float(line))

    def between(self) -> None:
        """Between two repetitions: take a probe if one is due."""
        if (len(self.samples) < self._count
                and time.perf_counter() >= self._due):
            self._probe()
            self._due += self._every

    def finish(self) -> list[float]:
        while len(self.samples) < self._count:
            self._probe()
        return self.samples
