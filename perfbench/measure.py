"""Resource probes, output digests and summary statistics.

Everything is read from outside the program: ``getrusage`` and
``/proc`` for CPU and memory, ``/dev/shm`` for shared-memory segments
the ``processes`` backend left behind, ``multiprocessing`` for child
processes still alive.  ``adopt_orphans`` and ``stop_children`` make
sure no process the benchmark started outlives it.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import hashlib
import json
import multiprocessing
import os
import resource
import signal
import statistics
import time
from multiprocessing import resource_tracker
from typing import Any, Iterable

_CLK_TCK = os.sysconf("SC_CLK_TCK")


def _live_children_cpu() -> float:
    """CPU seconds of live ``multiprocessing`` children (pool and fleet
    workers not yet reaped, so absent from ``RUSAGE_CHILDREN``)."""
    total = 0.0
    for child in multiprocessing.active_children():
        try:
            with open(f"/proc/{child.pid}/stat", "rb") as fh:
                fields = fh.read().rsplit(b")", 1)[1].split()
        except (OSError, IndexError):
            continue
        total += (int(fields[11]) + int(fields[12])) / _CLK_TCK
    return total


def process_tree_cpu() -> float:
    """CPU seconds so far of this process plus its worker processes,
    live or reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (own.ru_utime + own.ru_stime + reaped.ru_utime + reaped.ru_stime
            + _live_children_cpu())


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus that of its largest
    reaped child (``ru_maxrss`` is in KiB on Linux)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def leaked_segments() -> int:
    """``repro-shm-<pid>-*`` segments this process's runs left behind."""
    return len(glob.glob(f"/dev/shm/repro-shm-{os.getpid()}-*"))


def leftover_procs() -> int:
    """Child processes still alive."""
    return len(multiprocessing.active_children())


_PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> None:
    """Make this process the reaper of its descendants, so a helper
    whose parent exits first (the ``multiprocessing`` resource tracker
    of a set-up probe) becomes its child and ``stop_children`` ends it."""
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)


def _child_pids() -> list[int]:
    pids = []
    for task in os.listdir(f"/proc/{os.getpid()}/task"):
        with contextlib.suppress(OSError):
            with open(f"/proc/{os.getpid()}/task/{task}/children") as fh:
                pids += [int(pid) for pid in fh.read().split()]
    return pids


def _reap(pids: list[int]) -> list[int]:
    """Reap those of ``pids`` that have ended; return the rest."""
    alive = []
    for pid in pids:
        with contextlib.suppress(ChildProcessError):
            if os.waitpid(pid, os.WNOHANG)[0] == 0:
                alive.append(pid)
    return alive


def stop_children(grace_s: float = 5.0) -> None:
    """Stop every child process and wait until each has ended: the
    resource tracker (closing its pipe ends it), ``multiprocessing``
    workers, then anything left, with SIGTERM and after ``grace_s``
    SIGKILL."""
    # left alone, the tracker ends only after this process has exited
    resource_tracker._resource_tracker._stop()
    for child in multiprocessing.active_children():
        child.terminate()
        child.join(grace_s)
    for sig in (signal.SIGTERM, signal.SIGKILL):
        pids = _reap(_child_pids())
        for pid in pids:
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, sig)
        deadline = time.monotonic() + grace_s
        while pids and time.monotonic() < deadline:
            time.sleep(0.02)
            pids = _reap(pids)


def digest(windows: Iterable[dict[str, Any]]) -> str:
    """SHA-256 over the canonical JSON of JSON-ready windows (floats use
    ``repr``, so equal digests mean bit-identical statistics)."""
    blob = json.dumps(list(windows), sort_keys=True, allow_nan=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0

