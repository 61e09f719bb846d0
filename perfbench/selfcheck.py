"""Toy-size self-check of the benchmark.

    python3 perfbench/selfcheck.py

Runs every workload, also those ``BENCHMARK.json`` does not list, at
toy size with ``--trace 0`` and ``--trace 1``
and asserts that the last output line is the result object, that every
metric ``BENCHMARK.json`` names is printed with its unit and a finite
value (end-to-end ones non-zero), and that no check failed.  Every run
is a session of its own, and no process of it may outlive it; one
full-size ``ensemble-batch`` run covers the shared-memory path, whose
resource tracker toy runs never start.  Then it
proves the correctness gate can fail: a run with a corrupted reference
digest must report failed operations and exit 1.  Last, a directory
holding only ``BENCHMARK.json`` and the benchmark must make the command
exit non-zero without printing a result.  Exits 0 when all of it holds.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from workloads import ALL_WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def session_procs(sid: int) -> list[str]:
    """Processes still in session ``sid``.  A zombie counts: it ended
    after the benchmark did, which is what must not happen."""
    left = []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        with contextlib.suppress(OSError):
            with open(f"/proc/{pid}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
            if int(fields[3]) == sid:
                left.append(pid)
    return left


def bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    """Run the benchmark in a session of its own and assert that it
    leaves no process behind."""
    cmd = [sys.executable, "perfbench/run.py", "--seconds", "1", *args]
    with subprocess.Popen(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True,
                          start_new_session=True) as proc:
        stdout, stderr = proc.communicate(timeout=300)
    left = session_procs(proc.pid)
    assert not left, (args, "processes left running", left)
    return subprocess.CompletedProcess(cmd, proc.returncode, stdout, stderr)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}, last
    assert isinstance(last["attempted"], int) and last["attempted"] >= 1
    assert isinstance(last["failed"], int)
    return last


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: spec["end_to_end"], 1: spec["per_layer"]}
    for workload in ALL_WORKLOADS:
        for trace in (0, 1):
            proc = bench(ROOT, "--workload", workload, "--seed", "1",
                         "--trace", str(trace), "--toy")
            assert proc.returncode == 0, (workload, trace, proc.stderr)
            result = result_of(proc)
            assert result["correct"] and result["failed"] == 0, result
            metrics = result["metrics"]
            assert set(metrics) == {m["name"] for m in expected[trace]}, (
                workload, trace, sorted(metrics))
            for m in expected[trace]:
                got = metrics[m["name"]]
                assert got["unit"] == m["unit"], (workload, m, got)
                assert math.isfinite(got["value"]), (workload, m, got)
                if trace == 0:
                    assert got["value"] > 0, (workload, m, got)
            print(f"ok   {workload} --trace {trace}: {len(metrics)} "
                  f"metrics, {result['attempted']} checked operations")

    proc = bench(ROOT, "--workload", "ensemble-batch", "--seed", "1",
                 "--trace", "0")
    assert proc.returncode == 0 and result_of(proc)["correct"], proc.stderr
    print("ok   ensemble-batch full size: no process left running")

    for workload in ("ensemble-batch", "service-mixed"):
        proc = bench(ROOT, "--workload", workload, "--seed", "1",
                     "--trace", "0", "--toy", "--corrupt-digest")
        result = result_of(proc)
        assert proc.returncode == 1, (workload, proc.returncode)
        assert not result["correct"] and result["failed"] > 0, result
        print(f"ok   {workload} --corrupt-digest: {result['failed']} of "
              f"{result['attempted']} operations failed, exit 1")

    with tempfile.TemporaryDirectory() as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, Path(bare) / "perfbench",
                        ignore=shutil.ignore_patterns("results",
                                                      "__pycache__"))
        proc = bench(Path(bare), "--workload", "ensemble-batch",
                     "--seed", "1", "--trace", "0")
        assert proc.returncode != 0 and not proc.stdout.strip(), proc
        print(f"ok   bare directory: exit {proc.returncode}, no result")
    print("self-check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
