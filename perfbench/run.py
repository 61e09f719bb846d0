"""Whole-path benchmark of the CWC simulation-analysis workflow.

    python3 perfbench/run.py --workload ensemble-batch --seed 1 \\
        --seconds 30 --trace 0

Runs one workload (see ``workloads.py``) from the root of a source
checkout against ``src/``, repeats it for ``--seconds``, checks every
run's outputs and prints a table of metrics followed by one JSON line
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics (medians over the repetitions),
``--trace 1`` the per-layer figures of a separate traced run.  The
full record (environment, inputs, samples, failures, spans) goes to
``perfbench/results/``.  Exits 1 when any check failed, 2 when the
source tree is missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import sys
import time
import traceback
from pathlib import Path

from measure import adopt_orphans, median, stop_children
from probes import SetupProbes, launcher
from workloads import (ALL_WORKLOADS, CLI_WORKLOADS, SIM_WORKERS, WHY,
                       cli_workload)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: end-to-end metrics (``--trace 0``) and their units
END_TO_END = {
    "wall_s": "s",
    "events_per_s": "1/s",
    "first_window_s": "s",
    "run_latency_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

#: per-layer metrics (``--trace 1``) and their units
PER_LAYER = {
    "cwc.kernel_s": "s",
    "cwc.kernel_frac": "ratio",
    "cwc.ns_per_event": "ns",
    "cwc.events": "count",
    "cwc.compile_s": "s",
    "cwc.compile_cache_hits": "count",
    "sim.quanta": "count",
    "sim.align_s": "s",
    "sim.align_cpu_frac": "ratio",
    "sim.cuts": "count",
    "distributed.dispatch_ms_per_quantum": "ms",
    "distributed.map_results_s": "s",
    "distributed.shm_bytes": "bytes",
    "distributed.shm_blocks": "count",
    "distributed.leaked_segments": "count",
    "distributed.leftover_procs": "count",
    "analysis.window_s": "s",
    "analysis.stat_s": "s",
    "analysis.stat_ms_per_window": "ms",
    "analysis.stat_cpu_frac": "ratio",
    "analysis.windows": "count",
    "analysis.kmeans_iterations": "count",
    "ff.sim_busy_frac": "ratio",
    "ff.blocked_push_s": "s",
    "ff.queue_high_water": "count",
    "sweep.quanta": "count",
    "sweep.busy_s": "s",
    "service.submit_s": "s",
    "service.interactive_wait_ms_per_quantum": "ms",
    "service.sweep_wait_ms_per_quantum": "ms",
    "pipeline.first_window_s": "s",
    "pipeline.kernel_ms_per_quantum": "ms",
    "pipeline.sequential_wall_s": "s",
    "pipeline.speedup_vs_sequential": "ratio",
    "pipeline.trace_overhead_frac": "ratio",
}

#: fresh-interpreter set-ups per run (see ``probes.py``); ``setup_s``
#: is their median
SETUP_PROBES = 5


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=ALL_WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--toy", action="store_true",
                   help="tiny shapes for the self-check")
    p.add_argument("--corrupt-digest", action="store_true",
                   help="corrupt the reference digest (proves the "
                        "correctness gate fails)")
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    p.add_argument("--probe-launcher", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def setup_probe(workload: str) -> float:
    """Imports, model build and network compile (plus server boot and
    fleet warm-up for the service) in this fresh interpreter."""
    started = time.perf_counter()
    if workload == "service-mixed":
        import service_mixed
        app, _client = service_mixed.boot()  # its warm-up compiles
        elapsed = time.perf_counter() - started
        app.close()
        return elapsed
    import cli_path  # noqa: F401 - the whole CLI run path
    from repro.cwc.batch import compile_network
    from repro.models import neurospora_network
    compile_network(neurospora_network(
        omega=cli_workload(workload, 0).omega))
    return time.perf_counter() - started


def environment(seed: int) -> dict:
    import numpy
    from repro.cwc.kernels import available_kernels
    head = ROOT / ".git" / "HEAD"
    sha = None
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            target = ROOT / ".git" / ref[5:]
            sha = target.read_text().strip() if target.is_file() else None
        else:
            sha = ref
    return {"git_sha": sha, "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "batch_kernels": [k for k, ok in available_kernels().items()
                              if ok],
            "seed": seed}


def run_workload(args, probes: SetupProbes):
    # set-up probes run between untraced repetitions only: the traced
    # run does not report setup_s
    between = None if args.trace else probes.between
    if args.workload in CLI_WORKLOADS:
        import cli_path
        return cli_path.run(args.workload, args.seed, args.seconds,
                            bool(args.trace), args.toy, args.corrupt_digest,
                            between)
    import service_mixed
    return service_mixed.run(args.seed, args.seconds, bool(args.trace),
                             args.toy, args.corrupt_digest, between)


def end_to_end(out, setup: list[float]) -> dict[str, tuple[float, int]]:
    """``name -> (median, samples)`` of every end-to-end metric."""
    values = {name: (median(out.samples[name]), len(out.samples[name]))
              for name in ("wall_s", "events_per_s", "first_window_s",
                           "run_latency_s", "cpu_s")}
    values["peak_rss_mb"] = (out.peak_rss_mb, 1)
    values["setup_s"] = (median(setup), len(setup))
    return values


def layer_seconds(layers: dict[str, float]) -> dict[str, float]:
    """Seconds each layer adds to a traced repetition's critical path.
    Worker-side time (the kernel, and dispatch beyond it) is spread over
    the simulation workers; master-side time (alignment, windowing plus
    statistics, result mapping) is not."""
    quanta = layers["sweep.quanta"] or layers["sim.quanta"]
    dispatch = layers["distributed.dispatch_ms_per_quantum"] * quanta / 1e3
    return {
        "cwc": layers["cwc.kernel_s"] / SIM_WORKERS,
        "distributed": (dispatch / SIM_WORKERS
                        + layers["distributed.map_results_s"]),
        "sim": layers["sim.align_s"],
        "analysis": layers["analysis.window_s"] + layers["analysis.stat_s"],
    }


def main(argv=None) -> int:
    """Run, then stop every process the run started, on every path out."""
    adopt_orphans()
    try:
        return _main(argv)
    finally:
        stop_children()


def _main(argv) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no source tree at {SRC}; run from the root of a "
              "checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        print(setup_probe(args.workload))
        return 0
    if args.probe_launcher:
        launcher(args.workload)
        return 0

    env = environment(args.seed)
    started = time.perf_counter()
    try:
        with SetupProbes(args.workload, args.seconds,
                         2 if args.toy else SETUP_PROBES) as probes:
            out = run_workload(args, probes)
            setup = probes.finish()
    except Exception:  # noqa: BLE001 - a crash is a failed operation
        traceback.print_exc()
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    elapsed = time.perf_counter() - started

    print(f"workload {args.workload}  seed {args.seed}  "
          f"trace {args.trace}  ({elapsed:.1f}s)")
    print(f"why: {WHY[args.workload]}")
    print("env: " + json.dumps(env))
    if args.trace:
        table = {name: (out.layers[name], 1) for name in PER_LAYER}
        units = PER_LAYER
    else:
        table = end_to_end(out, setup)
        units = END_TO_END
    metrics = {k: {"value": float(v), "unit": units[k]}
               for k, (v, _n) in table.items()}
    for name, (value, n) in table.items():
        print(f"  {name:<42}{value:>16.6g} {units[name]:<6} n={n}")
        out.check(f"{name} is finite", math.isfinite(value))
    if args.trace:
        seconds = layer_seconds(out.layers)
        out.extra["layer_s"] = seconds
        out.extra["dominant_layer"] = max(seconds, key=seconds.get)
        print("  layer seconds: " + ", ".join(
            f"{k} {v:.3f}" for k, v in seconds.items())
            + f"; dominant: {out.extra['dominant_layer']}")
    failed_frac = out.failed / max(out.attempted, 1)
    print(f"  {'failed_frac':<42}{failed_frac:>16.6g} ratio  "
          f"n={out.attempted}")
    for failure in out.failures:
        print(f"  FAILED: {failure}")

    record = {
        "workload": args.workload, "why": WHY[args.workload],
        "trace": args.trace, "toy": args.toy, "env": env,
        "inputs": out.inputs, "shape": out.extra,
        "samples": dict(out.samples) | {"setup_s": setup},
        "metrics": metrics,
        "attempted": out.attempted, "failures": out.failures,
        "spans": out.recorder.spans if out.recorder else [],
    }
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{name}{'-toy' if args.toy else ''}.json").write_text(
        json.dumps(record, indent=1, default=float))

    print(json.dumps({"correct": out.failed == 0,
                      "attempted": out.attempted, "failed": out.failed,
                      "metrics": metrics}))
    return 0 if out.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
