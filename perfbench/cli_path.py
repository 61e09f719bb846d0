"""CLI-path workloads: ``run_workflow`` on the ``processes`` backend.

Untraced (``--trace 0``): one traced ``sequential`` reference run gives
the expected window digest and the SSA event count (exact SSA is
bit-identical across backends), then ``processes`` runs repeat back to
back for the measuring time.  Every run is checked: window digest
against the reference, ``/dev/shm`` segments and child processes left
behind.

Traced (``--trace 1``): rounds of a ``sequential`` run with spans
around every quantum (kernel time and the baseline wall time), an
untraced ``processes`` run and a ``processes`` run with the program's
``RunReport`` on and spans around the layer entry points.
"""

from __future__ import annotations

import math
import re
import time
from dataclasses import replace

import measure
from outcome import Outcome
from spans import SpanRecorder, instrument
from workloads import SIM_WORKERS, cli_workload

import repro.cwc.batch
import repro.cwc.methods
import repro.distributed.procfarm
import repro.sim.task
import repro.sweep.fused
from repro.analysis.engines import StatEngineNode
from repro.analysis.windows import SlidingWindowNode
from repro.cwc.batch import compile_network, network_cache_stats
from repro.models import neurospora_network
from repro.pipeline.builder import run_workflow
from repro.pipeline.config import WorkflowConfig
from repro.pipeline.steering import SteeringController
from repro.service.protocol import windows_to_jsonable
from repro.sim.alignment import TrajectoryAligner
from repro.sim.task import BatchSimulationTask, SimulationTask

#: master-side entry points timed in a traced ``processes`` run
LAYER_TARGETS = [
    (TrajectoryAligner, "svc", "sim.align"),
    (SlidingWindowNode, "svc", "analysis.window"),
    (StatEngineNode, "svc", "analysis.stat"),
    (repro.distributed.procfarm, "map_results", "distributed.map_results"),
] + [(module, "compile_network", "cwc.compile")
     for module in (repro.cwc.batch, repro.sim.task, repro.sweep.fused,
                    repro.cwc.methods)]

#: the quantum itself, timed in a traced ``sequential`` run only (on
#: ``processes`` it runs in the workers, out of the master's sight)
KERNEL_TARGETS = [
    (SimulationTask, "run_quantum", "cwc.kernel"),
    (BatchSimulationTask, "run_quantum", "cwc.kernel"),
]


#: RunReport names of the simulation farm workers (run and sweep farms)
_ENGINE_NODE = re.compile(r"^(sim|sweep)-farm\.w\d+$")


def _corrupt(windows: list[dict]) -> list[dict]:
    """Nudge the first mean of the first window by one unit in the last
    place: the self-check proves the digest gate catches it."""
    cut = windows[0]["cuts"][0]
    cut["mean"][0] = math.nextafter(cut["mean"][0], math.inf)
    return windows


class _Run:
    """One ``run_workflow`` call with its wall, CPU and window times."""

    def __init__(self, model, config: WorkflowConfig):
        self.first_window = self.last_window = None

        def on_progress(_event) -> None:
            now = time.perf_counter() - started
            if self.first_window is None:
                self.first_window = now
            self.last_window = now

        cpu0 = measure.process_tree_cpu()
        started = time.perf_counter()
        self.result = run_workflow(
            model, config, controller=SteeringController(on_progress))
        self.wall = time.perf_counter() - started
        self.cpu = measure.process_tree_cpu() - cpu0
        self.report = self.result.trace_report

    def digest(self) -> str:
        return measure.digest(windows_to_jsonable(self.result.windows))


def _check(out: Outcome, run: _Run, expected: str) -> None:
    """The three operations every ``processes`` run is charged with."""
    out.check("output digest", run.digest() == expected)
    leaked = measure.leaked_segments()
    procs = measure.leftover_procs()
    out.counts["distributed.leaked_segments"] += leaked
    out.counts["distributed.leftover_procs"] += procs
    out.check("shm segments left", leaked == 0)
    out.check("child processes left", procs == 0)


def run(name: str, seed: int, seconds: float, trace: bool,
        toy: bool = False, corrupt_digest: bool = False,
        between=None) -> Outcome:
    """Measure CLI-path workload ``name`` for ``seconds``, calling
    ``between`` (if given) after each untraced repetition."""
    spec = cli_workload(name, seed, toy)
    out = Outcome(name, spec.config | {"omega": spec.omega,
                                       "backend": "processes"})
    model = neurospora_network(omega=spec.omega)
    config = WorkflowConfig(backend="processes", **spec.config)
    sequential = replace(config, backend="sequential")

    started = time.perf_counter()
    compile_network(model)
    out.compile_s = time.perf_counter() - started
    reference = _Run(model, replace(sequential, trace=True))
    windows = windows_to_jsonable(reference.result.windows)
    expected = measure.digest(_corrupt(windows) if corrupt_digest
                              else windows)
    steps = reference.report.counters["sim.steps"]
    out.extra.update(events=steps, windows=reference.result.n_windows,
                     quanta=reference.report.counters["sim.quanta"])
    if trace:
        _traced(out, model, config, sequential, expected, seconds)
    else:
        _untraced(out, model, config, expected, steps, seconds, between)
    out.peak_rss_mb = measure.peak_rss_mb()
    return out


def _untraced(out: Outcome, model, config: WorkflowConfig, expected: str,
              steps: float, seconds: float, between) -> None:
    _check(out, _Run(model, config), expected)  # warm-up, untimed
    deadline = time.perf_counter() + seconds
    while True:
        r = _Run(model, config)
        _check(out, r, expected)
        out.add("wall_s", r.wall)
        out.add("events_per_s", steps / r.wall)
        out.add("first_window_s", r.first_window)
        out.add("run_latency_s", r.last_window)
        out.add("cpu_s", r.cpu)
        if between:
            between()
        if time.perf_counter() >= deadline:
            break


def _traced(out: Outcome, model, config: WorkflowConfig,
            sequential: WorkflowConfig, expected: str,
            seconds: float) -> None:
    recorder = SpanRecorder()
    out.recorder = recorder
    walls: dict[str, list[float]] = {"proc": [], "traced": []}
    per_rep: list[dict[str, float]] = []
    traced_config = replace(config, trace=True)
    deadline = time.perf_counter() + seconds
    rep = 0
    while True:
        seq_id = f"sequential-{rep}"
        with recorder.run(seq_id), instrument(recorder, KERNEL_TARGETS):
            seq_wall = _Run(model, sequential).wall
        plain = _Run(model, config)
        _check(out, plain, expected)
        walls["proc"].append(plain.wall)
        out.add("pipeline.first_window_s", plain.first_window)
        run_id = f"processes-traced-{rep}"
        hits0 = network_cache_stats()["hits"]
        with recorder.run(run_id), instrument(recorder, LAYER_TARGETS):
            traced = _Run(model, traced_config)
        _check(out, traced, expected)
        walls["traced"].append(traced.wall)
        layers, engine_svc = layers_of(
            recorder, run_id, [traced.report], traced.report.wall_time,
            network_cache_stats()["hits"] - hits0)
        per_rep.append(kernel_figures(layers, recorder, seq_id, seq_wall,
                                      busy_s=engine_svc))
        rep += 1
        if time.perf_counter() >= deadline:
            break
    finish_layers(out, per_rep, walls["proc"], walls["traced"])


def kernel_figures(layers: dict[str, float], recorder: SpanRecorder,
                   seq_id: str, seq_wall: float,
                   busy_s: float) -> dict[str, float]:
    """Add one round's kernel figures to its ``layers``.  The kernel
    time comes from the round's ``sequential`` run ``seq_id``; dispatch
    is ``busy_s`` (service time of the same quanta on the workers'
    side) beyond it.  Pairing them within a round keeps the machine's
    speed drift out of the difference."""
    quanta, kernel_s, _ = recorder.totals("cwc.kernel", seq_id)
    layers.update({
        "cwc.kernel_s": kernel_s,
        "cwc.kernel_frac": kernel_s / seq_wall,
        "distributed.dispatch_ms_per_quantum":
            (busy_s - kernel_s) / quanta * 1e3,
        "pipeline.kernel_ms_per_quantum": kernel_s / quanta * 1e3,
        "pipeline.sequential_wall_s": seq_wall,
    })
    return layers


def finish_layers(out: Outcome, per_rep: list[dict[str, float]],
                  plain: list[float], traced: list[float]) -> None:
    """Median the per-round figures into ``out.layers`` and add the
    run-level ones; layers the workload does not reach read 0."""
    median = measure.median
    layers = out.layers
    for key in per_rep[0]:
        layers[key] = median([r[key] for r in per_rep])
    events = out.extra["events"]
    layers.update({
        "cwc.ns_per_event": layers["cwc.kernel_s"] / events * 1e9,
        "cwc.events": events,
        "cwc.compile_s": out.compile_s,
        "pipeline.speedup_vs_sequential":
            layers["pipeline.sequential_wall_s"] / median(plain),
        "pipeline.trace_overhead_frac": median(traced) / median(plain) - 1,
        "pipeline.first_window_s":
            median(out.samples["pipeline.first_window_s"]),
    })
    layers.update(out.counts)
    for key in ("sweep.quanta", "sweep.busy_s", "service.submit_s",
                "service.interactive_wait_ms_per_quantum",
                "service.sweep_wait_ms_per_quantum"):
        layers.setdefault(key, 0.0)


def layers_of(recorder: SpanRecorder, run_id: str, reports: list,
              wall: float, cache_hits: int
              ) -> tuple[dict[str, float], float]:
    """Per-layer figures of one traced repetition, from the spans of
    ``run_id`` and the program's run reports of the runs it made, plus
    the simulation farm workers' summed service time."""
    counters: dict[str, float] = {}
    for report in reports:
        for key, value in report.counters.items():
            counters[key] = counters.get(key, 0) + value
    nodes = [n for r in reports for n in r.nodes]
    channels = [c for r in reports for c in r.channels]
    _, align_s, align_cpu = recorder.totals("sim.align", run_id)
    _, window_s, _ = recorder.totals("analysis.window", run_id)
    n_stat, stat_s, stat_cpu = recorder.totals("analysis.stat", run_id)
    _, map_s, _ = recorder.totals("distributed.map_results", run_id)
    engine_svc = sum(n["svc_time_s"]["total"] for n in nodes
                     if _ENGINE_NODE.match(n["name"]))
    return {
        "cwc.compile_cache_hits": cache_hits,
        "sim.quanta": counters.get("sim.quanta", 0),
        "sim.align_s": align_s,
        "sim.align_cpu_frac": align_cpu / align_s if align_s else 0.0,
        "sim.cuts": counters.get("align.cuts", 0),
        "distributed.map_results_s": map_s,
        "distributed.shm_bytes": counters.get("proc.shm_bytes", 0),
        "distributed.shm_blocks": counters.get("proc.shm_blocks", 0),
        "analysis.window_s": window_s,
        "analysis.stat_s": stat_s,
        "analysis.stat_ms_per_window": stat_s / n_stat * 1e3
        if n_stat else 0.0,
        "analysis.stat_cpu_frac": stat_cpu / stat_s if stat_s else 0.0,
        "analysis.windows": counters.get("analysis.windows", 0),
        "analysis.kmeans_iterations":
            counters.get("analysis.kmeans_iterations", 0),
        "ff.sim_busy_frac": engine_svc / (wall * SIM_WORKERS),
        "ff.blocked_push_s": sum(c["blocked_push_s"] for c in channels),
        "ff.queue_high_water": max((c["high_water"] for c in channels),
                                   default=0),
    }, engine_svc
