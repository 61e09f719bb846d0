"""``service-mixed``: a sweep tenant beside a closed-loop interactive
client on one in-process ``ServiceApp`` with a 2-process fleet.

One repetition submits the fused sweep and, beside it, starts one
interactive client thread that submits small runs back to back and
streams each one to its end; the repetition ends when the sweep's
stream ends and the interactive client has finished its current run.
Two client threads, each with one connection at a time.

Checks per repetition: the sweep's streamed final means and every
interactive run's streamed windows against in-process ``sequential``
references computed once before timing, then ``/dev/shm`` segments
left behind; child processes still alive are counted once the service
has shut down.
"""

from __future__ import annotations

import contextlib
import threading
import time
from dataclasses import replace
from typing import Optional

import measure
from cli_path import (KERNEL_TARGETS, LAYER_TARGETS, finish_layers,
                      kernel_figures, layers_of)
from outcome import Outcome
from spans import SpanRecorder, instrument
from workloads import SIM_WORKERS, service_workload

from repro.cwc.batch import compile_network, network_cache_stats
from repro.pipeline.builder import run_workflow
from repro.service.app import ServiceApp
from repro.service.client import ServiceClient
from repro.service.fleet import SharedFleet
from repro.service.protocol import RunSpec, windows_to_jsonable
from repro.sweep import run_sweep

#: a two-quantum run that starts both fleet workers and fills the
#: compile cache before anything is timed
_WARM_UP = {"model": "neurospora", "omega": 100.0, "label": "warm-up",
            "config": {"n_simulations": 2, "t_end": 1.0, "quantum": 1.0,
                       "engine": "batch", "batch_size": 1,
                       "n_sim_workers": SIM_WORKERS}}


def boot() -> tuple[ServiceApp, ServiceClient]:
    """Server boot plus fleet warm-up: the service's share of set-up."""
    app = ServiceApp(port=0, n_workers=SIM_WORKERS,
                     backend="processes").start_background()
    client = ServiceClient(*app.address)
    client.wait(client.submit(_WARM_UP))
    return app, client


def _sweep_reference(payload: dict,
                     recorder: Optional[SpanRecorder] = None,
                     run_id: str = ""):
    """Final-mean digest, counters and wall time of the sweep on
    ``sequential`` in-process; with ``recorder``, every quantum is a
    span of ``run_id``."""
    spec = RunSpec.from_jsonable(payload)
    cfg = spec.config
    started = time.perf_counter()
    with contextlib.ExitStack() as stack:
        if recorder is not None:
            stack.enter_context(recorder.run(run_id))
            stack.enter_context(instrument(recorder, KERNEL_TARGETS))
        result = run_sweep(spec.build_model(), spec.sweep, t_end=cfg.t_end,
                           quantum=cfg.quantum, sample_every=cfg.sample_every,
                           n_sim_workers=1, backend="sequential", trace=True)
    wall = time.perf_counter() - started
    return (measure.digest([result.mean[:, -1, :].tolist()]),
            result.trace_report.counters, wall)


def _interactive_reference(payload: dict) -> str:
    spec = RunSpec.from_jsonable(payload)
    result = run_workflow(spec.build_model(),
                          replace(spec.config, backend="sequential"))
    return measure.digest(windows_to_jsonable(result.windows))


@contextlib.contextmanager
def _tenant_stats_on_release(sink: dict):
    """Keep each tenant's fleet stats (the ``GET /fleet`` record) as it
    is released at the end of its run."""
    original = SharedFleet.__dict__["release"]

    def release(fleet, tenant):
        snapshot = fleet.tenant_stats(tenant)
        if snapshot is not None:
            sink[tenant] = snapshot
        return original(fleet, tenant)

    SharedFleet.release = release
    try:
        yield
    finally:
        SharedFleet.release = original


class _Rep:
    """One repetition: the sweep plus the interactive client beside it."""

    def __init__(self, client: ServiceClient, workload, expected: dict,
                 out: Outcome):
        self.interactive: list[tuple[str, float, float]] = []
        done = threading.Event()
        thread = threading.Thread(
            target=self._interactive_loop,
            args=(client, workload.interactive_payloads, expected, out,
                  done), name="interactive-client")
        cpu0 = measure.process_tree_cpu()
        started = time.perf_counter()
        self.sweep_id = client.submit(workload.sweep_payload)
        thread.start()
        final_mean = state = None
        for event in client.stream(self.sweep_id):
            if event["type"] == "sweep":
                final_mean = event["final_mean"]
            elif event["type"] == "end":
                state = event["state"]
        self.wall = time.perf_counter() - started
        done.set()
        thread.join()
        #: the sweep plus the interactive client's last run
        self.span = time.perf_counter() - started
        self.cpu = measure.process_tree_cpu() - cpu0
        out.check("sweep final state", state == "done")
        out.check("sweep output digest", final_mean is not None and
                  measure.digest([final_mean]) == expected["sweep"])

    def _interactive_loop(self, client, payloads, expected, out, done):
        i = 0
        while not done.is_set():
            which = i % len(payloads)
            i += 1
            try:
                started = time.perf_counter()
                run_id = client.submit(payloads[which])
                first = last = None
                windows, state = [], None
                for event in client.stream(run_id):
                    if event["type"] == "window":
                        last = time.perf_counter() - started
                        if first is None:
                            first = last
                        windows.append(event["window"])
                    elif event["type"] == "end":
                        state = event["state"]
            except Exception as exc:  # noqa: BLE001 - counted, not raised
                out.check(f"interactive run: {exc!r}", False)
                return
            ok = (state == "done" and first is not None and
                  measure.digest(windows) == expected[which])
            out.check("interactive output digest", ok)
            if first is not None:
                self.interactive.append((run_id, first, last))


def run(seed: int, seconds: float, trace: bool, toy: bool = False,
        corrupt_digest: bool = False, between=None) -> Outcome:
    """Measure ``service-mixed`` for ``seconds``, calling ``between``
    (if given) after each untraced repetition."""
    workload = service_workload(seed, toy)
    out = Outcome("service-mixed", {
        "sweep": workload.sweep_payload,
        "interactive": workload.interactive_payloads,
        "fleet": {"backend": "processes", "n_workers": SIM_WORKERS}})
    started = time.perf_counter()
    compile_network(RunSpec.from_jsonable(workload.sweep_payload)
                    .build_model())
    out.compile_s = time.perf_counter() - started
    sweep_digest, counters, _wall = _sweep_reference(workload.sweep_payload)
    expected = {"sweep": sweep_digest}
    for i, payload in enumerate(workload.interactive_payloads):
        expected[i] = _interactive_reference(payload)
    if corrupt_digest:
        expected[0] = expected["sweep"] = "0" * 64
    steps = counters["sim.steps"]
    out.extra.update(events=steps, quanta=counters["sim.quanta"])

    started = time.perf_counter()
    app, client = boot()
    out.extra["boot_s"] = time.perf_counter() - started
    try:
        if trace:
            _traced(out, app, client, workload, expected, seconds)
        else:
            _untraced(out, client, workload, expected, steps, seconds,
                      between)
    finally:
        app.close()
    procs = measure.leftover_procs()
    out.counts["distributed.leftover_procs"] += procs
    out.check("child processes left", procs == 0)
    if trace:
        out.layers.update(out.counts)
    out.peak_rss_mb = measure.peak_rss_mb()
    return out


def _check_shm(out: Outcome) -> None:
    leaked = measure.leaked_segments()
    out.counts["distributed.leaked_segments"] += leaked
    out.check("shm segments left", leaked == 0)


def _record(out: Outcome, rep: _Rep, steps: float) -> None:
    out.add("wall_s", rep.wall)
    out.add("events_per_s", steps / rep.wall)
    out.add("cpu_s", rep.cpu)
    for _run_id, first, last in rep.interactive:
        out.add("first_window_s", first)
        out.add("run_latency_s", last)


def _untraced(out, client, workload, expected, steps, seconds,
              between) -> None:
    _Rep(client, workload, expected, out)  # warm-up, untimed
    _check_shm(out)
    deadline = time.perf_counter() + seconds
    while True:
        rep = _Rep(client, workload, expected, out)
        _check_shm(out)
        _record(out, rep, steps)
        if between:
            between()
        if time.perf_counter() >= deadline:
            break


def _traced(out, app, client, workload, expected, seconds) -> None:
    recorder = SpanRecorder()
    out.recorder = recorder
    tenants: dict[str, dict] = {}
    walls: dict[str, list[float]] = {"plain": [], "traced": []}
    per_rep = []
    targets = LAYER_TARGETS + [(ServiceClient, "submit", "service.submit")]
    deadline = time.perf_counter() + seconds
    n = 0
    while True:
        seq_id = f"sequential-{n}"
        _, _, seq_wall = _sweep_reference(workload.sweep_payload, recorder,
                                          seq_id)
        plain = _Rep(client, workload, expected, out)
        _check_shm(out)
        walls["plain"].append(plain.wall)
        for _run_id, first, _last in plain.interactive:
            out.add("pipeline.first_window_s", first)
        run_id = f"service-traced-{n}"
        hits0 = network_cache_stats()["hits"]
        with recorder.run(run_id), instrument(recorder, targets), \
                _tenant_stats_on_release(tenants):
            traced = _Rep(client, workload, expected, out)
        _check_shm(out)
        walls["traced"].append(traced.wall)
        run_ids = [traced.sweep_id] + [r for r, _, _ in traced.interactive]
        reports = [app.manager.get(r).tracer.report() for r in run_ids]
        layers, _engine_svc = layers_of(
            recorder, run_id, reports, traced.wall,
            network_cache_stats()["hits"] - hits0)
        n_submit, submit_s, _ = recorder.totals("service.submit", run_id)
        sweep = tenants[traced.sweep_id]
        inter = [tenants[r] for r in run_ids[1:] if r in tenants]
        inter_quanta = sum(t["completed"] for t in inter)
        fleet_busy = sweep["busy_s"] + sum(t["busy_s"] for t in inter)
        layers.update({
            "service.submit_s": submit_s / max(n_submit, 1),
            "sweep.quanta": sweep["completed"],
            "sweep.busy_s": sweep["busy_s"],
            "service.sweep_wait_ms_per_quantum":
                sweep["wait_s"] / sweep["completed"] * 1e3,
            "service.interactive_wait_ms_per_quantum":
                sum(t["wait_s"] for t in inter) / inter_quanta * 1e3
                if inter_quanta else 0.0,
            # fleet busy time over the whole repetition, interactive
            # tail included
            "ff.sim_busy_frac": fleet_busy / (traced.span * SIM_WORKERS),
        })
        # dispatch: fleet busy time of the sweep's quanta beyond their
        # compute in the round's sequential sweep
        per_rep.append(kernel_figures(layers, recorder, seq_id, seq_wall,
                                      busy_s=sweep["busy_s"]))
        n += 1
        if time.perf_counter() >= deadline:
            break
    finish_layers(out, per_rep, walls["plain"], walls["traced"])
