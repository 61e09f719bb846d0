"""The benchmark's workloads: inputs generated from a seed.

Every workload runs the Neurospora model (the paper's use case) through
the real run path.  The three CLI-path workloads hand a generated
``WorkflowConfig`` to ``run_workflow`` on the ``processes`` backend with
two simulation workers; ``service-mixed`` drives an in-process
``ServiceApp`` over HTTP/WebSocket.  ``toy`` shrinks every shape to a
fraction of a second for the self-check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

#: simulation workers of every CLI-path run and of the service fleet
#: (the benchmark box has 2 cores; the load generator never uses more
#: client threads than this either)
SIM_WORKERS = 2

#: one line per workload: why it exists, which layer it stresses
WHY = {
    "ensemble-batch":
        "cwc batch kernel does almost all the work and dispatch is "
        "negligible: a kernel gain shows here, a dispatch change should not",
    "ensemble-fine-quanta":
        "per-quantum dispatch in distributed/sim.scheduler costs about as "
        "much as the scalar compute; the batch kernel is bypassed",
    "wide-analysis":
        "many trajectories, few events: master-side alignment, windowing "
        "and statistics are the bottleneck",
    "service-mixed":
        "a fused sweep tenant beside a closed-loop interactive client on "
        "one shared fleet: service fair share, sweep and first-window "
        "latency",
}

CLI_WORKLOADS = ("ensemble-batch", "ensemble-fine-quanta", "wide-analysis")
ALL_WORKLOADS = CLI_WORKLOADS + ("service-mixed",)


@dataclass
class CliWorkload:
    """One CLI-path run: model size plus the config handed to
    ``run_workflow`` (backend and seed are filled in by the runner)."""

    name: str
    omega: float
    config: dict[str, Any]


def cli_workload(name: str, seed: int, toy: bool = False) -> CliWorkload:
    """The generated inputs of a CLI-path workload for ``seed``."""
    if name == "ensemble-batch":
        cfg = dict(n_simulations=128, t_end=16.0, quantum=2.0,
                   engine="batch", batch_size=64, kmeans_k=3)
        if toy:
            cfg.update(n_simulations=16, t_end=4.0, batch_size=8)
        omega = 100.0
    elif name == "ensemble-fine-quanta":
        cfg = dict(n_simulations=32, t_end=12.0, quantum=1.0,
                   engine="flat")
        if toy:
            cfg.update(n_simulations=4, t_end=3.0)
        omega = 100.0
    elif name == "wide-analysis":
        cfg = dict(n_simulations=1024, t_end=24.0, sample_every=0.125,
                   window_size=16, window_slide=1, kmeans_k=4,
                   histogram_bins=16, engine="batch", batch_size=512)
        if toy:
            cfg.update(n_simulations=64, t_end=4.0, batch_size=32)
        omega = 3.0
    else:
        raise KeyError(f"unknown CLI workload {name!r}")
    cfg.update(seed=seed, n_sim_workers=SIM_WORKERS)
    return CliWorkload(name, omega, cfg)


@dataclass
class ServiceWorkload:
    """``service-mixed``: one sweep tenant plus a pool of interactive
    run specs the closed-loop client cycles through."""

    sweep_payload: dict[str, Any]
    interactive_payloads: list[dict[str, Any]] = field(default_factory=list)


#: base rate constants of the two swept mass-action reactions
#: (NeurosporaParams.ks and .k1)
_KS, _K1 = 0.5, 0.5


def service_workload(seed: int, toy: bool = False) -> ServiceWorkload:
    """The generated inputs of ``service-mixed`` for ``seed``: a 4x4
    grid over ``translation``/``transport_in`` and four distinct
    interactive specs (seeded off ``seed``) reused round-robin so their
    references are computed once."""
    scale = (0.8, 0.93, 1.07, 1.2)
    t_end = 4.0 if toy else 8.0
    sweep = {
        "model": "neurospora", "omega": 100.0, "label": "sweep",
        "max_inflight": 1,
        "config": {"t_end": t_end, "quantum": 1.0,
                   "sample_every": 0.5, "n_sim_workers": 1},
        "sweep": {"grid": {"translation": [_KS * s for s in scale],
                           "transport_in": [_K1 * s for s in scale]},
                  "n_trajectories": 8 if toy else 32,
                  "seed": seed},
    }
    interactive = [
        {"model": "neurospora", "omega": 100.0, "label": f"interactive-{i}",
         "config": {"n_simulations": 16, "t_end": t_end,
                    "quantum": 2.0, "window_size": 4, "engine": "batch",
                    "batch_size": 8, "n_sim_workers": SIM_WORKERS,
                    "seed": seed * 1000 + i}}
        for i in range(4)
    ]
    return ServiceWorkload(sweep, interactive)
