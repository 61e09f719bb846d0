"""Calibrate the performance models against the real Python stack.

The DES cost model (:class:`~repro.perfsim.costmodel.CostModel`) is
expressed in seconds on a *reference core*.  What the figure shapes
actually depend on are the **ratios** between stage costs (one SSA step
vs. one alignment insert vs. one per-trajectory statistics pass ...), so
this module measures those ratios on the machine at hand by timing the
real implementations, then builds a CostModel that keeps the measured
ratios while pinning ``step_cost`` to the reference value (1 µs).

This closes the loop DESIGN.md promises: workloads are fitted with
:func:`repro.perfsim.workload.measure_workload` and stage costs with
:func:`calibrate_cost_model`, so nothing in the DES is guessed except the
explicitly documented quad term of the analysis cost and the Fig. 5 IO
constant (see EXPERIMENTS.md).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.analysis.stats import cut_statistics
from repro.cwc.network import FlatSimulator, ReactionNetwork
from repro.perfsim.costmodel import CostModel
from repro.sim.alignment import TrajectoryAligner
from repro.sim.task import QuantumResult
from repro.sim.trajectory import Cut


@dataclass(frozen=True)
class CalibrationReport:
    """Measured per-operation costs (seconds, this machine)."""

    step_seconds: float
    align_seconds_per_sample: float
    stat_seconds_per_trajectory: float

    def cost_model(self, reference_step: float = 1.0e-6) -> CostModel:
        """A CostModel with measured ratios, normalised so one SSA step
        costs ``reference_step`` on the reference core."""
        scale = reference_step / self.step_seconds
        return CostModel().with_(
            step_cost=reference_step,
            align_cost_per_sample=self.align_seconds_per_sample * scale,
            stat_cut_linear=self.stat_seconds_per_trajectory * scale,
        )


def _time_it(fn, min_seconds: float = 0.05) -> float:
    """Wall-clock one call, repeating until ``min_seconds`` elapsed."""
    runs = 0
    started = time.perf_counter()
    while True:
        fn()
        runs += 1
        elapsed = time.perf_counter() - started
        if elapsed >= min_seconds:
            return elapsed / runs


class _NullOutbox:
    def send(self, item):
        pass


def calibrate_cost_model(network: ReactionNetwork,
                         t_probe: float = 1.0,
                         n_trajectories: int = 64,
                         n_observables: int = 3,
                         seed: int = 0) -> CalibrationReport:
    """Measure the three load-bearing stage costs on this machine.

    * **SSA step**: advance the real flat engine for ``t_probe`` simulated
      time and divide by the steps executed;
    * **alignment insert**: drive a real :class:`TrajectoryAligner` with
      synthetic quantum results;
    * **per-trajectory statistics**: time :func:`cut_statistics` on a cut
      of ``n_trajectories``.
    """
    # --- SSA step cost ----------------------------------------------------
    simulator = FlatSimulator(network, seed=seed)
    started = time.perf_counter()
    simulator.advance(t_probe)
    elapsed = time.perf_counter() - started
    steps = max(1, simulator.steps)
    step_seconds = elapsed / steps

    # --- alignment cost per sample -----------------------------------------
    n_grid = 16
    sample_row = tuple(float(i) for i in range(n_observables))
    # pre-built in the columnar wire format the simulation engines ship,
    # so the probe times the aligner's insert, not result construction
    probe_times = np.arange(n_grid, dtype=float)
    probe_values = np.tile(sample_row, (n_grid, 1))
    probe_results = [
        QuantumResult(task_id, time=0.0, steps=0, done=True,
                      grid_start=0, times=probe_times, values=probe_values)
        for task_id in range(n_trajectories)]

    def run_aligner():
        aligner = TrajectoryAligner(n_trajectories)
        aligner._outbox = _NullOutbox()
        for result in probe_results:
            aligner.svc(result)

    per_aligner_run = _time_it(run_aligner)
    align_seconds = per_aligner_run / (n_trajectories * n_grid)

    # --- statistics cost per trajectory -------------------------------------
    cut = Cut(grid_index=0, time=0.0,
              values=[sample_row for _ in range(n_trajectories)])
    per_cut = _time_it(lambda: cut_statistics(cut))
    stat_seconds = per_cut / n_trajectories

    return CalibrationReport(
        step_seconds=step_seconds,
        align_seconds_per_sample=align_seconds,
        stat_seconds_per_trajectory=stat_seconds)
