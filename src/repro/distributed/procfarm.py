"""A process-backed simulation farm: real multi-core in CPython.

The thread-per-node runtime of :mod:`repro.ff` is faithful to FastFlow's
architecture but GIL-bound for pure-Python stages.  For users who want the
actual wall-clock win on a multi-core box, this module swaps the
simulation engines for process-backed ones: each engine thread submits its
quantum to a ``ProcessPoolExecutor`` and blocks (releasing the GIL) while
a worker *process* runs the SSA.  Tasks really cross process boundaries
(pickled), which is the same serialisation contract as the distributed
version; quantum results come back through the shared-memory result
ring (:mod:`repro.distributed.shm`).  Reachable from the CLI and
:func:`repro.pipeline.run_workflow` as ``backend="processes"``.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import Optional, Union

from repro.cwc.model import Model
from repro.cwc.network import ReactionNetwork
from repro.distributed.shm import (make_prefix, map_results,
                                   publish_results, sweep_orphans)
from repro.ff.node import GO_ON, Node
from repro.ff.trace import Tracer
from repro.pipeline.builder import WorkflowResult, build_workflow
from repro.pipeline.config import WorkflowConfig
from repro.pipeline.steering import SteeringController
from repro.sim.task import BatchSimulationTask, ResultBlock, SimulationTask


def _run_quantum_shm(task, prefix):
    """Executed in a worker process: one quantum, with its sample arrays
    published to the shared-memory result ring.  The future carries only
    the advanced task state and a small descriptor block."""
    outcome = task.run_quantum()
    results = outcome if isinstance(outcome, list) else [outcome]
    return task, publish_results(results, prefix)


class ProcessSimEngineNode(Node):
    """Drop-in for :class:`~repro.sim.engine.SimEngineNode` backed by a
    shared process pool.  The engine thread blocks on the future (GIL
    released) while the quantum runs in another process.

    Quantum results come back through the shared-memory result ring
    (:mod:`repro.distributed.shm`) under the per-run ``shm_prefix``: the
    worker publishes the sample arrays into shared pages and this node
    maps them into zero-copy :class:`~repro.sim.task.QuantumResult`
    views.  Every mapped result must be released exactly once -- results
    this node drops (empty, not done) are released here; forwarded ones
    are released by the aligner after ingest.
    """

    def __init__(self, pool: ProcessPoolExecutor, shm_prefix: str,
                 name: str = "psim-eng"):
        super().__init__(name=name)
        self.pool = pool
        self.shm_prefix = shm_prefix
        self.quanta_executed = 0

    def svc_init(self) -> None:
        self.quanta_executed = 0

    def svc(self, task: Union[SimulationTask, BatchSimulationTask]):
        steps_before = task.steps
        updated, block = self.pool.submit(
            _run_quantum_shm, task, self.shm_prefix).result()
        results = map_results(block)
        if block.name is not None:
            self.trace_incr("proc.shm_blocks", 1)
            self.trace_incr("proc.shm_bytes", block.payload_nbytes)
        self.quanta_executed += 1
        steps = updated.steps - steps_before
        retired = 0
        for result in results:
            # a coalescing batch task retires all members at once
            n_done = (result.n_members if isinstance(result, ResultBlock)
                      else 1)
            if result.done:
                retired += n_done
            if len(result) or result.done:
                self.ff_send_out(result)
            else:
                result.release()  # dropped: give back its segment ref now
        self.trace_incr("sim.steps", steps)
        self.trace_incr("sim.quanta", 1)
        self.trace_incr("proc.quanta_offloaded", 1)
        if retired:
            self.trace_incr("sim.trajectories_retired", retired)
        self.send_feedback(updated)
        return GO_ON


def run_workflow_multiprocess(model: Union[Model, ReactionNetwork],
                              config: WorkflowConfig,
                              controller: Optional[SteeringController] = None,
                              tracer: Optional[Tracer] = None,
                              pool: Optional[ProcessPoolExecutor] = None
                              ) -> WorkflowResult:
    """Like :func:`repro.pipeline.run_workflow`, with process-backed
    simulation engines.  Requires a picklable model (all bundled models
    are; avoid lambda rate laws).

    Quantum results return through the shared-memory result ring
    instead of the future pipe; any segment leaked by a worker dying
    mid-publish is swept when the run ends.

    Adaptive scheduling comes for free: the farm is built by
    :func:`~repro.pipeline.builder.build_workflow`, so the emitter's
    priority backlog bounds the quanta outstanding on the pool and an
    attached :class:`~repro.pipeline.adaptive.AdaptiveController` can
    re-key it mid-run -- the engine processes only ever see the next
    quantum the backlog releases.

    ``pool`` reuses an already-running executor (the farm is then
    *attached*, not owned: the caller keeps it alive across runs and
    shuts it down once -- how the service amortises worker startup over
    many tenant runs).  Without it, a pool is created and torn down for
    this run, the historical behaviour.
    """
    from repro.ff.executor import run as ff_run

    cut_store: Optional[list] = [] if config.keep_cuts else None
    prefix = make_prefix()
    owned = pool is None
    if owned:
        pool = ProcessPoolExecutor(max_workers=config.n_sim_workers)
    try:
        workflow = build_workflow(
            model, config, controller=controller, cut_store=cut_store,
            engine_factory=lambda i: ProcessSimEngineNode(
                pool, prefix, name=f"psim-eng-{i}"))
        windows = ff_run(workflow, backend="threads", trace=tracer)
    finally:
        if owned:
            pool.shutdown(wait=True)
        sweep_orphans(prefix)
    return WorkflowResult(config=config, windows=windows,
                          cuts=cut_store or [])
