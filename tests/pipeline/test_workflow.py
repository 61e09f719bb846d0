"""The complete simulation-analysis workflow."""

import pytest

from repro.cwc.network import FlatSimulator
from repro.pipeline import (
    SteeringController,
    WorkflowConfig,
    build_workflow,
    run_workflow,
)

BACKENDS = ("sequential", "threads")


def config(**overrides):
    base = dict(n_simulations=6, t_end=10.0, sample_every=0.5, quantum=2.0,
                n_sim_workers=3, n_stat_workers=2, window_size=5, seed=0)
    base.update(overrides)
    return WorkflowConfig(**base)


class TestEndToEnd:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_window_stream_complete_and_ordered(self, neurospora_small,
                                                backend):
        result = run_workflow(neurospora_small, config(backend=backend))
        assert [w.window_index for w in result.windows] == \
            list(range(result.n_windows))
        stats = result.cut_statistics()
        assert len(stats) == 21  # t_end/sample_every + 1
        assert [s.grid_index for s in stats] == list(range(21))

    def test_backends_produce_identical_statistics(self, neurospora_small):
        seq = run_workflow(neurospora_small, config(backend="sequential"))
        thr = run_workflow(neurospora_small, config(backend="threads"))
        assert [(s.grid_index, s.mean, s.variance)
                for s in seq.cut_statistics()] == \
            [(s.grid_index, s.mean, s.variance)
             for s in thr.cut_statistics()]

    def test_trajectories_match_direct_runs(self, neurospora_small):
        """End-to-end integrity: every reassembled trajectory equals a
        direct simulation with the same derived seed."""
        cfg = config(keep_cuts=True)
        result = run_workflow(neurospora_small, cfg)
        for task_id, trajectory in enumerate(result.trajectories()):
            direct = FlatSimulator(neurospora_small,
                                   seed=cfg.seed + task_id).run(
                cfg.t_end, cfg.sample_every)
            assert trajectory.samples == direct.samples

    def test_mean_trajectory_accessor(self, neurospora_small):
        result = run_workflow(neurospora_small, config())
        times, means = result.mean_trajectory(0)
        assert len(times) == len(means) == 21
        assert times == sorted(times)

    def test_trajectories_requires_keep_cuts(self, neurospora_small):
        result = run_workflow(neurospora_small, config(keep_cuts=False))
        with pytest.raises(ValueError):
            result.trajectories()

    def test_kmeans_and_filtering_flow_through(self, toggle_small):
        cfg = config(kmeans_k=2, filter_width=3)
        result = run_workflow(toggle_small, cfg)
        for window in result.windows:
            assert set(window.clusters) == {0, 1}
            assert window.clusters[0].k <= 2
            assert 0 in window.filtered_mean

    def test_overlapping_windows(self, neurospora_small):
        cfg = config(window_size=6, window_slide=3)
        result = run_workflow(neurospora_small, cfg)
        starts = [w.cuts[0].grid_index for w in result.windows]
        assert starts[:3] == [0, 3, 6]
        # dedup: cut stats still unique and complete
        stats = result.cut_statistics()
        assert [s.grid_index for s in stats] == list(range(21))

    def test_cwc_engine_workflow(self, neurospora_cwc_small):
        cfg = config(n_simulations=3, t_end=4.0, engine="cwc")
        result = run_workflow(neurospora_cwc_small, cfg)
        assert result.n_windows >= 1


class TestSteering:
    def test_progress_events_delivered(self, neurospora_small):
        events = []
        controller = SteeringController(on_progress=events.append)
        result = run_workflow(neurospora_small, config(),
                              controller=controller)
        assert len(events) == result.n_windows
        assert controller.windows_seen == result.n_windows
        assert controller.latest is result.windows[-1]
        assert [e.window_index for e in events] == \
            [w.window_index for w in result.windows]

    def test_stop_after_helper(self, neurospora_small):
        controller = SteeringController()
        controller._on_progress = controller.stop_after(2)
        long_cfg = config(t_end=500.0, quantum=1.0)
        result = run_workflow(neurospora_small, long_cfg,
                              controller=controller)
        assert result.n_windows < 30  # far short of the ~200 of a full run
        assert controller.stop_requested


class TestConfigValidation:
    @pytest.mark.parametrize("bad", [
        dict(n_simulations=0),
        dict(t_end=0),
        dict(sample_every=-1),
        dict(quantum=0),
        dict(n_sim_workers=0),
        dict(n_stat_workers=0),
        dict(window_size=0),
        dict(window_slide=9),  # > window_size (5)
        dict(t_end=float("nan")),
        dict(t_end=float("inf")),
        dict(sample_every=float("nan")),
        dict(quantum=float("inf")),
        dict(quantum=float("nan")),
        dict(engine="bogus"),
    ])
    def test_rejected(self, bad):
        with pytest.raises(ValueError):
            config(**bad)

    def test_derived_quantities(self):
        cfg = config(t_end=10.0, sample_every=0.5, quantum=3.0)
        assert cfg.n_grid_points == 21
        assert cfg.n_quanta == 4

    def test_build_workflow_returns_pipeline(self, neurospora_small):
        workflow = build_workflow(neurospora_small, config())
        from repro.ff.pipeline import Pipeline
        assert isinstance(workflow, Pipeline)
