"""Trajectory alignment: out-of-order quantum results -> in-order cuts.

Parametrised over both aligners: the columnar :class:`TrajectoryAligner`
(emits :class:`CutBlock` batches) and the scalar oracle
:class:`~tests.oracles.ScalarTrajectoryAligner` (emits one :class:`Cut`
per grid point).  The capture helper flattens blocks so every test asserts the
same per-cut sequence against both implementations.
"""

import random

import numpy as np
import pytest

from repro.ff.node import Node
from repro.sim.alignment import TrajectoryAligner
from repro.sim.task import QuantumResult
from repro.sim.trajectory import Cut, CutBlock, iter_cuts
from tests.oracles import ScalarTrajectoryAligner

ALIGNERS = (TrajectoryAligner, ScalarTrajectoryAligner)


class _Capture:
    """Binds an outbox so the aligner can be driven directly."""

    def __init__(self, node: Node):
        self.items = []
        node._outbox = self

    def send(self, item):
        self.items.append(item)

    @property
    def cuts(self):
        """Emissions flattened to cuts (CutBlock -> constituent cuts)."""
        return list(iter_cuts(self.items))


def col_result(task_id, g0, values_2d, done=False):
    """A result covering grids g0..g0+n-1 (contiguous by construction)."""
    vals = np.asarray(values_2d, dtype=float)
    times = np.array([float(g) for g in range(g0, g0 + len(vals))])
    return QuantumResult(task_id, time=0.0, steps=0, done=done,
                         grid_start=g0, times=times, values=vals)


def result(task_id, samples, done=False):
    """A result from consecutive ``(grid, value)`` pairs."""
    grids = [g for g, _v in samples]
    assert grids == list(range(grids[0], grids[0] + len(grids)))
    return col_result(task_id, grids[0], [[float(v)] for _g, v in samples],
                      done=done)


@pytest.mark.parametrize("aligner_cls", ALIGNERS)
class TestAlignment:
    def test_cut_emitted_when_all_reported(self, aligner_cls):
        aligner = aligner_cls(2)
        out = _Capture(aligner)
        aligner.svc(result(0, [(0, 10)]))
        assert out.items == []
        aligner.svc(result(1, [(0, 20)]))
        assert len(out.cuts) == 1
        cut = out.cuts[0]
        assert isinstance(cut, Cut)
        assert cut.grid_index == 0
        assert cut.values == [(10.0,), (20.0,)]

    def test_values_ordered_by_task_id(self, aligner_cls):
        aligner = aligner_cls(3)
        out = _Capture(aligner)
        aligner.svc(result(2, [(0, 2)]))
        aligner.svc(result(0, [(0, 0)]))
        aligner.svc(result(1, [(0, 1)]))
        assert out.cuts[0].values == [(0.0,), (1.0,), (2.0,)]

    def test_cuts_in_grid_order_despite_skew(self, aligner_cls):
        aligner = aligner_cls(2)
        out = _Capture(aligner)
        # trajectory 0 races ahead three grid points
        aligner.svc(result(0, [(0, 1), (1, 1), (2, 1)]))
        assert out.items == []
        aligner.svc(result(1, [(0, 2), (1, 2)]))
        assert [c.grid_index for c in out.cuts] == [0, 1]
        aligner.svc(result(1, [(2, 2)]))
        assert [c.grid_index for c in out.cuts] == [0, 1, 2]

    def test_random_interleaving_property(self, aligner_cls):
        """Any interleaving of per-trajectory streams yields the full
        in-order cut sequence."""
        rng = random.Random(5)
        n_traj, n_grid = 4, 12
        streams = {
            t: [(g, t * 100 + g) for g in range(n_grid)]
            for t in range(n_traj)
        }
        aligner = aligner_cls(n_traj)
        out = _Capture(aligner)
        pending = {t: 0 for t in range(n_traj)}
        while any(v < n_grid for v in pending.values()):
            t = rng.choice([k for k, v in pending.items() if v < n_grid])
            take = rng.randint(1, min(3, n_grid - pending[t]))
            chunk = streams[t][pending[t]:pending[t] + take]
            pending[t] += take
            aligner.svc(result(t, chunk))
        assert [c.grid_index for c in out.cuts] == list(range(n_grid))
        for cut in out.cuts:
            assert cut.values == [
                (float(t * 100 + cut.grid_index),) for t in range(n_traj)]

    def test_duplicate_report_rejected(self, aligner_cls):
        aligner = aligner_cls(2)
        _Capture(aligner)
        aligner.svc(result(0, [(0, 1)]))
        with pytest.raises(ValueError, match="twice"):
            aligner.svc(result(0, [(0, 1)]))

    def test_report_after_emit_rejected(self, aligner_cls):
        aligner = aligner_cls(1)
        _Capture(aligner)
        aligner.svc(result(0, [(0, 1)]))  # cut 0 emitted (n=1)
        with pytest.raises(ValueError, match="already emitted"):
            aligner.svc(result(0, [(0, 2)]))

    def test_type_check(self, aligner_cls):
        aligner = aligner_cls(1)
        with pytest.raises(TypeError):
            aligner.svc("not a result")

    def test_partial_tail_dropped_at_end(self, aligner_cls):
        aligner = aligner_cls(2)
        out = _Capture(aligner)
        aligner.svc(result(0, [(0, 1), (1, 1)]))
        aligner.svc(result(1, [(0, 2)]))
        aligner.svc_end()
        assert [c.grid_index for c in out.cuts] == [0]
        assert aligner.max_buffered >= 1

    def test_validation(self, aligner_cls):
        with pytest.raises(ValueError):
            aligner_cls(0)


class TestColumnarBatching:
    """CutBlock-specific behaviour of the columnar aligner."""

    def test_contiguous_ready_cuts_emit_one_block(self):
        aligner = TrajectoryAligner(2)
        out = _Capture(aligner)
        aligner.svc(result(0, [(0, 1), (1, 1), (2, 1)]))
        aligner.svc(result(1, [(0, 2), (1, 2), (2, 2)]))
        assert len(out.items) == 1
        block = out.items[0]
        assert isinstance(block, CutBlock)
        assert block.grid_start == 0
        assert len(block) == 3
        assert block.data.shape == (3, 2, 1)
        assert aligner.blocks_emitted == 1
        assert aligner.cuts_emitted == 3

    def test_block_cuts_are_views(self):
        aligner = TrajectoryAligner(2)
        out = _Capture(aligner)
        aligner.svc(result(0, [(0, 10), (1, 11)]))
        aligner.svc(result(1, [(0, 20), (1, 21)]))
        block = out.items[0]
        assert [c.values for c in block] == [
            [(10.0,), (20.0,)], [(11.0,), (21.0,)]]

    def test_scalar_and_columnar_agree_on_random_stream(self):
        """Full equivalence under a random interleaving: identical cut
        sequences, identical max_buffered."""
        rng = random.Random(17)
        n_traj, n_grid = 5, 20
        chunks = []
        pending = {t: 0 for t in range(n_traj)}
        while any(v < n_grid for v in pending.values()):
            t = rng.choice([k for k, v in pending.items() if v < n_grid])
            take = rng.randint(1, min(4, n_grid - pending[t]))
            chunk = [(g, t * 1000 + g * 7)
                     for g in range(pending[t], pending[t] + take)]
            pending[t] += take
            chunks.append((t, chunk))

        columnar = TrajectoryAligner(n_traj)
        scalar = ScalarTrajectoryAligner(n_traj)
        out_c, out_s = _Capture(columnar), _Capture(scalar)
        for t, chunk in chunks:
            columnar.svc(result(t, chunk))
            scalar.svc(result(t, chunk))
        assert len(out_c.cuts) == len(out_s.cuts) == n_grid
        for c, s in zip(out_c.cuts, out_s.cuts):
            assert c.grid_index == s.grid_index
            assert c.time == s.time
            assert c.values == s.values
        assert columnar.max_buffered == scalar.max_buffered
        assert columnar.cuts_emitted == scalar.cuts_emitted

    def test_demoted_regime_agrees_on_shuffled_stream(self):
        """Chunks arriving in any order -- a task's later grid points
        before its earlier ones -- drive the aligner into the array
        regime; it must still reproduce the oracle's cuts."""
        rng = random.Random(23)
        n_traj, n_grid = 4, 18
        chunks = []
        for t in range(n_traj):
            g = 0
            while g < n_grid:
                take = rng.randint(1, min(4, n_grid - g))
                chunks.append((t, g, [[float(t * 1000 + k * 3)]
                                      for k in range(g, g + take)]))
                g += take
        rng.shuffle(chunks)

        columnar = TrajectoryAligner(n_traj)
        scalar = ScalarTrajectoryAligner(n_traj)
        out_c, out_s = _Capture(columnar), _Capture(scalar)
        for t, g0, vals in chunks:
            columnar.svc(col_result(t, g0, vals))
            scalar.svc(col_result(t, g0, vals))
        assert not columnar._fast
        assert len(out_c.cuts) == len(out_s.cuts) == n_grid
        for c, s in zip(out_c.cuts, out_s.cuts):
            assert c.grid_index == s.grid_index
            assert c.time == s.time
            assert c.values == s.values
        assert columnar.max_buffered == scalar.max_buffered

    def test_fast_regime_duplicate_detected_after_demote(self):
        """In-order columnar results keep the aligner in the scalar fast
        regime (no seen matrix); a later duplicate must still be caught
        by the reconstructed one."""
        aligner = TrajectoryAligner(2)
        _Capture(aligner)
        aligner.svc(col_result(0, 0, [[1.0], [2.0]]))   # grids 0,1
        aligner.svc(col_result(1, 0, [[9.0]]))          # grid 0 -> emit 0
        assert aligner._fast
        with pytest.raises(ValueError, match="grid point 1 twice"):
            aligner.svc(col_result(0, 1, [[5.0]]))
        assert not aligner._fast

    def test_fast_regime_stale_detected_after_demote(self):
        aligner = TrajectoryAligner(1)
        out = _Capture(aligner)
        aligner.svc(col_result(0, 0, [[1.0], [2.0]]))   # emits 0,1
        assert len(out.cuts) == 2
        with pytest.raises(ValueError, match="already emitted"):
            aligner.svc(col_result(0, 0, [[1.0]]))

    def test_fast_prefix_then_gap_matches_oracle(self):
        """A stream that is in-order long enough to stay in the fast
        regime, then deviates (a task jumps ahead leaving a gap), must
        produce exactly the oracle's cuts and accounting."""
        spec = [
            (0, 0, [10, 11]), (1, 0, [20, 21]), (2, 0, [30, 31]),
            (0, 2, [12, 13]),
            (1, 4, [24]),            # gap: task 1 skips grids 2,3
            (2, 2, [32, 33]),
            (1, 2, [22, 23]),        # fills the gap
            (0, 4, [14]), (2, 4, [34]),
        ]

        def feed(aligner):
            out = _Capture(aligner)
            for task_id, g0, vals in spec:
                aligner.svc(col_result(task_id, g0,
                                       [[float(v)] for v in vals]))
            return out

        out_c = feed(TrajectoryAligner(3))
        out_s = feed(ScalarTrajectoryAligner(3))
        assert len(out_c.cuts) == len(out_s.cuts) == 5
        for c, s in zip(out_c.cuts, out_s.cuts):
            assert c.grid_index == s.grid_index
            assert c.values == s.values

    def test_columnar_results_feed_without_row_hop(self):
        """QuantumResults (the BatchSimulationTask wire format) land in
        the cut matrix straight from their arrays."""
        aligner = TrajectoryAligner(2)
        out = _Capture(aligner)
        for task_id in range(2):
            res = QuantumResult(
                task_id, time=1.0, steps=3,
                grid_start=0,
                times=np.array([0.0, 0.5, 1.0]),
                values=np.array([[task_id + 0.0], [task_id + 0.5],
                                 [task_id + 1.0]]))
            aligner.svc(res)
        assert len(out.items) == 1
        assert [c.values for c in out.items[0]] == [
            [(0.0,), (1.0,)], [(0.5,), (1.5,)], [(1.0,), (2.0,)]]
