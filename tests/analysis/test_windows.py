"""Sliding-window generation.

Parametrised over the columnar ring-buffer :class:`SlidingWindowNode`
and the scalar oracle :class:`~tests.oracles.ScalarSlidingWindowNode`:
both must emit the same window sequence for any stream.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.windows import SlidingWindowNode
from repro.sim.trajectory import Cut, CutBlock
from tests.oracles import ScalarSlidingWindowNode, window_from_cuts

NODES = (SlidingWindowNode, ScalarSlidingWindowNode)


class _Capture:
    def __init__(self, node):
        self.items = []
        node._outbox = self

    def send(self, item):
        self.items.append(item)


def cuts(n):
    return [Cut(grid_index=g, time=float(g), values=[(float(g),)])
            for g in range(n)]


def feed(node, n):
    out = _Capture(node)
    for cut in cuts(n):
        node.svc(cut)
    node.svc_end()
    return out.items


@pytest.mark.parametrize("node_cls", NODES)
class TestTumblingWindows:
    def test_exact_multiple(self, node_cls):
        windows = feed(node_cls(size=5), 10)
        assert [len(w) for w in windows] == [5, 5]
        assert [w.index for w in windows] == [0, 1]

    def test_partial_tail_emitted(self, node_cls):
        windows = feed(node_cls(size=5), 12)
        assert [len(w) for w in windows] == [5, 5, 2]

    def test_partial_tail_suppressed(self, node_cls):
        windows = feed(node_cls(size=5, emit_partial_tail=False), 12)
        assert [len(w) for w in windows] == [5, 5]

    def test_windows_cover_stream_in_order(self, node_cls):
        windows = feed(node_cls(size=4), 10)
        seen = [c.grid_index for w in windows for c in w.cuts]
        assert seen == list(range(10))

    def test_fewer_cuts_than_window(self, node_cls):
        windows = feed(node_cls(size=100), 3)
        assert len(windows) == 1 and len(windows[0]) == 3

    def test_empty_stream(self, node_cls):
        assert feed(node_cls(size=5), 0) == []


@pytest.mark.parametrize("node_cls", NODES)
class TestOverlappingWindows:
    def test_slide_smaller_than_size(self, node_cls):
        windows = feed(node_cls(size=4, slide=2), 8)
        starts = [w.cuts[0].grid_index for w in windows]
        assert starts[:3] == [0, 2, 4]
        assert all(len(w) == 4 for w in windows[:3])

    def test_overlap_shares_cuts(self, node_cls):
        windows = feed(node_cls(size=4, slide=2), 6)
        assert [c.grid_index for c in windows[0].cuts] == [0, 1, 2, 3]
        assert [c.grid_index for c in windows[1].cuts] == [2, 3, 4, 5]

    @given(st.integers(1, 10), st.integers(1, 10), st.integers(0, 40))
    @settings(max_examples=60)
    def test_every_cut_appears(self, node_cls, size, slide_offset, n):
        slide = min(size, 1 + slide_offset % size)
        node = node_cls(size=size, slide=slide)
        windows = feed(node, n)
        covered = {c.grid_index for w in windows for c in w.cuts}
        assert covered == set(range(n))
        # window indices are consecutive
        assert [w.index for w in windows] == list(range(len(windows)))

    def test_large_slide_long_stream(self, node_cls):
        """Regression for the per-slide pop loop: a large slide over a
        long stream must still produce exactly the right windows (and in
        the columnar node the ring must compact correctly many times)."""
        size, slide, n = 500, 499, 5000
        windows = feed(node_cls(size=size, slide=slide), n)
        expected_full = (n - size) // slide + 1
        assert [len(w) for w in windows[:expected_full]] == (
            [size] * expected_full)
        starts = [w.cuts[0].grid_index for w in windows[:expected_full]]
        assert starts == [i * slide for i in range(expected_full)]
        covered = {c.grid_index for w in windows for c in w.cuts}
        assert covered == set(range(n))


class TestColumnarScalarEquivalence:
    @given(st.integers(1, 8), st.integers(1, 8), st.integers(0, 60),
           st.integers(1, 7))
    @settings(max_examples=40)
    def test_same_windows_any_blocking(self, size, slide_offset, n,
                                       block_len):
        """Feeding the same stream -- as single cuts to the oracle and as
        arbitrary CutBlock batches to the ring -- yields identical
        windows."""
        slide = min(size, 1 + slide_offset % size)
        stream = cuts(n)
        scalar = ScalarSlidingWindowNode(size=size, slide=slide)
        columnar = SlidingWindowNode(size=size, slide=slide)
        out_s = _Capture(scalar)
        out_c = _Capture(columnar)
        for cut in stream:
            scalar.svc(cut)
        scalar.svc_end()
        start = 0
        while start < n:
            chunk = stream[start:start + block_len]
            columnar.svc(CutBlock(
                start, np.array([c.time for c in chunk]),
                np.stack([c.data for c in chunk])))
            start += len(chunk)
        columnar.svc_end()
        assert len(out_s.items) == len(out_c.items)
        for ws, wc in zip(out_s.items, out_c.items):
            assert ws.index == wc.index
            assert [c.grid_index for c in ws.cuts] == \
                [c.grid_index for c in wc.cuts]
            assert [c.values for c in ws.cuts] == \
                [c.values for c in wc.cuts]

    def test_ring_precomputes_stats(self):
        node = SlidingWindowNode(size=4, slide=2)
        windows = feed(node, 8)
        for window in windows:
            assert window.cut_stats is not None
            assert len(window.cut_stats) == len(window)
            for stat, cut in zip(window.cut_stats, window.cuts):
                assert stat.grid_index == cut.grid_index
                assert stat.mean == (float(cut.grid_index),)

    def test_type_check(self):
        with pytest.raises(TypeError):
            SlidingWindowNode(size=2).svc("nope")
        with pytest.raises(TypeError):
            ScalarSlidingWindowNode(size=2).svc("nope")


class TestWindowObject:
    def test_time_bounds(self):
        window = window_from_cuts(0, cuts(4))
        assert window.start_time == 0.0
        assert window.end_time == 3.0

    def test_trajectory_matrix(self):
        data = [Cut(grid_index=g, time=float(g),
                    values=[(g + 100.0,), (g + 200.0,)]) for g in range(3)]
        window = window_from_cuts(0, data)
        matrix = window.trajectory_matrix(0)
        assert matrix == [[100.0, 101.0, 102.0], [200.0, 201.0, 202.0]]


@pytest.mark.parametrize("node_cls", NODES)
class TestValidation:
    def test_size_positive(self, node_cls):
        with pytest.raises(ValueError):
            node_cls(size=0)

    def test_slide_bounds(self, node_cls):
        with pytest.raises(ValueError):
            node_cls(size=3, slide=4)
        with pytest.raises(ValueError):
            node_cls(size=3, slide=0)
