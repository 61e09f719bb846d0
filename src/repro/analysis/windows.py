"""Sliding windows of trajectory cuts.

"More complex analysis require the access to the whole dataset, but it is
difficult to do with an on-line process.  In many cases it is approximated
by way of sliding windows over the whole dataset" -- this stage is the
paper's *generation of sliding windows of trajectories* box: it buffers
the cut stream and emits overlapping :class:`Window` objects of ``size``
cuts every ``slide`` cuts, each independently analysable (hence
parallelisable across the statistical-engine farm).

:class:`SlidingWindowNode` lands cuts in a preallocated ring buffer
(one ``(capacity, n_trajectories, n_observables)`` array), a slide is a
pointer bump (amortised O(1), no per-slide matrix rebuild),
:class:`~repro.sim.trajectory.CutBlock` batches are bulk-copied in one
slice assignment, and per-cut statistics are computed **incrementally**
-- once per arriving cut, vectorised over each block -- instead of being
recomputed over the whole window at every emission (overlapping windows
share them for free).  The list-of-cuts windower it replaced lives on as
the test oracle in ``tests/oracles.py``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.analysis.stats import block_statistics
from repro.ff.node import GO_ON, Node
from repro.sim.trajectory import Cut, CutBlock


class Window:
    """``size`` consecutive cuts; ``index`` counts emitted windows.

    Columnar: ``data`` is ``(n_cuts, n_trajectories, n_observables)``,
    ``times`` / ``grid_indices`` are 1-D (``grid_indices`` defaults to
    ``0 .. n_cuts - 1``).  ``cut_stats`` optionally carries per-cut
    :class:`~repro.analysis.stats.CutStatistics` precomputed upstream.
    """

    __slots__ = ("index", "times", "grid_indices", "data", "cut_stats",
                 "_cuts")

    def __init__(self, index: int, *, times: np.ndarray, data: np.ndarray,
                 grid_indices: Optional[np.ndarray] = None,
                 cut_stats: Optional[list] = None):
        self.index = index
        self.cut_stats = cut_stats
        self._cuts: Optional[list[Cut]] = None
        self.times = np.asarray(times, dtype=float)
        self.data = np.asarray(data, dtype=float)
        if grid_indices is None:
            grid_indices = np.arange(len(self.times))
        self.grid_indices = np.asarray(grid_indices, dtype=np.int64)

    @property
    def cuts(self) -> list[Cut]:
        """List-of-:class:`Cut` view (lazy; shares the window's memory)."""
        if self._cuts is None:
            self._cuts = [
                Cut(int(self.grid_indices[i]), float(self.times[i]),
                    data=self.data[i])
                for i in range(len(self.times))]
        return self._cuts

    @property
    def n_trajectories(self) -> int:
        return self.data.shape[1]

    @property
    def n_observables(self) -> int:
        return self.data.shape[2]

    @property
    def start_time(self) -> float:
        return float(self.times[0])

    @property
    def end_time(self) -> float:
        return float(self.times[-1])

    def trajectory_matrix(self, observable: int) -> list[list[float]]:
        """``matrix[trajectory][cut]`` for one observable -- the per-window
        view a k-means engine clusters."""
        return self.data[:, :, observable].T.tolist()

    def trajectory_matrix_array(self, observable: int) -> np.ndarray:
        """``(n_trajectories, n_cuts)`` array for one observable."""
        return np.ascontiguousarray(self.data[:, :, observable].T)

    def __len__(self) -> int:
        return len(self.times)

    def __repr__(self) -> str:
        return (f"<Window #{self.index} cuts={len(self)} "
                f"n={self.data.shape[1] if self.data.ndim == 3 else 0}>")


class SlidingWindowNode(Node):
    """Re-frame the cut stream into overlapping windows (columnar).

    Accepts :class:`Cut` and :class:`CutBlock` inputs.  The buffer is a
    preallocated array of ``2 * size`` rows used as a compacting ring:
    arrivals append at the tail (block arrivals as one slice copy), a
    slide advances the head pointer, and when the tail hits capacity the
    live rows are moved to the front in one ``memmove``-style copy --
    amortised O(1) per cut, never a per-slide rebuild.

    Per-cut statistics are computed once per arriving cut -- vectorised
    per block -- and emitted on each window (``Window.cut_stats``), so
    downstream engines never recompute statistics for the cuts
    overlapping windows share.

    With ``emit_partial_tail=True`` a final, shorter window is emitted at
    end-of-stream if some cuts never filled a whole window (so short runs
    still produce output).
    """

    def __init__(self, size: int, slide: int | None = None,
                 emit_partial_tail: bool = True, name: str = "windows"):
        super().__init__(name=name)
        if size < 1:
            raise ValueError(f"window size must be >= 1, got {size}")
        self.size = size
        self.slide = slide if slide is not None else size
        if self.slide < 1 or self.slide > size:
            raise ValueError(
                f"slide must be in [1, size], got {self.slide}")
        self.emit_partial_tail = emit_partial_tail
        self._capacity = 2 * size
        self._data: Optional[np.ndarray] = None   # (capacity, n_traj, n_obs)
        self._times: Optional[np.ndarray] = None
        self._grids: Optional[np.ndarray] = None
        self._stats: Optional[list] = None        # parallel CutStatistics ring
        self._head = 0   # index of the oldest buffered cut
        self._tail = 0   # one past the newest buffered cut
        self._emitted = 0

    def svc_init(self) -> None:
        # Reset per-run state: without this, a second run of the same
        # structure would continue window indices and leak buffered cuts
        # from the previous stream.
        self._data = None
        self._times = None
        self._grids = None
        self._stats = None
        self._head = 0
        self._tail = 0
        self._emitted = 0

    # ------------------------------------------------------------------
    def _allocate(self, n_trajectories: int, n_observables: int) -> None:
        self._data = np.empty(
            (self._capacity, n_trajectories, n_observables), dtype=float)
        self._times = np.empty(self._capacity, dtype=float)
        self._grids = np.empty(self._capacity, dtype=np.int64)
        self._stats = [None] * self._capacity

    def _compact(self) -> None:
        """Move the live rows to the front (amortised O(1) per cut)."""
        head, tail = self._head, self._tail
        count = tail - head
        if head == 0:
            return
        self._data[:count] = self._data[head:tail]
        self._times[:count] = self._times[head:tail]
        self._grids[:count] = self._grids[head:tail]
        self._stats[:count] = self._stats[head:tail]
        self._head = 0
        self._tail = count

    def svc(self, item):
        if isinstance(item, CutBlock):
            times = item.times
            grids = item.grid_indices
            data = item.data
        elif isinstance(item, Cut):
            times = np.array([item.time])
            grids = np.array([item.grid_index], dtype=np.int64)
            data = item.data[None, :, :]
        else:
            raise TypeError(
                f"window node received {type(item).__name__}, "
                "expected Cut or CutBlock")
        if self._data is None:
            self._allocate(data.shape[1], data.shape[2])
        stats = block_statistics(grids, times, data)
        offset = 0
        n_new = data.shape[0]
        while offset < n_new:
            room_to_full = self.size - (self._tail - self._head)
            take = min(n_new - offset, room_to_full,
                       self._capacity - self._tail)
            if take == 0:
                # tail hit capacity before the window filled: compact
                self._compact()
                continue
            lo, hi = self._tail, self._tail + take
            self._data[lo:hi] = data[offset:offset + take]
            self._times[lo:hi] = times[offset:offset + take]
            self._grids[lo:hi] = grids[offset:offset + take]
            self._stats[lo:hi] = stats[offset:offset + take]
            self._tail = hi
            offset += take
            if self._tail - self._head == self.size:
                self._emit_window(self.size)
                self._head += self.slide  # O(1) slide: a pointer bump
        return GO_ON

    def _emit_window(self, length: int) -> None:
        lo, hi = self._head, self._head + length
        window = Window(
            self._emitted,
            times=self._times[lo:hi].copy(),
            grid_indices=self._grids[lo:hi].copy(),
            data=self._data[lo:hi].copy(),
            cut_stats=list(self._stats[lo:hi]))
        self.ff_send_out(window)
        self._emitted += 1
        self.trace_incr("analysis.windows", 1)
        self.trace_incr("analysis.window_slides", 1)

    def svc_end(self) -> None:
        count = self._tail - self._head
        if (self.emit_partial_tail and count
                and (self._emitted == 0 or self.slide == self.size
                     or count > self.size - self.slide)):
            self._emit_window(count)
        self._head = self._tail = 0

    @property
    def windows_emitted(self) -> int:
        return self._emitted
