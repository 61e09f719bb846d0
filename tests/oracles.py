"""Test oracles: the scalar reference twins of the production path.

``src/`` has one implementation per concern: the columnar aligner,
ring-buffer windower and vectorised statistical engine, and one wire
format.  The per-sample implementations they replaced live here, as
plain-Python references the equivalence tests and the "before" side of
the benchmarks compare against:

* :class:`ScalarTrajectoryAligner` -- dict-of-tuples alignment, one
  :class:`~repro.sim.trajectory.Cut` per grid point;
* :class:`ScalarSlidingWindowNode` -- a windower over a Python list of
  cuts;
* :class:`ScalarStatEngineNode` -- per-cut :func:`cut_statistics`, scalar
  :func:`kmeans`, an :class:`OnlineStats` confidence-interval loop;
* :func:`oracle_windows` -- the three chained, fed by a run's tasks
  driven directly (no runtime, no transport);
* :func:`encode_legacy_frame` / :func:`decode_legacy_frame` -- the fully
  checksummed single-pickle ``CW`` frames of earlier versions, the
  baseline of ``benchmarks/bench_transport.py``;
* :class:`RowResult` -- the row-form quantum result those versions
  shipped, the native input of the scalar aligner in
  ``benchmarks/bench_analysis_throughput.py``.
"""

from __future__ import annotations

import math
import pickle
import struct
import zlib
from typing import Any

import numpy as np

from repro.analysis.engines import StatEngineNode, WindowStatistics
from repro.analysis.filters import moving_average
from repro.analysis.histogram import histogram
from repro.analysis.kmeans import kmeans
from repro.analysis.stats import OnlineStats, ci_half_width, cut_statistics
from repro.analysis.windows import Window
from repro.distributed.message import FrameError
from repro.ff.node import GO_ON, Node
from repro.sim.task import QuantumResult, ResultBlock, make_tasks
from repro.sim.trajectory import Cut, CutBlock


class RowResult:
    """A row-form quantum result: ``samples`` is a list of ``(grid
    index, time, observable tuple)`` triples in time order."""

    __slots__ = ("task_id", "samples")

    def __init__(self, task_id: int, samples: list):
        self.task_id = task_id
        self.samples = samples

    def release(self) -> None:
        """Row results own no shared-memory segment."""


class ScalarTrajectoryAligner(Node):
    """Reference collector emitting one :class:`Cut` per grid point."""

    def __init__(self, n_trajectories: int, name: str = "align"):
        super().__init__(name=name)
        if n_trajectories < 1:
            raise ValueError("n_trajectories must be >= 1")
        self.n_trajectories = n_trajectories
        # grid index -> {task_id: values}; times recorded separately
        self._pending: dict[int, dict[int, tuple[float, ...]]] = {}
        self._times: dict[int, float] = {}
        self._next_emit = 0
        self.cuts_emitted = 0
        self.max_buffered = 0

    def svc_init(self) -> None:
        self._pending.clear()
        self._times.clear()
        self._next_emit = 0
        self.cuts_emitted = 0
        self.max_buffered = 0

    def svc(self, result):
        if isinstance(result, ResultBlock):
            for member in result.unpack():
                self.svc(member)
            result.release()
            return GO_ON
        if not isinstance(result, (QuantumResult, RowResult)):
            raise TypeError(
                f"aligner received {type(result).__name__}, "
                "expected QuantumResult")
        for grid_index, time, values in result.samples:
            if grid_index < self._next_emit:
                raise ValueError(
                    f"task {result.task_id} re-reported grid point "
                    f"{grid_index} (already emitted)")
            column = self._pending.setdefault(grid_index, {})
            if result.task_id in column:
                raise ValueError(
                    f"task {result.task_id} reported grid point "
                    f"{grid_index} twice")
            column[result.task_id] = values
            self._times[grid_index] = time
        result.release()  # rows are materialised copies by now
        self.max_buffered = max(self.max_buffered, len(self._pending))
        self._emit_ready()
        return GO_ON

    def _emit_ready(self) -> None:
        while True:
            column = self._pending.get(self._next_emit)
            if column is None or len(column) < self.n_trajectories:
                return
            time = self._times.pop(self._next_emit)
            del self._pending[self._next_emit]
            values = [column[task_id]
                      for task_id in range(self.n_trajectories)]
            self.ff_send_out(Cut(grid_index=self._next_emit, time=time,
                                 values=values))
            self.cuts_emitted += 1
            self.trace_incr("align.cuts", 1)
            self._next_emit += 1

    def svc_end(self) -> None:
        self._pending.clear()
        self._times.clear()


def window_from_cuts(index: int, cuts: list[Cut]) -> Window:
    """A :class:`Window` holding ``cuts``, stacked into its arrays.  Its
    per-cut view is the given cuts themselves, so a scalar consumer
    reads the rows the oracle aligner built instead of re-deriving
    them from the arrays."""
    window = Window(
        index,
        times=np.array([c.time for c in cuts], dtype=float),
        grid_indices=np.array([c.grid_index for c in cuts], dtype=np.int64),
        data=np.stack([c.data for c in cuts]))
    window._cuts = list(cuts)
    return window


class ScalarSlidingWindowNode(Node):
    """Reference windower over a Python list of cuts; a slide is a
    single slice deletion."""

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
        self._buffer: list[Cut] = []
        self._emitted = 0

    def svc_init(self) -> None:
        self._buffer = []
        self._emitted = 0

    def svc(self, item):
        if isinstance(item, CutBlock):
            incoming = list(item)
        elif isinstance(item, Cut):
            incoming = [item]
        else:
            raise TypeError(
                f"window node received {type(item).__name__}, "
                "expected Cut or CutBlock")
        for cut in incoming:
            self._buffer.append(cut)
            if len(self._buffer) == self.size:
                self.ff_send_out(window_from_cuts(self._emitted,
                                                  self._buffer))
                self._emitted += 1
                del self._buffer[:self.slide]
        return GO_ON

    def svc_end(self) -> None:
        if (self.emit_partial_tail and self._buffer
                and (self._emitted == 0 or self.slide == self.size
                     or len(self._buffer) > self.size - self.slide)):
            self.ff_send_out(window_from_cuts(self._emitted, self._buffer))
            self._emitted += 1
        self._buffer = []

    @property
    def windows_emitted(self) -> int:
        return self._emitted


class ScalarStatEngineNode(StatEngineNode):
    """Reference statistical engine: every summary computed per sample
    in plain Python from the window's cuts."""

    def _window_ci(self, window: Window
                   ) -> tuple[tuple[float, ...], tuple[float, ...]]:
        cuts = window.cuts
        if not cuts or not cuts[0].values:
            return (), ()
        n_traj = len(cuts[0].values)
        n_obs = len(cuts[0].values[0])
        means, half_widths = [], []
        for obs in range(n_obs):
            acc = OnlineStats()
            for traj in range(n_traj):
                acc.push(math.fsum(cut.values[traj][obs] for cut in cuts)
                         / len(cuts))
            means.append(acc.mean)
            half_widths.append(
                ci_half_width(acc.variance, acc.n, self.confidence))
        return tuple(means), tuple(half_widths)

    def svc(self, window: Window) -> WindowStatistics:
        cuts = window.cuts
        stats = [cut_statistics(cut) for cut in cuts]
        window_mean, half_width = self._window_ci(window)
        result = WindowStatistics(
            window_index=window.index,
            start_time=window.start_time,
            end_time=window.end_time,
            cuts=stats,
            ci_half_width=half_width,
            window_mean=window_mean,
            ci_confidence=self.confidence)
        n_observables = len(stats[0].mean) if stats else 0
        if self.kmeans_k is not None and stats:
            for obs in range(n_observables):
                points = [(v,) for v in cuts[-1].observable(obs)]
                clustered = kmeans(points, self.kmeans_k,
                                   seed=self.kmeans_seed)
                result.clusters[obs] = clustered
                self.trace_incr("analysis.kmeans_iterations",
                                clustered.iterations)
        if self.filter_width is not None:
            for obs in range(n_observables):
                result.filtered_mean[obs] = moving_average(
                    result.mean_series(obs), self.filter_width)
        if self.histogram_bins is not None and stats:
            for obs in range(n_observables):
                result.histograms[obs] = histogram(
                    cuts[-1].observable(obs), n_bins=self.histogram_bins)
        self.windows_processed += 1
        return result


class _Into:
    """Outbox handing every emission straight to ``fn``."""

    def __init__(self, fn):
        self.send = fn


def oracle_windows(model, config) -> list[WindowStatistics]:
    """The oracle chain's output for ``config``: the run's tasks (same
    seed, engine and method) are driven quantum by quantum, in task
    order, and every result goes through the scalar aligner, windower
    and stat engine."""
    tasks = make_tasks(model, config.n_simulations, config.t_end,
                       config.quantum, config.sample_every,
                       seed=config.seed, engine=config.engine,
                       batch_size=config.batch_size,
                       engine_kernel=config.engine_kernel,
                       method=config.method)
    aligner = ScalarTrajectoryAligner(config.n_simulations)
    windower = ScalarSlidingWindowNode(config.window_size,
                                       config.window_slide)
    engine = ScalarStatEngineNode(kmeans_k=config.kmeans_k,
                                  filter_width=config.filter_width,
                                  histogram_bins=config.histogram_bins)
    windows: list[WindowStatistics] = []
    aligner._outbox = _Into(windower.svc)
    windower._outbox = _Into(lambda w: windows.append(engine.svc(w)))
    while tasks:
        for task in tasks:
            outcome = task.run_quantum()
            for result in (outcome if isinstance(outcome, list)
                           else [outcome]):
                aligner.svc(result)
        tasks = [task for task in tasks if not task.done]
    aligner.svc_end()
    windower.svc_end()
    return windows


_LEGACY_MAGIC = b"CW"
_LEGACY_HEADER = struct.Struct(">2sII")


def encode_legacy_frame(obj: Any) -> bytes:
    """Serialise one object into a ``CW`` frame: one pickled payload,
    checksummed in full::

        | magic (2) | length (4, big-endian) | crc32 (4) | payload |
    """
    payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    checksum = zlib.crc32(payload) & 0xFFFFFFFF
    return _LEGACY_HEADER.pack(_LEGACY_MAGIC, len(payload),
                               checksum) + payload


def decode_legacy_frame(data: bytes) -> tuple[Any, bytes]:
    """Decode one ``CW`` frame from ``data``; returns ``(object, rest)``."""
    if len(data) < _LEGACY_HEADER.size:
        raise FrameError(
            f"truncated header: {len(data)} < {_LEGACY_HEADER.size} bytes")
    magic, length, checksum = _LEGACY_HEADER.unpack_from(data)
    if magic != _LEGACY_MAGIC:
        raise FrameError(f"bad magic {magic!r}")
    end = _LEGACY_HEADER.size + length
    if len(data) < end:
        raise FrameError(
            f"truncated payload: have {len(data) - _LEGACY_HEADER.size}, "
            f"need {length}")
    payload = data[_LEGACY_HEADER.size:end]
    if (zlib.crc32(payload) & 0xFFFFFFFF) != checksum:
        raise FrameError("checksum mismatch (corrupted frame)")
    return pickle.loads(payload), data[end:]
