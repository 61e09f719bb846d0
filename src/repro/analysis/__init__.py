"""repro.analysis: on-line mining of simulation results (Fig. 2, right).

The analysis pipeline receives the stream of time-aligned cuts, groups
them into sliding windows, and runs a farm of *statistical engines* over
the windows: per-cut mean/variance/quantiles, k-means clustering of
trajectories (to discover multi-stable behaviour), smoothing filters, and
oscillation-period mining (the quantity the paper's cloud experiment
reports: "the moving average ... of the local period").
"""

from repro.analysis.stats import (
    OnlineStats,
    CutStatistics,
    block_statistics,
    cut_statistics,
)
from repro.analysis.windows import SlidingWindowNode, Window
from repro.analysis.kmeans import kmeans, kmeans_array, KMeansResult
from repro.analysis.filters import (
    exponential_smoothing,
    exponential_smoothing_block,
    moving_average,
    moving_average_array,
)
from repro.analysis.peaks import (
    find_peaks,
    local_periods,
    PeriodEstimate,
    estimate_period,
)
from repro.analysis.engines import StatEngineNode, WindowStatistics, GatherNode
from repro.analysis.histogram import Histogram, histogram
from repro.analysis.periodogram import (
    autocorrelation,
    autocorrelation_array,
    period_by_autocorrelation,
    AcfPeriod,
)

__all__ = [
    "OnlineStats",
    "cut_statistics",
    "block_statistics",
    "CutStatistics",
    "Window",
    "SlidingWindowNode",
    "kmeans",
    "kmeans_array",
    "KMeansResult",
    "moving_average",
    "moving_average_array",
    "exponential_smoothing",
    "exponential_smoothing_block",
    "find_peaks",
    "local_periods",
    "PeriodEstimate",
    "estimate_period",
    "StatEngineNode",
    "WindowStatistics",
    "GatherNode",
    "Histogram",
    "histogram",
    "autocorrelation",
    "autocorrelation_array",
    "period_by_autocorrelation",
    "AcfPeriod",
]
