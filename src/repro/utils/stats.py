"""Statistical helpers shared across the library.

These helpers implement the small amount of statistics the paper relies on:

* **z-scores** -- Algorithm 1 flags a processing element as *overloading*
  when the z-score of its workload increase rate within the cluster-wide
  distribution exceeds a threshold (3.0 in the paper).
* **box-plot and histogram summaries** -- Figures 2 and 3 report
  distributions of gains; the experiment drivers reduce raw samples to the
  same summaries so the benchmark harness can print paper-comparable rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import numpy as np

__all__ = [
    "zscore",
    "relative_gain",
    "mean_confidence_interval",
    "BoxPlotSummary",
    "box_plot_summary",
    "HistogramSummary",
    "histogram_summary",
]


def _normal_quantile(p: float) -> float:
    """Standard-normal quantile by bisection on ``math.erf`` (no SciPy).

    Accurate to ~1e-12 over the confidence levels used here; the classic
    values come out exactly (``_normal_quantile(0.975)`` ~ 1.95996).
    """
    import math

    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie in (0, 1), got {p}")
    lo, hi = -10.0, 10.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if 0.5 * (1.0 + math.erf(mid / math.sqrt(2.0))) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def mean_confidence_interval(
    values: Sequence[float], *, confidence: float = 0.95
) -> Tuple[float, float]:
    """Mean and CI half-width of ``values`` (normal approximation).

    Returns ``(mean, half_width)`` where the interval is ``mean +/-
    half_width`` at the requested ``confidence`` level, using the
    sample standard deviation (``ddof=1``) and the normal quantile --
    the replica counts of batched runs (tens of replicas) make the
    normal approximation adequate for reporting, and it keeps the
    library dependency-free.  Fewer than two samples yield a zero
    half-width.
    """
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        raise ValueError("values must not be empty")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must lie in (0, 1), got {confidence}")
    mean = float(arr.mean())
    if arr.size < 2:
        return mean, 0.0
    sem = float(arr.std(ddof=1)) / float(np.sqrt(arr.size))
    z = _normal_quantile(0.5 + confidence / 2.0)
    return mean, z * sem


def zscore(value: float, population: Sequence[float]) -> float:
    """Return the z-score of ``value`` within ``population``.

    If the population has zero standard deviation the z-score is defined as
    0.0 (no element can be an outlier of a constant distribution), which is
    the behaviour Algorithm 1 needs right after a perfectly balanced step.
    """
    pop = np.asarray(list(population), dtype=float)
    if pop.size == 0:
        raise ValueError("population must not be empty")
    mean = float(pop.mean())
    std = float(pop.std())
    if std == 0.0:
        return 0.0
    return (float(value) - mean) / std


def relative_gain(baseline: float, candidate: float) -> float:
    """Relative gain of ``candidate`` over ``baseline``.

    Positive values mean the candidate is *faster* (smaller time).  This is
    the quantity plotted in Figures 2 and 3:
    ``gain = (baseline - candidate) / baseline``.
    """
    if baseline == 0.0:
        raise ZeroDivisionError("baseline time must be non-zero")
    return (baseline - candidate) / baseline


@dataclass(frozen=True)
class BoxPlotSummary:
    """Five-number summary (plus mean) of a sample, as used by Figure 3."""

    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float
    mean: float
    count: int

    def as_row(self) -> Tuple[float, float, float, float, float, float, int]:
        """Return the summary as a plain tuple (useful for table printing)."""
        return (
            self.minimum,
            self.q1,
            self.median,
            self.q3,
            self.maximum,
            self.mean,
            self.count,
        )


def box_plot_summary(samples: Sequence[float]) -> BoxPlotSummary:
    """Compute the :class:`BoxPlotSummary` of ``samples``."""
    arr = np.asarray(list(samples), dtype=float)
    if arr.size == 0:
        raise ValueError("samples must not be empty")
    q1, med, q3 = np.percentile(arr, [25.0, 50.0, 75.0])
    minimum = float(arr.min())
    maximum = float(arr.max())
    # The clamp guards against pairwise summation rounding the mean one ulp
    # outside [min, max] for near-constant samples.
    mean = min(max(float(arr.mean()), minimum), maximum)
    return BoxPlotSummary(
        minimum=minimum,
        q1=float(q1),
        median=float(med),
        q3=float(q3),
        maximum=maximum,
        mean=mean,
        count=int(arr.size),
    )


@dataclass(frozen=True)
class HistogramSummary:
    """Histogram of a sample, as used by Figure 2.

    Attributes
    ----------
    edges:
        Bin edges (length ``len(densities) + 1``).
    densities:
        Probability mass per bin (sums to 1 over all bins).
    mean, minimum, maximum:
        Moments of the raw sample, reported in the paper's text
        (average/best/worst gain).
    """

    edges: Tuple[float, ...]
    densities: Tuple[float, ...]
    mean: float
    minimum: float
    maximum: float
    count: int
    below_zero_fraction: float = field(default=0.0)

    def as_series(self) -> List[Tuple[float, float]]:
        """Return ``(bin_center, probability)`` pairs."""
        centers = 0.5 * (np.asarray(self.edges[:-1]) + np.asarray(self.edges[1:]))
        return list(zip(centers.tolist(), list(self.densities)))


def histogram_summary(samples: Sequence[float], bins: int = 20) -> HistogramSummary:
    """Compute a probability histogram of ``samples`` with ``bins`` bins."""
    arr = np.asarray(list(samples), dtype=float)
    if arr.size == 0:
        raise ValueError("samples must not be empty")
    if bins <= 0:
        raise ValueError(f"bins must be positive, got {bins}")
    counts, edges = np.histogram(arr, bins=bins)
    total = counts.sum()
    densities = counts / total if total > 0 else counts.astype(float)
    return HistogramSummary(
        edges=tuple(float(e) for e in edges),
        densities=tuple(float(d) for d in densities),
        mean=float(arr.mean()),
        minimum=float(arr.min()),
        maximum=float(arr.max()),
        count=int(arr.size),
        below_zero_fraction=float((arr < 0.0).mean()),
    )
