"""Zhai-style performance-degradation tracking (Algorithm 1, lines 10-16).

The adaptive criterion used by both methods in the paper's numerical study
computes, at every iteration, the *exact degradation with respect to a
reference iteration* (the one right after the last LB call):

* the per-iteration time is smoothed with the median over the current and
  the two previous iterations (line 14);
* the difference between the smoothed time and the reference time is
  accumulated (line 15);
* the load balancer is invoked once the accumulation reaches the average LB
  cost (line 16) -- plus, for ULBA, the underloading overhead.

:class:`BatchDegradationTracker` implements the accumulation for ``R``
replicas at once (a solo run is a batch of one); the comparison to the
threshold lives in the trigger policies of :mod:`repro.lb.adaptive`.
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import check_positive_int

__all__ = ["BatchDegradationTracker"]


class BatchDegradationTracker:
    """``R`` degradation accumulators advanced with one vectorized update.

    The replica-batched runner observes every replica's iteration time at
    once; all tracker state lives in ``(R,)`` vectors and one
    :meth:`observe` performs the window-3 median smoothing and accumulation
    elementwise.  The median of the last one, two or three times is pure
    min/max/mean arithmetic, so every lane produces the same bits as one
    :class:`repro.runtime.reference.ReferenceDegradationTracker` (whose
    smoothing is ``np.median``) fed that lane's times and resets.  Only the
    paper's window of 3 is supported.
    """

    def __init__(self, replicas: int) -> None:
        check_positive_int(replicas, "replicas")
        self.replicas = replicas
        self.window = 3
        self._recent = np.zeros((replicas, 3), dtype=float)
        self._count = np.zeros(replicas, dtype=np.int64)
        self._reference = np.zeros(replicas, dtype=float)
        self._has_reference = np.zeros(replicas, dtype=bool)
        self._degradation = np.zeros(replicas, dtype=float)

    # ------------------------------------------------------------------
    @property
    def degradations(self) -> np.ndarray:
        """Accumulated degradation per replica since its last reset (s)."""
        return self._degradation

    def degradation_of(self, replica: int) -> float:
        """Accumulated degradation of one replica (seconds)."""
        return float(self._degradation[replica])

    def observe(self, iteration_times: np.ndarray) -> np.ndarray:
        """Record every replica's iteration time; returns the degradations."""
        times = np.asarray(iteration_times, dtype=float)
        if times.shape != (self.replicas,):
            raise ValueError(
                f"iteration_times must have shape ({self.replicas},), "
                f"got {times.shape}"
            )
        if (times < 0).any():
            raise ValueError("iteration_times must all be >= 0")
        # Slide the window (column 2 = newest observation).
        self._recent[:, 0] = self._recent[:, 1]
        self._recent[:, 1] = self._recent[:, 2]
        self._recent[:, 2] = times
        np.copyto(self._reference, times, where=~self._has_reference)
        self._has_reference[:] = True
        self._count += 1

        a = self._recent[:, 0]
        b = self._recent[:, 1]
        c = self._recent[:, 2]
        # Median of the last min(count, 3) times, elementwise per lane.
        median3 = np.maximum(np.minimum(a, b), np.minimum(np.maximum(a, b), c))
        median2 = (b + c) / 2.0
        smoothed = np.where(
            self._count >= 3, median3, np.where(self._count == 2, median2, c)
        )
        self._degradation += smoothed - self._reference
        return self._degradation

    def reset_replica(self, replica: int) -> None:
        """Reset one replica after its LB step (next time = new reference)."""
        if not 0 <= replica < self.replicas:
            raise ValueError(f"replica {replica} outside [0, {self.replicas})")
        self._recent[replica] = 0.0
        self._count[replica] = 0
        self._reference[replica] = 0.0
        self._has_reference[replica] = False
        self._degradation[replica] = 0.0
