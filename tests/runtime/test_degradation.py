"""Tests of :mod:`repro.runtime.degradation` (the Zhai-style tracker).

Every behaviour test runs at ``R = 1`` (a solo run) and at ``R = 4``: the
series under test is fed to one lane while the other lanes see a different
series, so leakage between lanes would show.  The property at the end checks
the vectorized tracker against ``R`` frozen reference trackers bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.runtime.degradation import BatchDegradationTracker
from repro.runtime.reference import ReferenceDegradationTracker

#: Batch widths every behaviour test runs at.
REPLICAS = (1, 4)


def feed(times, replicas):
    """Feed ``times`` to the last lane of a fresh tracker.

    The other lanes observe the same times reversed and doubled, so their
    state differs from the lane under test at every step.
    """
    tracker = BatchDegradationTracker(replicas)
    for t, other in zip(times, reversed(times)):
        row = np.full(replicas, 2.0 * other)
        row[-1] = t
        tracker.observe(row)
    return tracker


def lane_degradation(times, replicas):
    """Degradation of the lane fed ``times`` in a batch of ``replicas``."""
    return feed(times, replicas).degradation_of(replicas - 1)


class TestDegradationTracker:
    def test_first_observation_sets_reference(self):
        for replicas in REPLICAS:
            assert lane_degradation([2.0], replicas) == 0.0
            # The second time is smoothed against the first, which is the
            # reference: ((2 + 4) / 2) - 2 = 1.
            assert lane_degradation([2.0, 4.0], replicas) == 1.0

    def test_constant_times_accumulate_nothing(self):
        for replicas in REPLICAS:
            assert lane_degradation([3.0] * 10, replicas) == 0.0

    def test_growing_times_accumulate(self):
        for replicas in REPLICAS:
            # Smoothed times 1, 1.5, 2 against reference 1: 0 + 0.5 + 1.
            assert lane_degradation([1.0, 2.0, 3.0], replicas) == 1.5

    def test_median_smoothing_absorbs_single_spike(self):
        for replicas in REPLICAS:
            # median(1, 1, 50) = 1 -> no degradation.
            assert lane_degradation([1.0, 1.0, 50.0], replicas) == 0.0

    def test_sustained_increase_is_registered(self):
        for replicas in REPLICAS:
            assert lane_degradation([1.0, 5.0, 5.0, 5.0], replicas) > 0.0

    def test_faster_iterations_can_reduce_accumulation(self):
        for replicas in REPLICAS:
            # Smoothed times 4, 3, 2 against reference 4: 0 - 1 - 2.
            assert lane_degradation([4.0, 2.0, 2.0], replicas) == -3.0

    def test_reset_clears_state(self):
        for replicas in REPLICAS:
            tracker = feed([1.0, 3.0, 5.0], replicas)
            lane = replicas - 1
            others = tracker.degradations.copy()
            tracker.reset_replica(lane)
            assert tracker.degradation_of(lane) == 0.0
            # Only the reset lane is cleared.
            others[lane] = 0.0
            assert np.array_equal(tracker.degradations, others)
            # The next time becomes the new reference.
            row = np.ones(replicas)
            row[lane] = 10.0
            tracker.observe(row)
            assert tracker.degradation_of(lane) == 0.0

    def test_reset_clears_smoothing_window(self):
        for replicas in REPLICAS:
            tracker = feed([100.0, 100.0], replicas)
            lane = replicas - 1
            tracker.reset_replica(lane)
            row = np.ones(replicas)
            tracker.observe(row)
            tracker.observe(row)
            # Old 100s must not leak into the new window's median.
            assert tracker.degradation_of(lane) == 0.0

    def test_negative_time_rejected(self):
        for replicas in REPLICAS:
            tracker = BatchDegradationTracker(replicas)
            row = np.ones(replicas)
            row[-1] = -1.0
            with pytest.raises(ValueError):
                tracker.observe(row)

    def test_invalid_replicas(self):
        with pytest.raises(ValueError):
            BatchDegradationTracker(0)
        with pytest.raises(ValueError):
            BatchDegradationTracker(2).observe(np.ones(3))
        with pytest.raises(ValueError):
            BatchDegradationTracker(2).reset_replica(2)

    def test_observe_returns_running_total(self):
        for replicas in REPLICAS:
            tracker = BatchDegradationTracker(replicas)
            totals = [
                tracker.observe(np.full(replicas, t)).tolist()
                for t in (1.0, 2.0, 2.0)
            ]
            # Smoothed times 1, 1.5, 2 against reference 1.
            assert [t[-1] for t in totals] == [0.0, 0.5, 1.5]
            assert tracker.observe(np.full(replicas, 2.0)) is tracker.degradations

    @given(
        times=st.lists(
            st.floats(min_value=0.0, max_value=1e3), min_size=1, max_size=60
        )
    )
    def test_property_window_maximum_bound(self, times):
        """The accumulated degradation is bounded by replacing the median of
        each smoothing window with its maximum (median <= max), and bounded
        below by replacing it with the window minimum."""
        degradation = lane_degradation(times, 1)
        assert lane_degradation(times, 4) == degradation
        reference = times[0]
        upper = sum(
            max(times[max(0, i - 2) : i + 1]) - reference for i in range(len(times))
        )
        lower = sum(
            min(times[max(0, i - 2) : i + 1]) - reference for i in range(len(times))
        )
        assert lower - 1e-9 <= degradation <= upper + 1e-9

    @given(slope=st.floats(min_value=0.0, max_value=10.0))
    def test_property_linear_ramp_quadratic_accumulation(self, slope):
        """On a linear ramp the median of three lags one iteration behind, so
        the accumulation is slope / 2 (two-sample warm-up) plus
        slope * (1 + 2 + ... + n-2)."""
        n = 20
        ramp = [1.0 + slope * i for i in range(n)]
        expected = slope / 2.0 + slope * (n - 2) * (n - 1) / 2.0
        for replicas in REPLICAS:
            degradation = lane_degradation(ramp, replicas)
            assert degradation == pytest.approx(expected, rel=1e-9, abs=1e-9)


@st.composite
def lane_schedules(draw):
    """An ``(R, T)`` time series plus per-lane reset points.

    Times include zero and exact repeats so ties in the median occur; each
    lane resets after a random subset of its iterations, independently of
    the other lanes (as replicas of a batch fire their LB steps).
    """
    replicas = draw(st.integers(min_value=1, max_value=6))
    steps = draw(st.integers(min_value=1, max_value=40))
    value = st.one_of(
        st.sampled_from([0.0, 1.0, 2.5]),
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    )
    times = draw(
        st.lists(
            st.lists(value, min_size=replicas, max_size=replicas),
            min_size=steps,
            max_size=steps,
        )
    )
    resets = draw(
        st.lists(
            st.lists(st.booleans(), min_size=replicas, max_size=replicas),
            min_size=steps,
            max_size=steps,
        )
    )
    return replicas, times, resets


class TestReferenceEquivalence:
    @given(schedule=lane_schedules())
    def test_property_observe_equals_reference_trackers(self, schedule):
        """``observe`` on ``(R,)`` times equals ``R`` reference trackers
        (``np.median`` smoothing) bit for bit, through per-lane resets."""
        replicas, times, resets = schedule
        batch = BatchDegradationTracker(replicas)
        scalars = [ReferenceDegradationTracker() for _ in range(replicas)]
        for row, reset in zip(times, resets):
            got = batch.observe(np.asarray(row))
            want = [tracker.observe(t) for tracker, t in zip(scalars, row)]
            assert got.tobytes() == np.asarray(want, dtype=float).tobytes()
            for lane, fire in enumerate(reset):
                if fire:
                    batch.reset_replica(lane)
                    scalars[lane].reset()
                    assert batch.degradation_of(lane) == 0.0
