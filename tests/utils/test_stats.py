"""Tests of :mod:`repro.utils.stats`."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.utils.stats import (
    box_plot_summary,
    histogram_summary,
    mean_confidence_interval,
    relative_gain,
    zscore,
)

finite_floats = st.floats(
    min_value=-1e9, max_value=1e9, allow_nan=False, allow_infinity=False
)


class TestZScore:
    def test_zero_for_mean_value(self):
        assert zscore(2.0, [1.0, 2.0, 3.0]) == pytest.approx(0.0)

    def test_known_value(self):
        # Population [0, 0, 0, 4]: mean 1, std sqrt(3); z(4) = 3/sqrt(3).
        assert zscore(4.0, [0.0, 0.0, 0.0, 4.0]) == pytest.approx(3.0 / math.sqrt(3.0))

    def test_constant_population_returns_zero(self):
        assert zscore(5.0, [5.0, 5.0, 5.0]) == 0.0

    def test_empty_population_raises(self):
        with pytest.raises(ValueError):
            zscore(1.0, [])

    def test_symmetry(self):
        pop = [1.0, 2.0, 3.0, 4.0, 5.0]
        assert zscore(1.0, pop) == pytest.approx(-zscore(5.0, pop))

    @given(st.lists(finite_floats, min_size=2, max_size=20), finite_floats)
    def test_property_matches_vectorised(self, population, value):
        population = population + [value]
        pop = np.asarray(population)
        std = pop.std()
        expected = 0.0 if std == 0.0 else (value - pop.mean()) / std
        assert zscore(value, population) == pytest.approx(expected, abs=1e-9)

    def test_single_outlier_bound(self):
        """One outlier among P values has z-score sqrt(P - 1) at most.

        This bound explains why the paper's threshold of 3.0 needs at least
        ~10 PEs to ever flag anything -- documented behaviour of the
        overload detector.
        """
        for p in (4, 9, 16, 36):
            pop = [0.0] * (p - 1) + [100.0]
            assert zscore(100.0, pop) == pytest.approx(math.sqrt(p - 1))


class TestRelativeGain:
    def test_faster_candidate_is_positive(self):
        assert relative_gain(10.0, 8.0) == pytest.approx(0.2)

    def test_slower_candidate_is_negative(self):
        assert relative_gain(10.0, 12.0) == pytest.approx(-0.2)

    def test_equal_times_zero(self):
        assert relative_gain(5.0, 5.0) == 0.0

    def test_zero_baseline_raises(self):
        with pytest.raises(ZeroDivisionError):
            relative_gain(0.0, 1.0)

    @given(
        baseline=st.floats(min_value=1e-3, max_value=1e6),
        candidate=st.floats(min_value=0.0, max_value=1e6),
    )
    def test_property_sign(self, baseline, candidate):
        gain = relative_gain(baseline, candidate)
        if candidate < baseline:
            assert gain > 0
        elif candidate > baseline:
            assert gain < 0
        else:
            assert gain == 0


class TestMeanConfidenceInterval:
    """Degenerate-sample regression guard.

    The interval feeds :meth:`repro.batch.result.BatchResult.aggregate` and
    from there the persisted JSON artifacts, so a single-sample batch must
    yield a finite zero-width interval -- never a NaN that silently
    propagates into the reports.
    """

    def test_two_samples_known_value(self):
        mean, half = mean_confidence_interval([1.0, 3.0], confidence=0.95)
        assert mean == 2.0
        # std(ddof=1) = sqrt(2), sem = 1; z(0.975) ~ 1.95996.
        assert half == pytest.approx(1.959964, rel=1e-5)

    def test_single_sample_zero_width(self):
        mean, half = mean_confidence_interval([4.25])
        assert (mean, half) == (4.25, 0.0)
        assert math.isfinite(mean) and math.isfinite(half)

    def test_single_sample_ndarray_zero_width(self):
        mean, half = mean_confidence_interval(np.asarray([7]))
        assert (mean, half) == (7.0, 0.0)

    def test_empty_sample_raises(self):
        with pytest.raises(ValueError, match="must not be empty"):
            mean_confidence_interval([])
        with pytest.raises(ValueError, match="must not be empty"):
            mean_confidence_interval(np.empty(0))

    def test_constant_samples_zero_width(self):
        mean, half = mean_confidence_interval([2.5] * 8)
        assert (mean, half) == (2.5, 0.0)

    def test_bad_confidence_rejected(self):
        for confidence in (0.0, 1.0, -0.1, 2.0):
            with pytest.raises(ValueError, match="confidence"):
                mean_confidence_interval([1.0, 2.0], confidence=confidence)

    @given(st.lists(finite_floats, min_size=1, max_size=30))
    def test_property_always_finite(self, samples):
        mean, half = mean_confidence_interval(samples)
        assert math.isfinite(mean)
        assert math.isfinite(half) and half >= 0.0

    def test_single_replica_batch_aggregate_is_nan_free(self):
        """End-to-end: a one-replica batch produces finite JSON aggregates."""
        import json

        from repro.api import RunConfig, ScenarioConfig, Session

        cfg = RunConfig(
            scenario=ScenarioConfig(
                columns_per_pe=16, rows=16, iterations=8, seed=0
            )
        )
        batch = Session.from_config(cfg).run_batch(seeds=[0])
        aggregate = batch.aggregate()
        assert aggregate["replicas"] == 1
        for key, value in aggregate.items():
            assert math.isfinite(float(value)), key
        assert aggregate["total_time_ci"] == 0.0
        json.dumps(batch.summary())  # artifact-ready, no NaN tokens


class TestBoxPlotSummary:
    def test_five_number_summary(self):
        summary = box_plot_summary([1.0, 2.0, 3.0, 4.0, 5.0])
        assert summary.minimum == 1.0
        assert summary.median == 3.0
        assert summary.maximum == 5.0
        assert summary.mean == 3.0
        assert summary.count == 5

    def test_quartiles_ordered(self):
        summary = box_plot_summary([5.0, 1.0, 9.0, 3.0, 7.0, 2.0])
        assert summary.minimum <= summary.q1 <= summary.median
        assert summary.median <= summary.q3 <= summary.maximum

    def test_single_sample(self):
        summary = box_plot_summary([4.2])
        assert summary.minimum == summary.maximum == summary.median == 4.2

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            box_plot_summary([])

    def test_as_row_shape(self):
        row = box_plot_summary([1.0, 2.0]).as_row()
        assert len(row) == 7

    @given(st.lists(finite_floats, min_size=1, max_size=50))
    def test_property_ordering(self, samples):
        s = box_plot_summary(samples)
        assert s.minimum <= s.q1 <= s.median <= s.q3 <= s.maximum
        assert s.minimum <= s.mean <= s.maximum


class TestHistogramSummary:
    def test_densities_sum_to_one(self):
        h = histogram_summary([1.0, 2.0, 2.0, 3.0], bins=4)
        assert sum(h.densities) == pytest.approx(1.0)

    def test_edges_length(self):
        h = histogram_summary(list(range(10)), bins=5)
        assert len(h.edges) == len(h.densities) + 1

    def test_moments(self):
        h = histogram_summary([-1.0, 0.0, 1.0], bins=3)
        assert h.minimum == -1.0
        assert h.maximum == 1.0
        assert h.mean == pytest.approx(0.0)
        assert h.count == 3

    def test_below_zero_fraction(self):
        h = histogram_summary([-1.0, -0.5, 0.5, 1.0], bins=4)
        assert h.below_zero_fraction == pytest.approx(0.5)

    def test_as_series_pairs(self):
        h = histogram_summary([0.0, 1.0, 2.0, 3.0], bins=2)
        series = h.as_series()
        assert len(series) == 2
        centers = [c for c, _ in series]
        assert centers == sorted(centers)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            histogram_summary([])

    def test_bad_bins_raises(self):
        with pytest.raises(ValueError):
            histogram_summary([1.0], bins=0)

    @given(st.lists(finite_floats, min_size=1, max_size=100), st.integers(1, 30))
    def test_property_probability_mass(self, samples, bins):
        h = histogram_summary(samples, bins=bins)
        assert sum(h.densities) == pytest.approx(1.0)
        assert all(d >= 0.0 for d in h.densities)
