"""Tests of :mod:`repro.partitioning.weighted` (1-D weighted partitioning)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.partitioning.weighted import (
    Partition1D,
    partition_contiguous,
    target_shares_from_alphas,
)
from repro.runtime.reference import _partition_contiguous_ref


class TestPartition1D:
    def test_basic_properties(self):
        p = Partition1D(boundaries=(0, 3, 5, 10))
        assert p.num_parts == 3
        assert p.num_items == 10
        assert p.part_range(0) == (0, 3)
        assert p.part_range(2) == (5, 10)
        assert list(p.part_sizes()) == [3, 2, 5]

    def test_empty_part_allowed(self):
        p = Partition1D(boundaries=(0, 4, 4, 8))
        assert list(p.part_sizes()) == [4, 0, 4]

    def test_validation(self):
        with pytest.raises(ValueError):
            Partition1D(boundaries=(0,))
        with pytest.raises(ValueError):
            Partition1D(boundaries=(1, 5))
        with pytest.raises(ValueError):
            Partition1D(boundaries=(0, 5, 3))

    def test_owner_of(self):
        p = Partition1D(boundaries=(0, 3, 5, 10))
        assert p.owner_of(0) == 0
        assert p.owner_of(2) == 0
        assert p.owner_of(3) == 1
        assert p.owner_of(9) == 2

    def test_owner_of_out_of_range(self):
        p = Partition1D(boundaries=(0, 2, 4))
        with pytest.raises(ValueError):
            p.owner_of(4)
        with pytest.raises(ValueError):
            p.owner_of(-1)

    def test_part_range_out_of_range(self):
        p = Partition1D(boundaries=(0, 2, 4))
        with pytest.raises(ValueError):
            p.part_range(2)

    def test_owners_matches_owner_of(self):
        p = Partition1D(boundaries=(0, 3, 5, 10))
        owners = p.owners()
        assert owners.shape == (10,)
        for item in range(10):
            assert owners[item] == p.owner_of(item)


class TestTargetSharesFromAlphas:
    def test_all_zero_is_even_split(self):
        shares = target_shares_from_alphas([0.0, 0.0, 0.0, 0.0])
        assert np.allclose(shares, 0.25)

    def test_all_overloading_degenerates_to_even(self):
        shares = target_shares_from_alphas([0.5, 0.5, 0.5])
        assert np.allclose(shares, 1.0 / 3.0)

    def test_single_overloading_pe_formula(self):
        """Uniform alpha matches the paper's closed form:
        overloading share (1 - alpha)/P, others (1 + alpha N / (P - N))/P."""
        alpha, P = 0.4, 5
        shares = target_shares_from_alphas([alpha, 0.0, 0.0, 0.0, 0.0])
        assert shares[0] == pytest.approx((1 - alpha) / P)
        assert np.allclose(shares[1:], (1 + alpha * 1 / (P - 1)) / P)

    def test_mixed_alphas(self):
        shares = target_shares_from_alphas([0.2, 0.6, 0.0, 0.0])
        assert shares[0] == pytest.approx(0.8 / 4)
        assert shares[1] == pytest.approx(0.4 / 4)
        surplus = (0.2 + 0.6) / 4
        assert np.allclose(shares[2:], 0.25 + surplus / 2)

    def test_validation(self):
        with pytest.raises(ValueError):
            target_shares_from_alphas([])
        with pytest.raises(ValueError):
            target_shares_from_alphas([0.5, 1.2])
        with pytest.raises(ValueError):
            target_shares_from_alphas([-0.1, 0.0])

    @given(
        alphas=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=64)
    )
    def test_property_shares_sum_to_one(self, alphas):
        shares = target_shares_from_alphas(alphas)
        assert shares.sum() == pytest.approx(1.0)
        assert np.all(shares >= -1e-12)

    @given(
        alphas=st.lists(
            st.floats(min_value=0.0, max_value=1.0), min_size=3, max_size=64
        )
    )
    def test_property_overloading_pes_get_no_more_than_even(self, alphas):
        shares = target_shares_from_alphas(alphas)
        arr = np.asarray(alphas)
        n = len(alphas)
        overloading = arr > 0.0
        if 0 < overloading.sum() < n:
            assert np.all(shares[overloading] <= 1.0 / n + 1e-12)
            assert np.all(shares[~overloading] >= 1.0 / n - 1e-12)


class TestPartitionContiguous:
    def test_even_split_uniform_weights(self):
        p = partition_contiguous(np.ones(12), 4)
        assert list(p.part_sizes()) == [3, 3, 3, 3]

    def test_weighted_split(self):
        weights = [10.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]
        p = partition_contiguous(weights, 2)
        loads = [sum(weights[s:e]) for s, e in (p.part_range(i) for i in range(2))]
        # Best contiguous split of total 19 is 10 / 9.
        assert loads == [10.0, 9.0]

    def test_target_shares_respected(self):
        weights = np.ones(100)
        p = partition_contiguous(weights, 2, target_shares=[0.25, 0.75])
        assert list(p.part_sizes()) == [25, 75]

    def test_target_shares_normalised(self):
        weights = np.ones(10)
        p = partition_contiguous(weights, 2, target_shares=[1.0, 3.0])
        sizes = list(p.part_sizes())
        assert sizes[0] < sizes[1]

    def test_zero_total_weight_splits_by_count(self):
        p = partition_contiguous(np.zeros(8), 4)
        assert list(p.part_sizes()) == [2, 2, 2, 2]

    def test_validation(self):
        with pytest.raises(ValueError):
            partition_contiguous([], 2)
        with pytest.raises(ValueError):
            partition_contiguous([1.0, -1.0], 2)
        with pytest.raises(ValueError):
            partition_contiguous([1.0], 2)
        with pytest.raises(ValueError):
            partition_contiguous([1.0, 1.0], 0)
        with pytest.raises(ValueError):
            partition_contiguous([1.0, 1.0], 2, target_shares=[0.5])
        with pytest.raises(ValueError):
            partition_contiguous([1.0, 1.0], 2, target_shares=[0.0, 0.0])
        with pytest.raises(ValueError):
            partition_contiguous([1.0, 1.0], 2, target_shares=[-1.0, 2.0])

    def test_single_part_takes_everything(self):
        p = partition_contiguous([1.0, 2.0, 3.0], 1)
        assert p.boundaries == (0, 3)

    @given(
        weights=st.lists(
            st.floats(min_value=0.0, max_value=1e3), min_size=4, max_size=200
        ),
        num_parts=st.integers(min_value=1, max_value=4),
    )
    def test_property_partition_covers_all_items(self, weights, num_parts):
        """Boundaries always cover every item exactly once (no loss, no
        duplication) -- workload conservation for the partitioner."""
        if len(weights) < num_parts:
            weights = weights + [1.0] * (num_parts - len(weights))
        p = partition_contiguous(weights, num_parts)
        assert p.boundaries[0] == 0
        assert p.boundaries[-1] == len(weights)
        assert p.num_parts == num_parts
        assert sum(p.part_sizes()) == len(weights)

    @given(
        num_items=st.integers(min_value=32, max_value=300),
        num_parts=st.integers(min_value=2, max_value=8),
    )
    def test_property_uniform_weights_balanced(self, num_items, num_parts):
        """With uniform weights the resulting imbalance is bounded by the
        granularity of single items."""
        p = partition_contiguous(np.ones(num_items), num_parts)
        sizes = p.part_sizes()
        assert sizes.max() - sizes.min() <= 1 + num_items // num_parts // 8

    @given(
        num_items=st.integers(min_value=1, max_value=120),
        num_parts=st.integers(min_value=1, max_value=40),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        zero_fraction=st.sampled_from([0.0, 0.5, 0.9]),
        with_shares=st.booleans(),
    )
    def test_property_matches_sequential_reference(
        self, num_items, num_parts, seed, zero_fraction, with_shares
    ):
        """The vectorized cut placement picks exactly the cuts of the
        sequential greedy loop, ties and empty columns included."""
        if num_parts > num_items:
            num_parts = num_items
        rng = np.random.default_rng(seed)
        weights = np.round(rng.random(num_items) * 4) / 2
        weights[rng.random(num_items) < zero_fraction] = 0.0
        shares = rng.random(num_parts) + 0.01 if with_shares else None
        expected = _partition_contiguous_ref(weights, num_parts, shares)
        got = partition_contiguous(weights, num_parts, shares)
        assert got.boundaries == expected.boundaries
