"""Tests of :mod:`repro.partitioning.stripe` (the paper's LB technique)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.partitioning.stripe import StripePartition, StripePartitioner
from repro.partitioning.weighted import target_shares_from_alphas


def stripe_loads(partition: StripePartition) -> np.ndarray:
    """Per-stripe sums of a partition's column loads (no stripe is empty)."""
    return np.add.reduceat(partition.column_loads, partition.partition.boundaries[:-1])


def imbalance(loads: np.ndarray) -> float:
    """``max / mean - 1`` of the stripe loads (0 without load)."""
    mean = loads.mean()
    return 0.0 if mean <= 0.0 else float(loads.max() / mean - 1.0)


class TestStripePartitioner:
    def test_uniform_partition_equal_widths(self):
        partitioner = StripePartitioner(4)
        partition = partitioner.uniform_partition(16)
        assert partition.partition.part_sizes().tolist() == [4, 4, 4, 4]
        assert partition.num_pes == 4
        assert partition.num_columns == 16

    def test_uniform_partition_validation(self):
        partitioner = StripePartitioner(4)
        with pytest.raises(ValueError):
            partitioner.uniform_partition(3)
        with pytest.raises(ValueError):
            partitioner.uniform_partition(0)

    def test_partition_balances_nonuniform_loads(self):
        partitioner = StripePartitioner(2)
        loads = [8.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]
        partition = partitioner.partition(loads)
        per_stripe = stripe_loads(partition)
        assert per_stripe.sum() == pytest.approx(sum(loads))
        assert abs(per_stripe[0] - per_stripe[1]) <= 8.0

    def test_column_loads_are_a_read_only_copy(self):
        buffer = np.arange(12, dtype=float)
        partition = StripePartitioner(3).partition(buffer)
        buffer[:] = -1.0  # the engine refills its column buffer every iteration
        assert partition.column_loads.dtype == np.float64
        assert partition.column_loads.tolist() == list(range(12))
        with pytest.raises(ValueError):
            partition.column_loads[0] = 5.0

    def test_partition_with_alphas_matches_explicit_shares(self):
        """Algorithm 2's weights: PE 0 keeps (1 - 0.5) of an even quarter,
        and the other three split its surplus evenly."""
        partitioner = StripePartitioner(4)
        loads = np.ones(48)
        via_alphas = partitioner.partition(
            loads, target_shares=target_shares_from_alphas([0.5, 0.0, 0.0, 0.0])
        )
        explicit = [0.125] + [0.25 + 0.125 / 3] * 3
        via_shares = partitioner.partition(loads, target_shares=explicit)
        assert via_alphas.partition.boundaries == via_shares.partition.boundaries
        assert via_alphas.partition.boundaries == (0, 6, 20, 34, 48)

    def test_partition_with_alphas_underloads_requester(self):
        partitioner = StripePartitioner(4)
        loads = np.ones(400)
        shares = target_shares_from_alphas([0.6, 0.0, 0.0, 0.0])
        per_stripe = stripe_loads(partitioner.partition(loads, target_shares=shares))
        assert per_stripe[0] < per_stripe[1:].min()
        assert per_stripe[0] == pytest.approx(0.4 * 100, abs=2)
        # Every stripe gets its target share, to within one column.
        assert np.abs(per_stripe - shares * loads.sum()).max() <= 1.0

    def test_partition_with_alphas_wrong_length(self):
        shares = target_shares_from_alphas([0.0, 0.0])
        with pytest.raises(ValueError):
            StripePartitioner(3).partition(np.ones(10), target_shares=shares)

    def test_invalid_num_pes(self):
        with pytest.raises(ValueError):
            StripePartitioner(0)

    @given(
        num_cols=st.integers(min_value=8, max_value=200),
        num_pes=st.integers(min_value=1, max_value=8),
        seed=st.integers(0, 1000),
    )
    def test_property_workload_conservation(self, num_cols, num_pes, seed):
        """Stripe loads always sum to the total column load (nothing is lost
        or duplicated by the decomposition)."""
        if num_cols < num_pes:
            num_cols = num_pes
        rng = np.random.default_rng(seed)
        loads = rng.random(num_cols) * 10.0
        partition = StripePartitioner(num_pes).partition(loads)
        assert partition.partition.num_items == num_cols
        assert stripe_loads(partition).sum() == pytest.approx(loads.sum())

    @given(
        num_pes=st.integers(min_value=2, max_value=8),
        alpha=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_property_alpha_shares_sum_to_total(self, num_pes, alpha):
        loads = np.ones(num_pes * 50)
        shares = target_shares_from_alphas([alpha] + [0.0] * (num_pes - 1))
        partition = StripePartitioner(num_pes).partition(loads, target_shares=shares)
        assert stripe_loads(partition).sum() == pytest.approx(loads.sum())


class TestStripePartition:
    def test_columns_of_and_owner(self):
        partition = StripePartitioner(2).partition(np.ones(10)).partition
        start, stop = partition.part_range(0)
        assert start == 0
        owners = partition.owners()
        assert owners[start] == 0
        assert owners[stop] == 1

    def test_imbalance_zero_for_uniform(self):
        partition = StripePartitioner(4).partition(np.ones(40))
        assert imbalance(stripe_loads(partition)) == pytest.approx(0.0)

    def test_imbalance_positive_for_skewed(self):
        loads = np.ones(40)
        loads[:10] = 50.0
        partition = StripePartitioner(4).uniform_partition(40)
        # Re-evaluate the uniform decomposition on skewed loads.
        skewed = StripePartition(partition=partition.partition, column_loads=loads)
        assert imbalance(stripe_loads(skewed)) > 1.0

    def test_imbalance_zero_loads(self):
        partition = StripePartitioner(2).partition(np.zeros(10))
        assert imbalance(stripe_loads(partition)) == 0.0
