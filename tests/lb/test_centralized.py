"""Tests of :mod:`repro.lb.centralized` (Algorithm 2 on the virtual cluster)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.lb.base import LBContext
from repro.lb.centralized import CentralizedLoadBalancer, LBStepReport
from repro.lb.standard import StandardPolicy
from repro.lb.ulba import ULBAPolicy
from repro.partitioning.stripe import StripePartitioner
from repro.simcluster.cluster import VirtualCluster
from repro.simcluster.gossip import KnownRows


def stripe_loads(partition):
    """Per-stripe sums of a partition's column loads."""
    return np.add.reduceat(partition.column_loads, partition.partition.boundaries[:-1])


def make_context(num_pes, *, rates=None, iteration=5):
    if rates is None:
        rates = {r: 1.0 for r in range(num_pes)}
    return LBContext(
        iteration=iteration,
        pe_workloads=(100.0,) * num_pes,
        wir_views=KnownRows.from_views([rates] * num_pes),
        average_lb_cost=1.0,
        pe_speed=1.0e9,
    )


class TestCentralizedLoadBalancer:
    def test_execute_returns_report_and_charges_cost(self):
        cluster = VirtualCluster(4)
        balancer = CentralizedLoadBalancer(cluster, StandardPolicy())
        before = cluster.now
        report = balancer.execute(make_context(4), np.ones(40))
        assert isinstance(report, LBStepReport)
        assert report.cost > 0.0
        assert cluster.now == pytest.approx(before + report.cost)
        assert cluster.trace.num_lb_calls == 1
        assert balancer.history == [report]

    def test_standard_policy_produces_balanced_stripes(self):
        cluster = VirtualCluster(4)
        balancer = CentralizedLoadBalancer(cluster, StandardPolicy())
        loads = np.ones(80)
        loads[:20] = 5.0
        report = balancer.execute(make_context(4), loads)
        per_stripe = stripe_loads(report.partition)
        assert per_stripe.sum() == pytest.approx(loads.sum())
        assert per_stripe.max() / per_stripe.mean() - 1.0 < 0.2

    def test_ulba_policy_underloads_detected_pe(self):
        num_pes = 16
        cluster = VirtualCluster(num_pes)
        balancer = CentralizedLoadBalancer(cluster, ULBAPolicy(alpha=0.5))
        rates = {r: 0.0 for r in range(num_pes)}
        rates[2] = 1000.0
        report = balancer.execute(make_context(num_pes, rates=rates), np.ones(320))
        assert report.decision.overloading_ranks == (2,)
        per_stripe = stripe_loads(report.partition)
        assert per_stripe[2] < per_stripe.mean()

    def test_migration_volume_computed_from_previous_partition(self):
        cluster = VirtualCluster(4)
        balancer = CentralizedLoadBalancer(cluster, StandardPolicy())
        partitioner = StripePartitioner(4)
        loads = np.ones(40)
        current = partitioner.uniform_partition(40)
        report = balancer.execute(make_context(4), loads, current_partition=current)
        # Uniform loads and an already uniform partition: nothing moves.
        assert report.migrated_load == pytest.approx(0.0)

    def test_migration_volume_positive_when_loads_shift(self):
        cluster = VirtualCluster(4)
        balancer = CentralizedLoadBalancer(cluster, StandardPolicy())
        partitioner = StripePartitioner(4)
        current = partitioner.uniform_partition(40)
        loads = np.ones(40)
        loads[:10] = 10.0  # stripe 0 became heavy; rebalance must move columns
        report = balancer.execute(make_context(4), loads, current_partition=current)
        assert report.migrated_load > 0.0

    def test_without_previous_partition_charges_full_migration(self):
        cluster_a = VirtualCluster(4)
        cluster_b = VirtualCluster(4)
        loads = np.ones(40) * 100.0
        partitioner = StripePartitioner(4)
        report_full = CentralizedLoadBalancer(cluster_a, StandardPolicy()).execute(
            make_context(4), loads
        )
        report_incremental = CentralizedLoadBalancer(cluster_b, StandardPolicy()).execute(
            make_context(4), loads, current_partition=partitioner.uniform_partition(40)
        )
        assert report_full.migrated_load >= report_incremental.migrated_load
        assert report_full.cost >= report_incremental.cost

    def test_mismatched_partition_length_rejected(self):
        cluster = VirtualCluster(2)
        balancer = CentralizedLoadBalancer(cluster, StandardPolicy())
        wrong = StripePartitioner(2).uniform_partition(10)
        with pytest.raises(ValueError):
            balancer.execute(make_context(2), np.ones(20), current_partition=wrong)

    def test_average_cost_tracks_history(self):
        cluster = VirtualCluster(4)
        balancer = CentralizedLoadBalancer(cluster, StandardPolicy())
        assert balancer.average_cost == 0.0
        r1 = balancer.execute(make_context(4, iteration=1), np.ones(40))
        r2 = balancer.execute(make_context(4, iteration=2), np.ones(40))
        assert balancer.average_cost == pytest.approx((r1.cost + r2.cost) / 2)

    def test_bigger_migration_costs_more(self):
        def run(bytes_per_load_unit):
            cluster = VirtualCluster(4)
            balancer = CentralizedLoadBalancer(
                cluster, StandardPolicy(), bytes_per_load_unit=bytes_per_load_unit
            )
            loads = np.ones(40)
            loads[:10] = 100.0
            return balancer.execute(
                make_context(4),
                loads,
                current_partition=StripePartitioner(4).uniform_partition(40),
            ).cost

        assert run(10_000.0) > run(10.0)

    def test_invalid_construction(self):
        cluster = VirtualCluster(2)
        with pytest.raises(ValueError):
            CentralizedLoadBalancer(cluster, StandardPolicy(), root=5)
        with pytest.raises(ValueError):
            CentralizedLoadBalancer(cluster, StandardPolicy(), partition_flop_per_column=-1.0)
        with pytest.raises(ValueError):
            CentralizedLoadBalancer(cluster, StandardPolicy(), bytes_per_load_unit=-1.0)
