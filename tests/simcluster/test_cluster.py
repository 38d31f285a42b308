"""Tests of :mod:`repro.simcluster.cluster` (the VirtualCluster facade)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.simcluster.cluster import StepResult, VirtualCluster
from repro.simcluster.comm import CommCostModel
from repro.simcluster.pe import PEStateArrays


class TestConstruction:
    def test_basic_properties(self):
        cluster = VirtualCluster(4, pe_speed=2.0e9)
        assert cluster.size == 4
        assert cluster.pe_speed == 2.0e9
        assert cluster.now == 0.0
        assert cluster.state.clock.shape == (4,)
        assert cluster.cost_model == CommCostModel()

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            VirtualCluster(0)
        with pytest.raises(ValueError):
            VirtualCluster(2, pe_speed=0.0)


class TestComputeStep:
    def test_step_time_is_max_pe_time(self):
        cluster = VirtualCluster(4, pe_speed=1.0e9, cost_model=CommCostModel.free())
        result = cluster.compute_step([1.0e9, 2.0e9, 4.0e9, 3.0e9])
        assert result.elapsed == pytest.approx(4.0)
        assert result.pe_times == pytest.approx((1.0, 2.0, 3.99999, 3.0), rel=1e-3)
        assert cluster.now == pytest.approx(4.0)

    def test_wrong_length_rejected(self):
        cluster = VirtualCluster(3)
        with pytest.raises(ValueError):
            cluster.compute_step([1.0, 2.0])

    def test_negative_load_rejected(self):
        cluster = VirtualCluster(2)
        with pytest.raises(ValueError):
            cluster.compute_step([1.0, -1.0])

    def test_average_utilization(self):
        cluster = VirtualCluster(2, pe_speed=1.0e9, cost_model=CommCostModel.free())
        result = cluster.compute_step([2.0e9, 4.0e9])
        # PE0 busy 2s of 4s, PE1 busy 4s of 4s -> mean 0.75.
        assert result.average_utilization == pytest.approx(0.75)

    def test_balanced_step_full_utilization(self):
        cluster = VirtualCluster(4, pe_speed=1.0e9, cost_model=CommCostModel.free())
        result = cluster.compute_step([1.0e9] * 4)
        assert result.average_utilization == pytest.approx(1.0)

    def test_iteration_recorded_in_trace(self):
        cluster = VirtualCluster(2, cost_model=CommCostModel.free())
        cluster.compute_step([1.0e9, 2.0e9], iteration=0)
        cluster.compute_step([1.0e9, 2.0e9], iteration=1)
        assert cluster.trace.num_iterations == 2
        assert cluster.trace.iterations[0].iteration == 0

    def test_untracked_step_not_recorded(self):
        cluster = VirtualCluster(2)
        cluster.compute_step([1.0, 1.0])
        assert cluster.trace.num_iterations == 0

    def test_steps_accumulate_time(self):
        cluster = VirtualCluster(2, pe_speed=1.0e9, cost_model=CommCostModel.free())
        cluster.compute_step([1.0e9, 1.0e9])
        cluster.compute_step([2.0e9, 2.0e9])
        assert cluster.now == pytest.approx(3.0)

    def test_busy_times(self):
        cluster = VirtualCluster(2, pe_speed=1.0e9, cost_model=CommCostModel.free())
        cluster.compute_step([1.0e9, 3.0e9])
        assert np.allclose(cluster.state.busy_time, [1.0, 3.0])

    @given(
        loads=st.lists(
            st.floats(min_value=0.0, max_value=1e10), min_size=3, max_size=3
        )
    )
    def test_property_elapsed_at_least_max_load(self, loads):
        cluster = VirtualCluster(3, pe_speed=1.0e9)
        result = cluster.compute_step(loads)
        assert result.elapsed >= max(loads) / 1.0e9 - 1e-12
        assert result.completed_at == pytest.approx(cluster.now)

    def test_step_result_zero_elapsed_utilization(self):
        result = StepResult(elapsed=0.0, pe_times=(0.0, 0.0), completed_at=0.0)
        assert result.average_utilization == 1.0


class TestChargeLBStep:
    def test_lb_step_advances_time_and_records_event(self):
        cluster = VirtualCluster(4)
        before = cluster.now
        cost = cluster.charge_lb_step(iteration=3, partition_seconds=0.001)
        assert cost > 0.0
        assert cluster.now == pytest.approx(before + cost)
        assert cluster.trace.num_lb_calls == 1
        assert cluster.trace.lb_events[0].iteration == 3
        assert cluster.trace.lb_events[0].cost == pytest.approx(cost)

    def test_lb_time_charged_to_every_pe(self):
        cluster = VirtualCluster(3)
        cost = cluster.charge_lb_step(iteration=0, partition_seconds=0.01)
        assert np.allclose(cluster.state.lb_time, cost)
        assert cluster.state.lb_time.shape == (3,)

    def test_scalar_migration_volume(self):
        cluster = VirtualCluster(2, cost_model=CommCostModel(latency=0.0, bandwidth=1.0e6))
        cost = cluster.charge_lb_step(iteration=0, migration_bytes_per_pe=1.0e6)
        assert cost >= 1.0  # at least the migration transfer time

    def test_vector_migration_volume(self):
        cluster = VirtualCluster(3, cost_model=CommCostModel(latency=0.0, bandwidth=1.0e6))
        cost = cluster.charge_lb_step(
            iteration=0, migration_bytes_per_pe=[0.0, 2.0e6, 1.0e6]
        )
        assert cost >= 2.0  # dominated by the largest per-PE volume

    def test_wrong_migration_vector_length(self):
        cluster = VirtualCluster(3)
        with pytest.raises(ValueError):
            cluster.charge_lb_step(iteration=0, migration_bytes_per_pe=[1.0, 2.0])

    def test_negative_migration_rejected(self):
        cluster = VirtualCluster(2)
        with pytest.raises(ValueError):
            cluster.charge_lb_step(iteration=0, migration_bytes_per_pe=[-1.0, 0.0])

    def test_negative_partition_seconds_rejected(self):
        cluster = VirtualCluster(2)
        with pytest.raises(ValueError):
            cluster.charge_lb_step(iteration=0, partition_seconds=-1.0)

    def test_more_migration_costs_more(self):
        def run(volume):
            cluster = VirtualCluster(4)
            return cluster.charge_lb_step(iteration=0, migration_bytes_per_pe=volume)

        assert run(1.0e9) > run(1.0e3)


class TestArrayStateBacking:
    def test_compute_step_accepts_ndarray_without_copy(self):
        cluster = VirtualCluster(3, pe_speed=1.0e9, cost_model=CommCostModel.free())
        loads = np.asarray([1.0e9, 2.0e9, 3.0e9])
        result = cluster.compute_step(loads)
        assert result.elapsed == pytest.approx(3.0)
        # The input array is used as-is and never mutated.
        assert loads.tolist() == [1.0e9, 2.0e9, 3.0e9]

    def test_charge_lb_step_accepts_ndarray_volumes(self):
        cluster = VirtualCluster(3, cost_model=CommCostModel(latency=0.0, bandwidth=1.0e6))
        volumes = np.asarray([0.0, 2.0e6, 1.0e6])
        cost = cluster.charge_lb_step(iteration=0, migration_bytes_per_pe=volumes)
        assert cost >= 2.0
        assert volumes.tolist() == [0.0, 2.0e6, 1.0e6]


class TestComputePhase:
    """``PEStateArrays.compute_phase`` is the one compute step: the batch
    engine runs it on ``(R, P)`` state, ``VirtualCluster.compute_step`` on
    the cluster's own ``(P,)`` state."""

    @given(
        replicas=st.integers(min_value=1, max_value=5),
        num_pes=st.integers(min_value=1, max_value=9),
        sync_cost=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_property_batched_phase_equals_solo_phases_and_compute_step(
        self, replicas, num_pes, sync_cost, seed
    ):
        rng = np.random.default_rng(seed)
        speed = 1.0e9
        clock = rng.random((replicas, num_pes)) * 10.0
        busy = rng.random((replicas, num_pes))
        loads = rng.random((replicas, num_pes)) * 5.0e9
        pe_times = loads / speed

        batch = PEStateArrays(num_pes, speed, replicas=replicas)
        batch.clock[:] = clock
        batch.busy_time[:] = busy
        start, end = batch.compute_phase(pe_times, sync_cost)
        for r in range(replicas):
            solo = PEStateArrays(num_pes, speed)
            solo.clock[:] = clock[r]
            solo.busy_time[:] = busy[r]
            solo_start, solo_end = solo.compute_phase(pe_times[r], sync_cost)
            assert solo_start == start[r] and solo_end == end[r]
            assert np.array_equal(solo.clock, batch.clock[r])
            assert np.array_equal(solo.busy_time, batch.busy_time[r])

        # compute_step leaves what compute_phase on a batch-of-one view does.
        cost_model = CommCostModel(latency=sync_cost, bandwidth=1.0e9)
        cluster = VirtualCluster(num_pes, pe_speed=speed, cost_model=cost_model)
        twin = PEStateArrays(num_pes, speed)
        for state in (cluster.state, twin):
            state.clock[:] = clock[0]
            state.busy_time[:] = busy[0]
        step = cluster.compute_step(loads[0])
        cost = cost_model.collective(num_pes, 8.0)
        twin_start, twin_end = twin.batch_of_one().compute_phase(pe_times[:1], cost)
        assert step.completed_at == twin_end[0]
        assert step.elapsed == twin_end[0] - twin_start[0]
        assert step.pe_times == tuple(pe_times[0].tolist())
        assert np.array_equal(cluster.state.clock, twin.clock)
        assert np.array_equal(cluster.state.busy_time, twin.busy_time)
