"""Construction contracts and result surface of :class:`BatchRunner`."""

from __future__ import annotations

import numpy as np
import pytest

from repro.batch import BatchResult, BatchRunner
from repro.lb.adaptive import ULBADegradationTrigger
from repro.lb.registry import make_policy_pair
from repro.runtime.synthetic import SyntheticGrowthApplication


def make_apps(replicas, num_pes=8, columns_per_pe=8):
    num_columns = num_pes * columns_per_pe
    return [
        SyntheticGrowthApplication(
            num_columns, hot_regions=[(0, num_columns // 8)], hot_growth=4.0
        )
        for _ in range(replicas)
    ]


class TestConstruction:
    def test_seed_count_must_match_replicas(self):
        with pytest.raises(ValueError, match="one seed per replica"):
            BatchRunner(8, make_apps(3), seeds=[0, 1])

    def test_requires_at_least_one_replica(self):
        with pytest.raises(ValueError, match="at least one replica"):
            BatchRunner(8, [], seeds=[])

    def test_rejects_shared_policy_instances(self):
        apps = make_apps(2)
        workload, trigger = make_policy_pair("standard")
        with pytest.raises(ValueError, match="own instance"):
            BatchRunner(
                8,
                apps,
                seeds=[0, 1],
                workload_policies=[workload, workload],
                trigger_policies=[trigger, trigger],
            )

    def test_rejects_column_count_mismatch(self):
        apps = make_apps(1) + [SyntheticGrowthApplication(24)]
        with pytest.raises(ValueError, match="same number of"):
            BatchRunner(8, apps, seeds=[0, 1])

    def test_rejects_fewer_columns_than_pes(self):
        apps = [SyntheticGrowthApplication(4), SyntheticGrowthApplication(4)]
        with pytest.raises(ValueError, match="fewer than"):
            BatchRunner(8, apps, seeds=[0, 1])

    def test_prior_list_length_checked(self):
        with pytest.raises(ValueError, match="prior per replica"):
            BatchRunner(8, make_apps(2), seeds=[0, 1], initial_lb_cost_estimates=[0.1])

    def test_state_is_replica_batched(self):
        runner = BatchRunner(8, make_apps(3), seeds=[0, 1, 2])
        assert runner.state.clock.shape == (3, 8)
        assert len(runner.clusters) == 3
        assert runner.clusters[1].state.clock.base is runner.state.clock


class TestBatchResult:
    @pytest.fixture(scope="class")
    def result(self):
        runner = BatchRunner(8, make_apps(4), seeds=[0, 1, 2, 3])
        return runner.run(25)

    def test_shapes(self, result):
        assert isinstance(result, BatchResult)
        assert result.num_replicas == 4
        assert result.total_times().shape == (4,)
        assert result.lb_calls().shape == (4,)
        assert result.mean_utilizations().shape == (4,)
        assert result.utilization_trajectories().shape == (4, 25)
        assert result.iteration_time_trajectories().shape == (4, 25)
        assert result.mean_utilization_trajectory().shape == (25,)

    def test_indexing_and_iteration(self, result):
        assert result[0] is result.replicas[0]
        assert [r.policy_name for r in result] == ["standard"] * 4

    def test_aggregate_keys_and_consistency(self, result):
        agg = result.aggregate()
        assert agg["replicas"] == 4
        assert agg["total_time"] == pytest.approx(result.total_times().mean())
        assert agg["total_time_ci"] >= 0.0
        assert 0.0 < agg["mean_utilization"] <= 1.0
        assert agg["lb_calls"] == pytest.approx(result.lb_calls().mean())

    def test_summary_carries_seeds_and_policy_names(self, result):
        info = result.summary()
        assert info["seeds"] == (0, 1, 2, 3)
        assert info["policy"] == "standard"
        assert info["trigger"] == "degradation"

    def test_different_seeds_diverge_under_ulba(self):
        # The standard pair never reads the gossiped WIR views, so seeds
        # cannot diverge there; ULBA consumes them, so per-replica gossip
        # streams must produce distinct trajectories.  16 PEs at fanout 2
        # keep the views stale long enough for the streams to matter.
        from repro.runtime.skeleton import initial_lb_cost_prior

        num_columns = 16 * 8
        apps = [
            SyntheticGrowthApplication(
                num_columns, hot_regions=[(0, num_columns // 16)], hot_growth=5.0
            )
            for _ in range(4)
        ]
        pairs = [make_policy_pair("ulba", alpha=0.4) for _ in apps]
        prior = initial_lb_cost_prior(
            apps[0].total_load() * apps[0].flop_per_load_unit, 16, 1.0e9
        )
        runner = BatchRunner(
            16,
            apps,
            seeds=[11, 22, 33, 44],
            workload_policies=[pair[0] for pair in pairs],
            trigger_policies=[pair[1] for pair in pairs],
            initial_lb_cost_estimates=prior,
        )
        times = runner.run(60).total_times()
        assert np.unique(times).size > 1


class _PerReplicaULBATrigger(ULBADegradationTrigger):
    """The ULBA trigger unchanged; as a subclass it turns the runner's
    degradation prefilter off, so every replica asks ``should_balance``."""


class TestTriggerFastPath:
    """The prefiltered trigger decision against asking every replica."""

    @staticmethod
    def _run(trigger_type, use_gossip):
        from repro.lb.ulba import ULBAPolicy
        from repro.runtime.skeleton import initial_lb_cost_prior

        num_columns = 16 * 8
        # Different hot regions and growth rates: the replicas reach their
        # trigger thresholds at different iterations, every ~10 iterations,
        # with the ULBA overhead of Eq. 11 holding some candidates back.
        apps = [
            SyntheticGrowthApplication(
                num_columns,
                initial_load_per_column=load,
                hot_regions=[(start, start + num_columns // 16)],
                hot_growth=growth,
            )
            for load, start, growth in (
                (100.0, 0, 0.05),
                (50.0, 40, 0.1),
                (200.0, 72, 0.2),
                (100.0, 112, 0.4),
            )
        ]
        prior = initial_lb_cost_prior(
            apps[0].total_load() * apps[0].flop_per_load_unit, 16, 1.0e9
        )
        runner = BatchRunner(
            16,
            apps,
            seeds=[3, 4, 5, 6],
            workload_policies=[ULBAPolicy(0.4) for _ in apps],
            trigger_policies=[trigger_type(0.4) for _ in apps],
            use_gossip=use_gossip,
            initial_lb_cost_estimates=prior,
            bytes_per_load_unit=200_000.0,
        )
        return runner.run(100)

    @pytest.mark.parametrize("use_gossip", [False, True])
    def test_fast_ulba_trigger_matches_should_balance(self, use_gossip):
        fast = self._run(ULBADegradationTrigger, use_gossip)
        generic = self._run(_PerReplicaULBATrigger, use_gossip)
        schedules = [result.trace.lb_iterations() for result in fast]
        assert len(set(map(tuple, schedules))) > 1
        assert schedules == [result.trace.lb_iterations() for result in generic]
        assert fast.total_times().tolist() == generic.total_times().tolist()
        for mine, ref in zip(fast, generic):
            assert [r.decision for r in mine.lb_reports] == [
                r.decision for r in ref.lb_reports
            ]
