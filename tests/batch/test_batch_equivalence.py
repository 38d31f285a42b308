"""The batch-vs-loop equivalence guard of the replica-batched engine.

The acceptance bar of the batch engine: replica ``r`` of a batch must be
*bit-identical* to a solo run with seed ``seeds[r]`` -- same iteration
records, same LB schedule and decisions, same final PE state, down to the
last float.  These tests pin that across policies, gossip modes and entry
points (component-level BatchRunner, declarative Session.run_batch, and
the campaign's seed-batched cells).
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.api import ClusterConfig, PolicyConfig, RunConfig, ScenarioConfig, Session
from repro.api.config import RunnerConfig
from repro.batch import BatchRunner
from repro.lb.registry import make_policy_pair
from repro.runtime.skeleton import IterativeRunner, initial_lb_cost_prior
from repro.runtime.synthetic import SyntheticGrowthApplication
from repro.simcluster.cluster import VirtualCluster

SEEDS = [11, 22, 33, 44]
NUM_PES = 16
ITERATIONS = 60


def make_app(num_pes=NUM_PES, columns_per_pe=8):
    num_columns = num_pes * columns_per_pe
    return SyntheticGrowthApplication(
        num_columns, hot_regions=[(0, num_columns // 16)], hot_growth=5.0
    )


def run_solo(seed, policy_name, use_gossip):
    app = make_app()
    cluster = VirtualCluster(NUM_PES)
    prior = initial_lb_cost_prior(
        app.total_load() * app.flop_per_load_unit, NUM_PES, cluster.pe_speed
    )
    workload, trigger = make_policy_pair(policy_name)
    runner = IterativeRunner(
        cluster,
        app,
        workload_policy=workload,
        trigger_policy=trigger,
        use_gossip=use_gossip,
        initial_lb_cost_estimate=prior,
        seed=seed,
    )
    return runner.run(ITERATIONS), cluster


def run_batched(policy_name, use_gossip):
    apps = [make_app() for _ in SEEDS]
    prior = initial_lb_cost_prior(
        apps[0].total_load() * apps[0].flop_per_load_unit, NUM_PES, 1.0e9
    )
    pairs = [make_policy_pair(policy_name) for _ in SEEDS]
    runner = BatchRunner(
        NUM_PES,
        apps,
        seeds=SEEDS,
        workload_policies=[pair[0] for pair in pairs],
        trigger_policies=[pair[1] for pair in pairs],
        use_gossip=use_gossip,
        initial_lb_cost_estimates=prior,
    )
    return runner.run(ITERATIONS), runner


def assert_replica_equals_solo(solo_result, solo_cluster, replica_result, batch_state, r):
    # Trace: every iteration record and LB event, field by field (the
    # records are frozen dataclasses of floats, so == is bitwise here).
    assert replica_result.trace.iterations == solo_result.trace.iterations
    assert replica_result.trace.lb_events == solo_result.trace.lb_events
    # LB reports: schedule, decisions, partitions, migrated load, cost.
    assert len(replica_result.lb_reports) == len(solo_result.lb_reports)
    for mine, ref in zip(replica_result.lb_reports, solo_result.lb_reports):
        assert mine.iteration == ref.iteration
        assert mine.cost == ref.cost
        assert mine.migrated_load == ref.migrated_load
        assert mine.decision == ref.decision
        assert (
            mine.partition.partition.boundaries
            == ref.partition.partition.boundaries
        )
    # Final PE state, bitwise.
    assert np.array_equal(solo_cluster.state.clock, batch_state.clock[r])
    assert np.array_equal(solo_cluster.state.busy_time, batch_state.busy_time[r])
    assert np.array_equal(solo_cluster.state.lb_time, batch_state.lb_time[r])
    # Derived series.
    assert solo_result.total_time == replica_result.total_time
    assert np.array_equal(
        solo_result.utilization_series(), replica_result.utilization_series()
    )


class TestBatchVsLoop:
    @pytest.mark.parametrize("policy_name", ["standard", "ulba"])
    @pytest.mark.parametrize("use_gossip", [True, False])
    def test_every_replica_bit_identical_to_solo_run(self, policy_name, use_gossip):
        batch, runner = run_batched(policy_name, use_gossip)
        assert batch.num_replicas == len(SEEDS)
        for r, seed in enumerate(SEEDS):
            solo, cluster = run_solo(seed, policy_name, use_gossip)
            assert_replica_equals_solo(solo, cluster, batch.replicas[r], runner.state, r)


class TestSessionRunBatch:
    CFG = RunConfig(
        cluster=ClusterConfig(num_pes=8),
        policy=PolicyConfig("ulba", {"alpha": 0.4}),
        scenario=ScenarioConfig(
            name="synthetic-hotspot",
            columns_per_pe=16,
            rows=16,
            iterations=30,
            seed=5,
        ),
        runner=RunnerConfig(replicas=3),
    )

    def test_replicas_bit_identical_to_solo_sessions(self):
        batch = Session.from_config(self.CFG).run_batch()
        assert batch.seeds == (5, 6, 7)
        for r, seed in enumerate(batch.seeds):
            solo_cfg = dataclasses.replace(
                self.CFG, scenario=dataclasses.replace(self.CFG.scenario, seed=seed)
            )
            solo = Session.from_config(solo_cfg).run()
            replica = batch.replicas[r]
            assert solo.run.trace.iterations == replica.trace.iterations
            assert solo.run.trace.lb_events == replica.trace.lb_events
            assert solo.total_time == replica.total_time
            assert solo.num_lb_calls == replica.num_lb_calls
            assert solo.mean_utilization == replica.mean_utilization

    def test_explicit_seeds_override_config(self):
        batch = Session.from_config(self.CFG).run_batch(seeds=[40, 41])
        assert batch.seeds == (40, 41)
        assert batch.num_replicas == 2

    def test_run_batch_requires_declarative_session(self):
        app = make_app(8)
        session = Session(VirtualCluster(8), app, iterations=10)
        with pytest.raises(ValueError, match="from_config"):
            session.run_batch(seeds=[0, 1])

    def test_erosion_scenario_batches_identically(self):
        cfg = RunConfig(
            cluster=ClusterConfig(num_pes=8),
            policy=PolicyConfig("standard"),
            scenario=ScenarioConfig(
                name="erosion", columns_per_pe=12, rows=16, iterations=20, seed=3
            ),
            runner=RunnerConfig(replicas=2),
        )
        batch = Session.from_config(cfg).run_batch()
        for r, seed in enumerate(batch.seeds):
            solo_cfg = dataclasses.replace(
                cfg, scenario=dataclasses.replace(cfg.scenario, seed=seed)
            )
            solo = Session.from_config(solo_cfg).run()
            assert solo.run.trace.iterations == batch.replicas[r].trace.iterations
            assert solo.total_time == batch.replicas[r].total_time


class TestCampaignSeedBatches:
    def test_batched_cells_match_solo_cells(self):
        from repro.campaign import campaign_for_scale
        from repro.campaign.runner import _seed_batches, run_cell, run_cell_batch

        spec = campaign_for_scale("smoke", 0)
        batches = _seed_batches(spec.cells())
        assert all(len(batch) == spec.num_seeds for batch in batches)
        batch = batches[0]
        rows = run_cell_batch(batch)
        for cell, row in zip(batch, rows):
            solo = run_cell(cell)
            for key, value in solo.items():
                if key == "wall_time":
                    continue
                assert row[key] == value, key
