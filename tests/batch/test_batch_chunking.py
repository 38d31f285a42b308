"""Replica-chunking equivalence guard of the batch engine.

``memory_budget_bytes`` splits a batch whose gossip-board state would
exceed the budget into sequential sub-batches.  The acceptance bar is the
same as for the batch engine itself: chunked execution must be
**bit-identical** to an unchunked batch, replica for replica, across
policies and dissemination modes (instant, dense gossip, sparse gossip).
"""

from __future__ import annotations

import pytest

from repro.api import (
    ClusterConfig,
    PolicyConfig,
    RunConfig,
    RunnerConfig,
    ScenarioConfig,
    Session,
    TopologyConfig,
)
from repro.batch import BatchRunner
from repro.lb.registry import make_policy_pair
from repro.runtime.synthetic import SyntheticGrowthApplication
from repro.simcluster.gossip import GossipConfig

NUM_PES = 16
SEEDS = [3, 4, 5, 6, 7]
ITERATIONS = 40

#: (label, use_gossip, gossip_config) of every dissemination mode.
MODES = [
    ("instant", False, None),
    ("dense", True, None),
    ("sparse", True, GossipConfig(mode="sparse", view_size=6)),
]


def make_runner(policy_name, use_gossip, gossip_config, memory_budget_bytes):
    num_columns = NUM_PES * 8
    apps = [
        SyntheticGrowthApplication(
            num_columns, hot_regions=[(0, num_columns // 16)], hot_growth=5.0
        )
        for _ in SEEDS
    ]
    pairs = [make_policy_pair(policy_name) for _ in SEEDS]
    return BatchRunner(
        NUM_PES,
        apps,
        seeds=SEEDS,
        workload_policies=[pair[0] for pair in pairs],
        trigger_policies=[pair[1] for pair in pairs],
        use_gossip=use_gossip,
        gossip_config=gossip_config,
        initial_lb_cost_estimates=1.0e-4,
        memory_budget_bytes=memory_budget_bytes,
    )


def assert_batches_identical(a, b):
    assert a.num_replicas == b.num_replicas
    assert a.seeds == b.seeds
    for mine, ref in zip(a.replicas, b.replicas):
        assert mine.trace.iterations == ref.trace.iterations
        assert mine.trace.lb_events == ref.trace.lb_events
        assert mine.total_time == ref.total_time
        assert len(mine.lb_reports) == len(ref.lb_reports)
        for x, y in zip(mine.lb_reports, ref.lb_reports):
            assert x.iteration == y.iteration
            assert x.cost == y.cost
            assert x.decision == y.decision
            assert (
                x.partition.partition.boundaries == y.partition.partition.boundaries
            )


class TestChunkedEquivalence:
    @pytest.mark.parametrize("policy_name", ["standard", "ulba"])
    @pytest.mark.parametrize("label,use_gossip,gossip_config", MODES)
    def test_chunked_bit_identical_to_unchunked(
        self, policy_name, label, use_gossip, gossip_config
    ):
        full = make_runner(policy_name, use_gossip, gossip_config, None)
        per_replica = BatchRunner._per_replica_board_bytes(
            NUM_PES, use_gossip, gossip_config
        )
        chunked = make_runner(
            policy_name, use_gossip, gossip_config, 2 * per_replica + 1
        )
        assert chunked.num_chunks == 3 and chunked.chunk_size == 2
        assert_batches_identical(chunked.run(ITERATIONS), full.run(ITERATIONS))

    def test_single_replica_chunks_bit_identical(self):
        full = make_runner("ulba", True, None, None)
        per_replica = BatchRunner._per_replica_board_bytes(NUM_PES, True, None)
        # A budget below one replica still runs, one replica at a time.
        chunked = make_runner("ulba", True, None, per_replica / 2)
        assert chunked.chunk_size == 1 and chunked.num_chunks == len(SEEDS)
        assert_batches_identical(chunked.run(ITERATIONS), full.run(ITERATIONS))


class TestRepeatedRuns:
    """A second ``run`` continues the batch, or refuses when chunked."""

    def test_unchunked_split_run_equals_one_shot(self):
        split = make_runner("ulba", True, None, None)
        split.run(15)
        second = split.run(ITERATIONS - 15)
        one_shot = make_runner("ulba", True, None, None).run(ITERATIONS)
        for mine, ref in zip(second.replicas, one_shot.replicas):
            assert mine.trace.iterations == ref.trace.iterations
            assert mine.trace.lb_events == ref.trace.lb_events
            assert [r.iteration for r in mine.lb_reports] == [
                r.iteration for r in ref.lb_reports if r.iteration >= 15
            ]

    def test_chunked_second_run_raises(self):
        per_replica = BatchRunner._per_replica_board_bytes(NUM_PES, True, None)
        chunked = make_runner("standard", True, None, 2 * per_replica + 1)
        assert chunked.num_chunks == 3
        chunked.run(10)
        # The sub-batches are gone; rerunning would restart replicas whose
        # applications already advanced 10 iterations.
        with pytest.raises(RuntimeError, match="3 chunks"):
            chunked.run(10)


class TestSparseBatchVsSolo:
    """Sparse-gossip batch replicas stay bit-identical to solo sparse runs."""

    def test_replicas_match_solo_sparse_runners(self):
        from repro.runtime.skeleton import IterativeRunner
        from repro.simcluster.cluster import VirtualCluster

        gossip_config = GossipConfig(mode="sparse", view_size=6)
        batch = make_runner("ulba", True, gossip_config, None).run(ITERATIONS)
        num_columns = NUM_PES * 8
        for r, seed in enumerate(SEEDS):
            app = SyntheticGrowthApplication(
                num_columns, hot_regions=[(0, num_columns // 16)], hot_growth=5.0
            )
            cluster = VirtualCluster(NUM_PES)
            workload, trigger = make_policy_pair("ulba")
            solo = IterativeRunner(
                cluster,
                app,
                workload_policy=workload,
                trigger_policy=trigger,
                gossip_config=gossip_config,
                initial_lb_cost_estimate=1.0e-4,
                seed=seed,
            ).run(ITERATIONS)
            assert batch.replicas[r].trace.iterations == solo.trace.iterations
            assert batch.replicas[r].total_time == solo.total_time
            assert len(batch.replicas[r].lb_reports) == len(solo.lb_reports)


class TestChunkGeometry:
    def test_no_budget_never_chunks(self):
        runner = make_runner("standard", True, None, None)
        assert runner.num_chunks == 1
        assert runner.chunk_size == len(SEEDS)
        # The eager engine attributes exist in unchunked mode.
        assert runner.state is not None and len(runner.clusters) == len(SEEDS)

    def test_large_budget_never_chunks(self):
        runner = make_runner("standard", True, None, 10 * 2**30)
        assert runner.num_chunks == 1

    def test_sparse_mode_needs_smaller_budget_to_chunk(self):
        sparse_cfg = GossipConfig(mode="sparse", view_size=6)
        budget = BatchRunner._per_replica_board_bytes(NUM_PES, True, None) * 4
        dense = make_runner("standard", True, None, budget)
        sparse = make_runner("standard", True, sparse_cfg, budget)
        assert dense.num_chunks > 1
        assert sparse.num_chunks == 1  # same budget holds all sparse boards

    def test_invalid_budget_rejected(self):
        with pytest.raises(ValueError):
            make_runner("standard", True, None, 0.0)
        with pytest.raises(ValueError):
            make_runner("standard", True, None, -5.0)


class TestSessionMemoryBudget:
    def config(self, memory_budget_mb):
        return RunConfig(
            cluster=ClusterConfig(num_pes=8),
            topology=TopologyConfig(),
            policy=PolicyConfig("ulba"),
            scenario=ScenarioConfig(
                name="synthetic-hotspot",
                columns_per_pe=16,
                rows=16,
                iterations=12,
                seed=0,
            ),
            runner=RunnerConfig(replicas=4, memory_budget_mb=memory_budget_mb),
        )

    def test_budgeted_run_batch_matches_unbudgeted(self):
        free = Session.from_config(self.config(None)).run_batch()
        # 8 PEs dense gossip: 2 KiB peak per replica (board + merge
        # transients); a 2.5 KiB budget forces one-replica chunks.
        tight = Session.from_config(self.config(2.5 / 1024.0)).run_batch()
        assert_batches_identical(tight, free)

    def test_config_round_trips_budget(self):
        cfg = self.config(64.0)
        assert RunConfig.from_json(cfg.to_json()) == cfg
        assert cfg.runner.memory_budget_mb == 64.0

    def test_bad_budget_rejected(self):
        with pytest.raises(ValueError):
            RunnerConfig(memory_budget_mb=0.0)
