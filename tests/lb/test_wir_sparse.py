"""Sparse-gossip WIR database and its graceful degradation in the LB layer.

The sparse board's views are partial by design; these tests pin that the
WIR database surfaces them through the same API as early-phase dense gossip
(so the ULBA policies run unchanged), that the dense ``complete_matrix``
fast paths degrade gracefully (return ``None``, never a wrong matrix), and
that the batched database's sparse replicas are bit-identical to solo
sparse databases.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.lb.base import LBContext
from repro.lb.registry import make_policy_pair
from repro.lb.wir import BatchWIRDatabase, WIRDatabase
from repro.runtime.skeleton import IterativeRunner, initial_lb_cost_prior
from repro.runtime.synthetic import SyntheticGrowthApplication
from repro.simcluster.cluster import VirtualCluster
from repro.simcluster.gossip import GossipConfig

SPARSE = GossipConfig(mode="sparse", view_size=6, fanout=2)


def make_db(num_ranks=16, config=SPARSE, seed=0):
    db = WIRDatabase(num_ranks, gossip_config=config, seed=seed)
    db.publish_all(np.arange(float(num_ranks)))
    return db


class TestSparseWIRDatabase:
    def test_views_are_partial_but_consistent(self):
        db = make_db()
        for _ in range(10):
            db.disseminate()
        for rank in range(16):
            view = db.view(rank)
            assert 1 <= len(view) <= SPARSE.view_size
            # known_values matches the dict view in ascending source order.
            expected = [view[src] for src in sorted(view)]
            assert db.known_values(rank).tolist() == expected
            assert db.coverage(rank) <= SPARSE.view_size / 16

    def test_own_rate_always_known(self):
        db = make_db()
        for _ in range(8):
            db.disseminate()
        for rank in range(16):
            assert db.own_rate(rank) == float(rank)

    def test_complete_matrix_degrades_to_none(self):
        db = make_db()
        for _ in range(20):
            db.disseminate()
        assert db.complete_matrix() is None
        assert db.views().complete_matrix() is None

    def test_unbounded_sparse_completes_like_dense(self):
        cfg = GossipConfig(mode="sparse", fanout=2)
        db = make_db(config=cfg)
        for _ in range(30):
            db.disseminate()
        matrix = db.complete_matrix()
        assert matrix is not None
        assert np.array_equal(matrix[0], np.arange(16.0))

    def test_ulba_policy_decides_on_partial_views(self):
        """The ULBA per-rank rule runs on sparse views (no matrix path)."""
        num = 12
        db = WIRDatabase(num, gossip_config=SPARSE, seed=1)
        rates = np.zeros(num)
        rates[3] = 100.0  # one clear outlier
        db.publish_all(rates)
        for _ in range(6):
            db.disseminate()
        policy, _ = make_policy_pair("ulba")
        context = LBContext(
            iteration=5,
            pe_workloads=tuple(np.ones(num).tolist()),
            wir_views=db.views(),
            last_lb_iteration=0,
            accumulated_degradation=0.0,
            average_lb_cost=1.0,
        )
        decision = policy.decide(context)
        assert len(decision.target_shares) == num
        assert decision.overloading_ranks in ((), (3,))  # depends on coverage

    def test_ulba_trigger_overhead_on_partial_views(self):
        db = make_db()
        for _ in range(4):
            db.disseminate()
        _, trigger = make_policy_pair("ulba")
        context = LBContext(
            iteration=3,
            pe_workloads=tuple(np.ones(16).tolist()),
            wir_views=db.views(),
            last_lb_iteration=0,
            accumulated_degradation=10.0,
            average_lb_cost=0.1,
        )
        assert trigger.should_balance(context) in (True, False)  # no crash


class TestBatchSparseDatabase:
    def test_replicas_bit_identical_to_solo(self):
        num, seeds = 10, [5, 6, 7]
        batch = BatchWIRDatabase(num, seeds, gossip_config=SPARSE)
        solos = [WIRDatabase(num, gossip_config=SPARSE, seed=s) for s in seeds]
        rng = np.random.default_rng(0)
        for _ in range(12):
            wirs = rng.normal(size=(len(seeds), num))
            batch.publish_all(np.abs(wirs) * 0.0 + wirs)  # arbitrary floats
            for r, solo in enumerate(solos):
                solo.publish_all(wirs[r])
            batch.disseminate()
            for solo in solos:
                solo.disseminate()
        for r, solo in enumerate(solos):
            replica = batch.replica(r)
            for rank in range(num):
                assert replica.view(rank) == solo.view(rank)
                assert np.array_equal(
                    replica.known_values(rank), solo.known_values(rank)
                )
                assert replica.own_rate(rank) == solo.own_rate(rank)
            assert replica.complete_matrix() is None

    @pytest.mark.parametrize("topology", ["ring", "hypercube"])
    def test_dense_batch_honours_deterministic_topologies(self, topology):
        """Dense batch replicas follow ring/hypercube edges like solo boards.

        Regression guard: the batched dense board used to ignore
        ``config.topology`` and always draw random targets, silently
        breaking batch-vs-solo equivalence for every non-random topology.
        """
        num, seeds = 8, [0, 1]
        config = GossipConfig(topology=topology, fanout=1)
        batch = BatchWIRDatabase(num, seeds, gossip_config=config)
        solos = [WIRDatabase(num, gossip_config=config, seed=s) for s in seeds]
        values = np.arange(float(num))
        batch.publish_all(np.tile(values, (len(seeds), 1)))
        for solo in solos:
            solo.publish_all(values)
        for _ in range(4):
            batch.disseminate()
            for solo in solos:
                solo.disseminate()
        for r, solo in enumerate(solos):
            for rank in range(num):
                assert batch.replica(r).view(rank) == solo.view(rank)

    def test_replica_facade_serves_lazy_views(self):
        batch = BatchWIRDatabase(8, [0, 1], gossip_config=SPARSE)
        batch.publish_all(np.ones((2, 8)))
        batch.disseminate()
        views = batch.replica(1).views()
        assert views.complete_matrix() is None
        assert views.own_rate(0) == 1.0
        assert len(views[0]) >= 1


class TestRunnerWithSparseGossip:
    def make_runner(self, num_pes=16, gossip_config=SPARSE, seed=3):
        num_columns = num_pes * 8
        app = SyntheticGrowthApplication(
            num_columns, hot_regions=[(0, num_columns // 16)], hot_growth=5.0
        )
        cluster = VirtualCluster(num_pes)
        workload, trigger = make_policy_pair("ulba")
        prior = initial_lb_cost_prior(
            app.total_load() * app.flop_per_load_unit, num_pes, cluster.pe_speed
        )
        return IterativeRunner(
            cluster,
            app,
            workload_policy=workload,
            trigger_policy=trigger,
            gossip_config=gossip_config,
            initial_lb_cost_estimate=prior,
            seed=seed,
        )

    def test_end_to_end_run_completes(self):
        result = self.make_runner().run(40)
        assert result.total_time > 0
        assert len(result.trace.iterations) == 40

    def test_sparse_run_is_deterministic(self):
        a = self.make_runner().run(30)
        b = self.make_runner().run(30)
        assert a.trace.iterations == b.trace.iterations
        assert a.total_time == b.total_time

    def test_default_config_unchanged(self):
        """gossip_config=None keeps the historical dense behaviour."""
        explicit = self.make_runner(gossip_config=GossipConfig())
        default = self.make_runner(gossip_config=None)
        ra, rb = explicit.run(25), default.run(25)
        assert ra.trace.iterations == rb.trace.iterations

    def test_board_memory_stays_bounded(self):
        runner = self.make_runner(num_pes=64)
        runner.run(10)
        board = runner.wir_db._board
        assert board.nbytes == SPARSE.board_nbytes(64)


class TestSparseConfigRejection:
    def test_instant_mode_ignores_gossip_config(self):
        db = WIRDatabase(4, use_gossip=False, gossip_config=SPARSE)
        db.publish_all(np.arange(4.0))
        assert db.complete_matrix() is not None

    def test_bad_view_size_rejected_at_config(self):
        with pytest.raises(ValueError):
            GossipConfig(mode="sparse", view_size=0)
