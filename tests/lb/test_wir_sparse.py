"""Sparse-gossip WIR database and its graceful degradation in the LB layer.

The sparse board's views are partial by design; these tests pin that the
WIR database surfaces them through the same API as early-phase dense gossip
(so the ULBA policies run unchanged), that every rank's view and own WIR
read back through ``known_rows()`` on partial and complete views alike, and
that the batched database's sparse replicas are bit-identical to solo
sparse databases.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.api import (
    ClusterConfig,
    PolicyConfig,
    RunConfig,
    ScenarioConfig,
    Session,
    TopologyConfig,
)

from repro.lb.base import LBContext
from repro.lb.registry import make_policy_pair
from repro.lb.wir import BatchWIRDatabase, WIRDatabase
from repro.runtime.skeleton import IterativeRunner, initial_lb_cost_prior
from repro.runtime.synthetic import SyntheticGrowthApplication
from repro.simcluster.cluster import VirtualCluster
from repro.simcluster.gossip import GossipConfig, SparseGossipBoard

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
        assert db.known_rows().counts.tolist() == [len(db.view(r)) for r in range(16)]

    def test_own_rate_always_known(self):
        db = make_db()
        for _ in range(8):
            db.disseminate()
        rows = db.known_rows()
        assert rows.has_own.all()
        assert rows.own.tolist() == [float(rank) for rank in range(16)]

    def test_unbounded_sparse_completes_like_dense(self):
        cfg = GossipConfig(mode="sparse", fanout=2)
        db = make_db(config=cfg)
        for _ in range(30):
            db.disseminate()
        rows = db.known_rows()
        assert rows.counts.tolist() == [16] * 16
        assert np.array_equal(rows.values.reshape(16, 16)[0], np.arange(16.0))

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
            for left, right in zip(replica.known_rows(), solo.known_rows()):
                assert left.tobytes() == right.tobytes()

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
        rows = views.known_rows()
        assert rows.has_own.all() and rows.own.tolist() == [1.0] * 8
        assert rows.counts.tolist() == [len(view) for view in views]
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
        assert db.known_rows().counts.tolist() == [4] * 4

    def test_bad_view_size_rejected_at_config(self):
        with pytest.raises(ValueError):
            GossipConfig(mode="sparse", view_size=0)


def sparse_run_digest(num_pes, view_size, topology, iterations, seed, monkeypatch):
    """SHA-256 over a seeded sparse ULBA run: every round's board arrays, the
    iteration-time series, the LB call count and every LB step's flagged
    ranks.  Returns ``(digest, rounds, flagged counts per LB step)``."""
    digest = hashlib.sha256()
    rounds = []
    step = SparseGossipBoard.step

    def recording_step(board):
        step(board)
        rounds.append(board.steps)
        for array in (board._src, board._val, board._ver):
            digest.update(array.tobytes())

    monkeypatch.setattr(SparseGossipBoard, "step", recording_step)
    config = RunConfig(
        cluster=ClusterConfig(num_pes=num_pes),
        topology=TopologyConfig(
            gossip_mode="sparse", view_size=view_size, push_topology=topology
        ),
        policy=PolicyConfig("ulba", {"alpha": 0.4}),
        scenario=ScenarioConfig(
            name="synthetic-hotspot",
            columns_per_pe=2,
            iterations=iterations,
            seed=seed,
        ),
    )
    run = Session.from_config(config).run().run
    digest.update(run.trace.iteration_time_series().tobytes())
    digest.update(repr(run.num_lb_calls).encode())
    flagged = [report.decision.overloading_ranks for report in run.lb_reports]
    digest.update(repr(flagged).encode())
    return digest.hexdigest(), len(rounds), [len(ranks) for ranks in flagged]


class TestPinnedSparseRuns:
    """Seeded sparse runs pinned bit for bit: board state after every
    gossip round, timings, LB calls and the per-rank overload decisions."""

    def test_p1024_random_view64(self, monkeypatch):
        digest, rounds, flagged = sparse_run_digest(1024, 64, "random", 24, 7, monkeypatch)
        assert (rounds, flagged) == (24, [36, 35, 13, 19, 15, 11, 6])
        assert digest == (
            "31a74897308c34ad6ffdb9109fdef37d01643858ec3ed4e4f8f9ce1686f1e6c0"
        )

    def test_p256_ring_view32(self, monkeypatch):
        digest, rounds, flagged = sparse_run_digest(256, 32, "ring", 40, 3, monkeypatch)
        assert (rounds, flagged) == (40, [9, 5, 6, 3, 10, 4, 1, 4, 4, 0, 1, 0, 1, 1, 1])
        assert digest == (
            "d9fad6994f607d5ada56574b085227ba1f4132388521ce252d8fd3fecebd9e83"
        )
