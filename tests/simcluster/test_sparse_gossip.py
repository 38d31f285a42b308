"""Tests of the memory-bounded sparse gossip board and push topologies.

The sparse board is the large-P execution path: these tests pin its merge
semantics against the dense board (the two must agree entry-for-entry once a
view is complete), its memory bound (views never exceed ``view_size``
entries and a rank's own entry is never evicted), and the deterministic
``ring`` / ``hypercube`` topologies shared with the dense board.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simcluster.gossip import (
    GossipBoard,
    GossipConfig,
    SparseGossipBoard,
    make_gossip_board,
    sparse_random_push_targets,
    topology_push_targets,
)
from repro.utils.rng import ensure_rng


class TestGossipConfigValidation:
    def test_defaults_are_dense_random(self):
        cfg = GossipConfig()
        assert (cfg.mode, cfg.topology, cfg.view_size) == ("dense", "random", None)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            GossipConfig(mode="holographic")

    def test_unknown_topology_rejected(self):
        with pytest.raises(ValueError):
            GossipConfig(topology="torus")

    def test_view_size_must_hold_self_plus_one(self):
        with pytest.raises(ValueError):
            GossipConfig(mode="sparse", view_size=1)
        GossipConfig(mode="sparse", view_size=2)  # minimum useful view

    def test_board_nbytes_scales(self):
        dense = GossipConfig()
        sparse = GossipConfig(mode="sparse", view_size=64)
        assert dense.board_nbytes(4096) == 4096 * 4096 * 16
        assert sparse.board_nbytes(4096) == 4096 * 64 * 24
        # The sparse bound never exceeds P entries even with a huge view.
        assert GossipConfig(mode="sparse", view_size=10_000).board_nbytes(16) == 16 * 16 * 24

    def test_make_gossip_board_dispatch(self):
        assert isinstance(make_gossip_board(8), GossipBoard)
        assert isinstance(
            make_gossip_board(8, config=GossipConfig(mode="sparse")),
            SparseGossipBoard,
        )


class TestTopologyTargets:
    def test_ring_neighbours(self):
        src, dst = topology_push_targets(0, 5, 2, "ring")
        pushes = set(zip(src.tolist(), dst.tolist()))
        assert (0, 1) in pushes and (0, 2) in pushes
        assert (4, 0) in pushes and (4, 1) in pushes  # wraps around
        assert len(pushes) == 5 * 2

    def test_ring_is_step_independent(self):
        a = topology_push_targets(0, 8, 1, "ring")
        b = topology_push_targets(5, 8, 1, "ring")
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_hypercube_partners_are_xor(self):
        src, dst = topology_push_targets(0, 8, 1, "hypercube")
        assert np.array_equal(dst, src ^ 1)
        src, dst = topology_push_targets(1, 8, 1, "hypercube")
        assert np.array_equal(dst, src ^ 2)

    def test_hypercube_skips_missing_partners(self):
        # P = 6 is not a power of two: partners >= P are dropped.
        src, dst = topology_push_targets(2, 6, 1, "hypercube")  # dim bit 2
        assert (dst < 6).all()
        assert (src ^ dst == 4).all()

    def test_single_rank_has_no_pushes(self):
        for topology in ("ring", "hypercube"):
            src, dst = topology_push_targets(0, 1, 2, topology)
            assert src.size == 0 and dst.size == 0

    def test_random_targets_never_self_and_bounded(self):
        rng = ensure_rng(0)
        src, dst = sparse_random_push_targets(rng, 50, 3)
        assert src.size == 50 * 3
        assert (src != dst).all()
        assert dst.min() >= 0 and dst.max() < 50

    def test_random_targets_reproducible(self):
        a = sparse_random_push_targets(ensure_rng(7), 20, 2)
        b = sparse_random_push_targets(ensure_rng(7), 20, 2)
        assert np.array_equal(a[1], b[1])


class TestSparseAgreesWithDense:
    """Unbounded sparse and dense boards must agree once views complete."""

    @pytest.mark.parametrize("topology", ["random", "ring", "hypercube"])
    def test_complete_views_match_dense(self, topology):
        num_ranks = 24
        values = np.linspace(-3.0, 5.0, num_ranks)
        sparse = SparseGossipBoard(
            num_ranks,
            config=GossipConfig(mode="sparse", topology=topology, fanout=2),
            seed=11,
        )
        dense = GossipBoard(num_ranks, seed=11)
        for board in (sparse, dense):
            board.publish_all(values)
            board.run_until_complete()
        assert np.array_equal(sparse.complete_matrix(), dense.complete_matrix())
        for rank in range(num_ranks):
            assert sparse.local_view(rank) == dense.local_view(rank)
            assert np.array_equal(
                sparse.known_values_row(rank), dense.known_values_row(rank)
            )
            assert sparse.own_value(rank) == dense.own_value(rank)

    @settings(max_examples=20, deadline=None)
    @given(
        num_ranks=st.integers(2, 40),
        fanout=st.integers(1, 4),
        seed=st.integers(0, 1000),
        topology=st.sampled_from(["random", "ring", "hypercube"]),
    )
    def test_property_full_views_agree(self, num_ranks, fanout, seed, topology):
        """Once ``known_fraction == 1.0`` everywhere, sparse == dense."""
        values = ensure_rng(seed).normal(size=num_ranks)
        sparse = SparseGossipBoard(
            num_ranks,
            config=GossipConfig(mode="sparse", topology=topology, fanout=fanout),
            seed=seed,
        )
        dense = GossipBoard(
            num_ranks, config=GossipConfig(fanout=fanout), seed=seed + 1
        )
        for board in (sparse, dense):
            board.publish_all(values)
            board.run_until_complete(10_000)
        assert all(sparse.known_fraction(r) == 1.0 for r in range(num_ranks))
        assert np.array_equal(sparse.complete_matrix(), dense.complete_matrix())

    def test_hypercube_completes_in_log2_rounds(self):
        board = SparseGossipBoard(
            32, config=GossipConfig(mode="sparse", topology="hypercube", fanout=1)
        )
        board.publish_all(np.arange(32.0))
        assert board.run_until_complete() == 5  # log2(32)

    def test_deterministic_topologies_consume_no_rng(self):
        results = []
        for seed in (0, 12345):
            board = SparseGossipBoard(
                16,
                config=GossipConfig(mode="sparse", topology="ring", fanout=2),
                seed=seed,
            )
            board.publish_all(np.arange(16.0))
            for _ in range(4):
                board.step()
            results.append([board.local_view(r) for r in range(16)])
        assert results[0] == results[1]

    def test_dense_board_supports_ring_topology(self):
        board = GossipBoard(10, config=GossipConfig(topology="ring", fanout=1))
        board.publish_all(np.arange(10.0))
        steps = board.run_until_complete()
        assert steps == 9  # one hop per round around the ring


class TestBoundedViews:
    def test_views_never_exceed_bound(self):
        num_ranks, bound = 40, 5
        board = SparseGossipBoard(
            num_ranks,
            config=GossipConfig(mode="sparse", view_size=bound, fanout=3),
            seed=2,
        )
        board.publish_all(np.arange(float(num_ranks)))
        for _ in range(30):
            board.step()
        for rank in range(num_ranks):
            assert len(board.local_view(rank)) <= bound
            assert board.known_values_row(rank).size <= bound
            assert board.known_fraction(rank) <= bound / num_ranks

    def test_own_entry_never_evicted(self):
        num_ranks = 30
        board = SparseGossipBoard(
            num_ranks,
            config=GossipConfig(mode="sparse", view_size=3, fanout=4),
            seed=0,
        )
        values = np.arange(float(num_ranks)) * 2.0
        board.publish_all(values)
        for _ in range(25):
            board.step()
        for rank in range(num_ranks):
            assert board.own_value(rank) == values[rank]
            assert board.local_view(rank)[rank] == values[rank]

    def test_bounded_board_never_reports_complete(self):
        board = SparseGossipBoard(
            8, config=GossipConfig(mode="sparse", view_size=4), seed=0
        )
        board.publish_all(np.zeros(8))
        for _ in range(50):
            board.step()
        assert not board.is_complete()
        assert board.complete_matrix() is None
        with pytest.raises(RuntimeError, match="can never become complete"):
            board.run_until_complete()

    def test_memory_bound_matches_config_estimate(self):
        cfg = GossipConfig(mode="sparse", view_size=16)
        board = SparseGossipBoard(256, config=cfg)
        assert board.nbytes == cfg.board_nbytes(256)
        # An order of magnitude below the dense board already at P=256; the
        # gap widens linearly with P (dense is quadratic, sparse linear).
        assert board.nbytes < GossipConfig().board_nbytes(256) / 10
        assert GossipConfig(mode="sparse", view_size=16).board_nbytes(4096) < (
            GossipConfig().board_nbytes(4096) / 150
        )

    def test_eviction_keeps_freshest_entries(self):
        # Rank 1 pushes a view containing old entries; a later round pushes
        # fresher versions; the bounded receiver must retain the fresh ones.
        board = SparseGossipBoard(
            6,
            config=GossipConfig(mode="sparse", view_size=3, topology="ring", fanout=1),
        )
        board.publish_all(np.zeros(6), version=0)
        for _ in range(3):
            board.step()
        board.publish_all(np.ones(6), version=10)
        for _ in range(3):
            board.step()
        for rank in range(6):
            view = board.local_view(rank)
            # The rank's own entry is fresh, and every retained foreign
            # entry with version 10 carries the re-published value.
            assert view[rank] == 1.0

    def test_deterministic_given_seed(self):
        def run():
            board = SparseGossipBoard(
                20,
                config=GossipConfig(mode="sparse", view_size=4, fanout=2),
                seed=42,
            )
            board.publish_all(np.arange(20.0))
            for _ in range(10):
                board.step()
            return [board.local_view(r) for r in range(20)]

        assert run() == run()


class TestFreshestVersionSemantics:
    def test_fresher_version_overwrites(self):
        board = SparseGossipBoard(
            4, config=GossipConfig(mode="sparse", topology="ring", fanout=3)
        )
        board.publish(0, 1.0, version=0)
        board.step()
        board.publish(0, 5.0, version=3)
        for _ in range(3):
            board.step()
        for rank in range(4):
            assert board.local_view(rank)[0] == 5.0

    def test_stale_copy_never_overwrites(self):
        board = SparseGossipBoard(
            3, config=GossipConfig(mode="sparse", topology="ring", fanout=1)
        )
        board.publish(0, 9.0, version=7)
        board.step()  # rank 1 learns (0, v7)
        # A later self-publish at a lower version must not regress rank 0's
        # slot; publish() rejects it like the dense board.
        board.publish(0, 1.0, version=2)
        assert board.own_value(0) == 9.0

    def test_self_publish_wins_ties(self):
        board = SparseGossipBoard(3, config=GossipConfig(mode="sparse"))
        board.publish(1, 2.0, version=5)
        board.publish(1, 4.0, version=5)
        assert board.own_value(1) == 4.0

    def test_publish_all_respects_versions(self):
        board = SparseGossipBoard(4, config=GossipConfig(mode="sparse"))
        board.publish(2, 8.0, version=9)
        board.publish_all(np.full(4, 1.0), version=3)
        assert board.own_value(2) == 8.0  # newer entry kept
        assert board.own_value(0) == 1.0

    def test_negative_version_rejected(self):
        board = SparseGossipBoard(2, config=GossipConfig(mode="sparse"))
        with pytest.raises(ValueError):
            board.publish(0, 1.0, version=-1)
        with pytest.raises(ValueError):
            board.publish_all(np.zeros(2), version=-2)

    def test_rank_bounds_checked(self):
        board = SparseGossipBoard(2, config=GossipConfig(mode="sparse"))
        with pytest.raises(ValueError):
            board.publish(2, 0.0)
        with pytest.raises(ValueError):
            board.local_view(-1)
