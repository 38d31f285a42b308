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
    sparse_random_push_targets,
    topology_push_targets,
)
from repro.utils.rng import ensure_rng


def own_value(board, rank):
    """The value ``rank`` published for itself, or ``None``."""
    rows = board.known_rows()
    return float(rows.own[rank]) if rows.has_own[rank] else None


def assert_same_rows(a, b):
    """Two boards' :class:`KnownRows` agree bit for bit: field by field, and
    rank by rank for the sources (which a complete dense board shares)."""
    for name in ("values", "counts", "own", "has_own"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name
    for rank in range(len(a)):
        assert np.array_equal(a.known_sources(rank), b.known_sources(rank))


def local_view(board, rank):
    """What ``rank`` knows, as a ``source -> value`` dict, from ``known_rows``."""
    rows = board.known_rows()
    return dict(zip(rows.known_sources(rank).tolist(), rows.known_values(rank).tolist()))


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
        assert_same_rows(sparse.known_rows(), dense.known_rows())
        for rank in range(num_ranks):
            assert local_view(sparse, rank) == local_view(dense, rank)

    @settings(max_examples=20, deadline=None)
    @given(
        num_ranks=st.integers(2, 40),
        fanout=st.integers(1, 4),
        seed=st.integers(0, 1000),
        topology=st.sampled_from(["random", "ring", "hypercube"]),
    )
    def test_property_full_views_agree(self, num_ranks, fanout, seed, topology):
        """Once every view is complete, sparse == dense."""
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
        sparse_rows = sparse.known_rows()
        assert (sparse_rows.counts == num_ranks).all()
        assert_same_rows(sparse_rows, dense.known_rows())

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
            results.append([local_view(board, r) for r in range(16)])
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
        counts = board.known_rows().counts
        for rank in range(num_ranks):
            assert len(local_view(board, rank)) <= bound
            assert counts[rank] == len(local_view(board, rank))

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
            assert own_value(board, rank) == values[rank]
            assert local_view(board, rank)[rank] == values[rank]

    def test_bounded_board_never_reports_complete(self):
        board = SparseGossipBoard(
            8, config=GossipConfig(mode="sparse", view_size=4), seed=0
        )
        board.publish_all(np.zeros(8))
        for _ in range(50):
            board.step()
        assert not board.is_complete()
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
            view = local_view(board, rank)
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
            return [local_view(board, r) for r in range(20)]

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
            assert local_view(board, rank)[0] == 5.0

    def test_stale_copy_never_overwrites(self):
        board = SparseGossipBoard(
            3, config=GossipConfig(mode="sparse", topology="ring", fanout=1)
        )
        board.publish(0, 9.0, version=7)
        board.step()  # rank 1 learns (0, v7)
        # A later self-publish at a lower version must not regress rank 0's
        # slot; publish() rejects it like the dense board.
        board.publish(0, 1.0, version=2)
        assert own_value(board, 0) == 9.0

    def test_self_publish_wins_ties(self):
        board = SparseGossipBoard(3, config=GossipConfig(mode="sparse"))
        board.publish(1, 2.0, version=5)
        board.publish(1, 4.0, version=5)
        assert own_value(board, 1) == 4.0

    def test_publish_all_respects_versions(self):
        board = SparseGossipBoard(4, config=GossipConfig(mode="sparse"))
        board.publish(2, 8.0, version=9)
        board.publish_all(np.full(4, 1.0), version=3)
        assert own_value(board, 2) == 8.0  # newer entry kept
        assert own_value(board, 0) == 1.0

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
            local_view(board, -1)


def _oracle_round(views, pushes, view_size):
    """One round of the documented sparse merge, per receiver, in pure Python.

    ``views[r]`` maps source rank -> ``(version, value)``.  Every receiver
    starts from its own entries and walks the round's pushes in edge order
    over the *pre-round* views: a pushed copy replaces the current best when
    it is strictly fresher, or equally fresh and the current best is itself
    a pushed copy (the receiver keeps ties; among pushed copies the later
    push wins).  The own entry is then pinned and the freshest
    ``view_size - 1`` others are kept, ordered by ``(-version, source)``.
    """
    merged = []
    for rank, view in enumerate(views):
        best = {src: (ver, val, True) for src, (ver, val) in view.items()}
        for push_src, push_dst in pushes:
            if push_dst != rank:
                continue
            for src, (ver, val) in views[push_src].items():
                current = best.get(src)
                if current is None or ver > current[0] or (
                    ver == current[0] and not current[2]
                ):
                    best[src] = (ver, val, False)
        new_view = {}
        own = best.pop(rank, None)
        if own is not None:
            new_view[rank] = own[:2]
        others = sorted(best.items(), key=lambda item: (-item[1][0], item[0]))
        for src, (ver, val, _) in others[: view_size - 1]:
            new_view[src] = (ver, val)
        merged.append(new_view)
    return merged


def _oracle_arrays(views, view_size):
    """The slot layout of oracle views: own entry in slot 0, then by freshness."""
    num_ranks = len(views)
    src = np.full((num_ranks, view_size), -1, dtype=np.int64)
    val = np.zeros((num_ranks, view_size))
    ver = np.full((num_ranks, view_size), -1, dtype=np.int64)
    src[:, 0] = np.arange(num_ranks)
    for rank, view in enumerate(views):
        if rank in view:
            ver[rank, 0], val[rank, 0] = view[rank]
        others = sorted(
            ((-v, s, x) for s, (v, x) in view.items() if s != rank)
        )
        for slot, (neg_ver, s, x) in enumerate(others, start=1):
            src[rank, slot], ver[rank, slot], val[rank, slot] = s, -neg_ver, x
    return src, val, ver


class TestMergeOracle:
    """The vectorized merge equals a per-receiver Python oracle, round by round."""

    @given(data=st.data())
    def test_property_merge_matches_oracle(self, data):
        num_ranks = data.draw(st.integers(1, 24), label="num_ranks")
        view_size = data.draw(
            st.one_of(st.none(), st.integers(2, num_ranks + 2)), label="view_size"
        )
        fanout = data.draw(st.integers(1, 4), label="fanout")
        topology = data.draw(
            st.sampled_from(["random", "ring", "hypercube"]), label="topology"
        )
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        config = GossipConfig(
            mode="sparse", topology=topology, fanout=fanout, view_size=view_size
        )
        board = SparseGossipBoard(num_ranks, config=config, seed=seed)
        m = board.view_size
        rng = ensure_rng(seed)
        views = [{} for _ in range(num_ranks)]
        # Explicit versions up to 2**62 spread the known versions of a round
        # beyond what fits a packed key next to the other fields.
        versions = st.one_of(
            st.none(), st.integers(0, 64), st.integers(0, 2**62)
        )
        for step in range(data.draw(st.integers(1, 8), label="rounds")):
            publishers = data.draw(
                st.lists(st.integers(0, num_ranks - 1), max_size=num_ranks),
                label="publishers",
            )
            for rank in publishers:
                value = data.draw(
                    st.floats(-1e6, 1e6, allow_nan=False), label="value"
                )
                version = data.draw(versions, label="version")
                board.publish(rank, value, version=version)
                v = step if version is None else version
                if v >= views[rank].get(rank, (-1, 0.0))[0]:
                    views[rank][rank] = (v, value)
            if num_ranks > 1:
                if topology == "random":
                    src, dst = sparse_random_push_targets(rng, num_ranks, fanout)
                else:
                    src, dst = topology_push_targets(
                        step, num_ranks, fanout, topology
                    )
                views = _oracle_round(views, list(zip(src.tolist(), dst.tolist())), m)
            board.step()
            exp_src, exp_val, exp_ver = _oracle_arrays(views, m)
            assert np.array_equal(board._src, exp_src)
            assert np.array_equal(board._ver, exp_ver)
            assert board._val.tobytes() == exp_val.tobytes()

    def test_version_ties_keep_the_receivers_copy(self):
        """Copies of one (source, version) with different values: the
        receiver keeps its own copy, and among pushes the later one wins."""
        board = SparseGossipBoard(
            4, config=GossipConfig(mode="sparse", topology="ring", fanout=2)
        )
        views = [
            {0: (1, 0.0), 3: (7, 30.0)},
            {1: (1, 1.0), 3: (7, 31.0)},
            {2: (1, 2.0)},
            {3: (7, 33.0)},
        ]
        board._src, board._val, board._ver = _oracle_arrays(views, 4)
        src, dst = topology_push_targets(0, 4, 2, "ring")
        board.step()
        exp_src, exp_val, exp_ver = _oracle_arrays(
            _oracle_round(views, list(zip(src.tolist(), dst.tolist())), 4), 4
        )
        assert np.array_equal(board._src, exp_src)
        assert np.array_equal(board._ver, exp_ver)
        assert np.array_equal(board._val, exp_val)
        assert local_view(board, 1)[3] == 31.0  # kept over pushes of 30.0 and 33.0
        assert local_view(board, 2)[3] == 31.0  # rank 1 pushes after rank 0

    def test_huge_version_spread(self):
        """Versions 0 and 2**62 in one round still merge by freshness."""
        board = SparseGossipBoard(
            5, config=GossipConfig(mode="sparse", topology="ring", fanout=2, view_size=3)
        )
        for rank in range(5):
            board.publish(rank, float(rank), version=0 if rank % 2 else 2**62 - rank)
        views = [{rank: (board._ver[rank, 0], float(rank))} for rank in range(5)]
        for step in range(3):
            src, dst = topology_push_targets(step, 5, 2, "ring")
            views = _oracle_round(views, list(zip(src.tolist(), dst.tolist())), 3)
            board.step()
            exp_src, exp_val, exp_ver = _oracle_arrays(views, 3)
            assert np.array_equal(board._src, exp_src)
            assert np.array_equal(board._ver, exp_ver)
            assert np.array_equal(board._val, exp_val)
