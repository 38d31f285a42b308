"""Tests of :mod:`repro.simcluster.gossip` (WIR dissemination substrate)."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simcluster.gossip import GossipBoard, GossipConfig


class TestGossipConfig:
    def test_defaults(self):
        config = GossipConfig()
        assert config.fanout == 2

    def test_invalid_fanout(self):
        with pytest.raises(ValueError):
            GossipConfig(fanout=0)


class TestGossipBoard:
    def test_publish_and_local_view(self):
        board = GossipBoard(4, seed=0)
        board.publish(2, 7.5)
        assert board.local_view(2) == {2: 7.5}
        assert board.local_view(0) == {}

    def test_publish_overwrites_with_newer_version(self):
        board = GossipBoard(2, seed=0)
        board.publish(0, 1.0)
        board.publish(0, 2.0)
        assert board.local_view(0)[0] == 2.0

    def test_publish_ignores_stale_version(self):
        board = GossipBoard(2, seed=0)
        board.publish(0, 1.0, version=10)
        board.publish(0, 2.0, version=3)
        assert board.local_view(0)[0] == 1.0

    def test_invalid_rank(self):
        board = GossipBoard(2, seed=0)
        with pytest.raises(ValueError):
            board.publish(2, 1.0)
        with pytest.raises(ValueError):
            board.local_view(-1)

    def test_known_fraction(self):
        board = GossipBoard(4, seed=0)
        assert board.known_rows().counts.tolist() == [0, 0, 0, 0]
        board.publish(0, 1.0)
        assert board.known_rows().counts.tolist() == [1, 0, 0, 0]

    def test_single_rank_is_trivially_complete(self):
        board = GossipBoard(1, seed=0)
        board.publish(0, 3.0)
        assert board.is_complete()
        board.step()  # no peers: must not raise
        assert board.steps == 1

    def test_step_spreads_values(self):
        board = GossipBoard(8, config=GossipConfig(fanout=3), seed=1)
        for rank in range(8):
            board.publish(rank, float(rank))
        before = sum(len(board.local_view(r)) for r in range(8))
        board.step()
        after = sum(len(board.local_view(r)) for r in range(8))
        assert after > before

    def test_values_never_corrupted(self):
        board = GossipBoard(6, seed=2)
        for rank in range(6):
            board.publish(rank, rank * 10.0)
        board.run_until_complete()
        for rank in range(6):
            view = board.local_view(rank)
            assert view == {r: r * 10.0 for r in range(6)}

    def test_run_until_complete_returns_rounds(self):
        board = GossipBoard(16, seed=3)
        for rank in range(16):
            board.publish(rank, 1.0)
        rounds = board.run_until_complete()
        assert rounds >= 1
        assert board.is_complete()

    def test_run_until_complete_raises_without_publishers(self):
        board = GossipBoard(4, seed=4)
        board.publish(0, 1.0)  # ranks 1-3 never publish
        with pytest.raises(RuntimeError):
            board.run_until_complete(max_steps=5)

    def test_convergence_is_fast(self):
        """Push gossip with fanout 2 converges in O(log P) rounds whp; allow
        a generous constant."""
        board = GossipBoard(64, seed=5)
        for rank in range(64):
            board.publish(rank, float(rank))
        rounds = board.run_until_complete(max_steps=200)
        assert rounds <= 8 * int(math.log2(64)) + 10

    def test_deterministic_for_seed(self):
        def run(seed):
            board = GossipBoard(10, seed=seed)
            for rank in range(10):
                board.publish(rank, float(rank))
            board.step()
            return [board.local_view(r) for r in range(10)]

        assert run(9) == run(9)

    def test_updates_propagate_after_convergence(self):
        """A value published after convergence eventually replaces the old
        one everywhere (freshness by version number)."""
        board = GossipBoard(8, seed=7)
        for rank in range(8):
            board.publish(rank, 0.0)
        board.run_until_complete()
        board.publish(3, 99.0)
        for _ in range(30):
            board.step()
        assert all(board.local_view(r)[3] == 99.0 for r in range(8))

    @settings(max_examples=15)
    @given(
        num_ranks=st.integers(min_value=2, max_value=32),
        fanout=st.integers(min_value=1, max_value=4),
        seed=st.integers(0, 100),
    )
    def test_property_views_subset_of_published(self, num_ranks, fanout, seed):
        """No rank ever knows a value that was not published."""
        board = GossipBoard(num_ranks, config=GossipConfig(fanout=fanout), seed=seed)
        published = {}
        for rank in range(0, num_ranks, 2):
            board.publish(rank, float(rank))
            published[rank] = float(rank)
        for _ in range(5):
            board.step()
        for rank in range(num_ranks):
            view = board.local_view(rank)
            assert set(view).issubset(set(published))
            for src, value in view.items():
                assert value == published[src]


class TestVersionTieBreakRule:
    """The consistent tie-break rule: freshest wins, self-publish wins ties."""

    def test_self_publish_wins_equal_version(self):
        board = GossipBoard(2, seed=0)
        board.publish(0, 1.0, version=10)
        board.publish(0, 2.0, version=10)
        assert board.local_view(0)[0] == 2.0

    def test_merge_keeps_existing_on_equal_version(self):
        # P=2, fanout=1: each rank always pushes to the other, so the
        # propagation schedule is deterministic.
        board = GossipBoard(2, config=GossipConfig(fanout=1), seed=0)
        board.publish(0, 1.0, version=10)
        board.step()
        assert board.local_view(1)[0] == 1.0
        # Rank 0 re-publishes at the same version: locally the self-publish
        # wins the tie, but the merged copy held by rank 1 is not replaced
        # by an equal-version push.
        board.publish(0, 2.0, version=10)
        assert board.local_view(0)[0] == 2.0
        board.step()
        assert board.local_view(1)[0] == 1.0

    def test_merge_overwrites_on_strictly_newer_version(self):
        board = GossipBoard(2, config=GossipConfig(fanout=1), seed=0)
        board.publish(0, 1.0, version=10)
        board.step()
        board.publish(0, 2.0, version=11)
        board.step()
        assert board.local_view(1)[0] == 2.0

    def test_merge_never_regresses_to_older_version(self):
        board = GossipBoard(2, config=GossipConfig(fanout=1), seed=0)
        board.publish(1, 5.0, version=20)
        board.step()
        assert board.local_view(0)[1] == 5.0
        # An older copy arriving later must not replace the fresher value;
        # rank 1's own entry is fresher, so pushes cannot regress rank 0.
        board.publish(1, 6.0, version=3)
        assert board.local_view(1)[1] == 5.0
        board.step()
        assert board.local_view(0)[1] == 5.0


class TestPublishAll:
    def test_matches_per_rank_publish(self):
        import numpy as np

        a = GossipBoard(5, seed=1)
        b = GossipBoard(5, seed=1)
        values = np.asarray([3.0, 1.0, 4.0, 1.5, 9.0])
        a.publish_all(values)
        for rank in range(5):
            b.publish(rank, float(values[rank]))
        assert all(a.local_view(r) == b.local_view(r) for r in range(5))

    def test_respects_existing_newer_versions(self):
        import numpy as np

        board = GossipBoard(3, seed=0)
        board.publish(1, 42.0, version=99)
        board.publish_all(np.asarray([1.0, 2.0, 3.0]))
        assert board.local_view(0)[0] == 1.0
        assert board.local_view(1)[1] == 42.0  # version 99 > step count 0
        assert board.local_view(2)[2] == 3.0

    def test_wrong_length_rejected(self):
        import numpy as np

        board = GossipBoard(3, seed=0)
        with pytest.raises(ValueError):
            board.publish_all(np.zeros(2))


class TestSelectPushTargets:
    def test_shapes_and_no_self_pushes(self):
        import numpy as np

        from repro.simcluster.gossip import select_push_targets

        rng = np.random.default_rng(0)
        src, dst = select_push_targets(rng, 16, 2)
        assert src.shape == dst.shape == (32,)
        assert (src != dst).all()
        assert src.min() >= 0 and src.max() < 16
        assert dst.min() >= 0 and dst.max() < 16

    def test_targets_distinct_per_source(self):
        import numpy as np

        from repro.simcluster.gossip import select_push_targets

        rng = np.random.default_rng(1)
        for _ in range(20):
            src, dst = select_push_targets(rng, 12, 3)
            for s in range(12):
                targets = dst[src == s]
                assert len(set(targets.tolist())) == targets.size

    def test_fanout_clipped_to_peers(self):
        import numpy as np

        from repro.simcluster.gossip import select_push_targets

        rng = np.random.default_rng(2)
        src, dst = select_push_targets(rng, 3, 10)
        # Each of the 3 ranks pushes to both of its 2 peers.
        assert src.size == 6
        src_, dst_ = select_push_targets(rng, 1, 2)
        assert src_.size == dst_.size == 0

    def test_single_rng_draw_per_round(self):
        import numpy as np

        from repro.simcluster.gossip import select_push_targets

        class CountingRNG:
            def __init__(self):
                self._rng = np.random.default_rng(0)
                self.calls = 0

            def random(self, *args, **kwargs):
                self.calls += 1
                return self._rng.random(*args, **kwargs)

            def __getattr__(self, name):
                return getattr(self._rng, name)

        rng = CountingRNG()
        select_push_targets(rng, 64, 2)
        assert rng.calls == 1


class TestVectorizedAgainstReferenceBoard:
    def test_identical_views_under_shared_selection(self):
        import numpy as np

        from repro.runtime.reference import ReferenceGossipBoard

        rng = np.random.default_rng(13)
        for trial in range(10):
            num_ranks = int(rng.integers(2, 24))
            fanout = int(rng.integers(1, 4))
            config = GossipConfig(fanout=fanout)
            seed = int(rng.integers(0, 1 << 30))
            fast = GossipBoard(num_ranks, config=config, seed=seed)
            slow = ReferenceGossipBoard(
                num_ranks, config=config, seed=seed, batched_targets=True
            )
            for _ in range(15):
                ranks = rng.integers(0, num_ranks, size=max(1, num_ranks // 2))
                values = rng.random(ranks.size)
                for r, v in zip(ranks.tolist(), values.tolist()):
                    fast.publish(r, v)
                    slow.publish(r, v)
                fast.step()
                slow.step()
                for r in range(num_ranks):
                    assert fast.local_view(r) == slow.local_view(r)

    def test_negative_explicit_version_rejected(self):
        board = GossipBoard(2, seed=0)
        with pytest.raises(ValueError):
            board.publish(0, 1.0, version=-1)
        import numpy as np

        with pytest.raises(ValueError):
            board.publish_all(np.zeros(2), version=-3)
