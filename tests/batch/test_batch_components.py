"""Unit tests of the batched state primitives underneath the engine.

The engine's end-to-end equivalence guard lives in
``test_batch_equivalence.py``; these tests pin the component contracts --
batched PE state and its row views, the ``(R, P, P)`` gossip board, the
batched WIR estimators/database and the CI helper -- in isolation, so a
regression points at the broken layer directly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.lb.wir import BatchWIRDatabase, WIRDatabase, WIREstimateArray
from repro.simcluster.gossip import BatchGossipBoard, GossipBoard, GossipConfig
from repro.simcluster.pe import PEStateArrays
from repro.utils.stats import mean_confidence_interval


def local_view(board, rank):
    """What ``rank`` knows, as a ``source -> value`` dict, from ``known_rows``."""
    rows = board.known_rows()
    return dict(zip(rows.known_sources(rank).tolist(), rows.known_values(rank).tolist()))


class TestBatchedPEState:
    def test_shapes_and_size(self):
        state = PEStateArrays(8, 1.0e9, replicas=3)
        assert state.clock.shape == (3, 8)
        assert state.size == 8
        assert state.replicas == 3

    def test_replica_view_shares_memory(self):
        state = PEStateArrays(4, 1.0e9, replicas=2)
        view = state.replica_view(1)
        assert view.replicas is None
        view.clock += 2.0
        assert (state.clock[1] == 2.0).all()
        assert (state.clock[0] == 0.0).all()
        state.busy_time[1, 2] = 7.0
        assert view.busy_time[2] == 7.0

    def test_replica_synchronize_is_per_row(self):
        state = PEStateArrays(3, 1.0e9, replicas=2)
        state.clock[0] = [1.0, 5.0, 2.0]
        state.clock[1] = [4.0, 0.0, 3.0]
        latest = state.synchronize(1.0)
        assert latest == 6.0
        assert (state.clock[0] == 6.0).all()
        assert (state.clock[1] == 5.0).all()

    def test_view_synchronize_matches_solo_branch(self):
        batch = PEStateArrays(3, 1.0e9, replicas=2)
        solo = PEStateArrays(3, 1.0e9)
        for target in (batch.replica_view(0), solo):
            target.clock[:] = [1.0, 2.0, 0.5]
            assert target.synchronize(0.25) == 2.25
        assert np.array_equal(batch.clock[0], solo.clock)

    def test_replica_view_requires_batched_state(self):
        with pytest.raises(ValueError, match="batched"):
            PEStateArrays(4, 1.0e9).replica_view(0)
        with pytest.raises(ValueError, match="outside"):
            PEStateArrays(4, 1.0e9, replicas=2).replica_view(2)


class TestBatchGossipBoard:
    @pytest.mark.parametrize("as_generator", [False, True])
    @pytest.mark.parametrize("num_ranks", [1, 2, 5, 16])
    def test_bit_identical_to_solo_boards(self, as_generator, num_ranks):
        replicas = 5
        config = GossipConfig(fanout=2)
        seeds = [100 + r for r in range(replicas)]
        solos = [GossipBoard(num_ranks, config=config, seed=s) for s in seeds]
        # A ready generator per replica is consumed like the seed it wraps.
        batch_seeds = [np.random.default_rng(s) for s in seeds] if as_generator else seeds
        batch = BatchGossipBoard(num_ranks, batch_seeds, config=config)
        rng = np.random.default_rng(0)
        for _ in range(25):
            values = rng.random((replicas, num_ranks))
            for r, board in enumerate(solos):
                board.publish_all(values[r])
            batch.publish_all(values)
            for board in solos:
                board.step()
            batch.step()
        for r, board in enumerate(solos):
            for rank in range(num_ranks):
                assert local_view(batch.replica(r), rank) == local_view(board, rank)
        assert batch.is_complete() == all(b.is_complete() for b in solos)

    def test_steps_counter_and_bounds(self):
        batch = BatchGossipBoard(4, [0, 1])
        assert batch.steps == 0
        batch.step()
        assert batch.steps == 1
        with pytest.raises(ValueError, match="replica"):
            batch.replica(2)
        with pytest.raises(ValueError, match="rank"):
            local_view(batch.replica(0), 4)

    def test_requires_replicas(self):
        with pytest.raises(ValueError, match="at least one replica"):
            BatchGossipBoard(4, [])

    def test_publish_all_shape_checked(self):
        batch = BatchGossipBoard(4, [0, 1])
        with pytest.raises(ValueError, match="replicas, ranks"):
            batch.publish_all(np.zeros(4))


class TestBatchedWIREstimators:
    def test_batched_ema_matches_solo_arrays(self):
        replicas, num_pes = 3, 6
        batch = WIREstimateArray(num_pes, smoothing=0.5, replicas=replicas)
        solos = [
            WIREstimateArray(num_pes, smoothing=0.5, replicas=1)
            for _ in range(replicas)
        ]
        rng = np.random.default_rng(7)
        for _ in range(20):
            w = rng.random((replicas, num_pes)) * 10.0
            batched = batch.observe(w)
            for r, solo in enumerate(solos):
                assert np.array_equal(solo.observe(w[r : r + 1])[0], batched[r])

    def test_reset_replica_after_migration(self):
        batch = WIREstimateArray(4, replicas=2)
        batch.observe(np.ones((2, 4)))
        batch.observe(np.full((2, 4), 2.0))
        batch.reset_replica_after_migration(0, np.full(4, 9.0))
        rates_before = batch.rates
        batch.observe(np.full((2, 4), 9.0))
        rates = batch.rates
        # Replica 0 was re-anchored at 9.0 -> zero diff; replica 1 jumped.
        assert np.allclose(rates[0], 0.5 * 0.0 + 0.5 * rates_before[0])
        assert (rates[1] > rates[0]).all()

    def test_reset_replica_requires_batched_form(self):
        with pytest.raises(TypeError, match="replicas"):
            WIREstimateArray(4)
        with pytest.raises(ValueError, match="replica"):
            WIREstimateArray(4, replicas=2).reset_replica_after_migration(
                2, np.zeros(4)
            )

    def test_shape_validation(self):
        batch = WIREstimateArray(4, replicas=2)
        with pytest.raises(ValueError, match="shape"):
            batch.observe(np.zeros(4))


class TestBatchWIRDatabase:
    @pytest.mark.parametrize("use_gossip", [True, False])
    def test_views_match_solo_databases(self, use_gossip):
        replicas, num_ranks = 3, 8
        seeds = [50 + r for r in range(replicas)]
        solos = [
            WIRDatabase(num_ranks, use_gossip=use_gossip, seed=s) for s in seeds
        ]
        batch = BatchWIRDatabase(num_ranks, seeds, use_gossip=use_gossip)
        rng = np.random.default_rng(1)
        for _ in range(15):
            wirs = rng.random((replicas, num_ranks))
            for r, db in enumerate(solos):
                db.publish_all(wirs[r])
                db.disseminate()
            batch.publish_all(wirs)
            batch.disseminate()
        for r, db in enumerate(solos):
            facade = batch.replica(r)
            assert facade.num_ranks == num_ranks
            rows, solo = facade.known_rows(), db.known_rows()
            assert len(rows) == num_ranks
            for rank in range(num_ranks):
                assert local_view(facade, rank) == local_view(db, rank)
            for field in ("own", "has_own", "counts"):
                assert np.array_equal(getattr(rows, field), getattr(solo, field))

    def test_bounds_checked(self):
        batch = BatchWIRDatabase(4, [0, 1], use_gossip=False)
        with pytest.raises(ValueError, match="replica"):
            batch.replica(2)
        with pytest.raises(ValueError, match="replicas, ranks"):
            batch.publish_all(np.zeros((3, 4)))


class TestMeanConfidenceInterval:
    def test_known_values(self):
        mean, half = mean_confidence_interval([1.0, 2.0, 3.0, 4.0])
        assert mean == 2.5
        # z_{0.975} * s / sqrt(n) with s = sqrt(5/3).
        expected = 1.959963984540054 * np.sqrt(5.0 / 3.0) / 2.0
        assert half == pytest.approx(expected, rel=1e-9)

    def test_single_sample_has_zero_width(self):
        assert mean_confidence_interval([7.0]) == (7.0, 0.0)

    def test_validation(self):
        with pytest.raises(ValueError, match="empty"):
            mean_confidence_interval([])
        with pytest.raises(ValueError, match="confidence"):
            mean_confidence_interval([1.0, 2.0], confidence=1.5)
