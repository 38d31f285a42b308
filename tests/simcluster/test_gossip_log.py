"""The dense board's version-keyed layout: a version matrix plus a publish log.

:class:`ValueMatrixBoard` is the dense board as it was before the publish
log -- ``(R, P, P)`` value and version matrices, merged with a grouped
``np.maximum.reduceat`` over shift-packed ``(version, push)`` keys -- kept
here verbatim as the oracle the log-backed board must match on every read.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.simcluster.gossip import (
    BatchGossipBoard,
    GossipBoard,
    GossipConfig,
    KnownRows,
    _random_push_targets,
    topology_push_targets,
)
from repro.utils.rng import ensure_rng


class ValueMatrixBoard:
    """``R`` dense boards as ``(R, P, P)`` value/version matrices (the oracle)."""

    def __init__(self, num_ranks, seeds, config):
        self.num_ranks = num_ranks
        self.num_replicas = len(seeds)
        self.config = config
        self._rngs = [ensure_rng(s) for s in seeds]
        self._values = np.zeros((len(seeds), num_ranks, num_ranks))
        self._versions = np.full((len(seeds), num_ranks, num_ranks), -1, dtype=np.int64)
        self.steps = 0

    def publish(self, rep, rank, value, version=None):
        v = self.steps if version is None else version
        if v >= self._versions[rep, rank, rank]:
            self._values[rep, rank, rank] = float(value)
            self._versions[rep, rank, rank] = v

    def publish_rows(self, rows, values, version=None):
        v = self.steps if version is None else version
        diag = np.arange(self.num_ranks)
        board_values, board_versions = self._values[rows], self._versions[rows]
        rep_idx, rank_idx = np.nonzero(v >= board_versions[:, diag, diag])
        board_values[rep_idx, rank_idx, rank_idx] = values[rep_idx, rank_idx]
        board_versions[rep_idx, rank_idx, rank_idx] = v

    def step(self):
        num_ranks = self.num_ranks
        if num_ranks > 1:
            if self.config.topology == "random":
                src, dst = _random_push_targets(self._rngs, num_ranks, self.config.fanout)
            else:
                src, edges = topology_push_targets(
                    self.steps, num_ranks, self.config.fanout, self.config.topology
                )
                dst = np.broadcast_to(edges, (self.num_replicas, edges.size))
            if src.size:
                shift = max(1, int(src.shape[0] - 1).bit_length())
                packed = np.left_shift(self._versions, shift)
                entry = np.arange(num_ranks)
                for rep in range(self.num_replicas):
                    self._merge_replica(rep, src, dst[rep], packed[rep], shift, entry)
        self.steps += 1

    def _merge_replica(self, rep, src, dst, packed, shift, entry):
        num_pushes = src.shape[0]
        versions = self._versions[rep]
        values = self._values[rep]
        order = np.argsort(dst, kind="stable")
        dst_sorted = dst[order]
        boundaries = np.empty(num_pushes, dtype=bool)
        boundaries[0] = True
        np.not_equal(dst_sorted[1:], dst_sorted[:-1], out=boundaries[1:])
        group_starts = np.flatnonzero(boundaries)
        receivers = dst_sorted[group_starts]
        src_sorted = src[order]
        keys = packed[src_sorted]
        keys += np.arange(num_pushes, dtype=np.int64)[:, None]
        best = np.maximum.reduceat(keys, group_starts, axis=0)
        incoming_ver = best >> shift
        current_ver = versions[receivers]
        improved = incoming_ver > current_ver
        if not improved.any():
            return
        winner = best & ((1 << shift) - 1)
        incoming_val = values[src_sorted[winner], entry]
        values[receivers] = np.where(improved, incoming_val, values[receivers])
        versions[receivers] = np.where(improved, incoming_ver, current_ver)

    # -- reads ----------------------------------------------------------
    def local_view(self, rep, rank):
        known = np.flatnonzero(self._versions[rep, rank] >= 0)
        return {int(s): float(self._values[rep, rank, s]) for s in known}

    def known_rows(self, rep):
        known = self._versions[rep] >= 0
        return KnownRows(
            self._values[rep][known],
            np.nonzero(known)[1],
            np.count_nonzero(known, axis=1),
            self._values[rep].diagonal(),
            self._versions[rep].diagonal() >= 0,
        )

    def is_complete(self, rep):
        return bool((self._versions[rep] >= 0).all())

    def spread(self, rep, rank, version):
        """Has ``rank``'s own entry at ``version`` reached another rank?"""
        held = self._versions[rep, :, rank]
        return held[rank] == version and np.count_nonzero(held == version) > 1


def local_view(board, rank):
    """What ``rank`` knows, as a ``source -> value`` dict, from ``known_rows``."""
    rows = board.known_rows()
    return dict(zip(rows.known_sources(rank).tolist(), rows.known_values(rank).tolist()))


def assert_same_reads(board: BatchGossipBoard, oracle: ValueMatrixBoard) -> None:
    for rep in range(board.num_replicas):
        view = board.replica(rep)
        got, want = view.known_rows(), oracle.known_rows(rep)
        for rank in range(board.num_ranks):
            expected = oracle.local_view(rep, rank)
            assert got.known_sources(rank).tolist() == list(expected)
            assert got.known_values(rank).tolist() == list(expected.values())
        for field in ("values", "counts", "own", "has_own"):
            assert np.array_equal(getattr(got, field), getattr(want, field)), field
        assert view.is_complete() == oracle.is_complete(rep)
    assert board.is_complete() == all(
        oracle.is_complete(rep) for rep in range(board.num_replicas)
    )


VERSION_KINDS = ("default", "explicit", "stale", "same")

OPS = st.one_of(
    st.tuples(st.just("step")),
    st.tuples(
        st.just("publish"),
        st.integers(0, 2),  # replica (mod R)
        st.integers(0, 23),  # rank (mod P)
        st.floats(-1e3, 1e3, allow_nan=False),
        st.sampled_from(VERSION_KINDS),
        st.integers(0, 40),
    ),
    st.tuples(
        st.just("publish_all"),
        st.integers(-1, 2),  # -1: the whole batch, else one replica (mod R)
        st.integers(0, 2**16),  # seed of the published values
        st.sampled_from(VERSION_KINDS),
        st.integers(0, 40),
    ),
)


class TestValueMatrixOracle:
    """The log-backed board reads exactly like the value-matrix board."""

    @given(
        num_replicas=st.integers(1, 3),
        num_ranks=st.integers(1, 24),
        fanout=st.integers(1, 4),
        topology=st.sampled_from(["random", "ring", "hypercube"]),
        seed=st.integers(0, 2**30),
        ops=st.lists(OPS, max_size=40),
    )
    def test_property_reads_match_value_matrix_board(
        self, num_replicas, num_ranks, fanout, topology, seed, ops
    ):
        config = GossipConfig(fanout=fanout, topology=topology)
        seeds = [seed + r for r in range(num_replicas)]
        board = BatchGossipBoard(num_ranks, seeds, config=config)
        oracle = ValueMatrixBoard(num_ranks, seeds, config)
        last_version = 0
        for op in ops:
            if op[0] == "step":
                board.step()
                oracle.step()
                assert_same_reads(board, oracle)
                continue
            kind, explicit = op[-2], op[-1]
            if kind == "default":
                version = None
            elif kind == "explicit":
                version = explicit
            elif kind == "stale":
                version = max(0, last_version - 1 - explicit % 3)
            else:
                version = last_version
            v = oracle.steps if version is None else version
            # A re-publish after the old copy spread re-sends the held value:
            # which of two different equal-version values a receiver adopts
            # is where the boards may differ (TestConflictingCopies).
            if op[0] == "publish":
                rep, rank, value = op[1] % num_replicas, op[2] % num_ranks, op[3]
                if oracle.spread(rep, rank, v):
                    value = oracle._values[rep, rank, rank]
                board.replica(rep).publish(rank, value, version=version)
                oracle.publish(rep, rank, value, version=version)
            else:
                reps = range(num_replicas) if op[1] < 0 else [op[1] % num_replicas]
                values = np.random.default_rng(op[2]).normal(size=(len(reps), num_ranks))
                for i, rep in enumerate(reps):
                    for rank in range(num_ranks):
                        if oracle.spread(rep, rank, v):
                            values[i, rank] = oracle._values[rep, rank, rank]
                if op[1] < 0:
                    board.publish_all(values, version=version)
                    oracle.publish_rows(slice(None), values, version=version)
                else:
                    rep = reps[0]
                    board.replica(rep).publish_all(values[0], version=version)
                    oracle.publish_rows(slice(rep, rep + 1), values, version=version)
            last_version = v
            assert_same_reads(board, oracle)


class Scripted(np.random.Generator):
    """A generator whose ``random`` hands out prepared push-target keys."""

    def __init__(self, rounds):
        super().__init__(np.random.PCG64(0))
        self._rounds = iter(rounds)

    def random(self, size=None, dtype=np.float64, out=None):
        out[...] = next(self._rounds)
        return out


class TestConflictingCopies:
    def test_latest_republish_wins_among_equal_version_copies(self):
        # Round 1: rank 0 pushes to rank 1.  Round 2: ranks 0 and 1 both
        # push to rank 2 (the smallest off-diagonal key picks the target).
        round_1 = [[0, 0.1, 0.9], [0.1, 0, 0.9], [0.1, 0.9, 0]]
        round_2 = [[0, 0.9, 0.1], [0.9, 0, 0.1], [0.1, 0.9, 0]]
        board = GossipBoard(
            3, config=GossipConfig(fanout=1), seed=Scripted([round_1, round_2])
        )
        board.publish(0, 1.0, version=10)
        board.step()
        assert local_view(board, 1) == {0: 1.0}
        # The version-10 copy has spread, so the re-publish is a new
        # generation: rank 2 receives both copies in one round and adopts
        # the latest re-publish, while rank 1 keeps its equal-version copy.
        board.publish(0, 2.0, version=10)
        board.step()
        assert [local_view(board, r).get(0) for r in range(3)] == [2.0, 1.0, 2.0]

    def test_republish_before_a_step_overwrites_in_place(self):
        # An unspread copy needs no new generation, so any number of
        # re-publishes within a step is fine.
        board = GossipBoard(2, config=GossipConfig(fanout=1), seed=0)
        for value in range(300):
            board.publish(0, float(value), version=7)
        board.step()
        assert local_view(board, 1) == {0: 299.0}
        assert board._batch._log_len == 1


class TestRepresentableVersions:
    """Keys are ``(version << (G + 1)) | generation``, ``G`` the bit width of P - 1."""

    @pytest.mark.parametrize("num_ranks, gen_bits", [(2, 1), (256, 8), (257, 9)])
    def test_largest_representable_version_propagates(self, num_ranks, gen_bits):
        board = GossipBoard(num_ranks, config=GossipConfig(fanout=1), seed=0)
        board.publish(0, 1.0, version=2 ** (62 - gen_bits) - 1)
        board.step()
        holders = [r for r in range(num_ranks) if local_view(board, r) == {0: 1.0}]
        assert len(holders) == 2

    @pytest.mark.parametrize("num_ranks, version", [(2, 2**62), (2, 2**61), (256, 2**54)])
    def test_unrepresentable_version_rejected(self, num_ranks, version):
        board = GossipBoard(num_ranks, config=GossipConfig(fanout=1), seed=0)
        with pytest.raises(ValueError):
            board.publish(0, 1.0, version=version)
        with pytest.raises(ValueError):
            board.publish_all(np.zeros(num_ranks), version=version)
        assert local_view(board, 0) == {}


class TestPublishLogBounded:
    """500 rounds of publish_all + step keep the log to the live versions.

    Every rank publishes once per round, so the log's rows are the
    consecutive versions from the oldest held entry to the newest: their
    count is the age of the stalest entry plus one.  After round ``T`` a
    rank holds a version of every source at least as new as the last one
    that can have reached it: ``ring`` with fanout ``k`` carries a value
    ``d`` ranks in ``ceil(d / k)`` rounds, so at most ``ceil((P - 1) / k)``
    rows are live; ``hypercube`` (fanout 1) broadcasts in ``log2 P``
    rounds, so at most ``log2 P`` rows.  ``random`` push has no
    deterministic bound; the log never outgrows the ``P`` rows that
    :meth:`GossipConfig.board_nbytes` budgets for it.
    """

    @pytest.mark.parametrize(
        "topology, fanout, bound",
        [
            ("ring", 2, math.ceil(31 / 2)),
            ("hypercube", 1, 5),
            ("random", 2, 32),
        ],
    )
    def test_log_holds_only_live_rows(self, topology, fanout, bound):
        num_ranks = 32
        board = GossipBoard(
            num_ranks, config=GossipConfig(fanout=fanout, topology=topology), seed=3
        )
        batch = board._batch
        most = 0
        for t in range(500):
            board.publish_all(np.full(num_ranks, float(t)))
            board.step()
            log = batch._log_keys[: batch._log_len]
            held = batch._keys[batch._keys >= 0]
            assert log[0] == held.min()
            assert np.isin(held, log).all()
            most = max(most, log.size)
        assert most <= bound
        if topology != "random":
            assert most == bound

    def test_silent_rank_does_not_pin_the_log(self):
        # Rank 0 publishes once, so its version-0 entry keeps the oldest
        # held key at 0 and only compaction to the held rows bounds the
        # log.  The held rows are version 0 plus the other ranks' live
        # window (fewer than P here), and a compaction runs whenever the
        # log outgrows max(P, 2 x the rows it kept last time): at most 2P.
        num_ranks = 8
        board = GossipBoard(num_ranks, seed=0)
        board.publish(0, 1.0)
        for t in range(1, 300):
            for rank in range(1, num_ranks):
                board.publish(rank, float(t))
            board.step()
            assert board._batch._log_len <= 2 * num_ranks
        assert all(local_view(board, r)[0] == 1.0 for r in range(num_ranks))
