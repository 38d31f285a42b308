"""Tests of :mod:`repro.lb.wir` (WIR estimation, database, overload detection)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.lb.wir import (
    OverloadDetector,
    WIRDatabase,
    WIREstimate,
    WIREstimateArray,
    _mean_std,
    known_rows_of,
)
from repro.simcluster.gossip import GossipConfig, KnownRows


def matrix_rows(matrix):
    """The rows of a complete ``(P, P)`` view matrix: row ``r`` is rank
    ``r``'s view and the diagonal every rank's own rate."""
    num = matrix.shape[0]
    return KnownRows(
        np.ascontiguousarray(matrix).reshape(-1),
        np.full(num, num),
        matrix.diagonal(),
        np.ones(num, dtype=bool),
    )


def shared_rows(rates, num):
    """One view that ``num`` ranks share, given once (like instant mode):
    rank ``r``'s own rate is ``rates[r]``."""
    rates = np.asarray(rates, dtype=float)
    return KnownRows(rates, np.full(num, rates.size), rates, np.ones(num, dtype=bool))


class TestWIREstimate:
    def test_no_rate_before_two_observations(self):
        est = WIREstimate()
        assert est.observe(100.0) == 0.0
        assert est.num_observations == 1

    def test_first_difference_becomes_rate(self):
        est = WIREstimate()
        est.observe(100.0)
        assert est.observe(110.0) == pytest.approx(10.0)

    def test_exponential_smoothing(self):
        est = WIREstimate(smoothing=0.5)
        est.observe(0.0)
        est.observe(10.0)   # rate = 10
        rate = est.observe(30.0)  # diff 20 -> rate = 0.5*20 + 0.5*10 = 15
        assert rate == pytest.approx(15.0)

    def test_smoothing_one_tracks_last_diff(self):
        est = WIREstimate(smoothing=1.0)
        est.observe(0.0)
        est.observe(5.0)
        assert est.observe(20.0) == pytest.approx(15.0)

    def test_constant_workload_zero_rate(self):
        est = WIREstimate()
        for _ in range(5):
            est.observe(42.0)
        assert est.rate == pytest.approx(0.0)

    def test_linear_growth_converges_to_slope(self):
        est = WIREstimate(smoothing=0.5)
        for i in range(30):
            est.observe(100.0 + 7.0 * i)
        assert est.rate == pytest.approx(7.0, rel=1e-3)

    def test_reset_after_migration_keeps_rate(self):
        est = WIREstimate()
        for i in range(5):
            est.observe(10.0 * i)
        rate_before = est.rate
        est.reset_after_migration(3.0)  # big downward jump from migration
        assert est.rate == rate_before
        est.observe(13.0)  # growth of 10 from the new anchor
        assert est.rate == pytest.approx(0.5 * 10.0 + 0.5 * rate_before)

    def test_negative_workload_rejected(self):
        est = WIREstimate()
        with pytest.raises(ValueError):
            est.observe(-1.0)
        with pytest.raises(ValueError):
            est.reset_after_migration(-1.0)

    def test_invalid_smoothing(self):
        with pytest.raises(ValueError):
            WIREstimate(smoothing=0.0)
        with pytest.raises(ValueError):
            WIREstimate(smoothing=1.5)

    @given(
        slope=st.floats(min_value=0.0, max_value=1e4),
        start=st.floats(min_value=0.0, max_value=1e6),
    )
    def test_property_linear_growth_recovered(self, slope, start):
        est = WIREstimate(smoothing=0.7)
        for i in range(40):
            est.observe(start + slope * i)
        assert est.rate == pytest.approx(slope, rel=1e-3, abs=1e-6)


class TestWIRDatabase:
    def test_instant_mode_visible_everywhere(self):
        db = WIRDatabase(4, use_gossip=False)
        db.publish(1, 3.0)
        for rank in range(4):
            assert db.view(rank) == {1: 3.0}
        rows = db.known_rows()
        assert rows.own[1] == 3.0
        assert rows.has_own.tolist() == [False, True, False, False]

    def test_instant_mode_coverage(self):
        db = WIRDatabase(4, use_gossip=False)
        assert db.known_rows().counts.tolist() == [0, 0, 0, 0]
        db.publish(0, 1.0)
        db.publish(1, 1.0)
        assert db.known_rows().counts.tolist() == [2, 2, 2, 2]

    def test_gossip_mode_stale_views(self):
        db = WIRDatabase(8, use_gossip=True, seed=0)
        db.publish(0, 5.0)
        # Before dissemination only rank 0 knows its value.
        assert db.view(0) == {0: 5.0}
        assert all(db.view(r) == {} for r in range(1, 8))

    def test_gossip_dissemination_converges(self):
        db = WIRDatabase(8, use_gossip=True, seed=1)
        for rank in range(8):
            db.publish(rank, float(rank))
        for _ in range(30):
            db.disseminate()
        assert db.known_rows().counts.tolist() == [8] * 8
        for rank in range(8):
            assert db.view(rank) == {r: float(r) for r in range(8)}

    def test_disseminate_noop_in_instant_mode(self):
        db = WIRDatabase(2, use_gossip=False)
        db.publish(0, 1.0)
        db.disseminate()  # must not raise
        assert db.view(1) == {0: 1.0}

    def test_values_list(self):
        db = WIRDatabase(3, use_gossip=False)
        db.publish(0, 1.0)
        db.publish(2, 3.0)
        assert db.known_values(1).tolist() == [1.0, 3.0]

    def test_invalid_rank(self):
        db = WIRDatabase(2, use_gossip=False)
        with pytest.raises(ValueError):
            db.publish(2, 1.0)

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            WIRDatabase(0)


class TestOverloadDetector:
    def test_paper_threshold_default(self):
        detector = OverloadDetector()
        assert detector.threshold == 3.0

    def test_small_population_never_overloads(self):
        detector = OverloadDetector(min_population=3)
        assert not detector.is_overloading(100.0, [100.0])
        assert not detector.is_overloading(100.0, [100.0, 0.0])

    def test_clear_outlier_detected(self):
        detector = OverloadDetector(threshold=3.0)
        rates = [0.0] * 31 + [100.0]
        assert detector.is_overloading(100.0, rates)
        assert not detector.is_overloading(0.0, rates)

    def test_uniform_rates_never_overload(self):
        detector = OverloadDetector()
        rates = [5.0] * 16
        assert not detector.is_overloading(5.0, rates)

    def test_threshold_boundary(self):
        """One outlier among P zeros has z-score sqrt(P-1); with the paper's
        threshold of 3.0 it is flagged only for P >= 10."""
        detector = OverloadDetector(threshold=3.0)
        for p, expected in ((9, False), (10, True), (32, True)):
            rates = [0.0] * (p - 1) + [50.0]
            assert detector.is_overloading(50.0, rates) is expected

    def test_lower_threshold_flags_smaller_clusters(self):
        detector = OverloadDetector(threshold=1.5)
        rates = [0.0, 0.0, 0.0, 10.0]
        assert detector.is_overloading(10.0, rates)

    def test_overloading_ranks(self):
        detector = OverloadDetector(threshold=3.0)
        rates = np.zeros(31)
        rates[7] = 500.0
        flags = detector.overloading_mask(shared_rows(rates, 31))
        assert np.flatnonzero(flags).tolist() == [7]
        assert detector.overloading_count(rates) == 1

    def test_overloading_ranks_sorted(self):
        detector = OverloadDetector(threshold=1.0)
        rates_by_rank = {5: 10.0, 1: 10.0, 3: 0.0, 0: 0.0, 2: 0.0, 4: 0.0}
        rows = known_rows_of([rates_by_rank] * 6, 6)
        assert np.flatnonzero(detector.overloading_mask(rows)).tolist() == [1, 5]
        rates = np.fromiter(rates_by_rank.values(), dtype=float)
        assert detector.overloading_count(rates) == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            OverloadDetector(threshold=0.0)
        with pytest.raises(ValueError):
            OverloadDetector(min_population=0)

    @given(
        rates=st.lists(
            st.floats(min_value=0.0, max_value=1e6), min_size=2, max_size=64
        )
    )
    def test_property_at_most_a_minority_is_flagged(self, rates):
        """With the z-score-3 rule, fewer than half of the PEs can ever be
        flagged (a majority cannot all be 3 sigma above the mean)."""
        detector = OverloadDetector(threshold=3.0)
        flagged = [r for r in rates if detector.is_overloading(r, rates)]
        assert len(flagged) < max(1, len(rates) / 2)

    @given(
        rows=st.integers(min_value=1, max_value=6),
        width=st.integers(min_value=1, max_value=70),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_mean_std_is_bitwise_numpy(self, rows, width, seed):
        """The shared statistics kernel returns np.mean/np.std's floats."""
        values = np.random.default_rng(seed).random((rows, width)) ** 4
        means, stds = _mean_std(values)
        assert means.tobytes() == values.mean(axis=1).tobytes()
        assert stds.tobytes() == values.std(axis=1).tobytes()
        mean, std = _mean_std(values[0])
        assert (mean, std) == (values[0].mean(), values[0].std())

    @given(
        num=st.integers(min_value=2, max_value=48),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        constant=st.booleans(),
    )
    def test_mask_matches_per_rank_rule(self, num, seed, constant):
        """The mask of a complete view matrix equals the per-rank rule, for
        a shared view (a broadcast) and for per-rank views alike."""
        rng = np.random.default_rng(seed)
        detector = OverloadDetector(threshold=1.5)
        shared = np.ones(num) if constant else rng.random(num) ** 6
        views = {
            "shared": np.broadcast_to(shared, (num, num)),
            "per-rank": rng.random((num, num)) ** 6,
        }
        for matrix in views.values():
            expected = [
                detector.is_overloading(matrix[r, r], matrix[r]) for r in range(num)
            ]
            assert detector.overloading_mask(matrix_rows(matrix)).tolist() == expected
        count = detector.overloading_count(shared)
        assert count == sum(detector.is_overloading(rate, shared) for rate in shared)

    def test_mask_threshold_boundary(self):
        """At z exactly 3.0 (one outlier among 10) the mask flags the rank,
        like is_overloading, for a shared and for a per-rank matrix."""
        detector = OverloadDetector(threshold=3.0)
        for p, expected in ((9, False), (10, True), (32, True)):
            rates = np.array([0.0] * (p - 1) + [50.0])
            for matrix in (np.broadcast_to(rates, (p, p)), np.tile(rates, (p, 1))):
                flags = detector.overloading_mask(matrix_rows(matrix)).tolist()
                assert flags == [False] * (p - 1) + [expected]
            assert detector.overloading_count(rates) == int(expected)


def per_rank_flags(detector, db):
    """The per-rank rule, one ``is_overloading`` call per rank that knows itself."""
    flags = []
    for rank in range(db.num_ranks):
        view = db.view(rank)
        flags.append(
            rank in view and detector.is_overloading(view[rank], list(view.values()))
        )
    return flags


class TestGroupedOverloadRule:
    """``overloading_mask`` (grouped, row-wise) equals per-rank ``is_overloading``."""

    @given(
        num=st.integers(2, 40),
        mode=st.sampled_from(["dense", "sparse", "instant"]),
        view_size=st.integers(2, 12),
        rounds=st.integers(0, 6),
        threshold=st.sampled_from([0.5, 1.0, 1.5, 3.0]),
        min_population=st.integers(1, 8),
        constant=st.booleans(),
        data=st.data(),
    )
    def test_property_matches_per_rank_rule(
        self, num, mode, view_size, rounds, threshold, min_population, constant, data
    ):
        config = GossipConfig(mode=mode, view_size=view_size) if mode != "instant" else None
        db = WIRDatabase(num, use_gossip=mode != "instant", gossip_config=config, seed=num)
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        rng = np.random.default_rng(seed)
        rates = np.full(num, 2.5) if constant else rng.random(num) ** 6
        publishers = data.draw(
            st.lists(st.integers(0, num - 1), unique=True, max_size=num), label="publishers"
        )
        for rank in publishers:
            db.publish(rank, rates[rank])
        for _ in range(rounds):
            db.disseminate()
        dicts = [db.view(rank) for rank in range(num)]
        detector = OverloadDetector(threshold=threshold, min_population=min_population)
        expected = per_rank_flags(detector, db)
        for rows in (db.known_rows(), known_rows_of(dicts, num)):
            assert rows.counts.tolist() == [len(view) for view in dicts]
            assert detector.overloading_mask(rows).tolist() == expected

    def test_partial_sparse_views_form_several_groups(self):
        num = 64
        db = WIRDatabase(num, gossip_config=GossipConfig(mode="sparse", view_size=16), seed=3)
        rates = np.zeros(num)
        rates[::9] = 50.0
        db.publish_all(rates)
        db.disseminate()
        db.disseminate()
        rows = db.known_rows()
        assert np.unique(rows.counts).size > 1  # several group widths
        detector = OverloadDetector(threshold=1.5)
        flags = detector.overloading_mask(rows)
        assert flags.tolist() == per_rank_flags(detector, db)
        assert flags.any()

    def test_ranks_without_own_value_never_flag(self):
        num = 20
        db = WIRDatabase(num, gossip_config=GossipConfig(), seed=1)
        for rank in range(0, num, 2):
            db.publish(rank, 100.0 if rank == 4 else 0.0)
        for _ in range(6):
            db.disseminate()
        rows = db.known_rows()
        assert not rows.has_own[1::2].any()
        flags = OverloadDetector(threshold=2.0).overloading_mask(rows)
        assert not flags[1::2].any()
        assert flags.tolist() == per_rank_flags(OverloadDetector(threshold=2.0), db)

    def test_groups_below_min_population_never_flag(self):
        views = [{0: 100.0, 1: 0.0}, {0: 100.0, 1: 0.0, 2: 0.0}, {2: 9.0}]
        rows = known_rows_of(views, 3)
        assert rows.counts.tolist() == [2, 3, 1]
        assert OverloadDetector(threshold=0.5, min_population=3).overloading_mask(
            rows
        ).tolist() == [False, False, False]
        assert OverloadDetector(threshold=0.5, min_population=2).overloading_mask(
            rows
        ).tolist() == [True, False, False]

    def test_constant_rows_never_flag(self):
        views = [{0: 1.0, 1: 1.0, 2: 1.0}] * 3
        flags = OverloadDetector(threshold=1e-9).overloading_mask(known_rows_of(views, 3))
        assert flags.tolist() == [False, False, False]

    def test_zero_std_rows_never_flag(self):
        """A std that underflows to 0 scores 0, although own != mean."""
        views = [{0: 2e-170, 1: 1e-170}, {0: 2e-170, 1: 1e-170}]
        detector = OverloadDetector(threshold=1e-300)
        assert np.std(list(views[0].values())) == 0.0
        expected = [detector.is_overloading(view[r], list(view.values())) for r, view in enumerate(views)]
        assert expected == [False, False]
        assert detector.overloading_mask(known_rows_of(views, 2)).tolist() == expected

    def test_empty_views_flag_nothing(self):
        flags = OverloadDetector().overloading_mask(known_rows_of((), 4))
        assert flags.tolist() == [False] * 4


class TestWIREstimateArray:
    def test_matches_scalar_estimators(self):
        rng = np.random.default_rng(4)
        num_pes = 7
        array = WIREstimateArray(num_pes, smoothing=0.5, replicas=1)
        scalars = [WIREstimate(smoothing=0.5) for _ in range(num_pes)]
        for step in range(30):
            workloads = rng.random(num_pes) * 1e6
            batched = array.observe(workloads[None])
            expected = [
                scalars[r].observe(float(workloads[r])) for r in range(num_pes)
            ]
            assert batched[0].tolist() == expected
            if step % 7 == 6:
                anchors = rng.random(num_pes) * 1e6
                array.reset_replica_after_migration(0, anchors)
                for r in range(num_pes):
                    scalars[r].reset_after_migration(float(anchors[r]))
        assert array.rates[0].tolist() == [scalar.rate for scalar in scalars]

    def test_first_observation_has_zero_rate(self):
        array = WIREstimateArray(3, replicas=1)
        rates = array.observe(np.asarray([[10.0, 20.0, 30.0]]))
        assert rates.tolist() == [[0.0, 0.0, 0.0]]

    def test_validation(self):
        with pytest.raises(ValueError):
            WIREstimateArray(0, replicas=1)
        with pytest.raises(ValueError):
            WIREstimateArray(4, replicas=0)
        with pytest.raises(ValueError):
            WIREstimateArray(4, replicas=1, smoothing=0.0)
        array = WIREstimateArray(4, replicas=1)
        with pytest.raises(ValueError):
            array.observe(np.zeros((1, 3)))
        with pytest.raises(ValueError):
            array.observe(np.asarray([[1.0, 1.0, 1.0, -1.0]]))
        with pytest.raises(ValueError):
            array.reset_replica_after_migration(0, np.asarray([-1.0, 0.0, 0.0, 0.0]))


class TestLazyWIRViews:
    def test_behaves_like_view_tuple(self):
        from repro.lb.wir import LazyWIRViews

        db = WIRDatabase(3, use_gossip=False)
        db.publish(0, 1.0)
        db.publish(2, 5.0)
        views = LazyWIRViews(db)
        assert len(views) == 3
        assert views[0] == {0: 1.0, 2: 5.0}
        assert list(views) == [db.view(r) for r in range(3)]
        with pytest.raises(IndexError):
            views[3]

    def test_caches_materialized_views(self):
        db = WIRDatabase(2, use_gossip=False)
        db.publish(0, 1.0)
        views = db.views()
        first = views[0]
        assert views[0] is first

    def test_publish_all_matches_per_rank_publish(self):
        a = WIRDatabase(4, use_gossip=False)
        b = WIRDatabase(4, use_gossip=False)
        values = np.asarray([1.0, 2.0, 3.0, 4.0])
        a.publish_all(values)
        for rank in range(4):
            b.publish(rank, float(values[rank]))
        assert all(a.view(r) == b.view(r) for r in range(4))
        with pytest.raises(ValueError):
            a.publish_all(np.zeros(3))
