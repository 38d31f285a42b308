"""Tests of :mod:`repro.lb.adaptive` (trigger policies)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.lb.adaptive import (
    DegradationTrigger,
    MenonIntervalTrigger,
    NeverTrigger,
    PeriodicTrigger,
    ULBADegradationTrigger,
)
from repro.lb.base import LBContext
from repro.lb.wir import BatchWIRDatabase, OverloadDetector
from repro.simcluster.gossip import GossipConfig, KnownRows


def make_context(
    num_pes=16,
    *,
    rates=None,
    iteration=10,
    last_lb=0,
    degradation=0.0,
    lb_cost=1.0,
    pe_speed=1.0,
    workloads=None,
):
    if rates is None:
        rates = {r: 1.0 for r in range(num_pes)}
    if workloads is None:
        workloads = [100.0] * num_pes
    return LBContext(
        iteration=iteration,
        pe_workloads=tuple(workloads),
        wir_views=KnownRows.from_views([rates] * num_pes),
        last_lb_iteration=last_lb,
        accumulated_degradation=degradation,
        average_lb_cost=lb_cost,
        pe_speed=pe_speed,
    )


class TestNeverTrigger:
    def test_never_fires(self):
        trigger = NeverTrigger()
        for degradation in (0.0, 1e6):
            assert not trigger.should_balance(make_context(degradation=degradation))


class TestPeriodicTrigger:
    def test_fires_every_period(self):
        trigger = PeriodicTrigger(period=5)
        assert not trigger.should_balance(make_context(iteration=4, last_lb=0))
        assert trigger.should_balance(make_context(iteration=5, last_lb=0))
        assert not trigger.should_balance(make_context(iteration=6, last_lb=0))
        assert trigger.should_balance(make_context(iteration=10, last_lb=0))

    def test_period_measured_from_last_lb(self):
        trigger = PeriodicTrigger(period=5)
        assert trigger.should_balance(make_context(iteration=12, last_lb=7))
        assert not trigger.should_balance(make_context(iteration=11, last_lb=7))

    def test_does_not_fire_immediately_after_lb(self):
        trigger = PeriodicTrigger(period=5)
        assert not trigger.should_balance(make_context(iteration=7, last_lb=7))

    def test_invalid_period(self):
        with pytest.raises(ValueError):
            PeriodicTrigger(period=0)


class TestMenonIntervalTrigger:
    def test_fires_after_tau_iterations(self):
        # m_hat estimate = max(rates) - mean(rates); rates: one at 9, 15 at 1
        # -> mean 1.5, m_hat = 7.5; tau = sqrt(2 * C * speed / m_hat).
        rates = {r: 1.0 for r in range(16)}
        rates[0] = 9.0
        trigger = MenonIntervalTrigger()
        ctx_early = make_context(rates=rates, iteration=1, last_lb=0, lb_cost=60.0)
        ctx_late = make_context(rates=rates, iteration=10, last_lb=0, lb_cost=60.0)
        # tau = sqrt(2*60/7.5) = 4 -> fires at >= 4 iterations since LB.
        assert not trigger.should_balance(ctx_early)
        assert trigger.should_balance(ctx_late)

    def test_never_fires_without_imbalance(self):
        trigger = MenonIntervalTrigger()
        ctx = make_context(rates={r: 2.0 for r in range(8)}, iteration=100, lb_cost=1.0)
        assert not trigger.should_balance(ctx)

    def test_never_fires_without_cost_estimate(self):
        rates = {r: 1.0 for r in range(8)}
        rates[0] = 50.0
        trigger = MenonIntervalTrigger()
        assert not trigger.should_balance(
            make_context(rates=rates, iteration=100, lb_cost=0.0)
        )

    def test_never_fires_without_wir_data(self):
        trigger = MenonIntervalTrigger()
        ctx = LBContext(
            iteration=50,
            pe_workloads=(1.0,) * 4,
            wir_views=KnownRows.from_views([{}] * 4),
            average_lb_cost=1.0,
        )
        assert not trigger.should_balance(ctx)

    def test_minimum_interval(self):
        rates = {r: 0.0 for r in range(4)}
        rates[0] = 1e9  # tau ~ 0
        trigger = MenonIntervalTrigger(minimum_interval=3)
        assert not trigger.should_balance(
            make_context(rates=rates, iteration=2, last_lb=0, lb_cost=1.0)
        )
        assert trigger.should_balance(
            make_context(rates=rates, iteration=3, last_lb=0, lb_cost=1.0)
        )

    def test_invalid_minimum_interval(self):
        with pytest.raises(ValueError):
            MenonIntervalTrigger(minimum_interval=0)


class TestDegradationTrigger:
    def test_fires_when_degradation_reaches_cost(self):
        trigger = DegradationTrigger()
        assert not trigger.should_balance(make_context(degradation=0.5, lb_cost=1.0))
        assert trigger.should_balance(make_context(degradation=1.0, lb_cost=1.0))
        assert trigger.should_balance(make_context(degradation=5.0, lb_cost=1.0))

    def test_does_not_fire_right_after_lb(self):
        trigger = DegradationTrigger()
        ctx = make_context(iteration=5, last_lb=5, degradation=100.0, lb_cost=1.0)
        assert not trigger.should_balance(ctx)

    def test_cost_margin_scales_threshold(self):
        trigger = DegradationTrigger(cost_margin=2.0)
        assert not trigger.should_balance(make_context(degradation=1.5, lb_cost=1.0))
        assert trigger.should_balance(make_context(degradation=2.0, lb_cost=1.0))

    def test_invalid_margin(self):
        with pytest.raises(ValueError):
            DegradationTrigger(cost_margin=0.0)

    def test_threshold_exposed(self):
        trigger = DegradationTrigger(cost_margin=1.5)
        assert trigger.threshold(make_context(lb_cost=2.0)) == pytest.approx(3.0)


class TestULBADegradationTrigger:
    def test_threshold_includes_overhead(self):
        """The ULBA trigger adds the Eq. 11 overhead of the currently
        overloading PEs to the plain degradation threshold."""
        num_pes = 32
        rates = {r: 0.0 for r in range(num_pes)}
        rates[0] = 100.0  # a clear z-score outlier
        ctx = make_context(
            num_pes,
            rates=rates,
            lb_cost=2.0,
            workloads=[100.0] * num_pes,
            pe_speed=1.0,
        )
        plain = DegradationTrigger()
        ulba = ULBADegradationTrigger(alpha=0.4)
        expected_overhead = 0.4 * 1 / (num_pes - 1) * (100.0 * num_pes) / (1.0 * num_pes)
        assert ulba.threshold(ctx) == pytest.approx(plain.threshold(ctx) + expected_overhead)

    def test_no_overhead_without_overloading_pes(self):
        ctx = make_context(16, lb_cost=2.0)
        assert ULBADegradationTrigger(alpha=0.4).threshold(ctx) == pytest.approx(2.0)

    def test_no_overhead_without_wir_data(self):
        ctx = LBContext(
            iteration=10,
            pe_workloads=(1.0,) * 4,
            wir_views=KnownRows.from_views([{}] * 4),
            average_lb_cost=2.0,
        )
        assert ULBADegradationTrigger(alpha=0.4).threshold(ctx) == pytest.approx(2.0)

    def test_fires_later_than_plain_trigger(self):
        """For the same context the ULBA trigger requires at least as much
        degradation as the plain one (its threshold is never smaller)."""
        num_pes = 32
        rates = {r: 0.0 for r in range(num_pes)}
        rates[3] = 500.0
        ctx = make_context(num_pes, rates=rates, degradation=2.0, lb_cost=2.0)
        plain = DegradationTrigger()
        ulba = ULBADegradationTrigger(alpha=0.9)
        assert ulba.threshold(ctx) >= plain.threshold(ctx)
        assert plain.should_balance(ctx)
        assert not ulba.should_balance(ctx)

    def test_custom_detector(self):
        detector = OverloadDetector(threshold=1.0, min_population=2)
        trigger = ULBADegradationTrigger(alpha=0.4, detector=detector)
        rates = {0: 10.0, 1: 0.0, 2: 0.0, 3: 0.0}
        ctx = make_context(4, rates=rates, lb_cost=1.0)
        assert trigger.threshold(ctx) > 1.0

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            ULBADegradationTrigger(alpha=-0.1)


class TestULBATriggerCountPaths:
    """One Eq. 11 threshold from a producer's rows and from their dict form."""

    @given(
        num=st.integers(2, 40),
        mode=st.sampled_from(["dense", "sparse", "instant"]),
        view_size=st.integers(2, 12),
        rounds=st.integers(0, 6),
        threshold=st.sampled_from([0.5, 1.0, 1.5, 3.0]),
        min_population=st.integers(1, 8),
        alpha=st.floats(0.05, 1.0),
        lb_cost=st.floats(0.0, 10.0),
        outliers=st.integers(0, 3),
        data=st.data(),
    )
    def test_property_threshold_agrees_across_view_forms(
        self,
        num,
        mode,
        view_size,
        rounds,
        threshold,
        min_population,
        alpha,
        lb_cost,
        outliers,
        data,
    ):
        """The trigger's threshold on a database's own
        :class:`KnownRows` (the engine's input) equals the one on the same
        rows packed from per-rank dicts by ``KnownRows.from_views`` (the
        reference runner's input), bit for bit, on dense, sparse and instant
        databases with partial views; so do the rows themselves."""
        config = (
            GossipConfig(mode=mode, view_size=view_size) if mode != "instant" else None
        )
        wir_db = BatchWIRDatabase(
            num, [num], use_gossip=mode != "instant", gossip_config=config
        )
        db = wir_db.replica(0)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        rates = rng.random(num)
        rates[rng.choice(num, size=min(outliers, num), replace=False)] += 50.0
        publishers = data.draw(
            st.lists(st.integers(0, num - 1), unique=True, max_size=num),
            label="publishers",
        )
        for rank in publishers:
            db.publish(rank, rates[rank])
        for _ in range(rounds):
            db.disseminate()

        trigger = ULBADegradationTrigger(
            alpha,
            detector=OverloadDetector(threshold=threshold, min_population=min_population),
        )
        workloads = rng.random(num) * 100.0 * 3.0e5

        def context(views):
            return LBContext(
                iteration=5,
                pe_workloads=workloads,
                wir_views=views,
                average_lb_cost=lb_cost,
                pe_speed=2.5e9,
            )

        rows = db.known_rows()
        packed = KnownRows.from_views(
            [
                dict(zip(rows.known_sources(r).tolist(), rows.known_values(r).tolist()))
                for r in range(num)
            ]
        )
        for r in range(num):
            for read in ("known_values", "known_sources"):
                got, want = getattr(rows, read)(r), getattr(packed, read)(r)
                assert got.tobytes() == want.tobytes()
        for field in ("counts", "has_own"):
            assert getattr(rows, field).tolist() == getattr(packed, field).tolist()
        assert rows.own[rows.has_own].tobytes() == packed.own[packed.has_own].tobytes()
        assert trigger.threshold(context(rows)) == trigger.threshold(context(packed))
