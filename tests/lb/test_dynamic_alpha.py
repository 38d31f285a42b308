"""Tests of :mod:`repro.lb.dynamic_alpha` (runtime-adaptive alpha extension)."""

from __future__ import annotations

import pytest

from repro.core.parameters import ApplicationParameters
from repro.lb.base import LBContext
from repro.lb.dynamic_alpha import AlphaChoice, DynamicAlphaULBAPolicy
from repro.lb.wir import OverloadDetector
from repro.simcluster.gossip import KnownRows


def make_context(
    num_pes=32,
    *,
    rates=None,
    workloads=None,
    iteration=10,
    lb_cost=1.0e-3,
    pe_speed=1.0e9,
    total_iterations=None,
):
    if rates is None:
        rates = {r: 1.0 for r in range(num_pes)}
    if workloads is None:
        workloads = [1.0e6] * num_pes
    return LBContext(
        iteration=iteration,
        pe_workloads=tuple(workloads),
        wir_views=KnownRows.from_views([rates] * num_pes),
        last_lb_iteration=0,
        accumulated_degradation=0.0,
        average_lb_cost=lb_cost,
        pe_speed=pe_speed,
        total_iterations=total_iterations,
    )


def overloaded_rates(num_pes=32, hot_rank=3, hot_rate=5.0e5, base_rate=1.0e3):
    rates = {r: base_rate for r in range(num_pes)}
    rates[hot_rank] = hot_rate
    return rates


class TestConstruction:
    def test_defaults(self):
        policy = DynamicAlphaULBAPolicy()
        assert policy.strategy == "interval"
        assert policy.fallback_alpha == 0.4
        assert policy.name == "ulba-dynamic-alpha"
        assert policy.choices == []
        assert policy.last_alpha is None

    def test_validation(self):
        with pytest.raises(ValueError):
            DynamicAlphaULBAPolicy(strategy="magic")
        with pytest.raises(ValueError):
            DynamicAlphaULBAPolicy(fallback_alpha=1.5)
        with pytest.raises(ValueError):
            DynamicAlphaULBAPolicy(alpha_grid=[])
        with pytest.raises(ValueError):
            DynamicAlphaULBAPolicy(alpha_grid=[1.5])
        with pytest.raises(ValueError):
            DynamicAlphaULBAPolicy(horizon=0)
        with pytest.raises(ValueError):
            DynamicAlphaULBAPolicy(max_alpha=2.0)
        with pytest.raises(ValueError):
            DynamicAlphaULBAPolicy(interval_factor=0.0)


class TestDecision:
    def test_no_overloading_is_even_split(self):
        policy = DynamicAlphaULBAPolicy()
        decision = policy.decide(make_context())
        assert decision.is_even
        assert policy.choices == []

    def test_overloading_pe_is_underloaded(self):
        policy = DynamicAlphaULBAPolicy()
        ctx = make_context(rates=overloaded_rates(), total_iterations=100)
        decision = policy.decide(ctx)
        assert decision.overloading_ranks == (3,)
        assert decision.alphas[3] > 0.0
        assert decision.target_shares[3] < 1.0 / 32
        assert sum(decision.target_shares) == pytest.approx(1.0)
        assert policy.last_alpha == decision.alphas[3]

    def test_alpha_respects_cap(self):
        policy = DynamicAlphaULBAPolicy(max_alpha=0.25, interval_factor=50.0)
        ctx = make_context(rates=overloaded_rates(), total_iterations=1000)
        decision = policy.decide(ctx)
        assert max(decision.alphas) <= 0.25 + 1e-12

    def test_majority_guard(self):
        detector = OverloadDetector(threshold=0.5, min_population=2)
        policy = DynamicAlphaULBAPolicy(detector=detector)
        rates = {r: (100.0 if r < 16 else 0.0) for r in range(32)}
        decision = policy.decide(make_context(rates=rates))
        assert decision.downgraded_to_standard
        assert decision.is_even

    def test_fallback_without_lb_cost_estimate(self):
        """Before any LB cost measurement the model cannot be built, so the
        policy uses the fixed fallback alpha."""
        policy = DynamicAlphaULBAPolicy(fallback_alpha=0.3)
        ctx = make_context(rates=overloaded_rates(), lb_cost=0.0)
        decision = policy.decide(ctx)
        assert decision.alphas[3] == pytest.approx(0.3)
        assert policy.choices[-1].used_fallback

    def test_diagnostic_history(self):
        policy = DynamicAlphaULBAPolicy()
        ctx = make_context(rates=overloaded_rates(), iteration=17, total_iterations=100)
        policy.decide(ctx)
        assert len(policy.choices) == 1
        choice = policy.choices[0]
        assert isinstance(choice, AlphaChoice)
        assert choice.iteration == 17
        assert choice.num_overloading == 1
        assert not choice.used_fallback
        assert isinstance(choice.model, ApplicationParameters)
        assert policy.alpha_history() == [(17, choice.alpha)]

    def test_model_estimation_fields(self):
        policy = DynamicAlphaULBAPolicy()
        ctx = make_context(
            rates=overloaded_rates(hot_rate=5.0e5, base_rate=1.0e3),
            total_iterations=60,
            iteration=10,
        )
        policy.decide(ctx)
        model = policy.choices[0].model
        assert model.num_pes == 32
        assert model.num_overloading == 1
        assert model.initial_workload == pytest.approx(32 * 1.0e6)
        assert model.uniform_rate == pytest.approx(1.0e3)
        assert model.overload_rate == pytest.approx(5.0e5 - 1.0e3)
        # Horizon clamped to the remaining iterations (60 - 10).
        assert model.iterations == 50

    def test_model_strategy_uses_grid(self):
        policy = DynamicAlphaULBAPolicy(strategy="model", alpha_grid=[0.0, 0.5])
        ctx = make_context(rates=overloaded_rates(), total_iterations=100)
        decision = policy.decide(ctx)
        assert decision.alphas[3] in (0.0, 0.5)

    def test_interval_factor_scales_alpha(self):
        def chosen(factor):
            policy = DynamicAlphaULBAPolicy(interval_factor=factor, max_alpha=0.9)
            # Moderate imbalance rate so the uncapped alpha stays below the cap.
            rates = overloaded_rates(hot_rate=2.0e4, base_rate=1.0e3)
            ctx = make_context(rates=rates, total_iterations=10_000)
            policy.decide(ctx)
            return policy.last_alpha

        assert 0.0 < chosen(1.0) < chosen(2.0) < 0.9

    def test_alpha_zero_choice_degrades_to_even(self):
        """A tiny imbalance rate with a cheap LB step can make the derived
        alpha round to ~0; the decision is then the even split."""
        policy = DynamicAlphaULBAPolicy(interval_factor=1e-6)
        ctx = make_context(rates=overloaded_rates(), total_iterations=100)
        decision = policy.decide(ctx)
        if decision.alphas[3] == 0.0:
            assert decision.is_even

    def test_stale_views_without_own_rate(self):
        views = KnownRows.from_views([{}] * 32)
        ctx = LBContext(
            iteration=5,
            pe_workloads=(1.0e6,) * 32,
            wir_views=views,
            average_lb_cost=1.0e-3,
        )
        decision = DynamicAlphaULBAPolicy().decide(ctx)
        assert decision.is_even


class TestEndToEnd:
    def test_dynamic_alpha_on_erosion_app_beats_standard(self):
        """At the Figure 4 reproduction scale the runtime-adaptive alpha
        policy beats the standard method without any alpha tuning."""
        from repro.experiments.ablations import ErosionScenario
        from repro.lb.adaptive import DegradationTrigger, ULBADegradationTrigger
        from repro.lb.standard import StandardPolicy

        scenario = ErosionScenario(num_pes=32, iterations=80, columns_per_pe=64, rows=64, seed=7)
        standard = scenario.run(StandardPolicy(), DegradationTrigger())
        dynamic_policy = DynamicAlphaULBAPolicy()
        dynamic = scenario.run(dynamic_policy, ULBADegradationTrigger(alpha=0.4))
        assert dynamic.total_time < standard.total_time
        assert len(dynamic_policy.choices) >= 1
        assert all(0.0 <= c.alpha <= 0.9 for c in dynamic_policy.choices)
