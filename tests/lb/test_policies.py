"""Tests of the workload policies (standard / ULBA) and the LB dataclasses."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.lb.base import LBContext, LBDecision
from repro.lb.standard import StandardPolicy
from repro.lb.ulba import ULBAPolicy
from repro.lb.wir import OverloadDetector
from repro.simcluster.gossip import KnownRows


def make_context(
    num_pes=16,
    *,
    rates=None,
    workloads=None,
    iteration=10,
    last_lb=0,
    degradation=0.0,
    lb_cost=1.0,
):
    """Build an LBContext with identical WIR views on every rank."""
    if rates is None:
        rates = {r: 1.0 for r in range(num_pes)}
    if workloads is None:
        workloads = [100.0] * num_pes
    views = KnownRows.from_views([rates] * num_pes)
    return LBContext(
        iteration=iteration,
        pe_workloads=tuple(workloads),
        wir_views=views,
        last_lb_iteration=last_lb,
        accumulated_degradation=degradation,
        average_lb_cost=lb_cost,
        pe_speed=1.0,
    )


class TestLBContext:
    def test_derived_properties(self):
        ctx = make_context(4, workloads=[1.0, 2.0, 3.0, 4.0], iteration=12, last_lb=5)
        assert ctx.num_pes == 4
        assert ctx.total_workload == pytest.approx(10.0)
        assert ctx.iterations_since_lb == 7
        assert ctx.pe_workloads.dtype == np.float64
        with pytest.raises(ValueError):
            ctx.pe_workloads[0] = 0.0

    def test_known_rows_per_rank(self):
        ctx = make_context(4, rates={0: 1.0, 2: 5.0})
        assert ctx.wir_views.known_values(1).tolist() == [1.0, 5.0]
        assert ctx.wir_views.known_sources(1).tolist() == [0, 2]
        with pytest.raises(ValueError):
            ctx.wir_views.known_values(9)

    @pytest.mark.parametrize("num_views", [3, 5])
    def test_wrong_number_of_views_rejected(self, num_views):
        views = KnownRows.from_views([{0: 1.0}] * num_views)
        with pytest.raises(ValueError, match="one row per PE"):
            LBContext(iteration=1, pe_workloads=(1.0,) * 4, wir_views=views)

    def test_no_views_or_one_per_pe_accepted(self):
        for views in ([{}] * 4, [{0: 1.0}] * 4):
            ctx = LBContext(
                iteration=1,
                pe_workloads=(1.0,) * 4,
                wir_views=KnownRows.from_views(views),
            )
            assert ctx.wir_views.known_values(3).tolist() == list(views[3].values())

    def test_per_rank_dicts_rejected(self):
        """A sequence of per-rank dicts is no longer a WIR snapshot."""
        with pytest.raises(TypeError, match="KnownRows"):
            LBContext(iteration=1, pe_workloads=(1.0,) * 4, wir_views=({},) * 4)

    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=1e300),
            min_size=1,
            max_size=600,
        )
    )
    def test_property_total_workload_is_python_sum(self, workloads):
        """``Wtot`` keeps the bits of Python's left-to-right ``sum`` (the
        bound keeps 600 finite workloads from overflowing)."""
        ctx = LBContext(
            iteration=1,
            pe_workloads=np.array(workloads),
            wir_views=KnownRows.from_views([{}] * len(workloads)),
        )
        assert ctx.total_workload.hex() == sum(workloads).hex()


class TestLBDecision:
    def test_validation_shares_sum(self):
        with pytest.raises(ValueError):
            LBDecision(target_shares=(0.5, 0.6), alphas=(0.0, 0.0))
        with pytest.raises(ValueError):
            LBDecision(target_shares=(), alphas=())
        with pytest.raises(ValueError):
            LBDecision(target_shares=(-0.5, 1.5), alphas=(0.0, 0.0))
        with pytest.raises(ValueError):
            LBDecision(target_shares=(0.5, 0.5), alphas=(0.0,))

    def test_is_even(self):
        even = LBDecision(target_shares=(0.25,) * 4, alphas=(0.0,) * 4)
        assert even.is_even
        skew = LBDecision(target_shares=(0.1, 0.3, 0.3, 0.3), alphas=(0.4, 0, 0, 0))
        assert not skew.is_even

    def test_num_overloading(self):
        d = LBDecision(
            target_shares=(0.25,) * 4, alphas=(0.0,) * 4, overloading_ranks=(1, 3)
        )
        assert d.num_overloading == 2


class TestStandardPolicy:
    def test_even_split(self):
        policy = StandardPolicy()
        decision = policy.decide(make_context(8))
        assert decision.is_even
        assert decision.policy == "standard"
        assert all(a == 0.0 for a in decision.alphas)
        assert decision.overloading_ranks == ()
        assert not decision.downgraded_to_standard

    @given(num_pes=st.integers(min_value=1, max_value=128))
    def test_property_shares_sum_to_one(self, num_pes):
        decision = StandardPolicy().decide(make_context(num_pes))
        assert sum(decision.target_shares) == pytest.approx(1.0)


class TestULBAPolicy:
    def test_no_overloading_pes_gives_even_split(self):
        policy = ULBAPolicy(alpha=0.4)
        decision = policy.decide(make_context(16))
        assert decision.is_even
        assert decision.overloading_ranks == ()
        assert not decision.downgraded_to_standard

    def test_single_overloading_pe_underloaded(self):
        rates = {r: 0.0 for r in range(16)}
        rates[5] = 100.0
        policy = ULBAPolicy(alpha=0.4)
        decision = policy.decide(make_context(16, rates=rates))
        assert decision.overloading_ranks == (5,)
        assert decision.alphas[5] == 0.4
        assert decision.target_shares[5] == pytest.approx((1 - 0.4) / 16)
        others = [s for r, s in enumerate(decision.target_shares) if r != 5]
        assert all(s > 1 / 16 for s in others)
        assert sum(decision.target_shares) == pytest.approx(1.0)

    def test_policy_name_and_alpha_validation(self):
        assert ULBAPolicy(alpha=0.2).name == "ulba"
        with pytest.raises(ValueError):
            ULBAPolicy(alpha=1.5)
        with pytest.raises(ValueError):
            ULBAPolicy(alpha=0.4, majority_guard=2.0)

    def test_unknown_own_rate_ignored(self):
        """Ranks whose own WIR is not yet in their view cannot request
        underloading."""
        views = KnownRows.from_views([{}] * 16)
        ctx = LBContext(
            iteration=5,
            pe_workloads=(100.0,) * 16,
            wir_views=views,
            average_lb_cost=1.0,
        )
        decision = ULBAPolicy(alpha=0.4).decide(ctx)
        assert decision.is_even

    def test_majority_guard_downgrades(self):
        """When at least half of the PEs request underloading the policy
        falls back to the even split (Section III-C)."""
        detector = OverloadDetector(threshold=0.5, min_population=2)
        rates = {r: (100.0 if r < 8 else 0.0) for r in range(16)}
        policy = ULBAPolicy(alpha=0.4, detector=detector)
        decision = policy.decide(make_context(16, rates=rates))
        assert decision.downgraded_to_standard
        assert decision.is_even
        assert all(a == 0.0 for a in decision.alphas)
        # The detected ranks are still reported for diagnostics.
        assert len(decision.overloading_ranks) >= 8

    def test_minority_not_downgraded(self):
        detector = OverloadDetector(threshold=1.5, min_population=2)
        rates = {r: 0.0 for r in range(16)}
        rates[0] = 100.0
        rates[1] = 100.0
        policy = ULBAPolicy(alpha=0.3, detector=detector, majority_guard=0.5)
        decision = policy.decide(make_context(16, rates=rates))
        assert not decision.downgraded_to_standard
        assert set(decision.overloading_ranks) == {0, 1}

    def test_stale_views_can_differ_across_ranks(self):
        """Each rank applies the rule to its own (possibly partial) view --
        a rank that does not know it is an outlier does not request
        underloading."""
        num_pes = 16
        full_view = {r: 0.0 for r in range(num_pes)}
        full_view[3] = 100.0
        views = []
        for rank in range(num_pes):
            if rank == 3:
                views.append({3: 100.0})  # rank 3 only knows itself
            else:
                views.append(dict(full_view))
        ctx = LBContext(
            iteration=5,
            pe_workloads=(100.0,) * num_pes,
            wir_views=KnownRows.from_views(views),
            average_lb_cost=1.0,
        )
        decision = ULBAPolicy(alpha=0.4).decide(ctx)
        # Rank 3's own view has a single entry -> z-score 0 -> no request.
        assert decision.is_even

    @given(
        num_pes=st.integers(min_value=12, max_value=64),
        alpha=st.floats(min_value=0.01, max_value=1.0),
    )
    def test_property_shares_always_sum_to_one(self, num_pes, alpha):
        rates = {r: 0.0 for r in range(num_pes)}
        rates[0] = 1000.0
        decision = ULBAPolicy(alpha=alpha).decide(make_context(num_pes, rates=rates))
        assert sum(decision.target_shares) == pytest.approx(1.0)
        assert all(s >= 0.0 for s in decision.target_shares)

    @given(num_pes=st.integers(min_value=12, max_value=64))
    def test_property_overloading_pe_gets_less_than_even(self, num_pes):
        rates = {r: 0.0 for r in range(num_pes)}
        rates[1] = 1000.0
        decision = ULBAPolicy(alpha=0.5).decide(make_context(num_pes, rates=rates))
        if decision.overloading_ranks:
            assert decision.target_shares[1] < 1.0 / num_pes
