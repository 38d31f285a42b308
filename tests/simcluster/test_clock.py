"""Tests of :mod:`repro.simcluster.clock`."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.simcluster.clock import VirtualClock, synchronize


class TestVirtualClock:
    def test_starts_at_zero(self):
        assert VirtualClock().now == 0.0

    def test_custom_start(self):
        assert VirtualClock(5.0).now == 5.0

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError):
            VirtualClock(-1.0)

    def test_advance(self):
        clock = VirtualClock()
        assert clock.advance(2.5) == 2.5
        assert clock.advance(0.5) == 3.0
        assert clock.now == 3.0

    def test_advance_zero_allowed(self):
        clock = VirtualClock(1.0)
        clock.advance(0.0)
        assert clock.now == 1.0

    def test_negative_advance_rejected(self):
        with pytest.raises(ValueError):
            VirtualClock().advance(-0.1)

    def test_advance_to_future(self):
        clock = VirtualClock(1.0)
        clock.advance_to(4.0)
        assert clock.now == 4.0

    def test_advance_to_past_is_noop(self):
        clock = VirtualClock(5.0)
        clock.advance_to(2.0)
        assert clock.now == 5.0

    @given(steps=st.lists(st.floats(min_value=0.0, max_value=1e6), max_size=50))
    def test_property_monotone(self, steps):
        clock = VirtualClock()
        previous = 0.0
        for s in steps:
            clock.advance(s)
            assert clock.now >= previous
            previous = clock.now
        assert clock.now == pytest.approx(sum(steps))


class TestSynchronize:
    def test_all_clocks_reach_maximum(self):
        clocks = [VirtualClock(t) for t in (1.0, 5.0, 3.0)]
        stamp = synchronize(clocks)
        assert stamp == 5.0
        assert all(c.now == 5.0 for c in clocks)

    def test_extra_cost_added(self):
        clocks = [VirtualClock(t) for t in (1.0, 2.0)]
        stamp = synchronize(clocks, extra_cost=0.5)
        assert stamp == 2.5
        assert all(c.now == 2.5 for c in clocks)

    def test_single_clock(self):
        clock = VirtualClock(3.0)
        assert synchronize([clock]) == 3.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            synchronize([])

    def test_negative_cost_rejected(self):
        with pytest.raises(ValueError):
            synchronize([VirtualClock()], extra_cost=-1.0)

    @given(
        starts=st.lists(
            st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=20
        ),
        cost=st.floats(min_value=0.0, max_value=1e3),
    )
    def test_property_barrier_semantics(self, starts, cost):
        clocks = [VirtualClock(t) for t in starts]
        stamp = synchronize(clocks, extra_cost=cost)
        assert stamp == pytest.approx(max(starts) + cost)
        assert all(c.now == pytest.approx(stamp) for c in clocks)
