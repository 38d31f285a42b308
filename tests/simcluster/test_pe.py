"""Tests of :mod:`repro.simcluster.pe`."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.simcluster.pe import ProcessingElement


class TestProcessingElement:
    def test_compute_advances_clock_and_busy_time(self):
        pe = ProcessingElement(rank=0, speed=2.0)
        elapsed = pe.compute(10.0)
        assert elapsed == pytest.approx(5.0)
        assert pe.now == pytest.approx(5.0)
        assert pe.busy_time == pytest.approx(5.0)

    def test_compute_zero_flops(self):
        pe = ProcessingElement(rank=0)
        assert pe.compute(0.0) == 0.0
        assert pe.now == 0.0

    def test_negative_flops_rejected(self):
        with pytest.raises(ValueError):
            ProcessingElement(rank=0).compute(-1.0)

    def test_spend_idle(self):
        pe = ProcessingElement(rank=1)
        pe.spend(2.0)
        assert pe.now == 2.0
        assert pe.busy_time == 0.0
        assert pe.lb_time == 0.0

    def test_spend_busy_and_lb(self):
        pe = ProcessingElement(rank=1)
        pe.spend(2.0, busy=True, lb=True)
        assert pe.busy_time == 2.0
        assert pe.lb_time == 2.0

    def test_spend_negative_rejected(self):
        with pytest.raises(ValueError):
            ProcessingElement(rank=0).spend(-0.5)

    def test_invalid_rank_rejected(self):
        with pytest.raises(ValueError):
            ProcessingElement(rank=-1)

    def test_invalid_speed_rejected(self):
        with pytest.raises(ValueError):
            ProcessingElement(rank=0, speed=0.0)

    @given(
        flops=st.lists(st.floats(min_value=0.0, max_value=1e9), max_size=30),
        speed=st.floats(min_value=1.0, max_value=1e12),
    )
    def test_property_busy_time_never_exceeds_elapsed(self, flops, speed):
        pe = ProcessingElement(rank=0, speed=speed)
        for f in flops:
            pe.compute(f)
        assert pe.busy_time <= pe.now + 1e-9
        assert pe.busy_time == pytest.approx(sum(flops) / speed)
