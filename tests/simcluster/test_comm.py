"""Tests of :mod:`repro.simcluster.comm` (cost model and the bcast/gather collectives)."""

from __future__ import annotations


import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.simcluster.comm import CommCostModel, SimCommunicator
from repro.simcluster.pe import ProcessingElement


def make_comm(size=4, cost_model=None):
    pes = [ProcessingElement(rank=r, speed=1.0e9) for r in range(size)]
    return SimCommunicator(pes, cost_model), pes


class TestCommCostModel:
    def test_point_to_point(self):
        model = CommCostModel(latency=1e-6, bandwidth=1e9)
        assert model.point_to_point(1e6) == pytest.approx(1e-6 + 1e-3)

    def test_zero_bytes(self):
        model = CommCostModel(latency=2e-6, bandwidth=1e9)
        assert model.point_to_point(0.0) == pytest.approx(2e-6)

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError):
            CommCostModel().point_to_point(-1.0)

    def test_collective_log_tree(self):
        model = CommCostModel(latency=1e-6, bandwidth=1e9)
        assert model.collective(8, 0.0) == pytest.approx(3 * 1e-6)
        assert model.collective(9, 0.0) == pytest.approx(4 * 1e-6)

    def test_collective_single_pe_is_free(self):
        assert CommCostModel().collective(1, 1e6) == 0.0

    def test_collective_invalid_size(self):
        with pytest.raises(ValueError):
            CommCostModel().collective(0, 1.0)

    def test_free_model(self):
        model = CommCostModel.free()
        assert model.point_to_point(1e12) == 0.0
        assert model.collective(1024, 1e12) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            CommCostModel(latency=-1.0)
        with pytest.raises(ValueError):
            CommCostModel(bandwidth=0.0)

    @given(
        num_pes=st.integers(min_value=2, max_value=4096),
        nbytes=st.floats(min_value=0.0, max_value=1e9),
    )
    def test_property_collective_monotone_in_size(self, num_pes, nbytes):
        model = CommCostModel()
        assert model.collective(num_pes * 2, nbytes) >= model.collective(num_pes, nbytes)


class TestSimCommunicatorConstruction:
    def test_requires_rank_order(self):
        pes = [ProcessingElement(rank=1), ProcessingElement(rank=0)]
        with pytest.raises(ValueError):
            SimCommunicator(pes)

    def test_requires_at_least_one_pe(self):
        with pytest.raises(ValueError):
            SimCommunicator([])

    def test_size_and_pe_access(self):
        comm, _ = make_comm(3)
        assert comm.size == 3
        assert comm.cost_model == CommCostModel()


class TestCollectives:
    def test_bcast_value_and_sync(self):
        comm, pes = make_comm(4)
        out = comm.bcast({"x": 1}, root=0)
        assert out == [{"x": 1}] * 4
        assert len({pe.now for pe in pes}) == 1

    def test_bcast_invalid_root(self):
        comm, _ = make_comm(2)
        with pytest.raises(ValueError):
            comm.bcast(1, root=5)

    def test_gather_semantics(self):
        comm, _ = make_comm(3)
        out = comm.gather([10, 20, 30], root=1)
        assert out[1] == [10, 20, 30]
        assert out[0] is None and out[2] is None

    def test_gather_wrong_length(self):
        comm, _ = make_comm(3)
        with pytest.raises(ValueError):
            comm.gather([1, 2], root=0)

    def test_collectives_charge_cost(self):
        cost_model = CommCostModel(latency=1e-3, bandwidth=1e9)
        comm, pes = make_comm(4, cost_model)
        before = pes[0].now
        comm.bcast(0, nbytes=0.0)
        # log2(4) = 2 rounds of latency.
        assert pes[0].now - before == pytest.approx(2e-3)

    def test_collective_is_barrier(self):
        """Every collective synchronises all clocks (bulk-synchronous model)."""
        comm, pes = make_comm(4)
        pes[2].compute(5.0e9)
        comm.gather([0, 0, 0, 0], root=1)
        times = {round(pe.now, 12) for pe in pes}
        assert len(times) == 1
        assert pes[0].now >= 5.0
