"""Tests of :mod:`repro.erosion.dynamics` and :mod:`repro.erosion.app`."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.erosion.app import ErosionApplication, ErosionConfig
from repro.erosion.domain import CellType, ErosionDomain
from repro.erosion.dynamics import ErosionDynamics, ErosionStepStats


def rocky_domain(width=20, height=20, probability=0.4):
    domain = ErosionDomain(width, height)
    cols = np.arange(width)[:, None]
    rows = np.arange(height)[None, :]
    mask = (cols - width // 2) ** 2 + (rows - height // 2) ** 2 <= (height // 4) ** 2
    domain.set_rock(mask, probability, 0)
    return domain


class TestErosionDynamics:
    def test_advance_returns_stats(self):
        dynamics = ErosionDynamics(rocky_domain(), seed=0)
        stats = dynamics.advance()
        assert isinstance(stats, ErosionStepStats)
        assert stats.step == 0
        assert stats.boundary_cells > 0
        assert 0 <= stats.eroded_cells <= stats.boundary_cells
        assert dynamics.step_count == 1
        assert dynamics.history == [stats]

    def test_deterministic_for_seed(self):
        def run(seed):
            dynamics = ErosionDynamics(rocky_domain(), seed=seed)
            return [dynamics.advance().eroded_cells for _ in range(10)]

        assert run(3) == run(3)
        assert run(3) != run(4) or True  # different seeds usually differ

    def test_zero_probability_never_erodes(self):
        dynamics = ErosionDynamics(rocky_domain(probability=0.0), seed=0)
        for _ in range(5):
            stats = dynamics.advance()
            assert stats.eroded_cells == 0

    def test_probability_one_erodes_whole_boundary(self):
        dynamics = ErosionDynamics(rocky_domain(probability=1.0), seed=0)
        stats = dynamics.advance()
        assert stats.eroded_cells == stats.boundary_cells

    def test_rock_monotonically_depletes(self):
        dynamics = ErosionDynamics(rocky_domain(probability=0.4), seed=1)
        remaining = [dynamics.domain.num_rock_cells]
        for _ in range(30):
            remaining.append(dynamics.advance().remaining_rock_cells)
        assert all(b <= a for a, b in zip(remaining, remaining[1:]))
        assert remaining[-1] < remaining[0]

    def test_total_load_monotonically_grows(self):
        dynamics = ErosionDynamics(rocky_domain(probability=0.4), seed=2)
        loads = [dynamics.domain.total_load]
        for _ in range(20):
            loads.append(dynamics.advance().total_load)
        assert all(b >= a for a, b in zip(loads, loads[1:]))

    def test_strong_rock_depletes_eventually(self):
        dynamics = ErosionDynamics(rocky_domain(width=16, height=16), seed=3)
        stats = dynamics.run(200)
        assert stats.is_depleted

    def test_run_validates_steps(self):
        with pytest.raises(ValueError):
            ErosionDynamics(rocky_domain(), seed=0).run(0)

    def test_no_rock_is_stable(self):
        domain = ErosionDomain(8, 8)
        dynamics = ErosionDynamics(domain, seed=0)
        stats = dynamics.advance()
        assert stats.boundary_cells == 0
        assert stats.eroded_cells == 0
        assert stats.total_load == pytest.approx(64.0)

    @settings(max_examples=10)
    @given(seed=st.integers(0, 500))
    def test_property_load_accounting(self, seed):
        """After each step: total load = original fluid + refinement_factor *
        (rock cells eroded so far)."""
        domain = rocky_domain(16, 16)
        initial_fluid = domain.num_fluid_cells
        initial_rock = domain.num_rock_cells
        dynamics = ErosionDynamics(domain, seed=seed)
        for _ in range(10):
            stats = dynamics.advance()
            eroded_so_far = initial_rock - domain.num_rock_cells
            expected = initial_fluid * 1.0 + eroded_so_far * domain.refinement_factor
            assert stats.total_load == pytest.approx(expected)


class TestErosionConfig:
    def test_derived_sizes(self):
        config = ErosionConfig(num_pes=4, columns_per_pe=10, rows=8)
        assert config.width == 40
        assert config.cells_per_pe == 80

    def test_validation(self):
        with pytest.raises(ValueError):
            ErosionConfig(num_pes=0)
        with pytest.raises(ValueError):
            ErosionConfig(num_pes=4, num_strong_rocks=5)
        with pytest.raises(ValueError):
            ErosionConfig(num_pes=4, refinement_factor=0.0)
        with pytest.raises(ValueError):
            ErosionConfig(num_pes=4, flop_per_load_unit=0.0)

    def test_paper_defaults(self):
        config = ErosionConfig(num_pes=4)
        assert config.weak_probability == 0.02
        assert config.strong_probability == 0.4
        assert config.refinement_factor == 4.0


class TestErosionApplication:
    def test_from_config_builds_rocks(self, tiny_erosion_config):
        app = ErosionApplication.from_config(tiny_erosion_config)
        assert len(app.discs) == tiny_erosion_config.num_pes
        assert len(app.strong_rocks) == 1
        assert app.strong_rocks[0].rock_id == 1
        assert app.num_columns == tiny_erosion_config.width

    def test_column_loads_shape_and_sum(self, tiny_erosion_app):
        loads = tiny_erosion_app.column_loads()
        assert loads.shape == (tiny_erosion_app.num_columns,)
        assert loads.sum() == pytest.approx(tiny_erosion_app.total_load())

    def test_advance_changes_state(self, tiny_erosion_app):
        before = tiny_erosion_app.total_load()
        for _ in range(20):
            tiny_erosion_app.advance()
        assert tiny_erosion_app.total_load() >= before
        assert tiny_erosion_app.last_step_stats() is not None

    def test_same_seed_same_dynamics(self, tiny_erosion_config):
        def trajectory(config):
            app = ErosionApplication.from_config(config)
            out = []
            for _ in range(10):
                app.advance()
                out.append(app.total_load())
            return out

        assert trajectory(tiny_erosion_config) == trajectory(tiny_erosion_config)

    def test_strong_stripe_gains_more_load(self):
        """The stripe holding the strongly erodible rock accumulates load
        faster than the others -- the imbalance mechanism of Section IV-B."""
        config = ErosionConfig(
            num_pes=4,
            columns_per_pe=16,
            rows=16,
            num_strong_rocks=1,
            strong_rock_indices=(2,),
            seed=7,
        )
        app = ErosionApplication.from_config(config)
        initial = app.column_loads().reshape(4, 16).sum(axis=1)
        for _ in range(60):
            app.advance()
        final = app.column_loads().reshape(4, 16).sum(axis=1)
        growth = final - initial
        assert growth[2] == growth.max()
        assert growth[2] > 1.5 * np.delete(growth, 2).max()

    def test_last_step_stats_none_before_advance(self, tiny_erosion_app):
        assert tiny_erosion_app.last_step_stats() is None

    def test_invalid_flop_per_load_unit(self):
        domain = ErosionDomain(8, 8)
        with pytest.raises(ValueError):
            ErosionApplication(domain, flop_per_load_unit=0.0)

    def test_direct_construction_without_discs(self):
        domain = ErosionDomain(8, 8)
        app = ErosionApplication(domain, seed=0)
        assert app.discs == []
        assert app.strong_rocks == []
        app.advance()  # no rock: a no-op step
        assert app.total_load() == pytest.approx(64.0)


class GridOracle:
    """The full-grid domain and erosion step that the frontier path replaced.

    Every step rescans the whole grid: the boundary mask, the rock count,
    the column loads and the total load.  Kept here as the oracle of the
    incremental frontier bookkeeping in :class:`ErosionDomain`.
    """

    def __init__(self, width, height, *, refinement_factor, fluid_weight):
        self.refinement_factor = refinement_factor
        self.fluid_weight = fluid_weight
        self.cell_type = np.full((width, height), CellType.FLUID, dtype=np.int8)
        self.weight = np.full((width, height), fluid_weight, dtype=float)
        self.erosion_probability = np.zeros((width, height), dtype=float)
        self.rock_id = np.full((width, height), -1, dtype=np.int32)

    def fluid_mask(self):
        return self.cell_type == CellType.FLUID

    def rock_mask(self):
        return self.cell_type == CellType.ROCK

    def set_rock(self, mask, probability, rock_id):
        fresh = mask & self.fluid_mask()
        self.cell_type[fresh] = CellType.ROCK
        self.weight[fresh] = 0.0
        self.erosion_probability[fresh] = probability
        self.rock_id[fresh] = rock_id
        return int(fresh.sum())

    def erode(self, mask):
        target = mask & self.rock_mask()
        self.cell_type[target] = CellType.FLUID
        self.weight[target] = self.refinement_factor * self.fluid_weight
        self.erosion_probability[target] = 0.0
        self.rock_id[target] = -1
        return int(target.sum())

    def boundary_rock_mask(self):
        fluid = self.fluid_mask()
        neighbour_fluid = np.zeros_like(fluid)
        neighbour_fluid[1:, :] |= fluid[:-1, :]
        neighbour_fluid[0, :] = True
        neighbour_fluid[:-1, :] |= fluid[1:, :]
        neighbour_fluid[-1, :] = True
        neighbour_fluid[:, 1:] |= fluid[:, :-1]
        neighbour_fluid[:, 0] = True
        neighbour_fluid[:, :-1] |= fluid[:, 1:]
        neighbour_fluid[:, -1] = True
        return self.rock_mask() & neighbour_fluid

    def advance(self, rng, step):
        boundary = self.boundary_rock_mask()
        num_boundary = int(boundary.sum())
        if num_boundary:
            probabilities = self.erosion_probability[boundary]
            draws = rng.random(num_boundary)
            erode_mask = np.zeros_like(boundary)
            erode_mask[boundary] = draws < probabilities
            eroded = self.erode(erode_mask)
        else:
            eroded = 0
        return ErosionStepStats(
            step=step,
            boundary_cells=num_boundary,
            eroded_cells=eroded,
            total_load=float(self.weight.sum()),
            remaining_rock_cells=int(self.rock_mask().sum()),
        )

    def copy(self):
        clone = GridOracle(
            *self.cell_type.shape,
            refinement_factor=self.refinement_factor,
            fluid_weight=self.fluid_weight,
        )
        for name in ("cell_type", "weight", "erosion_probability", "rock_id"):
            setattr(clone, name, getattr(self, name).copy())
        return clone


CELL_ARRAYS = ("cell_type", "weight", "erosion_probability", "rock_id")


def assert_same_domain(domain, oracle):
    for name in CELL_ARRAYS:
        ours, theirs = getattr(domain, name), getattr(oracle, name)
        assert ours.dtype == theirs.dtype and ours.shape == theirs.shape, name
        assert ours.tobytes() == theirs.tobytes(), name
    assert domain.column_loads().tobytes() == oracle.weight.sum(axis=1).tobytes()
    assert domain.total_load == float(oracle.weight.sum())
    assert domain.num_rock_cells == int(oracle.rock_mask().sum())
    assert np.array_equal(domain.frontier, np.flatnonzero(oracle.boundary_rock_mask()))


@st.composite
def erosion_runs(draw):
    steps = draw(st.integers(1, 14))
    optional_step = st.one_of(st.none(), st.integers(0, steps - 1))
    return {
        "width": draw(st.integers(1, 14)),
        "height": draw(st.integers(1, 14)),
        "fluid_weight": draw(st.sampled_from([1.0, 2.0, 0.7, 1.3])),
        "refinement_factor": draw(st.sampled_from([4.0, 3.0, 2.5, 1.1, 4.7])),
        "placements": draw(st.integers(1, 4)),
        "layout_seed": draw(st.integers(0, 2**16)),
        "seed": draw(st.integers(0, 2**16)),
        "steps": steps,
        "erode_step": draw(optional_step),
        "copy_step": draw(optional_step),
    }


class TestFrontierDifferential:
    """The frontier step against the full-grid oracle, bit for bit."""

    @given(run=erosion_runs())
    def test_property_frontier_step_matches_full_grid_step(self, run):
        width, height = run["width"], run["height"]
        weights = {
            "fluid_weight": run["fluid_weight"],
            "refinement_factor": run["refinement_factor"],
        }
        domain = ErosionDomain(width, height, **weights)
        oracle = GridOracle(width, height, **weights)

        layout = np.random.default_rng(run["layout_seed"])
        cols = np.arange(width)[:, None]
        rows = np.arange(height)[None, :]
        for rock_id in range(run["placements"]):
            if layout.random() < 0.5:
                # A disc whose centre may lie on or beyond the border.
                cx = layout.uniform(-2.0, width + 1.0)
                cy = layout.uniform(-2.0, height + 1.0)
                radius = layout.uniform(0.5, 6.0)
                mask = (cols - cx) ** 2 + (rows - cy) ** 2 <= radius**2
            else:
                mask = layout.random((width, height)) < layout.uniform(0.1, 0.9)
            probability = float(layout.choice([0.0, 1.0, layout.uniform()]))
            assert domain.set_rock(mask, probability, rock_id) == oracle.set_rock(
                mask, probability, rock_id
            )
        assert_same_domain(domain, oracle)

        dynamics = ErosionDynamics(domain, seed=np.random.default_rng(run["seed"]))
        oracle_rng = np.random.default_rng(run["seed"])
        original = snapshot = None
        for step in range(run["steps"]):
            if step == run["erode_step"]:
                # Interior rock, frontier rock and fluid cells alike.
                mask = layout.random((width, height)) < 0.3
                assert dynamics.domain.erode(mask) == oracle.erode(mask)
            if step == run["copy_step"]:
                original = dynamics.domain
                snapshot = {name: getattr(original, name).copy() for name in CELL_ARRAYS}
                clone = original.copy()
                oracle = oracle.copy()
                dynamics = ErosionDynamics(clone, seed=dynamics.rng)
            expected = oracle.advance(oracle_rng, dynamics.step_count)
            assert dynamics.advance() == expected
            assert_same_domain(dynamics.domain, oracle)

        assert dynamics.rng.bit_generator.state == oracle_rng.bit_generator.state
        if original is not None:
            # The copy is deep: stepping it left the original untouched.
            for name, before in snapshot.items():
                assert np.array_equal(getattr(original, name), before)
