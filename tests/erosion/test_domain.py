"""Tests of :mod:`repro.erosion.domain`."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.erosion.domain import ErosionDomain


def disc(domain, cx, cy, r):
    cols = np.arange(domain.width)[:, None]
    rows = np.arange(domain.height)[None, :]
    return (cols - cx) ** 2 + (rows - cy) ** 2 <= r**2


def frontier_mask(domain):
    mask = np.zeros(domain.shape, dtype=bool)
    mask.reshape(-1)[domain.frontier] = True
    return mask


class TestConstruction:
    def test_starts_all_fluid(self):
        domain = ErosionDomain(8, 6)
        assert domain.shape == (8, 6)
        assert domain.num_cells == 48
        assert domain.num_fluid_cells == 48
        assert domain.num_rock_cells == 0
        assert domain.total_load == pytest.approx(48.0)

    def test_custom_weights(self):
        domain = ErosionDomain(4, 4, fluid_weight=2.0, refinement_factor=3.0)
        assert domain.total_load == pytest.approx(32.0)
        assert domain.refinement_factor == 3.0

    def test_validation(self):
        with pytest.raises(ValueError):
            ErosionDomain(0, 4)
        with pytest.raises(ValueError):
            ErosionDomain(4, 4, refinement_factor=0.0)
        with pytest.raises(ValueError):
            ErosionDomain(4, 4, fluid_weight=-1.0)


class TestSetRock:
    def test_set_rock_converts_cells(self):
        domain = ErosionDomain(10, 10)
        mask = disc(domain, 5, 5, 2)
        created = domain.set_rock(mask, 0.4, rock_id=3)
        assert created == int(mask.sum())
        assert domain.num_rock_cells == created
        assert domain.num_fluid_cells == 100 - created
        assert np.all(domain.weight[mask] == 0.0)
        assert np.all(domain.erosion_probability[mask] == 0.4)
        assert np.all(domain.rock_id[mask] == 3)

    def test_set_rock_does_not_overwrite_existing_rock(self):
        domain = ErosionDomain(10, 10)
        mask_a = disc(domain, 4, 4, 2)
        mask_b = disc(domain, 5, 5, 2)  # overlaps mask_a
        domain.set_rock(mask_a, 0.02, rock_id=0)
        created_b = domain.set_rock(mask_b, 0.4, rock_id=1)
        overlap = (mask_a & mask_b).sum()
        assert created_b == int(mask_b.sum()) - overlap
        # Overlapping cells keep the first rock's id and probability.
        assert np.all(domain.rock_id[mask_a & mask_b] == 0)
        assert np.all(domain.erosion_probability[mask_a & mask_b] == 0.02)

    def test_set_rock_validation(self):
        domain = ErosionDomain(4, 4)
        with pytest.raises(ValueError):
            domain.set_rock(np.ones((2, 2), dtype=bool), 0.4, 0)
        with pytest.raises(ValueError):
            domain.set_rock(np.ones((4, 4), dtype=bool), 1.5, 0)


class TestErode:
    def test_erode_converts_rock_to_refined_fluid(self):
        domain = ErosionDomain(10, 10, refinement_factor=4.0)
        rock = disc(domain, 5, 5, 3)
        domain.set_rock(rock, 0.4, 0)
        eroded = domain.erode(rock)
        assert eroded == int(rock.sum())
        assert domain.num_rock_cells == 0
        assert np.all(domain.weight[rock] == 4.0)
        assert np.all(domain.erosion_probability[rock] == 0.0)
        assert np.all(domain.rock_id[rock] == -1)

    def test_erode_ignores_fluid_cells(self):
        domain = ErosionDomain(6, 6)
        eroded = domain.erode(np.ones((6, 6), dtype=bool))
        assert eroded == 0
        assert domain.total_load == pytest.approx(36.0)

    def test_erode_increases_total_load(self):
        """Erosion with refinement adds (refinement_factor - 0) per cell --
        the mechanism that grows the overloading stripes."""
        domain = ErosionDomain(10, 10, refinement_factor=4.0)
        rock = disc(domain, 5, 5, 2)
        domain.set_rock(rock, 0.4, 0)
        load_before = domain.total_load
        domain.erode(rock)
        assert domain.total_load == pytest.approx(load_before + 4.0 * rock.sum())

    def test_erode_validation(self):
        domain = ErosionDomain(4, 4)
        with pytest.raises(ValueError):
            domain.erode(np.ones((3, 3), dtype=bool))


class TestColumnLoads:
    def test_column_loads_all_fluid(self):
        domain = ErosionDomain(5, 7)
        assert np.allclose(domain.column_loads(), 7.0)

    def test_column_loads_with_rock(self):
        domain = ErosionDomain(5, 4)
        mask = np.zeros((5, 4), dtype=bool)
        mask[2, :] = True  # column 2 fully rock
        domain.set_rock(mask, 0.4, 0)
        loads = domain.column_loads()
        assert loads[2] == 0.0
        assert np.allclose(np.delete(loads, 2), 4.0)

    def test_column_loads_sum_equals_total(self):
        domain = ErosionDomain(9, 9)
        domain.set_rock(disc(domain, 4, 4, 2), 0.4, 0)
        assert domain.column_loads().sum() == pytest.approx(domain.total_load)

    def test_column_loads_is_a_copy(self):
        domain = ErosionDomain(5, 4)
        domain.column_loads()[:] = -1.0
        assert np.allclose(domain.column_loads(), 4.0)

    def test_erode_updates_only_touched_columns(self):
        domain = ErosionDomain(6, 5, refinement_factor=3.0)
        mask = np.zeros((6, 5), dtype=bool)
        mask[1:5, 1:4] = True
        domain.set_rock(mask, 0.4, 0)
        before = domain.column_loads()
        erode = np.zeros((6, 5), dtype=bool)
        erode[2, 1] = erode[2, 3] = True
        domain.erode(erode)
        after = domain.column_loads()
        assert after[2] == before[2] + 6.0
        assert np.array_equal(np.delete(after, 2), np.delete(before, 2))
        assert np.array_equal(after, domain.weight.sum(axis=1))


class TestBoundaryRockMask:
    """The erodible frontier: rock cells with a fluid 4-neighbour."""

    def test_interior_rock_not_exposed(self):
        domain = ErosionDomain(10, 10)
        domain.set_rock(disc(domain, 5, 5, 3), 0.4, 0)
        boundary = frontier_mask(domain)
        # The centre of the disc has rock neighbours on all four sides.
        assert not boundary[5, 5]
        # Boundary cells exist and are a strict subset of the rock.
        assert boundary.sum() > 0
        assert boundary.sum() < domain.rock_mask().sum()
        assert np.all(domain.rock_mask()[boundary])

    def test_domain_border_counts_as_fluid(self):
        domain = ErosionDomain(4, 4)
        domain.set_rock(np.ones((4, 4), dtype=bool), 0.4, 0)
        boundary = frontier_mask(domain)
        # Only the outer ring touches the (implicit) outside fluid.
        assert boundary[0, 0] and boundary[3, 3] and boundary[0, 2]
        assert not boundary[1, 1] and not boundary[2, 2]

    def test_no_rock_no_boundary(self):
        domain = ErosionDomain(5, 5)
        assert domain.frontier.size == 0

    def test_single_rock_cell_is_boundary(self):
        domain = ErosionDomain(5, 5)
        mask = np.zeros((5, 5), dtype=bool)
        mask[2, 2] = True
        domain.set_rock(mask, 0.4, 0)
        assert domain.frontier.tolist() == [2 * 5 + 2]

    def test_frontier_is_sorted_and_read_only(self):
        domain = ErosionDomain(9, 7)
        domain.set_rock(disc(domain, 4, 3, 3), 0.4, 0)
        frontier = domain.frontier
        assert frontier.dtype == np.int64
        assert np.all(np.diff(frontier) > 0)
        with pytest.raises(ValueError):
            frontier[0] = 0

    def test_eroding_an_interior_cell_exposes_its_neighbours(self):
        domain = ErosionDomain(7, 7)
        domain.set_rock(np.ones((7, 7), dtype=bool), 0.4, 0)
        assert not frontier_mask(domain)[3, 3]
        centre = np.zeros((7, 7), dtype=bool)
        centre[3, 3] = True
        assert domain.erode(centre) == 1
        exposed = frontier_mask(domain)
        assert exposed[2, 3] and exposed[4, 3] and exposed[3, 2] and exposed[3, 4]
        assert not exposed[3, 3] and not exposed[2, 2]


class TestIndexedMutations:
    def test_set_rock_at_matches_mask_path(self):
        by_mask, by_index = ErosionDomain(6, 5), ErosionDomain(6, 5)
        mask = disc(by_mask, 2, 2, 2)
        assert by_mask.set_rock(mask, 0.3, 4) == by_index.set_rock_at(
            np.flatnonzero(mask), 0.3, 4
        )
        assert np.array_equal(by_mask.cell_type, by_index.cell_type)
        assert np.array_equal(by_mask.rock_id, by_index.rock_id)
        assert np.array_equal(by_mask.frontier, by_index.frontier)

    @pytest.mark.parametrize(
        "indices",
        [
            np.array([3, 1]),
            np.array([1, 1]),
            np.array([-1]),
            np.array([30]),
            np.array([[1]]),
            np.array([True]),
            np.array([1.0]),
        ],
        ids=["unsorted", "duplicate", "negative", "out-of-range", "2-d", "bool", "float"],
    )
    def test_bad_indices_rejected(self, indices):
        domain = ErosionDomain(6, 5)
        with pytest.raises(ValueError):
            domain.set_rock_at(indices, 0.4, 0)
        with pytest.raises(ValueError):
            domain.erode_at(indices)

    def test_empty_indices_are_a_no_op(self):
        domain = ErosionDomain(6, 5)
        assert domain.set_rock_at(np.array([], dtype=np.int64), 0.4, 0) == 0
        assert domain.erode_at(np.array([], dtype=np.int64)) == 0
        assert domain.num_rock_cells == 0

class TestCopy:
    def test_copy_is_deep(self):
        domain = ErosionDomain(6, 6)
        domain.set_rock(disc(domain, 3, 3, 2), 0.4, 0)
        clone = domain.copy()
        domain.erode(domain.rock_mask())
        assert clone.num_rock_cells > 0
        assert domain.num_rock_cells == 0

    def test_copy_preserves_configuration(self):
        domain = ErosionDomain(4, 5, refinement_factor=3.0, fluid_weight=2.0)
        clone = domain.copy()
        assert clone.shape == (4, 5)
        assert clone.refinement_factor == 3.0
        assert clone.fluid_weight == 2.0


class TestCellAccountingInvariant:
    @settings(max_examples=20)
    @given(
        width=st.integers(min_value=4, max_value=20),
        height=st.integers(min_value=4, max_value=20),
        radius=st.integers(min_value=1, max_value=6),
        seed=st.integers(0, 1000),
    )
    def test_property_cell_counts_conserved(self, width, height, radius, seed):
        """fluid + rock always equals width * height, no matter the sequence
        of rock placements and erosions."""
        domain = ErosionDomain(width, height)
        rng = np.random.default_rng(seed)
        mask = disc(domain, rng.integers(0, width), rng.integers(0, height), radius)
        domain.set_rock(mask, 0.4, 0)
        assert domain.num_fluid_cells + domain.num_rock_cells == width * height
        domain.erode(frontier_mask(domain))
        assert domain.num_fluid_cells + domain.num_rock_cells == width * height
