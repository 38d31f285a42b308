"""Tests of :mod:`repro.erosion.rocks`."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.erosion.domain import ErosionDomain
from repro.erosion.rocks import (
    STRONG_EROSION_PROBABILITY,
    WEAK_EROSION_PROBABILITY,
    RockDisc,
    disc_cells,
    place_rocks,
)


class TestPaperConstants:
    def test_probabilities_match_paper(self):
        assert WEAK_EROSION_PROBABILITY == 0.02
        assert STRONG_EROSION_PROBABILITY == 0.4


class TestDiscMask:
    def test_mask_radius(self):
        domain = ErosionDomain(20, 20)
        mask = np.zeros(domain.shape, dtype=bool)
        mask.reshape(-1)[disc_cells(domain, (10.0, 10.0), 3.0)] = True
        assert mask[10, 10]
        assert mask[13, 10] and mask[10, 13]
        assert not mask[14, 10]
        # Area roughly pi r^2.
        assert abs(mask.sum() - np.pi * 9) < 10

    def test_invalid_radius(self):
        domain = ErosionDomain(4, 4)
        with pytest.raises(ValueError):
            disc_cells(domain, (2.0, 2.0), 0.0)

    def test_disc_beyond_the_domain_has_no_cells(self):
        domain = ErosionDomain(6, 6)
        assert disc_cells(domain, (-9.0, 3.0), 2.0).size == 0
        assert disc_cells(domain, (20.0, 3.0), 2.0).size == 0

class TestPlaceRocks:
    def test_one_disc_per_stripe(self):
        domain = ErosionDomain(64, 16)
        discs = place_rocks(domain, 4, num_strong=1, seed=0)
        assert len(discs) == 4
        stripe_width = 64 / 4
        for disc in discs:
            stripe_start = disc.rock_id * stripe_width
            assert stripe_start <= disc.center[0] < stripe_start + stripe_width

    def test_default_radius_is_quarter_height(self):
        domain = ErosionDomain(64, 16)
        discs = place_rocks(domain, 4, seed=0)
        assert all(d.radius == pytest.approx(4.0) for d in discs)

    def test_requested_strong_count(self):
        domain = ErosionDomain(120, 24)
        discs = place_rocks(domain, 6, num_strong=2, seed=1)
        strong = [d for d in discs if d.is_strong]
        weak = [d for d in discs if not d.is_strong]
        assert len(strong) == 2
        assert all(d.erosion_probability == STRONG_EROSION_PROBABILITY for d in strong)
        assert all(d.erosion_probability == WEAK_EROSION_PROBABILITY for d in weak)

    def test_explicit_strong_indices(self):
        domain = ErosionDomain(80, 16)
        discs = place_rocks(domain, 4, strong_indices=(0, 3), seed=0)
        assert [d.is_strong for d in discs] == [True, False, False, True]

    def test_zero_strong_rocks(self):
        domain = ErosionDomain(40, 10)
        discs = place_rocks(domain, 4, num_strong=0, seed=0)
        assert not any(d.is_strong for d in discs)

    def test_strong_choice_is_seeded(self):
        def chosen(seed):
            domain = ErosionDomain(160, 16)
            discs = place_rocks(domain, 8, num_strong=2, seed=seed)
            return tuple(d.rock_id for d in discs if d.is_strong)

        assert chosen(5) == chosen(5)

    def test_domain_cells_marked(self):
        domain = ErosionDomain(64, 16)
        discs = place_rocks(domain, 4, num_strong=1, strong_indices=(2,), seed=0)
        assert domain.num_rock_cells == sum(d.num_cells for d in discs)
        # Cells of disc 2 carry the strong probability.
        strong_cells = domain.rock_id == 2
        assert np.all(domain.erosion_probability[strong_cells] == STRONG_EROSION_PROBABILITY)

    def test_rock_cells_have_no_workload(self):
        domain = ErosionDomain(64, 16)
        place_rocks(domain, 4, seed=0)
        assert np.all(domain.weight[domain.rock_mask()] == 0.0)

    def test_custom_probabilities(self):
        domain = ErosionDomain(32, 8)
        discs = place_rocks(
            domain, 2, num_strong=1, strong_indices=(0,),
            weak_probability=0.05, strong_probability=0.9, seed=0,
        )
        assert discs[0].erosion_probability == 0.9
        assert discs[1].erosion_probability == 0.05

    def test_validation(self):
        domain = ErosionDomain(8, 8)
        with pytest.raises(ValueError):
            place_rocks(domain, 0)
        with pytest.raises(ValueError):
            place_rocks(domain, 16)  # more rocks than columns
        with pytest.raises(ValueError):
            place_rocks(domain, 2, num_strong=5)
        with pytest.raises(ValueError):
            place_rocks(domain, 2, strong_indices=(7,))
        with pytest.raises(ValueError):
            place_rocks(domain, 2, weak_probability=1.5)

    def test_rock_disc_dataclass(self):
        disc = RockDisc(
            rock_id=0, center=(1.0, 1.0), radius=2.0,
            erosion_probability=0.4, num_cells=12,
        )
        assert disc.is_strong
        weak = RockDisc(
            rock_id=1, center=(1.0, 1.0), radius=2.0,
            erosion_probability=0.02, num_cells=12,
        )
        assert not weak.is_strong


def full_grid_placement(domain, num_rocks, radius, strong_set):
    """The placement ``place_rocks`` replaced: one full-grid mask per disc."""
    if radius is None:
        radius = max(1.0, domain.height / 4.0)
    stripe_width = domain.width / num_rocks
    center_row = (domain.height - 1) / 2.0
    cols = np.arange(domain.width, dtype=float)[:, None]
    rows = np.arange(domain.height, dtype=float)[None, :]
    created = []
    for rock_id in range(num_rocks):
        center_col = (rock_id + 0.5) * stripe_width - 0.5
        probability = (
            STRONG_EROSION_PROBABILITY if rock_id in strong_set
            else WEAK_EROSION_PROBABILITY
        )
        mask = (cols - center_col) ** 2 + (rows - center_row) ** 2 <= radius**2
        created.append(domain.set_rock(mask, probability, rock_id))
    return created


class TestSlabPlacement:
    @given(
        width=st.integers(1, 80),
        height=st.integers(1, 40),
        rocks=st.integers(1, 12),
        radius=st.one_of(
            st.none(),
            st.integers(1, 30),
            st.floats(0.05, 30.0, allow_nan=False, allow_infinity=False),
        ),
        strong=st.sets(st.integers(0, 11)),
    )
    def test_property_slab_placement_matches_full_grid(
        self, width, height, rocks, radius, strong
    ):
        """Covers discs clipped by every domain edge and overlapping discs
        (radius above half the stripe width keep the first disc's cells)."""
        rocks = min(rocks, width)
        strong = sorted(i for i in strong if i < rocks)
        slab = ErosionDomain(width, height)
        grid = ErosionDomain(width, height)
        discs = place_rocks(slab, rocks, radius=radius, strong_indices=strong)
        created = full_grid_placement(grid, rocks, radius, set(strong))
        assert [d.num_cells for d in discs] == created
        for name in ("cell_type", "weight", "erosion_probability", "rock_id"):
            assert getattr(slab, name).tobytes() == getattr(grid, name).tobytes()

    def test_overlapping_discs_keep_the_first_id(self):
        domain = ErosionDomain(16, 16)
        discs = place_rocks(domain, 4, radius=6.0, strong_indices=())
        # Stripes are 4 columns wide, so neighbouring discs overlap and the
        # later disc gets fewer cells than the first.
        assert discs[1].num_cells < discs[0].num_cells
        assert domain.rock_id[5, 8] == 0
