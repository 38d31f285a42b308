"""Rock-disc placement and erodibility assignment.

The paper's setup: ``P`` rock discs with a radius of 250 cells (a quarter of
the 1000-cell domain height) are uniformly distributed along the x-axis, one
per initial stripe; the partitioning starts with one rock per PE and no PE
knows whether its rock is strongly (probability 0.4) or weakly (0.02)
erodible.  A configurable number of discs (1-3 in Figure 4) are strongly
erodible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.erosion.domain import ErosionDomain
from repro.utils.rng import SeedLike, ensure_rng
from repro.utils.validation import check_fraction, check_positive, check_positive_int

__all__ = [
    "RockDisc",
    "WEAK_EROSION_PROBABILITY",
    "STRONG_EROSION_PROBABILITY",
    "place_rocks",
]

#: Erosion probability of weakly erodible rocks (paper value).
WEAK_EROSION_PROBABILITY: float = 0.02
#: Erosion probability of strongly erodible rocks (paper value).
STRONG_EROSION_PROBABILITY: float = 0.4


@dataclass(frozen=True)
class RockDisc:
    """One rock disc of the erosion domain."""

    #: Disc identifier (also the index of the PE initially owning it).
    rock_id: int
    #: Disc centre, in (column, row) coordinates.
    center: Tuple[float, float]
    #: Disc radius in cells.
    radius: float
    #: Per-cell erosion probability of the disc.
    erosion_probability: float
    #: Number of rock cells the disc was created with.
    num_cells: int

    @property
    def is_strong(self) -> bool:
        """True when the disc is strongly erodible."""
        return self.erosion_probability >= STRONG_EROSION_PROBABILITY


def disc_cells(
    domain: ErosionDomain, center: Tuple[float, float], radius: float
) -> np.ndarray:
    """Sorted flat indices of the cells inside the disc of ``radius`` at ``center``.

    The disc expression is evaluated only on the column slab that covers
    the disc's bounding box (padded by one column on each side); every
    column outside it lies more than ``radius + 1`` away from the centre.
    """
    check_positive(radius, "radius")
    first = max(0, math.floor(center[0] - radius) - 1)
    stop = min(domain.width, math.ceil(center[0] + radius) + 2)
    cols = np.arange(first, stop, dtype=float)[:, None]
    rows = np.arange(domain.height, dtype=float)[None, :]
    inside = (cols - center[0]) ** 2 + (rows - center[1]) ** 2 <= radius**2
    return first * domain.height + np.flatnonzero(inside)


def place_rocks(
    domain: ErosionDomain,
    num_rocks: int,
    *,
    radius: Optional[float] = None,
    num_strong: int = 1,
    strong_indices: Optional[Sequence[int]] = None,
    weak_probability: float = WEAK_EROSION_PROBABILITY,
    strong_probability: float = STRONG_EROSION_PROBABILITY,
    seed: SeedLike = None,
) -> List[RockDisc]:
    """Place ``num_rocks`` discs on ``domain``, one per equal-width stripe.

    Parameters
    ----------
    domain:
        Target domain (modified in place).
    num_rocks:
        Number of discs; the paper uses one per PE.
    radius:
        Disc radius in cells; defaults to a quarter of the domain height
        (the paper's 250-cell radius in a 1000-cell-high domain).
    num_strong:
        Number of strongly erodible discs (ignored when ``strong_indices``
        is given).
    strong_indices:
        Explicit disc indices to make strongly erodible; when omitted,
        ``num_strong`` indices are drawn uniformly at random -- "it is not
        known in advance where the rocks with a high eroding probability are
        located".
    weak_probability, strong_probability:
        Erosion probabilities of the two rock classes.
    seed:
        Randomness used only for choosing the strong discs.

    Returns
    -------
    list of RockDisc
        The placed discs, ordered by ``rock_id`` (left to right).
    """
    check_positive_int(num_rocks, "num_rocks")
    check_fraction(weak_probability, "weak_probability")
    check_fraction(strong_probability, "strong_probability")
    if domain.width < num_rocks:
        raise ValueError(
            f"domain width {domain.width} cannot host {num_rocks} discs"
        )
    if radius is None:
        radius = max(1.0, domain.height / 4.0)
    check_positive(radius, "radius")

    if strong_indices is None:
        if not 0 <= num_strong <= num_rocks:
            raise ValueError(
                f"num_strong must lie in [0, {num_rocks}], got {num_strong}"
            )
        rng = ensure_rng(seed)
        strong_set = set(
            int(i) for i in rng.choice(num_rocks, size=num_strong, replace=False)
        ) if num_strong else set()
    else:
        strong_set = set(int(i) for i in strong_indices)
        for i in strong_set:
            if not 0 <= i < num_rocks:
                raise ValueError(f"strong index {i} outside [0, {num_rocks})")

    stripe_width = domain.width / num_rocks
    center_row = (domain.height - 1) / 2.0
    discs: List[RockDisc] = []
    for rock_id in range(num_rocks):
        center_col = (rock_id + 0.5) * stripe_width - 0.5
        probability = (
            strong_probability if rock_id in strong_set else weak_probability
        )
        cells = disc_cells(domain, (center_col, center_row), radius)
        created = domain.set_rock_at(cells, probability, rock_id)
        discs.append(
            RockDisc(
                rock_id=rock_id,
                center=(center_col, center_row),
                radius=float(radius),
                erosion_probability=probability,
                num_cells=created,
            )
        )
    return discs
