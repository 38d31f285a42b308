"""Probabilistic erosion dynamics with mesh refinement.

One application iteration performs:

1. take the rock cells in contact with fluid (the erodible frontier the
   domain keeps, :attr:`~repro.erosion.domain.ErosionDomain.frontier`);
2. erode each of them independently with its rock's probability, drawing
   one uniform number per frontier cell in ascending flat-index (C) order;
3. replace eroded cells by refined fluid (weight ``refinement_factor``).

The domain updates its frontier, rock count and column loads from the
eroded cells alone, so a step costs O(frontier), not O(grid).

Strongly erodible rocks therefore disappear quickly and leave behind a dense
patch of refined fluid -- the stripes covering them accumulate workload much
faster than the rest of the domain, which is exactly the sustained,
localised load-imbalance growth ULBA is designed to anticipate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.erosion.domain import ErosionDomain
from repro.utils.rng import SeedLike, ensure_rng

__all__ = ["ErosionStepStats", "ErosionDynamics"]


@dataclass(frozen=True)
class ErosionStepStats:
    """Summary of one erosion step."""

    #: Iteration counter of the dynamics object when the step ran.
    step: int
    #: Number of rock cells exposed to fluid before the step.
    boundary_cells: int
    #: Number of rock cells eroded during the step.
    eroded_cells: int
    #: Total fluid workload weight after the step.
    total_load: float
    #: Number of rock cells remaining after the step.
    remaining_rock_cells: int

    @property
    def is_depleted(self) -> bool:
        """True when no rock is left to erode."""
        return self.remaining_rock_cells == 0


class ErosionDynamics:
    """Stateful driver of the erosion process on one domain."""

    def __init__(self, domain: ErosionDomain, *, seed: SeedLike = None) -> None:
        self.domain = domain
        self.rng = ensure_rng(seed)
        self._step = 0
        self.history: list[ErosionStepStats] = []

    # ------------------------------------------------------------------
    @property
    def step_count(self) -> int:
        """Number of erosion steps performed so far."""
        return self._step

    def advance(self) -> ErosionStepStats:
        """Perform one erosion + refinement step."""
        domain = self.domain
        frontier = domain.frontier
        num_boundary = int(frontier.size)

        if num_boundary:
            probabilities = domain.erosion_probability.reshape(-1)[frontier]
            draws = self.rng.random(num_boundary)
            eroded = domain.erode_at(frontier[draws < probabilities])
        else:
            eroded = 0

        stats = ErosionStepStats(
            step=self._step,
            boundary_cells=num_boundary,
            eroded_cells=eroded,
            total_load=domain.total_load,
            remaining_rock_cells=domain.num_rock_cells,
        )
        self._step += 1
        self.history.append(stats)
        return stats

    def run(self, steps: int) -> ErosionStepStats:
        """Run ``steps`` erosion steps; returns the last step's statistics."""
        if steps <= 0:
            raise ValueError(f"steps must be > 0, got {steps}")
        stats: Optional[ErosionStepStats] = None
        for _ in range(steps):
            stats = self.advance()
        assert stats is not None
        return stats
