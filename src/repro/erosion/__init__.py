"""Fluid-with-erosion evaluation application (Section IV-B).

The paper evaluates ULBA on a synthetic parallel application that
"reproduces the computation of a fluid and the erosion of immersed rocks":

* the computational domain is a 2-D mesh of *fluid* and *rock* cells;
* rocks are discs of rock cells; each disc has an erosion probability of
  either 0.02 (weakly erodible) or 0.4 (strongly erodible), and it is not
  known in advance which discs erode quickly;
* at every iteration, fluid cells erode neighbouring rock cells with the
  rock's probability; an eroded rock cell is replaced by **four** smaller
  fluid cells (mesh refinement), so eroding regions accumulate extra
  workload -- this is what creates the growing load imbalance;
* only fluid cells cost compute time; the domain is decomposed into vertical
  stripes with one stripe per PE.

Modules
-------
* :mod:`repro.erosion.domain` -- the cell grid (types, per-cell workload
  weights, erosion probabilities), its erodible rock frontier and its
  column-wise workload accounting, both updated incrementally on erosion.
* :mod:`repro.erosion.rocks` -- rock-disc placement and erodibility
  assignment matching the paper's setup (one disc per PE, uniformly spread
  along the x-axis, a configurable number of strongly erodible ones).
* :mod:`repro.erosion.dynamics` -- the probabilistic erosion + refinement
  step over the frontier.
* :mod:`repro.erosion.app` -- :class:`ErosionApplication`, the striped
  iterative application consumed by the runtime skeleton, plus the
  scaled-down configuration used by the Figure 4/5 reproductions.
"""

from repro.erosion.domain import CellType, ErosionDomain
from repro.erosion.rocks import RockDisc, place_rocks
from repro.erosion.dynamics import ErosionDynamics, ErosionStepStats
from repro.erosion.app import ErosionApplication, ErosionConfig

__all__ = [
    "CellType",
    "ErosionApplication",
    "ErosionConfig",
    "ErosionDomain",
    "ErosionDynamics",
    "ErosionStepStats",
    "RockDisc",
    "place_rocks",
]
