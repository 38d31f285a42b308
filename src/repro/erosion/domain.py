"""The 2-D erosion domain: cell grid, workload weights, column accounting.

The domain is a ``width x height`` grid (x = column index, y = row index).
Each cell is either *fluid* or *rock*:

* fluid cells carry a workload weight (1.0 for original fluid cells, higher
  for cells produced by mesh refinement when a rock cell is eroded);
* rock cells carry no workload but have an erosion probability inherited
  from the rock disc they belong to.

The stripe decomposition partitions *columns*, so the quantity every other
component consumes is the per-column fluid workload
(:meth:`ErosionDomain.column_loads`).

Besides the four cell arrays the domain keeps the state an erosion step
needs, so that a step costs O(frontier) instead of O(grid):

* the erodible *frontier* (:attr:`ErosionDomain.frontier`) -- the rock cells
  with a fluid 4-neighbour, the domain border counting as fluid -- as a
  sorted array of flat (C-order) cell indices;
* the rock-cell count, the per-column loads and the total load.

This state is built from the full grid on first use after construction,
:meth:`~ErosionDomain.set_rock` and :meth:`~ErosionDomain.copy`, and then
updated incrementally by :meth:`~ErosionDomain.erode`: the new frontier is
the old one minus the eroded cells plus their rock 4-neighbours, and only
the columns holding eroded cells are re-summed (the same per-column
reduction as a full ``weight.sum(axis=1)``, so the loads are bit-identical
for any weights).  The total load is kept as a running sum only while it is
exact -- integer-valued weights, as with the defaults 1.0 and 4.0 -- and is
the full ``weight.sum()`` otherwise.
"""

from __future__ import annotations

import enum
from typing import Optional, Tuple

import numpy as np

from repro.utils.validation import check_positive, check_positive_int

__all__ = ["CellType", "ErosionDomain"]

#: Largest integer below which every float64 sum of integers is exact.
_EXACT_FLOAT_INT = 2**53


class CellType(enum.IntEnum):
    """Type of one domain cell."""

    FLUID = 0
    ROCK = 1


# Plain ints for the per-step array comparisons: comparing an array with an
# IntEnum member costs a few microseconds more per call.
_FLUID, _ROCK = int(CellType.FLUID), int(CellType.ROCK)


class ErosionDomain:
    """Mutable state of the erosion application's computational domain.

    The cell arrays (:attr:`cell_type`, :attr:`weight`,
    :attr:`erosion_probability`, :attr:`rock_id`) are mutated only through
    :meth:`set_rock` / :meth:`set_rock_at` and :meth:`erode` /
    :meth:`erode_at`; writing to them directly would leave the frontier and
    the load accounting stale.

    Parameters
    ----------
    width, height:
        Grid dimensions (columns x rows).
    refinement_factor:
        Workload weight given to the fluid produced by eroding one rock cell
        (the paper converts one rock cell into four smaller fluid cells,
        hence the default of 4.0).
    fluid_weight:
        Workload weight of an original fluid cell (1.0).
    """

    def __init__(
        self,
        width: int,
        height: int,
        *,
        refinement_factor: float = 4.0,
        fluid_weight: float = 1.0,
    ) -> None:
        check_positive_int(width, "width")
        check_positive_int(height, "height")
        check_positive(refinement_factor, "refinement_factor")
        check_positive(fluid_weight, "fluid_weight")
        self.width = width
        self.height = height
        self.refinement_factor = refinement_factor
        self.fluid_weight = fluid_weight

        #: Cell types, shape ``(width, height)``.
        self.cell_type = np.full((width, height), CellType.FLUID, dtype=np.int8)
        #: Per-cell workload weight (0 for rock cells).
        self.weight = np.full((width, height), fluid_weight, dtype=float)
        #: Per-cell erosion probability (0 for fluid cells).
        self.erosion_probability = np.zeros((width, height), dtype=float)
        #: Identifier of the rock disc each rock cell belongs to (-1 = none).
        self.rock_id = np.full((width, height), -1, dtype=np.int32)

        refined = self.refinement_factor * self.fluid_weight
        # The running total equals the full sum only while every partial
        # sum is an exactly representable integer.
        self._exact_total = (
            float(self.fluid_weight).is_integer()
            and float(refined).is_integer()
            and max(float(self.fluid_weight), float(refined)) * self.num_cells
            < _EXACT_FLOAT_INT
        )
        self._frontier: Optional[np.ndarray] = None
        self._num_rock = 0
        self._column_loads = np.empty(0)
        self._total_load = 0.0

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, int]:
        """Grid shape ``(width, height)``."""
        return (self.width, self.height)

    @property
    def num_cells(self) -> int:
        """Total number of grid positions."""
        return self.width * self.height

    def fluid_mask(self) -> np.ndarray:
        """Boolean mask of fluid cells."""
        return self.cell_type == CellType.FLUID

    def rock_mask(self) -> np.ndarray:
        """Boolean mask of rock cells."""
        return self.cell_type == CellType.ROCK

    @property
    def frontier(self) -> np.ndarray:
        """Sorted flat indices of the rock cells erodible this step.

        A rock cell is erodible when at least one 4-neighbour is fluid;
        rocks on the domain border count the outside as fluid, matching a
        domain immersed in fluid.  The array is read-only.
        """
        return self._state()

    @property
    def num_fluid_cells(self) -> int:
        """Number of fluid grid positions."""
        return self.num_cells - self.num_rock_cells

    @property
    def num_rock_cells(self) -> int:
        """Number of rock grid positions."""
        self._state()
        return self._num_rock

    @property
    def total_load(self) -> float:
        """Total fluid workload weight of the domain."""
        if not self._exact_total:
            return float(self.weight.sum())
        self._state()
        return self._total_load

    # ------------------------------------------------------------------
    # Rock placement / erosion mutations.
    # ------------------------------------------------------------------
    def set_rock(self, mask: np.ndarray, probability: float, rock_id: int) -> int:
        """Turn the cells selected by ``mask`` into rock.

        Returns the number of cells converted.  Cells already belonging to a
        rock keep their original rock id (discs do not overlap in the
        paper's setup, but the guard keeps the invariant simple).
        """
        self._check_mask(mask)
        return self.set_rock_at(np.flatnonzero(mask), probability, rock_id)

    def set_rock_at(
        self, indices: np.ndarray, probability: float, rock_id: int
    ) -> int:
        """:meth:`set_rock` on sorted, unique flat (C-order) cell indices."""
        if not 0.0 <= probability <= 1.0:
            raise ValueError(
                f"probability must lie within [0, 1], got {probability}"
            )
        idx = self._check_indices(indices)
        cell_type = self.cell_type.reshape(-1)
        fresh = idx[cell_type[idx] == _FLUID]
        cell_type[fresh] = CellType.ROCK
        self.weight.reshape(-1)[fresh] = 0.0
        self.erosion_probability.reshape(-1)[fresh] = probability
        self.rock_id.reshape(-1)[fresh] = rock_id
        self._frontier = None
        return int(fresh.size)

    def erode(self, mask: np.ndarray) -> int:
        """Erode the rock cells selected by ``mask``.

        Each eroded rock cell becomes fluid with weight ``refinement_factor``
        (four smaller fluid cells in the paper).  Returns the number of
        eroded cells; fluid cells in the mask are ignored.
        """
        self._check_mask(mask)
        return self.erode_at(np.flatnonzero(mask))

    def erode_at(self, indices: np.ndarray) -> int:
        """:meth:`erode` on sorted, unique flat (C-order) cell indices."""
        idx = self._check_indices(indices)
        cell_type = self.cell_type.reshape(-1)
        target = idx[cell_type[idx] == _ROCK]
        if not target.size:
            return 0
        refined = self.refinement_factor * self.fluid_weight
        cell_type[target] = CellType.FLUID
        self.weight.reshape(-1)[target] = refined
        self.erosion_probability.reshape(-1)[target] = 0.0
        self.rock_id.reshape(-1)[target] = -1
        if self._frontier is not None:
            self._update_state(target, refined)
        return int(target.size)

    # ------------------------------------------------------------------
    # Workload accounting.
    # ------------------------------------------------------------------
    def column_loads(self) -> np.ndarray:
        """Fluid workload per column (the stripe partitioner's input)."""
        self._state()
        return self._column_loads.copy()

    def copy(self) -> "ErosionDomain":
        """Deep copy of the domain (used by deterministic replays in tests)."""
        clone = ErosionDomain(
            self.width,
            self.height,
            refinement_factor=self.refinement_factor,
            fluid_weight=self.fluid_weight,
        )
        clone.cell_type = self.cell_type.copy()
        clone.weight = self.weight.copy()
        clone.erosion_probability = self.erosion_probability.copy()
        clone.rock_id = self.rock_id.copy()
        return clone

    # ------------------------------------------------------------------
    # Frontier and load state.
    # ------------------------------------------------------------------
    def _state(self) -> np.ndarray:
        """The frontier, rebuilding every derived value from the grid if stale."""
        if self._frontier is None:
            rock = self.rock_mask()
            fluid = ~rock
            neighbour_fluid = np.zeros_like(fluid)
            # Left/right neighbours (domain border treated as fluid).
            neighbour_fluid[1:, :] |= fluid[:-1, :]
            neighbour_fluid[0, :] = True
            neighbour_fluid[:-1, :] |= fluid[1:, :]
            neighbour_fluid[-1, :] = True
            # Up/down neighbours.
            neighbour_fluid[:, 1:] |= fluid[:, :-1]
            neighbour_fluid[:, 0] = True
            neighbour_fluid[:, :-1] |= fluid[:, 1:]
            neighbour_fluid[:, -1] = True
            self._num_rock = int(np.count_nonzero(rock))
            self._column_loads = self.weight.sum(axis=1)
            self._total_load = float(self.weight.sum())
            self._set_frontier(np.flatnonzero(rock & neighbour_fluid))
        return self._frontier

    def _set_frontier(self, frontier: np.ndarray) -> None:
        frontier.flags.writeable = False
        self._frontier = frontier

    def _update_state(self, eroded: np.ndarray, refined: float) -> None:
        """Fold the erosion of the sorted rock cells ``eroded`` into the state."""
        height = self.height
        row = eroded % height
        # 4-neighbours inside the grid; those outside are (implicit) fluid.
        neighbours = np.concatenate(
            (
                eroded[row != 0] - 1,
                eroded[row != height - 1] + 1,
                eroded[eroded >= height] - height,
                eroded[eroded < self.num_cells - height] + height,
            )
        )
        cell_type = self.cell_type.reshape(-1)
        frontier = self._frontier
        merged = np.concatenate(
            (
                frontier[cell_type[frontier] == _ROCK],
                neighbours[cell_type[neighbours] == _ROCK],
            )
        )
        # Five sorted runs (the kept frontier and one per neighbour
        # direction): the stable sort (timsort) merges them in near O(n).
        merged.sort(kind="stable")
        self._set_frontier(_distinct(merged))

        columns = _distinct(eroded // height)
        self._column_loads[columns] = self.weight[columns].sum(axis=1)
        self._num_rock -= int(eroded.size)
        self._total_load += refined * int(eroded.size)

    def _check_mask(self, mask: np.ndarray) -> None:
        if mask.shape != self.cell_type.shape:
            raise ValueError(
                f"mask shape {mask.shape} does not match the domain {self.shape}"
            )

    def _check_indices(self, indices: np.ndarray) -> np.ndarray:
        idx = np.asarray(indices)
        if idx.ndim != 1 or (idx.size and idx.dtype.kind not in "iu"):
            raise ValueError("cell indices must be a 1-D integer array")
        idx = idx.astype(np.int64, copy=False)
        if idx.size and (
            idx[0] < 0
            or idx[-1] >= self.num_cells
            or np.any(idx[1:] <= idx[:-1])
        ):
            raise ValueError(
                f"cell indices must be sorted, unique and within [0, {self.num_cells})"
            )
        return idx


def _distinct(values: np.ndarray) -> np.ndarray:
    """The distinct values of the sorted array ``values``, in order.

    ``np.unique`` is hash-based on NumPy 2.x and about fifty times slower
    on the few thousand indices of one erosion step.
    """
    first = np.empty(values.size, dtype=bool)
    first[:1] = True
    np.not_equal(values[1:], values[:-1], out=first[1:])
    return values[first]
