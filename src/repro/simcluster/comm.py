"""Communication cost model and the MPI-like communicator of the reference.

:class:`CommCostModel` is the first-order interconnect model every virtual
cluster charges its collectives with: a simple log-tree model
(``ceil(log2 P) * (latency + bytes / bandwidth)``), the standard
first-order model of MPI collective implementations.  Every collective is
also an implicit barrier -- all clocks synchronise to the latest
participant before the cost is added.

:class:`SimCommunicator` binds that model to a group of standalone
:class:`~repro.simcluster.pe.ProcessingElement` objects and offers the two
collectives of Algorithm 2 (gather of the ``alpha`` values at the root,
broadcast of the partition) in the simulator's *global view*: a collective
takes the vector of per-rank send values and returns the vector of per-rank
receive values.  Only the frozen per-PE reference implementation
(:mod:`repro.runtime.reference`) uses it; the vectorized cluster charges the
same costs directly on its state arrays.

Keeping the cost model explicit (rather than hiding it in the LB cost
constant ``C``) lets the erosion experiments charge realistic, size-dependent
costs for partition broadcasts and cell migration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, TypeVar

from repro.simcluster.clock import synchronize
from repro.simcluster.pe import ProcessingElement
from repro.utils.validation import check_non_negative

__all__ = ["CommCostModel", "SimCommunicator"]

T = TypeVar("T")


@dataclass(frozen=True)
class CommCostModel:
    """First-order latency/bandwidth model of the interconnect.

    Parameters
    ----------
    latency:
        Per-message latency in seconds (MPI ``alpha`` term).
    bandwidth:
        Link bandwidth in bytes per second (MPI ``1/beta`` term).
    """

    latency: float = 1.0e-6
    bandwidth: float = 1.0e10

    def __post_init__(self) -> None:
        check_non_negative(self.latency, "latency")
        if self.bandwidth <= 0:
            raise ValueError(f"bandwidth must be > 0, got {self.bandwidth}")

    # ------------------------------------------------------------------
    def point_to_point(self, nbytes: float) -> float:
        """Cost of one point-to-point message of ``nbytes`` bytes."""
        check_non_negative(nbytes, "nbytes")
        return self.latency + nbytes / self.bandwidth

    def collective(self, num_pes: int, nbytes: float) -> float:
        """Cost of a tree-based collective over ``num_pes`` PEs.

        ``ceil(log2 P)`` rounds, each paying one point-to-point message of
        ``nbytes`` bytes.
        """
        if num_pes <= 0:
            raise ValueError(f"num_pes must be > 0, got {num_pes}")
        rounds = max(1, math.ceil(math.log2(num_pes))) if num_pes > 1 else 0
        return rounds * self.point_to_point(nbytes)

    @classmethod
    def free(cls) -> "CommCostModel":
        """A zero-cost interconnect (collectives only synchronise clocks)."""
        return cls(latency=0.0, bandwidth=math.inf)


class SimCommunicator:
    """Simulated MPI communicator bound to a fixed group of PEs."""

    def __init__(
        self,
        pes: Sequence[ProcessingElement],
        cost_model: Optional[CommCostModel] = None,
    ) -> None:
        if not pes:
            raise ValueError("a communicator needs at least one PE")
        ranks = [pe.rank for pe in pes]
        if ranks != list(range(len(pes))):
            raise ValueError(
                "PEs must be provided in rank order 0..P-1, got ranks "
                f"{ranks}"
            )
        self._pes: List[ProcessingElement] = list(pes)
        self.cost_model = cost_model or CommCostModel()

    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Number of PEs in the communicator (MPI ``Comm.Get_size``)."""
        return len(self._pes)

    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.size:
            raise ValueError(f"rank {rank} outside [0, {self.size})")

    def _check_vector(self, values: Sequence[Any], name: str) -> None:
        if len(values) != self.size:
            raise ValueError(
                f"{name} must have one entry per rank ({self.size}), got "
                f"{len(values)}"
            )

    # ------------------------------------------------------------------
    def _collective_sync(self, nbytes: float) -> None:
        cost = self.cost_model.collective(self.size, nbytes)
        synchronize((pe.clock for pe in self._pes), extra_cost=cost)

    # ------------------------------------------------------------------
    # Collectives (global view).
    # ------------------------------------------------------------------
    def bcast(self, value: T, root: int = 0, *, nbytes: float = 8.0) -> List[T]:
        """Broadcast ``value`` from ``root``; every rank receives it."""
        self._check_rank(root)
        self._collective_sync(nbytes)
        return [value for _ in range(self.size)]

    def gather(
        self, values: Sequence[T], root: int = 0, *, nbytes: float = 8.0
    ) -> List[Optional[List[T]]]:
        """Gather per-rank ``values`` at ``root``.

        Returns the per-rank receive vector: the root's entry is the full
        list, every other entry is ``None`` (mirroring ``mpi4py``'s
        lower-case ``gather``).
        """
        self._check_rank(root)
        self._check_vector(values, "values")
        self._collective_sync(nbytes)
        out: List[Optional[List[T]]] = [None] * self.size
        out[root] = list(values)
        return out
