"""The :class:`VirtualCluster` facade.

A :class:`VirtualCluster` bundles the PE state, the interconnect cost model
and the trace recorder, and offers the small amount of orchestration the
SPMD-style applications of this repository need:

* ``compute_step(loads)`` -- charge one bulk-synchronous compute phase where
  PE ``p`` executes ``loads[p]`` FLOP and everyone then synchronises (the
  iteration time is the maximum PE time, as in the paper's model);
* ``charge_lb_step(...)`` -- charge the cost of a load-balancing step to all
  PEs (partitioning at the root, broadcast, migration);
* snapshots of per-PE busy time used by the utilization trace of Figure 4b.

The per-PE state lives in flat NumPy vectors
(:class:`~repro.simcluster.pe.PEStateArrays`, ``cluster.state``), and a
compute step is that state's
:meth:`~repro.simcluster.pe.PEStateArrays.compute_phase` -- the same method
the batch engine runs on its ``(R, P)`` state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.simcluster.comm import CommCostModel
from repro.simcluster.pe import PEStateArrays
from repro.simcluster.tracing import ClusterTrace
from repro.utils.validation import check_non_negative, check_positive, check_positive_int

__all__ = ["StepResult", "VirtualCluster"]


@dataclass(frozen=True)
class StepResult:
    """Timing of one bulk-synchronous compute step."""

    #: Virtual duration of the step (time of the slowest PE + sync cost).
    elapsed: float
    #: Per-PE compute durations for the step.
    pe_times: tuple
    #: Timestamp at which the step completed (all PEs synchronised).
    completed_at: float

    @property
    def average_utilization(self) -> float:
        """Mean ratio of per-PE compute time to the step duration."""
        if self.elapsed <= 0.0:
            return 1.0
        return float(np.mean(np.asarray(self.pe_times) / self.elapsed))


class VirtualCluster:
    """A fixed-size group of simulated PEs with a cost model and a trace."""

    def __init__(
        self,
        num_pes: int,
        *,
        pe_speed: float = 1.0e9,
        cost_model: Optional[CommCostModel] = None,
        state: Optional[PEStateArrays] = None,
    ) -> None:
        check_positive_int(num_pes, "num_pes")
        check_positive(pe_speed, "pe_speed")
        if state is not None:
            # Externally owned state (e.g. a replica row view of a batched
            # (R, P) PEStateArrays): the cluster charges its costs into the
            # shared arrays while keeping its own trace.
            if state.replicas is not None or state.size != num_pes:
                raise ValueError(
                    "state must be an unbatched PEStateArrays with "
                    f"{num_pes} PEs"
                )
            self.state = state
        else:
            self.state = PEStateArrays(num_pes, pe_speed)
        #: Interconnect model charged by every collective.
        self.cost_model = cost_model or CommCostModel()
        self.trace = ClusterTrace(num_pes=num_pes)

    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Number of PEs."""
        return self.state.size

    @property
    def pe_speed(self) -> float:
        """Speed of the (homogeneous) PEs in FLOP/s."""
        return self.state.speed

    @property
    def now(self) -> float:
        """Common virtual time (all clocks agree outside of a compute phase)."""
        return self.state.now()

    # ------------------------------------------------------------------
    def compute_step(
        self,
        loads_flop: Sequence[float],
        *,
        iteration: Optional[int] = None,
        sync_bytes: float = 8.0,
    ) -> StepResult:
        """Run one bulk-synchronous compute phase.

        Parameters
        ----------
        loads_flop:
            FLOP to execute on each PE (length ``P``); an ``ndarray`` is
            used as-is, without copying.
        iteration:
            Iteration index recorded in the trace; omit to skip tracing.
        sync_bytes:
            Payload of the closing synchronisation collective (the erosion
            application exchanges halo columns and per-stripe workloads at
            the end of every iteration).
        """
        loads = np.asarray(loads_flop, dtype=float)
        if loads.shape != (self.size,):
            raise ValueError(
                f"loads_flop must have length {self.size}, got {loads.shape}"
            )
        if (loads < 0).any():
            raise ValueError("loads_flop must all be >= 0")

        pe_times = loads / self.state.speed
        # Closing collective: every iteration of the paper's application ends
        # with an exchange of boundary data / workload metrics.
        cost = self.cost_model.collective(self.size, sync_bytes)
        start, end = self.state.compute_phase(pe_times, cost)
        completed_at = float(end)
        elapsed = completed_at - float(start)

        times_list = pe_times.tolist()
        result = StepResult(
            elapsed=elapsed, pe_times=tuple(times_list), completed_at=completed_at
        )
        if iteration is not None:
            self.trace.record_iteration(
                iteration=iteration,
                elapsed=elapsed,
                pe_compute_times=times_list,
                timestamp=completed_at,
            )
        return result

    # ------------------------------------------------------------------
    def charge_lb_step(
        self,
        *,
        iteration: int,
        partition_seconds: float = 0.0,
        migration_bytes_per_pe: "Sequence[float] | float" = 0.0,
        root: int = 0,
    ) -> float:
        """Charge the virtual cost of one load-balancing step.

        The centralized LB technique of Algorithm 2 consists of: gathering
        the per-PE ``alpha`` values at the root, computing the partition on
        the root (``partition_seconds``), broadcasting it, and migrating the
        data.  Migration is modelled as a personalised exchange whose per-PE
        volume is ``migration_bytes_per_pe`` (scalar or one entry per PE;
        an ``ndarray`` is used without copying).

        Returns the total virtual duration of the LB step (which is also the
        amount added to every PE's ``lb_time``).
        """
        check_non_negative(partition_seconds, "partition_seconds")
        if not 0 <= root < self.size:
            raise ValueError(f"root rank {root} outside [0, {self.size})")
        if np.isscalar(migration_bytes_per_pe):
            max_volume = float(migration_bytes_per_pe)
            if max_volume < 0:
                raise ValueError("migration volumes must all be >= 0")
        else:
            volumes = np.asarray(migration_bytes_per_pe, dtype=float)
            if volumes.shape != (self.size,):
                raise ValueError(
                    "migration_bytes_per_pe must be a scalar or have one "
                    f"entry per PE ({self.size})"
                )
            if (volumes < 0).any():
                raise ValueError("migration volumes must all be >= 0")
            max_volume = float(volumes.max()) if volumes.size else 0.0

        state = self.state
        model = self.cost_model
        start = state.now()
        # Gather alphas / workloads at the root.
        gather_cost = model.collective(self.size, 8.0)
        state.synchronize(gather_cost)
        # Root computes the partition.
        state.clock[root] += partition_seconds
        # Broadcast the partition.
        bcast_cost = model.collective(self.size, 8.0 * self.size)
        state.synchronize(bcast_cost)
        # Migrate data (personalised exchange, bounded by the largest volume).
        migrate_cost = model.collective(self.size, max_volume)
        end = state.synchronize(migrate_cost)

        elapsed = end - start
        state.lb_time += elapsed
        self.trace.record_lb_event(iteration=iteration, cost=elapsed, timestamp=end)
        return elapsed
