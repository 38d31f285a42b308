"""Simulated processing elements (PEs).

A :class:`ProcessingElement` models one MPI rank of the paper's experiments:
it has a clock, a compute speed in FLOP/s, and accounting of how much of its
virtual lifetime was spent computing (busy) versus waiting in collectives
(idle).  The busy/total ratio per iteration is what Figure 4b plots as
"average PE utilization".

The simulator keeps this state in :class:`PEStateArrays`: flat NumPy
vectors (clock, busy time, LB time) shared by all PEs of a
:class:`~repro.simcluster.cluster.VirtualCluster`, or ``(R, P)`` arrays
for a replica batch.  :meth:`PEStateArrays.compute_phase` is the one
implementation of the bulk-synchronous compute phase.  The standalone
:class:`ProcessingElement` object serves the frozen per-PE reference
implementation (:mod:`repro.runtime.reference`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.simcluster.clock import VirtualClock
from repro.utils.validation import check_non_negative, check_positive, check_positive_int

__all__ = ["PEStateArrays", "ProcessingElement"]


@dataclass
class ProcessingElement:
    """One simulated processing element.

    Parameters
    ----------
    rank:
        MPI-style rank identifier, ``0 <= rank < cluster size``.
    speed:
        Compute speed in FLOP per second (paper: ``omega``).
    clock:
        The PE's virtual clock; a fresh one is created when omitted.
    """

    rank: int
    speed: float = 1.0e9
    clock: VirtualClock = field(default_factory=VirtualClock)
    #: Cumulative virtual seconds spent computing.
    busy_time: float = 0.0
    #: Cumulative virtual seconds spent in load-balancing steps.
    lb_time: float = 0.0

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise ValueError(f"rank must be >= 0, got {self.rank}")
        check_positive(self.speed, "speed")
        check_non_negative(self.busy_time, "busy_time")
        check_non_negative(self.lb_time, "lb_time")

    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current virtual time of this PE."""
        return self.clock.now

    def compute(self, flops: float) -> float:
        """Execute ``flops`` FLOP of work; returns the elapsed virtual seconds."""
        if flops < 0:
            raise ValueError(f"flops must be >= 0, got {flops}")
        elapsed = flops / self.speed
        self.clock.advance(elapsed)
        self.busy_time += elapsed
        return elapsed

    def spend(self, seconds: float, *, busy: bool = False, lb: bool = False) -> float:
        """Advance the clock by ``seconds`` of non-compute activity.

        ``busy=True`` counts the time towards the utilization numerator
        (useful for modelling non-FLOP work such as data migration performed
        by this PE); ``lb=True`` accounts it as load-balancing time.
        """
        if seconds < 0:
            raise ValueError(f"seconds must be >= 0, got {seconds}")
        self.clock.advance(seconds)
        if busy:
            self.busy_time += seconds
        if lb:
            self.lb_time += seconds
        return seconds


class PEStateArrays:
    """Flat per-PE state of a homogeneous virtual cluster.

    One contiguous vector per quantity (clock, busy time, LB time), indexed
    by rank.  The cluster's bulk operations (compute phases, collective
    synchronisation, LB charging) are a handful of array operations on this
    state instead of Python loops over PE objects.

    With ``replicas=R`` the arrays gain a leading replica axis and become
    ``(R, P)``-shaped: row ``r`` is the full PE state of replica ``r``, and
    the replica-batched execution engine (:mod:`repro.batch`) updates all
    rows with single array operations.  :meth:`replica_view` hands out a
    plain ``(P,)``-shaped :class:`PEStateArrays` whose vectors are NumPy
    *views* of one row, so per-replica code (LB charging, traces) runs
    unchanged -- and bit-identically -- against the shared batch state.
    """

    __slots__ = ("clock", "busy_time", "lb_time", "speed", "replicas")

    def __init__(
        self, num_pes: int, speed: float, *, replicas: Optional[int] = None
    ) -> None:
        check_positive_int(num_pes, "num_pes")
        check_positive(speed, "speed")
        if replicas is not None:
            check_positive_int(replicas, "replicas")
            shape: "tuple[int, ...]" = (replicas, num_pes)
        else:
            shape = (num_pes,)
        self.clock = np.zeros(shape, dtype=float)
        self.busy_time = np.zeros(shape, dtype=float)
        self.lb_time = np.zeros(shape, dtype=float)
        #: Common speed of the (homogeneous) PEs in FLOP/s.
        self.speed = float(speed)
        #: Number of replica rows, or ``None`` for the plain ``(P,)`` form.
        self.replicas = replicas

    @property
    def size(self) -> int:
        """Number of PEs (per replica, when batched)."""
        return self.clock.shape[-1]

    def replica_view(self, replica: int) -> "PEStateArrays":
        """A ``(P,)``-shaped state sharing the memory of one replica row.

        Mutations through the view (LB charging, per-PE spends) are visible
        in the batch arrays and vice versa.  Only valid on batched state.
        """
        if self.replicas is None:
            raise ValueError("replica_view requires batched state (replicas=R)")
        if not 0 <= replica < self.replicas:
            raise ValueError(f"replica {replica} outside [0, {self.replicas})")
        return self._alias(replica, None)

    def batch_of_one(self) -> "PEStateArrays":
        """A ``(1, P)``-shaped batched state sharing this plain state's memory.

        The inverse of :meth:`replica_view`: the batch engine runs a solo
        cluster as a batch of one through this view, so every update lands
        in the cluster's own vectors.  Only valid on plain state.
        """
        if self.replicas is not None:
            raise ValueError("batch_of_one requires plain (unbatched) state")
        return self._alias(None, 1)

    def _alias(self, index: Optional[int], replicas: Optional[int]) -> "PEStateArrays":
        """A state whose vectors are ``self``'s vectors indexed by ``index``."""
        view = PEStateArrays.__new__(PEStateArrays)
        view.clock = self.clock[index]
        view.busy_time = self.busy_time[index]
        view.lb_time = self.lb_time[index]
        view.speed = self.speed
        view.replicas = replicas
        return view

    def now(self) -> float:
        """Common virtual time: the clock of the latest PE."""
        return float(self.clock.max())

    def compute_phase(
        self, pe_times: np.ndarray, sync_cost: float
    ) -> "tuple[np.ndarray, np.ndarray]":
        """Run one bulk-synchronous compute phase (Algorithm 1, line 10).

        Every PE computes for ``pe_times`` seconds (busy time), then a
        closing collective costing ``sync_cost`` aligns all clocks to the
        latest PE.  Works on the last axis, so ``(P,)`` and ``(R, P)``
        state share it; returns the per-replica ``(start, end)`` times
        (NumPy scalars for plain state).
        """
        start = self.clock.max(-1)
        self.clock += pe_times
        self.busy_time += pe_times
        end = self.clock.max(-1) + sync_cost
        self.clock[...] = end[..., None]
        return start, end

    def synchronize(self, extra_cost: float = 0.0) -> float:
        """Align every clock to the common maximum plus ``extra_cost``.

        On batched state every replica row aligns to its *own* maximum (plus
        the shared ``extra_cost``) and the return value is the latest of the
        per-replica targets.
        """
        if extra_cost < 0:
            raise ValueError(f"extra_cost must be >= 0, got {extra_cost}")
        if self.replicas is not None:
            targets = self.clock.max(axis=-1) + float(extra_cost)
            self.clock[:] = targets[:, None]
            return float(targets.max())
        target = float(self.clock.max()) + float(extra_cost)
        self.clock[:] = target
        return target
