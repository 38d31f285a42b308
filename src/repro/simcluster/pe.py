"""Simulated processing elements (PEs).

A :class:`ProcessingElement` models one MPI rank of the paper's experiments:
it has a clock, a compute speed in FLOP/s, and accounting of how much of its
virtual lifetime was spent computing (busy) versus waiting in collectives
(idle).  The busy/total ratio per iteration is what Figure 4b plots as
"average PE utilization".

Two representations coexist:

* :class:`ProcessingElement` -- the standalone object, convenient for unit
  tests and for code that manipulates a single simulated rank;
* :class:`PEStateArrays` + :class:`ProcessingElementView` -- flat NumPy
  state vectors (clock, busy time, LB time) shared by all PEs of a
  :class:`~repro.simcluster.cluster.VirtualCluster`, with thin per-rank
  views preserving the ``ProcessingElement`` API.  The cluster's hot paths
  operate on the arrays directly; the views exist for compatibility with
  code (and tests) that addresses individual PEs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.simcluster.clock import VirtualClock
from repro.utils.validation import check_non_negative, check_positive, check_positive_int

__all__ = ["PEStateArrays", "ProcessingElement", "ProcessingElementView"]


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

    def utilization(self, *, since: float = 0.0, until: Optional[float] = None) -> float:
        """Busy fraction of the window ``[since, until]`` (``until`` = now).

        Note: the PE does not keep a full activity timeline, so this is the
        lifetime utilization when the window covers the whole run; windowed
        per-iteration utilization is computed by
        :class:`repro.simcluster.tracing.ClusterTrace` from snapshots.
        """
        end = self.now if until is None else until
        window = end - since
        if window <= 0:
            return 1.0
        return min(1.0, self.busy_time / window)

    def reset(self) -> None:
        """Reset clock and accounting (used between experiment repetitions)."""
        self.clock.reset()
        self.busy_time = 0.0
        self.lb_time = 0.0


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
    *views* of one row, so per-replica code (LB charging, PE views, traces)
    runs unchanged -- and bit-identically -- against the shared batch state.
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

    def now_per_replica(self) -> np.ndarray:
        """Per-replica common virtual time (batched state only)."""
        return self.clock.max(axis=-1)

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

    def reset(self) -> None:
        """Zero all clocks and accounting."""
        self.clock[:] = 0.0
        self.busy_time[:] = 0.0
        self.lb_time[:] = 0.0


class _ClockView:
    """Single-rank adapter exposing the :class:`VirtualClock` interface."""

    __slots__ = ("_state", "_rank")

    def __init__(self, state: PEStateArrays, rank: int) -> None:
        self._state = state
        self._rank = rank

    @property
    def now(self) -> float:
        return float(self._state.clock[self._rank])

    def advance(self, seconds: float) -> float:
        if seconds < 0:
            raise ValueError(f"cannot advance a clock by {seconds} s (negative)")
        self._state.clock[self._rank] += float(seconds)
        return self.now

    def advance_to(self, timestamp: float) -> float:
        if timestamp > self._state.clock[self._rank]:
            self._state.clock[self._rank] = float(timestamp)
        return self.now

    def reset(self, timestamp: float = 0.0) -> None:
        check_non_negative(timestamp, "timestamp")
        self._state.clock[self._rank] = float(timestamp)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"_ClockView(rank={self._rank}, now={self.now:.6f})"


class ProcessingElementView:
    """Thin per-rank view over :class:`PEStateArrays`.

    Implements the :class:`ProcessingElement` interface (clock, speed,
    busy/LB accounting, ``compute``/``spend``/``utilization``/``reset``) by
    reading and writing one slot of the shared state arrays, so code written
    against individual PEs keeps working against the vectorized cluster.
    """

    __slots__ = ("rank", "_state", "_clock")

    def __init__(self, state: PEStateArrays, rank: int) -> None:
        if not 0 <= rank < state.size:
            raise ValueError(f"rank {rank} outside [0, {state.size})")
        self.rank = rank
        self._state = state
        self._clock = _ClockView(state, rank)

    # ------------------------------------------------------------------
    @property
    def speed(self) -> float:
        """Compute speed in FLOP per second (paper: ``omega``)."""
        return self._state.speed

    @property
    def clock(self) -> _ClockView:
        """The PE's virtual clock (a view into the cluster state)."""
        return self._clock

    @property
    def now(self) -> float:
        """Current virtual time of this PE."""
        return float(self._state.clock[self.rank])

    @property
    def busy_time(self) -> float:
        """Cumulative virtual seconds spent computing."""
        return float(self._state.busy_time[self.rank])

    @busy_time.setter
    def busy_time(self, value: float) -> None:
        check_non_negative(value, "busy_time")
        self._state.busy_time[self.rank] = float(value)

    @property
    def lb_time(self) -> float:
        """Cumulative virtual seconds spent in load-balancing steps."""
        return float(self._state.lb_time[self.rank])

    @lb_time.setter
    def lb_time(self, value: float) -> None:
        check_non_negative(value, "lb_time")
        self._state.lb_time[self.rank] = float(value)

    # ------------------------------------------------------------------
    def compute(self, flops: float) -> float:
        """Execute ``flops`` FLOP of work; returns the elapsed virtual seconds."""
        if flops < 0:
            raise ValueError(f"flops must be >= 0, got {flops}")
        elapsed = flops / self._state.speed
        self._state.clock[self.rank] += elapsed
        self._state.busy_time[self.rank] += elapsed
        return elapsed

    def spend(self, seconds: float, *, busy: bool = False, lb: bool = False) -> float:
        """Advance the clock by ``seconds`` of non-compute activity."""
        if seconds < 0:
            raise ValueError(f"seconds must be >= 0, got {seconds}")
        self._state.clock[self.rank] += float(seconds)
        if busy:
            self._state.busy_time[self.rank] += float(seconds)
        if lb:
            self._state.lb_time[self.rank] += float(seconds)
        return seconds

    def utilization(self, *, since: float = 0.0, until: Optional[float] = None) -> float:
        """Busy fraction of the window ``[since, until]`` (``until`` = now)."""
        end = self.now if until is None else until
        window = end - since
        if window <= 0:
            return 1.0
        return min(1.0, self.busy_time / window)

    def reset(self) -> None:
        """Reset this PE's clock and accounting slots."""
        self._state.clock[self.rank] = 0.0
        self._state.busy_time[self.rank] = 0.0
        self._state.lb_time[self.rank] = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"ProcessingElementView(rank={self.rank}, now={self.now:.6f}, "
            f"busy={self.busy_time:.6f})"
        )
