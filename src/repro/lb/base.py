"""Common interfaces of the load-balancing framework.

The framework splits a load balancer into two orthogonal decisions, matching
the structure of the paper:

* a :class:`TriggerPolicy` decides **when** to call the load balancer
  (periodically, at Menon's interval, or when the accumulated degradation
  exceeds the LB cost as in Zhai et al. -- the criterion both methods use in
  the paper's numerical study);
* a :class:`WorkloadPolicy` decides **how** to redistribute the workload
  when the balancer runs (evenly for the standard method, underloaded by
  ``alpha`` for ULBA).

Both receive an :class:`LBContext` describing everything the runtime knows
at the decision point, and the workload policy returns an
:class:`LBDecision` containing the per-PE target shares handed to the
partitioner.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.simcluster.gossip import KnownRows
from repro.utils.validation import read_only

__all__ = ["LBContext", "LBDecision", "WorkloadPolicy", "TriggerPolicy"]


@dataclass(frozen=True)
class LBContext:
    """Snapshot of the runtime state used for load-balancing decisions.

    Attributes
    ----------
    iteration:
        Current application iteration.
    pe_workloads:
        Current workload of every PE, in FLOP (or any unit proportional to
        compute time), as a read-only float64 array (any sequence of
        floats is copied into one).
    wir_views:
        What every rank currently knows of the replicated WIR database: one
        :class:`~repro.simcluster.gossip.KnownRows` snapshot with one row
        per PE (``known_values(rank)`` / ``known_sources(rank)``).  The
        runtime takes it once per decision from the database's
        :meth:`~repro.lb.wir.WIRDatabase.known_rows`; a context without WIR
        knowledge holds ``KnownRows.from_views([{}] * P)``.  The name is
        kept from when this was a sequence of per-rank dicts.
    last_lb_iteration:
        Iteration of the previous LB call (0 when none happened yet).
    accumulated_degradation:
        Sum of per-iteration degradations since the last LB step (the Zhai
        criterion accumulator), in seconds.
    average_lb_cost:
        Current estimate of the cost of one LB step, in seconds.
    pe_speed:
        PE speed in FLOP/s (used to convert workloads to times when needed).
    total_iterations:
        Total number of iterations the application will run (Algorithm 1's
        ``MAX_STEP``), when the runtime knows it.  Policies that plan ahead
        (e.g. the dynamic-``alpha`` extension) use it to bound their horizon;
        ``None`` means unknown.
    """

    iteration: int
    pe_workloads: np.ndarray
    wir_views: KnownRows
    last_lb_iteration: int = 0
    accumulated_degradation: float = 0.0
    average_lb_cost: float = 0.0
    pe_speed: float = 1.0e9
    total_iterations: Optional[int] = None

    def __post_init__(self) -> None:
        workloads = np.array(self.pe_workloads, dtype=float)
        if workloads.ndim != 1 or workloads.size == 0:
            raise ValueError(
                f"pe_workloads must be a non-empty row, got shape {workloads.shape}"
            )
        object.__setattr__(self, "pe_workloads", read_only(workloads))
        if not isinstance(self.wir_views, KnownRows):
            raise TypeError(
                "wir_views must be a KnownRows snapshot (see "
                f"KnownRows.from_views), got {type(self.wir_views).__name__}"
            )
        if len(self.wir_views) != self.num_pes:
            raise ValueError(
                f"wir_views must hold one row per PE ({self.num_pes}), "
                f"got {len(self.wir_views)}"
            )

    @property
    def num_pes(self) -> int:
        """Number of PEs."""
        return self.pe_workloads.size

    @property
    def total_workload(self) -> float:
        """Total workload across PEs (``Wtot(i)``).

        A left-to-right sum, bitwise Python's ``sum`` of the same floats
        (``ndarray.sum`` sums pairwise).
        """
        return float(np.add.accumulate(self.pe_workloads)[-1])

    @property
    def iterations_since_lb(self) -> int:
        """Iterations elapsed since the previous LB call."""
        return self.iteration - self.last_lb_iteration

    @property
    def remaining_iterations(self) -> Optional[int]:
        """Iterations left until the application ends (None when unknown)."""
        if self.total_iterations is None:
            return None
        return max(0, self.total_iterations - self.iteration)


@dataclass(frozen=True)
class LBDecision:
    """Outcome of a workload policy at one LB step."""

    #: Target share of the total workload per PE (sums to 1).
    target_shares: Tuple[float, ...]
    #: Per-PE underloading fraction actually applied (all zero for the
    #: standard method, or when the 50 % guard downgraded ULBA).
    alphas: Tuple[float, ...]
    #: Ranks detected as overloading at this step.
    overloading_ranks: Tuple[int, ...] = ()
    #: True when the ULBA policy fell back to the even split because a
    #: majority of PEs requested underloading (Section III-C guard).
    downgraded_to_standard: bool = False
    #: Name of the policy that produced the decision.
    policy: str = ""

    def __post_init__(self) -> None:
        shares = np.asarray(self.target_shares, dtype=float)
        if shares.size == 0:
            raise ValueError("target_shares must not be empty")
        if (shares < 0.0).any():
            raise ValueError("target_shares must all be >= 0")
        total = shares.sum()
        if not abs(total - 1.0) <= 1e-9:
            raise ValueError(f"target_shares must sum to 1, got {total}")
        if len(self.alphas) != shares.size:
            raise ValueError("alphas must have one entry per PE")

    @property
    def num_overloading(self) -> int:
        """Number of PEs flagged as overloading."""
        return len(self.overloading_ranks)

    @property
    def is_even(self) -> bool:
        """True when the decision is the perfectly even split."""
        shares = np.asarray(self.target_shares)
        return bool(np.allclose(shares, 1.0 / shares.size))


class WorkloadPolicy(abc.ABC):
    """Strategy deciding the per-PE target workload shares at a LB step."""

    #: Human-readable policy name (used in reports and experiment tables).
    name: str = "workload-policy"

    @abc.abstractmethod
    def decide(self, context: LBContext) -> LBDecision:
        """Return the target shares for the LB step described by ``context``."""

    def notify_balanced(self, context: LBContext, decision: LBDecision) -> None:
        """Hook called after the LB step was executed (optional)."""


class TriggerPolicy(abc.ABC):
    """Strategy deciding when the load balancer should be invoked."""

    #: Human-readable policy name.
    name: str = "trigger-policy"

    @abc.abstractmethod
    def should_balance(self, context: LBContext) -> bool:
        """Return True when the load balancer should run at this iteration."""

    def notify_balanced(self, context: LBContext) -> None:
        """Hook called after a LB step was executed (optional)."""
