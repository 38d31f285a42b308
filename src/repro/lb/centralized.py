"""Centralized load-balancing technique (Algorithm 2).

The paper's evaluation implements its stripe partitioner as a *centralized*
LB technique: the per-PE ``alpha`` requests are gathered on a single PE, the
stripe boundaries are computed there from the per-column workloads, the
partition is broadcast, and the cells are migrated accordingly.  The
:class:`CentralizedLoadBalancer` reproduces that flow on the virtual
cluster, charging each phase's virtual cost, and works with any
:class:`~repro.lb.base.WorkloadPolicy` (standard or ULBA) -- the policy only
changes the target shares handed to the partitioner.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.lb.base import LBContext, LBDecision, WorkloadPolicy
from repro.partitioning.stripe import StripePartition, StripePartitioner
from repro.simcluster.cluster import VirtualCluster
from repro.utils.validation import check_non_negative

__all__ = ["LBStepReport", "CentralizedLoadBalancer"]


@dataclass(frozen=True)
class LBStepReport:
    """Everything that happened during one centralized LB step."""

    #: Iteration at which the step was executed.
    iteration: int
    #: The workload policy's decision (target shares, alphas, ...).
    decision: LBDecision
    #: The new stripe partition.
    partition: StripePartition
    #: Workload (in column-load units) that changed owner.
    migrated_load: float
    #: Virtual cost of the LB step in seconds (partitioning + broadcast +
    #: migration).
    cost: float


class CentralizedLoadBalancer:
    """Centralized stripe load balancer bound to a virtual cluster.

    Parameters
    ----------
    cluster:
        The virtual cluster the application runs on.
    policy:
        Workload policy (standard or ULBA).
    root:
        Rank performing the partitioning (0 in the paper).
    partition_flop_per_column:
        Cost, in FLOP on the root PE, of computing the stripe boundaries per
        domain column (models the prefix-sum pass of the partitioner).
    bytes_per_load_unit:
        Migration volume charged per unit of migrated column load.  One load
        unit corresponds to one original fluid cell; the default of 800
        bytes models the state a CFD-style cell carries (tens of doubles
        plus metadata), so that migrating a significant fraction of a stripe
        costs on the order of one iteration -- the regime of Table II, where
        the LB cost is 10 %-300 % of an iteration.
    """

    def __init__(
        self,
        cluster: VirtualCluster,
        policy: WorkloadPolicy,
        *,
        root: int = 0,
        partition_flop_per_column: float = 50.0,
        bytes_per_load_unit: float = 800.0,
    ) -> None:
        self.cluster = cluster
        self.policy = policy
        if not 0 <= root < cluster.size:
            raise ValueError(f"root rank {root} outside [0, {cluster.size})")
        self.root = root
        check_non_negative(partition_flop_per_column, "partition_flop_per_column")
        check_non_negative(bytes_per_load_unit, "bytes_per_load_unit")
        self.partition_flop_per_column = partition_flop_per_column
        self.bytes_per_load_unit = bytes_per_load_unit
        self.partitioner = StripePartitioner(cluster.size)
        #: Running history of LB step reports.
        self.history: list[LBStepReport] = []
        self._average_cache: "tuple[int, float]" = (0, 0.0)

    # ------------------------------------------------------------------
    @property
    def average_cost(self) -> float:
        """Average virtual cost of the LB steps performed so far (seconds).

        Memoized on the history length: the runner reads this every
        iteration while the history only grows at LB steps, so the mean is
        recomputed only when a new report was appended.
        """
        if not self.history:
            return 0.0
        cached_len, cached_mean = self._average_cache
        if cached_len != len(self.history):
            # np.mean's own reduction and division, without its dispatch.
            costs = np.array([report.cost for report in self.history])
            cached_mean = float(np.add.reduce(costs)) / costs.size
            self._average_cache = (len(self.history), cached_mean)
        return cached_mean

    def execute(
        self,
        context: LBContext,
        column_loads: Sequence[float],
        current_partition: Optional[StripePartition] = None,
    ) -> LBStepReport:
        """Run one LB step (Algorithm 2) and charge its virtual cost.

        Parameters
        ----------
        context:
            Runtime snapshot used by the workload policy.
        column_loads:
            Per-column workload of the domain at this iteration.
        current_partition:
            The partition in effect before the step; used to compute the
            migration volume (and hence the migration cost).  When omitted
            the migration cost is charged as if every cell moved.
        """
        loads = np.asarray(column_loads, dtype=float)
        decision = self.policy.decide(context)
        new_partition = self.partitioner.partition(
            loads, target_shares=decision.target_shares
        )

        if current_partition is None:
            migrated = float(loads.sum())
            per_pe_migrated = np.full(
                self.cluster.size, migrated / self.cluster.size
            )
        else:
            if current_partition.num_columns != new_partition.num_columns:
                raise ValueError(
                    "current_partition does not cover the same number of "
                    "columns as the new partition"
                )
            old_owners = current_partition.partition.owners()
            new_owners = new_partition.partition.owners()
            # The migration volume (the sum metrics.migration_volume
            # computes) and its per-PE split: load of the columns a PE sends
            # plus the load of the columns it receives (both cross its NIC).
            moved = old_owners != new_owners
            moved_loads = loads[moved]
            migrated = float(moved_loads.sum())
            sent = np.bincount(
                old_owners[moved], weights=moved_loads, minlength=self.cluster.size
            )
            received = np.bincount(
                new_owners[moved], weights=moved_loads, minlength=self.cluster.size
            )
            per_pe_migrated = sent + received

        partition_seconds = (
            self.partition_flop_per_column * loads.size / self.cluster.pe_speed
        )
        cost = self.cluster.charge_lb_step(
            iteration=context.iteration,
            partition_seconds=partition_seconds,
            migration_bytes_per_pe=per_pe_migrated * self.bytes_per_load_unit,
            root=self.root,
        )

        report = LBStepReport(
            iteration=context.iteration,
            decision=decision,
            partition=new_partition,
            migrated_load=migrated,
            cost=cost,
        )
        self.history.append(report)
        self.policy.notify_balanced(context, decision)
        return report
