"""Stripe decomposition of a 2-D domain (the paper's LB technique).

The evaluation application divides its ``width x height`` cell grid into
``P`` stripes along the x-axis; a stripe is a set of consecutive columns and
each PE owns exactly one stripe.  At a load-balancing step the stripes are
recomputed so each contains roughly the same amount of *fluid-cell workload*
(or, under ULBA, the target share derived from the per-PE ``alpha`` values),
then broadcast to every PE.

:class:`StripePartitioner` is the reusable, application-agnostic piece: it
takes per-column workloads and target shares and returns a
:class:`StripePartition`.  The binding to the erosion application (which
knows how to compute per-column workloads from its cell grid) lives in
:mod:`repro.erosion.workload`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.partitioning.weighted import Partition1D, partition_contiguous
from repro.utils.validation import check_positive_int, read_only

__all__ = ["StripePartition", "StripePartitioner"]


@dataclass(frozen=True)
class StripePartition:
    """Assignment of domain columns to PEs.

    Attributes
    ----------
    partition:
        The underlying contiguous 1-D partition of column indices.
    column_loads:
        Per-column workload used to build the partition (kept for
        diagnostics and for migration-volume estimation), a read-only
        float64 array.
    """

    partition: Partition1D
    column_loads: np.ndarray

    # ------------------------------------------------------------------
    @property
    def num_pes(self) -> int:
        """Number of stripes / PEs."""
        return self.partition.num_parts

    @property
    def num_columns(self) -> int:
        """Number of domain columns."""
        return self.partition.num_items


class StripePartitioner:
    """Centralized stripe partitioner (Algorithm 2's partitioning kernel).

    Parameters
    ----------
    num_pes:
        Number of stripes to produce.
    """

    def __init__(self, num_pes: int) -> None:
        check_positive_int(num_pes, "num_pes")
        self.num_pes = num_pes

    # ------------------------------------------------------------------
    def partition(
        self,
        column_loads: Sequence[float],
        *,
        target_shares: Optional[Sequence[float]] = None,
    ) -> StripePartition:
        """Partition columns so stripe workloads match ``target_shares``.

        ``target_shares`` defaults to the even split (standard LB method).
        """
        loads = read_only(np.array(column_loads, dtype=float))
        part = partition_contiguous(loads, self.num_pes, target_shares)
        return StripePartition(partition=part, column_loads=loads)

    def uniform_partition(self, num_columns: int) -> StripePartition:
        """Initial equal-width decomposition (one stripe per PE, same width).

        The paper starts its experiments from a uniform decomposition: the
        domain is ``(P * 1000) x 1000`` cells and the initial partitioning
        attributes one rock (and thus one equal-width stripe) per PE.
        """
        check_positive_int(num_columns, "num_columns")
        if num_columns < self.num_pes:
            raise ValueError(
                f"cannot give {self.num_pes} PEs at least one of "
                f"{num_columns} columns"
            )
        return self.partition(np.ones(num_columns))
