"""Domain-partitioning substrate.

The paper's evaluation application decomposes its 2-D domain into vertical
*stripes* (consecutive columns of cells) such that every stripe holds roughly
the same amount of fluid-cell workload; the stripe boundaries are recomputed
at every load-balancing step on a single PE and broadcast (Algorithm 2), with
ULBA simply changing the *target weights* of the stripes.

* :mod:`repro.partitioning.weighted` -- the 1-D weighted prefix-sum
  partitioner that underlies stripe decomposition: split an array of
  per-column workloads into ``P`` contiguous chunks matching arbitrary
  per-partition target fractions.
* :mod:`repro.partitioning.stripe` -- the stripe decomposition of a 2-D
  domain and the Algorithm 2 weight computation from per-PE ``alpha`` values.

Stripes are the only decomposition the paper uses, so they are the only one
shipped: the engine runs :class:`StripePartitioner` on top of
:func:`partition_contiguous` and nothing else.
"""

from repro.partitioning.weighted import (
    Partition1D,
    partition_contiguous,
    target_shares_from_alphas,
)
from repro.partitioning.stripe import StripePartition, StripePartitioner

__all__ = [
    "Partition1D",
    "StripePartition",
    "StripePartitioner",
    "partition_contiguous",
    "target_shares_from_alphas",
]
