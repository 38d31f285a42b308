"""Weighted contiguous 1-D partitioning.

This is the computational core of the paper's centralized LB technique
(Algorithm 2, ``PartitionAccordingToWeights``): given the per-column
workload of the 2-D domain and a target share of the total workload for each
PE, find contiguous column ranges (stripes) whose workloads match the target
shares as closely as possible.

Two pieces are provided:

* :func:`target_shares_from_alphas` -- convert the per-PE ULBA ``alpha``
  values gathered by the root into target workload shares (Algorithm 2,
  lines 8-14): each overloading PE ``p`` receives ``(1 - alpha_p) / P`` of
  the total, and the workload removed that way is divided evenly among the
  non-overloading PEs.  With all ``alpha`` equal this reduces to the paper's
  closed form ``(1 + alpha N / (P - N)) / P``; with every ``alpha = 0`` it
  reduces to the even split of the standard method.
* :func:`partition_contiguous` -- prefix-sum splitting of an item-weight
  array into ``P`` contiguous chunks matching arbitrary target shares.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.utils.validation import check_positive_int

__all__ = ["Partition1D", "partition_contiguous", "target_shares_from_alphas"]

#: Offsets of the three cut candidates around each target's insertion point.
_CANDIDATE_OFFSETS = np.array([-1, 0, 1])


@dataclass(frozen=True)
class Partition1D:
    """A contiguous partition of ``num_items`` items into ``num_parts`` chunks.

    ``boundaries`` has length ``num_parts + 1`` with ``boundaries[0] == 0``
    and ``boundaries[-1] == num_items``; part ``p`` owns the half-open item
    range ``[boundaries[p], boundaries[p + 1])``.
    """

    boundaries: Tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.boundaries) < 2:
            raise ValueError("a partition needs at least 2 boundaries")
        bounds = tuple(map(int, self.boundaries))
        if bounds[0] != 0:
            raise ValueError("boundaries must start at 0")
        if list(bounds) != sorted(bounds):
            raise ValueError("boundaries must be non-decreasing")
        object.__setattr__(self, "boundaries", bounds)

    # ------------------------------------------------------------------
    @property
    def num_parts(self) -> int:
        """Number of chunks."""
        return len(self.boundaries) - 1

    @property
    def num_items(self) -> int:
        """Number of partitioned items."""
        return self.boundaries[-1]

    def part_range(self, part: int) -> Tuple[int, int]:
        """Half-open item range ``[start, stop)`` owned by ``part``."""
        if not 0 <= part < self.num_parts:
            raise ValueError(f"part {part} outside [0, {self.num_parts})")
        return self.boundaries[part], self.boundaries[part + 1]

    def part_sizes(self) -> np.ndarray:
        """Number of items per part."""
        bounds = np.asarray(self.boundaries)
        return bounds[1:] - bounds[:-1]

    def owner_of(self, item: int) -> int:
        """Index of the part owning ``item``."""
        if not 0 <= item < self.num_items:
            raise ValueError(f"item {item} outside [0, {self.num_items})")
        return int(np.searchsorted(np.asarray(self.boundaries), item, side="right") - 1)

    def owners(self) -> np.ndarray:
        """Array mapping every item index to its owning part."""
        return np.repeat(
            np.arange(self.num_parts, dtype=np.int64), self.part_sizes()
        )


def target_shares_from_alphas(alphas: Sequence[float]) -> np.ndarray:
    """Convert per-PE ULBA ``alpha`` values into target workload shares.

    Parameters
    ----------
    alphas:
        One value per PE; ``alpha_p > 0`` marks PE ``p`` as overloading and
        requests that it keep only ``(1 - alpha_p)`` of its perfectly
        balanced share.  All values must lie in ``[0, 1]``.

    Returns
    -------
    numpy.ndarray
        Target share per PE, summing to 1.

    Notes
    -----
    If *every* PE is overloading the call degenerates to the even split
    (there is nobody to absorb the surplus); the 50 %-majority guard of
    Section III-C is implemented one level up, in
    :class:`repro.lb.ulba.ULBAPolicy`.
    """
    shares = np.asarray(alphas, dtype=float)
    if shares.ndim != 1 or shares.size == 0:
        raise ValueError("alphas must be a non-empty 1-D sequence")
    if ((shares < 0.0) | (shares > 1.0)).any():
        raise ValueError("all alpha values must lie within [0, 1]")
    num_pes = shares.size
    overloading = shares > 0.0
    num_overloading = int(np.count_nonzero(overloading))
    if num_overloading == 0 or num_overloading == num_pes:
        return np.full(num_pes, 1.0 / num_pes)
    requested = shares[overloading]
    # The share removed from the overloading PEs is divided evenly among the
    # non-overloading ones (the blue area of Fig. 1).
    surplus = requested.sum() / num_pes
    target = np.full(num_pes, 1.0 / num_pes + surplus / (num_pes - num_overloading))
    target[overloading] = (1.0 - requested) / num_pes
    return target


def partition_contiguous(
    weights: Sequence[float],
    num_parts: int,
    target_shares: Optional[Sequence[float]] = None,
) -> Partition1D:
    """Split ``weights`` into ``num_parts`` contiguous chunks.

    The split minimises (greedily, via prefix sums) the deviation between the
    cumulative weight at each cut and the cumulative target share -- the same
    strategy production stripe/1-D partitioners use, and exact up to the
    granularity of individual items.

    Parameters
    ----------
    weights:
        Non-negative per-item weights (per-column workloads for the stripe
        decomposition).
    num_parts:
        Number of chunks ``P``.
    target_shares:
        Desired fraction of the total weight per chunk; defaults to the even
        split.  Must be non-negative and sum to a positive value (they are
        normalised internally).

    Returns
    -------
    Partition1D
        Strictly increasing boundaries: every part holds at least one item.
    """
    check_positive_int(num_parts, "num_parts")
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise ValueError("weights must be a non-empty 1-D sequence")
    if (w < 0.0).any():
        raise ValueError("weights must all be >= 0")
    if w.size < num_parts:
        raise ValueError(
            f"cannot split {w.size} items into {num_parts} non-empty parts; "
            "reduce the number of parts or refine the items"
        )

    if target_shares is None:
        shares = np.full(num_parts, 1.0 / num_parts)
    else:
        shares = np.asarray(target_shares, dtype=float)
        if shares.shape != (num_parts,):
            raise ValueError(
                f"target_shares must have length {num_parts}, got {shares.shape}"
            )
        if (shares < 0.0).any():
            raise ValueError("target_shares must all be >= 0")
        total_share = shares.sum()
        if total_share <= 0.0:
            raise ValueError("target_shares must sum to a positive value")
        shares = shares / total_share

    total = w.sum()
    prefix = np.empty(w.size + 1)
    prefix[0] = 0.0
    np.add.accumulate(w, out=prefix[1:])
    if total <= 0.0:
        # Degenerate: no workload at all -- split items evenly by count.
        bounds = np.linspace(0, w.size, num_parts + 1).round().astype(int)
        return Partition1D(boundaries=tuple(int(b) for b in bounds))

    cumulative_targets = np.cumsum(shares) * total
    if num_parts == 1:
        return Partition1D(boundaries=(0, int(w.size)))

    cuts = _vectorized_cuts(prefix, cumulative_targets, w.size, num_parts)
    if cuts is not None:
        return Partition1D(boundaries=(0,) + cuts + (int(w.size),))

    boundaries = [0]
    for part in range(num_parts - 1):
        target = cumulative_targets[part]
        # Cut at the item boundary whose prefix sum is closest to the target,
        # while keeping at least (num_parts - part - 1) items for the rest
        # and never moving backwards.
        # lo <= hi by induction (w.size >= num_parts and every earlier cut
        # respected its hi), so each part keeps at least one item.
        lo = boundaries[-1] + 1
        hi = w.size - (num_parts - part - 1)
        idx = int(np.searchsorted(prefix, target, side="left"))
        candidates = [c for c in (idx - 1, idx, idx + 1) if lo <= c <= hi]
        if not candidates:
            idx = min(max(idx, lo), hi)
            candidates = [idx]
        best = min(candidates, key=lambda c: abs(prefix[c] - target))
        boundaries.append(int(best))
    boundaries.append(int(w.size))
    return Partition1D(boundaries=tuple(boundaries))


def _vectorized_cuts(
    prefix: np.ndarray,
    cumulative_targets: np.ndarray,
    num_items: int,
    num_parts: int,
) -> "Optional[Tuple[int, ...]]":
    """Batched fast path of the greedy cut placement.

    Evaluates all ``P - 1`` cuts at once, ignoring the sequential
    ``lo``/``hi`` feasibility coupling, then validates the result against
    those constraints.  When the unconstrained choices already satisfy them
    (the overwhelmingly common case), the sequential loop would have picked
    the same cuts -- each unconstrained winner is also the first-tie winner
    within its constrained candidate set -- so the result is returned;
    otherwise ``None`` is returned and the caller runs the exact loop.
    """
    targets = cumulative_targets[: num_parts - 1]
    idx = np.searchsorted(prefix, targets, side="left")
    cand = idx[:, None] + _CANDIDATE_OFFSETS
    dist = np.abs(prefix.take(cand, mode="clip") - targets[:, None])
    # Out-of-range candidates must not win; their clipped distance is fake.
    # Viewed as unsigned, the index -1 is out of range too.
    dist[cand.view(np.uint64) > num_items] = np.inf
    best = idx + (dist.argmin(axis=1) - 1)

    # Feasibility: cut p needs lo_p = cut_{p-1} + 1 <= cut_p (cuts strictly
    # increase from 1) and cut_p <= hi_p = num_items - (num_parts - 1 - p);
    # with strictly increasing cuts only the last upper bound can bind.
    if best[0] >= 1 and best[-1] < num_items and (best[1:] > best[:-1]).all():
        return tuple(best.tolist())
    return None
