"""Workload-increase-rate (WIR) estimation and the replicated WIR database.

Section III-C: "each PE keeps a database that stores the WIR of every PE.
Each PE evaluates its WIR and propagates it (as well as the most recent WIRs
in its database) to the other PEs using a dissemination algorithm".  A PE is
considered *overloading* when the z-score of its WIR within the distribution
of all known WIRs exceeds a threshold (3.0 in the paper).

Four pieces live here:

* :class:`WIREstimate` -- per-PE online estimation of the WIR from observed
  per-iteration workloads (simple finite differences with an exponential
  moving average, honouring the principle of persistence).
* :class:`WIREstimateArray` -- the vectorized form: one estimator state
  vector for all ``P`` PEs, updated with a single batched EMA per iteration
  (numerically identical to ``P`` scalar :class:`WIREstimate` updates).
* :class:`BatchWIRDatabase` / :class:`WIRDatabase` -- the replicated board
  of WIR values for ``R`` replicas, and the view of one replica (a
  standalone ``WIRDatabase`` is a batch of one), built on the gossip
  substrate (:mod:`repro.simcluster.gossip`) or fed directly when gossip is
  not simulated.
* :class:`OverloadDetector` -- the z-score rule of Algorithm 1 (line 19).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.simcluster.gossip import (
    BatchGossipBoard,
    GossipBoard,
    GossipConfig,
    SparseGossipBoard,
)
from repro.utils.markers import hot_path
from repro.utils.rng import SeedLike
from repro.utils.stats import zscore
from repro.utils.validation import check_fraction, check_positive, check_positive_int

__all__ = [
    "BatchWIRDatabase",
    "LazyWIRViews",
    "OverloadDetector",
    "WIRDatabase",
    "WIREstimate",
    "WIREstimateArray",
]


@dataclass
class WIREstimate:
    """Online estimate of one PE's workload increase rate.

    The WIR is the per-iteration increase of the PE's workload (FLOP per
    iteration).  The estimator keeps an exponential moving average of the
    finite differences of the observed workloads, which smooths the
    stochastic erosion dynamics while staying responsive; the principle of
    persistence (Kale, 2002) justifies using a smoothed recent history as a
    prediction of the near future.
    """

    #: Smoothing factor of the exponential moving average (1 = last diff only).
    smoothing: float = 0.5
    _last_workload: Optional[float] = field(default=None, repr=False)
    _rate: float = field(default=0.0, repr=False)
    _num_observations: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        check_fraction(self.smoothing, "smoothing")
        if self.smoothing == 0.0:
            raise ValueError("smoothing must be > 0 (0 would never update)")

    # ------------------------------------------------------------------
    def observe(self, workload: float) -> float:
        """Record the PE's workload at the current iteration; returns the WIR."""
        if workload < 0:
            raise ValueError(f"workload must be >= 0, got {workload}")
        if self._last_workload is not None:
            diff = workload - self._last_workload
            if self._num_observations <= 1:
                self._rate = diff
            else:
                self._rate = (
                    self.smoothing * diff + (1.0 - self.smoothing) * self._rate
                )
        self._last_workload = float(workload)
        self._num_observations += 1
        return self._rate

    def reset_after_migration(self, workload: float) -> None:
        """Re-anchor the estimator after a LB step moved work around.

        The jump in workload caused by migration is not application dynamics
        and must not pollute the WIR; the rate estimate itself is kept
        (persistence), only the anchor workload is replaced.
        """
        if workload < 0:
            raise ValueError(f"workload must be >= 0, got {workload}")
        self._last_workload = float(workload)

    @property
    def rate(self) -> float:
        """Current WIR estimate (FLOP per iteration)."""
        return self._rate

    @property
    def num_observations(self) -> int:
        """Number of workload observations seen so far."""
        return self._num_observations


class _WIREstimateRankView:
    """Scalar-estimator facade over one rank of a :class:`WIREstimateArray`."""

    __slots__ = ("_array", "_rank")

    def __init__(self, array: "WIREstimateArray", rank: int) -> None:
        self._array = array
        self._rank = rank

    @property
    def rate(self) -> float:
        """Current WIR estimate of this rank (FLOP per iteration)."""
        return float(self._array._rates[self._rank])

    @property
    def num_observations(self) -> int:
        """Number of workload observations seen by this rank."""
        return int(self._array._num_observations[self._rank])


class WIREstimateArray:
    """Vectorized WIR estimators for all ``P`` PEs of a cluster.

    Holds the state of ``P`` independent :class:`WIREstimate` instances as
    flat vectors and performs the per-iteration update -- finite difference
    of the observed workloads followed by an exponential moving average --
    as one batched array operation.  The update is numerically identical
    (same elementwise IEEE operations) to looping over ``P`` scalar
    estimators, which the equivalence tests assert.

    Iterating the array (or indexing it) yields lightweight per-rank views
    exposing ``rate`` and ``num_observations``, preserving the shape of the
    previous list-of-estimators API.
    """

    def __init__(
        self,
        num_pes: int,
        *,
        smoothing: float = 0.5,
        replicas: Optional[int] = None,
    ) -> None:
        check_positive_int(num_pes, "num_pes")
        check_fraction(smoothing, "smoothing")
        if smoothing == 0.0:
            raise ValueError("smoothing must be > 0 (0 would never update)")
        if replicas is not None:
            check_positive_int(replicas, "replicas")
            shape: "tuple[int, ...]" = (replicas, num_pes)
        else:
            shape = (num_pes,)
        self.num_pes = num_pes
        #: Number of batched replicas, or ``None`` for the plain per-PE form.
        self.replicas = replicas
        self.smoothing = float(smoothing)
        self._shape = shape
        self._last_workloads = np.zeros(shape, dtype=float)
        self._has_last = np.zeros(shape, dtype=bool)
        self._rates = np.zeros(shape, dtype=float)
        self._num_observations = np.zeros(shape, dtype=np.int64)

    # ------------------------------------------------------------------
    # Audited for FLOW-HOT: the runners pass float64 ndarrays, on which the
    # defensive `np.asarray` below is a no-op view; every update is a
    # vectorized in-place/elementwise operation.
    @hot_path
    def observe(self, workloads: np.ndarray) -> np.ndarray:
        """Record every PE's workload at the current iteration.

        With ``replicas=R`` the input is the ``(R, P)`` workload matrix and
        all ``R * P`` estimators update in one batched EMA -- elementwise
        identical to ``R`` solo arrays.  Returns the updated WIR array (a
        reference to internal state; copy before mutating).
        """
        w = np.asarray(workloads, dtype=float)
        if w.shape != self._shape:
            raise ValueError(
                f"workloads must have shape {self._shape}, got {w.shape}"
            )
        if (w < 0).any():
            raise ValueError("workloads must all be >= 0")
        diff = w - self._last_workloads
        smoothed = self.smoothing * diff + (1.0 - self.smoothing) * self._rates
        updated = np.where(self._num_observations <= 1, diff, smoothed)
        self._rates = np.where(self._has_last, updated, self._rates)
        np.copyto(self._last_workloads, w)
        self._has_last[:] = True
        self._num_observations += 1
        return self._rates

    @hot_path  # audited: defensive asarray is a no-op on the runner's float64 input
    def reset_after_migration(self, workloads: np.ndarray) -> None:
        """Re-anchor every estimator after a LB step moved work around.

        The jump in workload caused by migration is not application dynamics
        and must not pollute the WIR; the rate estimates are kept
        (persistence), only the anchor workloads are replaced.
        """
        w = np.asarray(workloads, dtype=float)
        if w.shape != self._shape:
            raise ValueError(
                f"workloads must have shape {self._shape}, got {w.shape}"
            )
        if (w < 0).any():
            raise ValueError("workloads must all be >= 0")
        np.copyto(self._last_workloads, w)

    @hot_path  # audited: defensive asarray is a no-op on the runner's float64 input
    def reset_replica_after_migration(
        self, replica: int, workloads: np.ndarray
    ) -> None:
        """Re-anchor the estimators of one replica row (batched form only).

        The batched runner calls this when a single replica's LB step moved
        work around while the other replicas kept their anchors.
        """
        if self.replicas is None:
            raise ValueError("reset_replica_after_migration requires replicas=R")
        if not 0 <= replica < self.replicas:
            raise ValueError(f"replica {replica} outside [0, {self.replicas})")
        w = np.asarray(workloads, dtype=float)
        if w.shape != (self.num_pes,):
            raise ValueError(
                f"workloads must have one entry per PE ({self.num_pes}), "
                f"got {w.shape}"
            )
        if (w < 0).any():
            raise ValueError("workloads must all be >= 0")
        self._last_workloads[replica] = w

    # ------------------------------------------------------------------
    @property
    def rates(self) -> np.ndarray:
        """Current per-PE WIR estimates (copy)."""
        return self._rates.copy()

    def __len__(self) -> int:
        return self.num_pes

    def __getitem__(self, rank: int) -> _WIREstimateRankView:
        if self.replicas is not None:
            raise TypeError(
                "per-rank views are only available on the unbatched form; "
                "index the .rates matrix instead"
            )
        if not 0 <= rank < self.num_pes:
            raise IndexError(f"rank {rank} outside [0, {self.num_pes})")
        return _WIREstimateRankView(self, rank)

    def __iter__(self):
        return (self[rank] for rank in range(self.num_pes))


class LazyWIRViews:
    """Lazily materialized per-rank WIR views (``Sequence[Dict[int, float]]``).

    Building every rank's view dictionary eagerly costs ``O(P^2)`` dict
    operations per iteration; trigger policies typically look at one view
    (or none).  This sequence adapter materializes a rank's ``dict`` only on
    first access and caches it, so the quadratic cost is paid only when a
    policy actually inspects all views (i.e. at LB steps).
    """

    __slots__ = ("_db", "_cache")

    def __init__(self, db: "WIRDatabase") -> None:
        self._db = db
        self._cache: Dict[int, Dict[int, float]] = {}

    def __len__(self) -> int:
        return self._db.num_ranks

    def __getitem__(self, rank: int) -> Dict[int, float]:
        if not 0 <= rank < self._db.num_ranks:
            raise IndexError(f"rank {rank} outside [0, {self._db.num_ranks})")
        view = self._cache.get(rank)
        if view is None:
            view = self._db.view(rank)
            self._cache[rank] = view
        return view

    def __iter__(self):
        return (self[rank] for rank in range(self._db.num_ranks))

    # -- compacted fast path (same numbers as the dict views) -----------
    def own_rate(self, rank: int) -> Optional[float]:
        """The WIR ``rank`` published for itself, without building a dict."""
        return self._db.own_rate(rank)

    def known_values(self, rank: int) -> np.ndarray:
        """``rank``'s known WIRs in ascending source order (no dict).

        Identical values, in identical order, to
        ``list(self[rank].values())`` -- the ULBA policy's per-rank overload
        rule consumes this instead of materializing ``P`` dictionaries per
        LB step.
        """
        return self._db.known_values(rank)

    def complete_matrix(self) -> Optional[np.ndarray]:
        """The full ``(P, P)`` view matrix once every entry is known.

        Row ``r`` is rank ``r``'s complete view; ``None`` while any view is
        still partial.  Read-only.
        """
        return self._db.complete_matrix()


class WIRDatabase:
    """Replicated ``rank -> WIR`` database of one run.

    The database can operate in two modes:

    * **gossip mode** (default): values propagate through a gossip board,
      one dissemination step per application iteration, so each rank's view
      may be slightly stale -- exactly the mechanism of Section III-C.  The
      board implementation follows ``gossip_config.mode``: the dense
      ``(P, P)`` :class:`~repro.simcluster.gossip.GossipBoard` (default),
      or the memory-bounded
      :class:`~repro.simcluster.gossip.SparseGossipBoard` for large
      clusters, whose views are partial by design (the consumers' dense
      ``complete_matrix`` fast paths then degrade to the per-rank rule);
    * **instant mode** (``use_gossip=False``): every publish is immediately
      visible to all ranks, modelling an allgather-based implementation and
      convenient for deterministic tests.

    A ``WIRDatabase`` is one replica of a :class:`BatchWIRDatabase`: a
    standalone database is a batch of one, and
    :meth:`BatchWIRDatabase.replica` returns the views of a wider batch,
    which read and publish but do not :meth:`disseminate` on their own.
    """

    def __init__(
        self,
        num_ranks: int,
        *,
        use_gossip: bool = True,
        gossip_config: Optional[GossipConfig] = None,
        seed: SeedLike = None,
    ) -> None:
        self._bind(
            BatchWIRDatabase(
                num_ranks, [seed], use_gossip=use_gossip, gossip_config=gossip_config
            ),
            0,
        )

    @classmethod
    def _view(cls, batch: "BatchWIRDatabase", replica: int) -> "WIRDatabase":
        db = cls.__new__(cls)
        db._bind(batch, replica)
        return db

    def _bind(self, batch: "BatchWIRDatabase", replica: int) -> None:
        self._batch = batch
        self.num_ranks = batch.num_ranks
        self.use_gossip = batch.use_gossip
        #: This replica's gossip board (``None`` in instant mode).
        self._board = batch._boards[replica] if batch._boards is not None else None
        self._instant_values = batch._instant_values[replica]
        self._instant_known = batch._instant_known[replica]
        # Instant mode shares one view: a live read-only (P, P) broadcast.
        self._instant_matrix = np.broadcast_to(
            self._instant_values, (self.num_ranks, self.num_ranks)
        )

    # ------------------------------------------------------------------
    def publish(self, rank: int, wir: float) -> None:
        """Rank ``rank`` publishes its current WIR."""
        if not 0 <= rank < self.num_ranks:
            raise ValueError(f"rank {rank} outside [0, {self.num_ranks})")
        if self._board is not None:
            self._board.publish(rank, wir)
        else:
            self._instant_values[rank] = float(wir)
            self._instant_known[rank] = True

    # Audited for FLOW-HOT: asarray is a no-op on float64 rates arrays and
    # both branches are vectorized writes into preallocated state.
    @hot_path
    def publish_all(self, wirs: np.ndarray) -> None:
        """Every rank publishes its WIR in one vectorized update.

        Equivalent to ``publish(r, wirs[r])`` for every rank, without ``P``
        Python-level calls.
        """
        wirs = np.asarray(wirs, dtype=float)
        if wirs.shape != (self.num_ranks,):
            raise ValueError(
                f"wirs must have one entry per rank ({self.num_ranks}), "
                f"got {wirs.shape}"
            )
        if self._board is not None:
            self._board.publish_all(wirs)
        else:
            np.copyto(self._instant_values, wirs)
            self._instant_known[:] = True

    def disseminate(self) -> None:
        """Perform one gossip dissemination step (no-op in instant mode)."""
        if self._batch.num_replicas != 1:
            raise RuntimeError(
                "a replica view of a wider batch cannot disseminate alone; "
                "call BatchWIRDatabase.disseminate"
            )
        self._batch.disseminate()

    def view(self, rank: int) -> Dict[int, float]:
        """WIR values known by ``rank`` (may be partial in gossip mode)."""
        if self._board is not None:
            return self._board.local_view(rank)
        if not 0 <= rank < self.num_ranks:
            raise ValueError(f"rank {rank} outside [0, {self.num_ranks})")
        known = np.flatnonzero(self._instant_known)
        return {int(r): float(self._instant_values[r]) for r in known}

    def views(self) -> LazyWIRViews:
        """Lazily materialized sequence of every rank's view.

        The returned object behaves like ``tuple(view(r) for r in ranks)``
        but builds each rank's dictionary only on first access -- the hot
        loop hands it to :class:`~repro.lb.base.LBContext` so the ``O(P^2)``
        dict construction is only paid when a policy inspects the views.
        """
        return LazyWIRViews(self)

    def values(self, rank: int) -> List[float]:
        """Known WIR values as a list (order unspecified)."""
        return list(self.view(rank).values())

    def known_values(self, rank: int) -> np.ndarray:
        """``rank``'s known WIRs, compacted in ascending source order.

        Same numbers as ``list(view(rank).values())`` without the dict.
        """
        if self._board is not None:
            return self._board.known_values_row(rank)
        if not 0 <= rank < self.num_ranks:
            raise ValueError(f"rank {rank} outside [0, {self.num_ranks})")
        return self._instant_values[self._instant_known]

    def own_rate(self, rank: int) -> Optional[float]:
        """The WIR rank ``rank`` published for itself, if any."""
        if self._board is not None:
            return self._board.own_value(rank)
        if not 0 <= rank < self.num_ranks:
            raise ValueError(f"rank {rank} outside [0, {self.num_ranks})")
        if not self._instant_known[rank]:
            return None
        return float(self._instant_values[rank])

    def complete_matrix(self) -> Optional[np.ndarray]:
        """The full ``(P, P)`` view matrix once every entry is known.

        In instant mode every rank shares the same (complete) view, so the
        matrix is a broadcast of the value vector.  Read-only.
        """
        if self._board is not None:
            return self._board.complete_matrix()
        if not self._instant_known.all():
            return None
        return self._instant_matrix

    def coverage(self, rank: int) -> float:
        """Fraction of ranks whose WIR is known by ``rank``."""
        return len(self.view(rank)) / self.num_ranks


class BatchWIRDatabase:
    """``R`` replicated WIR databases advanced in lock step.

    Dense gossip mode stores all replicas in one
    :class:`~repro.simcluster.gossip.BatchGossipBoard` (``(R, P, P)`` state,
    one batched dissemination round per call), sparse gossip mode
    (``gossip_config.mode == "sparse"``) keeps one memory-bounded
    :class:`~repro.simcluster.gossip.SparseGossipBoard` per replica
    (``O(R * P * view_size)`` total), and instant mode keeps an ``(R, P)``
    value matrix.  Each replica consumes its own seed, so replica ``r`` is
    bit-identical to ``WIRDatabase(P, seed=seeds[r])`` under the same
    config; :meth:`replica` returns that replica's :class:`WIRDatabase`
    view, which is what the per-replica LB policies read.
    """

    def __init__(
        self,
        num_ranks: int,
        seeds: Sequence[SeedLike],
        *,
        use_gossip: bool = True,
        gossip_config: Optional["GossipConfig"] = None,
    ) -> None:
        check_positive_int(num_ranks, "num_ranks")
        if len(seeds) == 0:
            raise ValueError("seeds must name at least one replica")
        self.num_ranks = num_ranks
        self.num_replicas = len(seeds)
        self.use_gossip = use_gossip
        #: The dense batch board (``None`` in sparse and instant mode).
        self._board: Optional[BatchGossipBoard] = None
        #: One board per replica: dense replica views or sparse boards.
        self._boards: "Optional[List[GossipBoard | SparseGossipBoard]]" = None
        if use_gossip:
            if gossip_config is not None and gossip_config.mode == "sparse":
                self._boards = [
                    SparseGossipBoard(num_ranks, config=gossip_config, seed=s)
                    for s in seeds
                ]
            else:
                self._board = BatchGossipBoard(num_ranks, seeds, config=gossip_config)
                self._boards = [
                    self._board.replica(r) for r in range(self.num_replicas)
                ]
        self._instant_values = np.zeros((self.num_replicas, num_ranks), dtype=float)
        self._instant_known = np.zeros((self.num_replicas, num_ranks), dtype=bool)
        self._replicas = [
            WIRDatabase._view(self, r) for r in range(self.num_replicas)
        ]

    # ------------------------------------------------------------------
    def publish_all(self, wirs: np.ndarray) -> None:
        """Every rank of every replica publishes its WIR; ``wirs`` is (R, P)."""
        wirs = np.asarray(wirs, dtype=float)
        expected = (self.num_replicas, self.num_ranks)
        if wirs.shape != expected:
            raise ValueError(
                f"wirs must be (replicas, ranks) = {expected}, got {wirs.shape}"
            )
        if self._board is not None:
            self._board.publish_all(wirs)
        elif self._boards is not None:
            for board, row in zip(self._boards, wirs):
                board.publish_all(row)
        else:
            np.copyto(self._instant_values, wirs)
            self._instant_known[:] = True

    def disseminate(self) -> None:
        """One gossip round across every replica (no-op in instant mode)."""
        if self._board is not None:
            self._board.step()
        elif self._boards is not None:
            for board in self._boards:
                board.step()

    def replica(self, replica: int) -> WIRDatabase:
        """The :class:`WIRDatabase` view of one replica."""
        if not 0 <= replica < self.num_replicas:
            raise ValueError(f"replica {replica} outside [0, {self.num_replicas})")
        return self._replicas[replica]


@dataclass(frozen=True)
class OverloadDetector:
    """z-score outlier rule deciding whether a PE is overloading.

    Algorithm 1, line 19: a PE is overloading when the z-score of its WIR in
    the distribution of all known WIRs exceeds ``threshold`` (3.0 in the
    paper).  With fewer than ``min_population`` known values the detector
    reports "not overloading" (not enough evidence).
    """

    threshold: float = 3.0
    min_population: int = 2

    def __post_init__(self) -> None:
        check_positive(self.threshold, "threshold")
        check_positive_int(self.min_population, "min_population")

    def is_overloading(self, own_rate: float, all_rates: Sequence[float]) -> bool:
        """Apply the z-score rule to one PE."""
        rates = list(all_rates)
        if len(rates) < self.min_population:
            return False
        return zscore(own_rate, rates) >= self.threshold

    def overloading_ranks(self, rates_by_rank: Dict[int, float]) -> List[int]:
        """All ranks flagged as overloading within a common view.

        The population statistics are computed once and applied to every
        rank (same floats as per-rank :meth:`is_overloading` calls, which
        would recompute the identical mean/std ``P`` times).
        """
        values = list(rates_by_rank.values())
        if len(values) < self.min_population:
            return []
        pop = np.asarray(values, dtype=float)
        mean = float(pop.mean())
        std = float(pop.std())
        if std == 0.0:
            # zscore defines a constant population as all-zero scores, and
            # the threshold is strictly positive.
            return []
        return [
            rank
            for rank, rate in sorted(rates_by_rank.items())
            if (float(rate) - mean) / std >= self.threshold
        ]

    def overloading_count(self, rates: "np.ndarray") -> int:
        """Number of overloading entries within one common view, vectorized.

        ``rates`` is a compacted value array (one rank's view); the count
        equals ``len(overloading_ranks(...))`` on the corresponding dict --
        same mean/std, same per-entry z comparison -- without building it.
        """
        if rates.size < self.min_population:
            return 0
        mean, std = _mean_std(rates)
        if std == 0.0:
            return 0
        return int(np.count_nonzero((rates - mean) / std >= self.threshold))

    def overloading_mask_from_views(self, matrix: "np.ndarray") -> "np.ndarray":
        """Per-rank overload flags from a complete ``(P, P)`` view matrix.

        Row ``r`` of ``matrix`` is the full WIR view of rank ``r``; flag
        ``r`` answers "does rank ``r`` consider *itself* overloading within
        its own view" -- the per-rank rule of Algorithm 1 for every rank in
        one shot.  Row-wise reductions along the contiguous last axis are
        bitwise identical to reducing each row separately, so the flags
        match ``P`` scalar :meth:`is_overloading` calls exactly.
        """
        if matrix.shape[1] < self.min_population:
            return np.zeros(matrix.shape[0], dtype=bool)
        if matrix.strides[0] == 0:
            # One view shared by every rank (instant dissemination): its
            # statistics are those of every row, bit for bit.
            row = matrix[0]
            mean, std = _mean_std(row)
            if std == 0.0:
                return np.zeros(row.size, dtype=bool)
            return (row - mean) / std >= self.threshold
        means, stds = _mean_std(matrix)
        constant = stds == 0.0
        stds[constant] = 1.0
        z = (matrix.diagonal() - means) / stds
        z[constant] = 0.0
        return z >= self.threshold


def _mean_std(values: "np.ndarray") -> "Tuple[np.ndarray, np.ndarray]":
    """Mean and population standard deviation along the last axis.

    The ufunc sequence of ``values.mean(axis=-1)`` / ``values.std(axis=-1)``
    (sum, divide, squared deviations, sum, divide, sqrt) without their
    Python-level dispatch, sharing the one mean: bitwise the same floats at
    a fraction of the call overhead, which dominates at the ``P <= 1024``
    view sizes the LB step and the trigger evaluate.
    """
    width = values.shape[-1]
    means = np.add.reduce(values, axis=-1) / width
    deviations = values - means[..., None]
    np.square(deviations, out=deviations)
    return means, np.sqrt(np.add.reduce(deviations, axis=-1) / width)
