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
* :class:`WIREstimateArray` -- the vectorized form the engine runs: one
  ``(R, P)`` estimator state for ``R`` replicas of ``P`` PEs, updated with a
  single batched EMA per iteration (numerically identical to ``R * P``
  scalar :class:`WIREstimate` updates).
* :class:`BatchWIRDatabase` / :class:`WIRDatabase` -- the replicated board
  of WIR values for ``R`` replicas, and the view of one replica (a
  standalone ``WIRDatabase`` is a batch of one), built on the gossip
  substrate (:mod:`repro.simcluster.gossip`) or fed directly when gossip is
  not simulated.  Every producer -- dense board, sparse board, instant
  database -- is read one way, :meth:`WIRDatabase.known_rows`, as one
  :class:`~repro.simcluster.gossip.KnownRows` snapshot of every rank.
* :class:`OverloadDetector` -- the z-score rule of Algorithm 1 (line 19),
  parameterized by its threshold and minimum population.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.simcluster.gossip import (
    BatchGossipBoard,
    GossipBoard,
    GossipConfig,
    KnownRows,
    SparseGossipBoard,
)
from repro.utils.markers import hot_path
from repro.utils.rng import SeedLike
from repro.utils.stats import zscore
from repro.utils.validation import (
    check_fraction,
    check_positive,
    check_positive_int,
    read_only,
)

__all__ = [
    "BatchWIRDatabase",
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


class WIREstimateArray:
    """Vectorized WIR estimators for ``R`` replicas of ``P`` PEs.

    Holds the state of ``R * P`` independent :class:`WIREstimate` instances
    as ``(R, P)`` matrices and performs the per-iteration update -- finite
    difference of the observed workloads followed by an exponential moving
    average -- as one batched array operation.  The update is numerically
    identical (same elementwise IEEE operations) to looping over scalar
    estimators, which the equivalence tests assert; a solo run is a batch of
    one (``replicas=1``).
    """

    def __init__(
        self,
        num_pes: int,
        *,
        replicas: int,
        smoothing: float = 0.5,
    ) -> None:
        check_positive_int(num_pes, "num_pes")
        check_positive_int(replicas, "replicas")
        check_fraction(smoothing, "smoothing")
        if smoothing == 0.0:
            raise ValueError("smoothing must be > 0 (0 would never update)")
        shape = (replicas, num_pes)
        self.num_pes = num_pes
        #: Number of batched replicas (rows of every state matrix).
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

        The input is the ``(R, P)`` workload matrix and all ``R * P``
        estimators update in one batched EMA.  Returns the updated WIR
        matrix (a reference to internal state; copy before mutating).
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
    def reset_replica_after_migration(
        self, replica: int, workloads: np.ndarray
    ) -> None:
        """Re-anchor the estimators of one replica after its LB step.

        The jump in workload caused by migration is not application dynamics
        and must not pollute the WIR; the rate estimates are kept
        (persistence), only the replica's anchor workloads are replaced.
        """
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
        """Current ``(R, P)`` WIR estimates (copy)."""
        return self._rates.copy()


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
      clusters, whose views are partial by design.  :meth:`known_rows`
      hands every rank's view to the overload rule in one piece on either
      board, and :meth:`OverloadDetector.overloading_mask` evaluates it
      row-wise, one group per view width;
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

    def known_rows(self) -> KnownRows:
        """Every rank's known WIRs, their sources and own WIR at once.

        In instant mode every rank's row is the one shared view, given once,
        and ``own`` / ``has_own`` are read-only views of the published state.
        """
        if self._board is not None:
            return self._board.known_rows()
        known = self._instant_known
        row = self._instant_values[known]
        return KnownRows(
            row,
            np.flatnonzero(known),
            np.full(self.num_ranks, row.size),
            read_only(self._instant_values),
            read_only(known),
        )


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

    The rule has one vectorized implementation, :meth:`_group_flags`:
    :meth:`overloading_mask` applies it to every rank's own view and
    :meth:`overloading_count` to the entries of one view.
    :meth:`is_overloading` is the scalar reference they are tested against.
    """

    threshold: float = 3.0
    min_population: int = 2

    def __post_init__(self) -> None:
        check_positive(self.threshold, "threshold")
        check_positive_int(self.min_population, "min_population")

    def is_overloading(self, own_rate: float, all_rates: Sequence[float]) -> bool:
        """Apply the z-score rule to one PE (the scalar reference)."""
        rates = list(all_rates)
        if len(rates) < self.min_population:
            return False
        return zscore(own_rate, rates) >= self.threshold

    def overloading_count(self, rates: "np.ndarray") -> int:
        """Number of overloading entries within one common view.

        ``rates`` is one rank's compacted view; every entry is scored
        against the view's own mean/std (:meth:`_group_flags` on one row),
        the count of Eq. 11's ``N``.
        """
        if rates.size < self.min_population:
            return 0
        return int(np.count_nonzero(self._group_flags(rates[None], rates)))

    def overloading_mask(self, rows: KnownRows) -> np.ndarray:
        """Algorithm 1's per-rank rule for every rank at once.

        Flag ``r`` answers "does rank ``r`` consider *itself* overloading
        within its own view".  Ranks that know their own value and at least
        ``min_population`` values are grouped by how many values they
        know; each group is one row-wise :func:`_mean_std` pass, bitwise
        the statistics of per-row ``np.mean``/``np.std``, so the flags equal
        per-rank :meth:`is_overloading` calls.  When every rank is in one
        group the values already are its matrix (no gather), and a shared
        row is evaluated once.
        """
        values, counts, own = rows.values, rows.counts, rows.own
        eligible = rows.has_own & (counts >= self.min_population)
        if eligible.all() and (counts == counts[0]).all():
            return self._group_flags(values.reshape(-1, counts[0]), own)
        if values.size == counts.sum():
            starts = np.cumsum(counts) - counts
        else:  # one shared row
            starts = np.zeros_like(counts)
        flags = np.zeros(counts.size, dtype=bool)
        # The distinct widths, ascending; np.unique would import numpy.ma
        # on the first ULBA decision of every process.
        for width in np.flatnonzero(np.bincount(counts[eligible])):
            members = np.flatnonzero(eligible & (counts == width))
            block = values[starts[members, None] + np.arange(width)]
            flags[members] = self._group_flags(block, own[members])
        return flags

    def _group_flags(self, block: np.ndarray, own: np.ndarray) -> np.ndarray:
        """The rule for ranks whose views are the rows of ``block``."""
        means, stds = _mean_std(block)
        constant = stds == 0.0
        stds[constant] = 1.0
        # zscore defines a constant population as all-zero scores, and the
        # threshold is strictly positive.
        return ((own - means) / stds >= self.threshold) & ~constant


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
