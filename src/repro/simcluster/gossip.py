"""Gossip-based dissemination of per-PE metrics (Section III-C).

In the paper's implementation each PE keeps a database storing the workload
increase rate (WIR) of every PE.  Each PE evaluates its own WIR and
propagates it -- together with the most recent WIRs in its database -- to
the other PEs using a dissemination (gossip) algorithm; one dissemination
step is performed per application iteration, and the principle of
persistence makes slightly stale values acceptable.

The dense board reproduces that mechanism on flat array state: the whole
replicated database is a pair of ``(P, P)`` matrices -- ``values`` and
``versions`` -- where row ``r`` is the view of rank ``r`` and column ``s``
holds what ``r`` knows about source rank ``s`` (version ``-1`` = unknown).
One round performs the entire synchronous push with a single batched RNG
draw and a vectorized freshest-version merge, instead of per-rank ``dict``
snapshot/merge loops.

Version tie-break rule (applied consistently):

* **freshest wins** -- a merged entry only overwrites a strictly older one;
  on equal versions the receiver keeps what it has (copies of the same
  ``(source, version)`` pair carry the same value, so this is value-neutral);
* **self-publish always wins ties** -- a rank re-publishing its own value at
  an unchanged version replaces its local entry, so the latest published
  value is what starts propagating.

Two board implementations share those semantics:

* the **dense** board: :class:`BatchGossipBoard` stores ``R`` independent
  boards as one ``(R, P, P)`` pair and steps them together, and
  :class:`GossipBoard` is one replica of it (a standalone ``GossipBoard``
  is a batch of one).  ``O(P^2)`` memory per replica, and every rank
  eventually knows every value.  The right choice up to a few hundred PEs.
* :class:`SparseGossipBoard` -- the **memory-bounded** board for the large-P
  regime (P >= 1024): each rank keeps at most ``view_size`` entries
  (``O(P * view_size)`` memory total), pushes along a configurable topology
  (``random`` / ``ring`` / ``hypercube``) and evicts the stalest entries
  when a view overflows.  Views are *partial by design*; consumers must
  tolerate incomplete views (the ULBA policies read every rank's known
  values through :meth:`~SparseGossipBoard.known_rows` and evaluate the
  overload rule row-wise per group of equal view width).  A round is two
  ``np.sort`` calls over packed int64 keys -- ``(receiver, source,
  version, existing, index)`` to keep the freshest entry per pair, then
  ``(receiver, not own, vmax - version, source, index)`` to evict.
  Versions are packed as offsets from the round's minimum; when explicit
  versions spread too far for 63 bits, their ranks among the round's
  distinct versions replace them (same order, fewer bits).

Both boards are read the same way: :meth:`~GossipBoard.local_view` (one
rank's dict), :meth:`~GossipBoard.known_values_row` (one rank's compacted
values) and :meth:`~GossipBoard.known_rows` (every rank at once).
:class:`repro.lb.wir.BatchWIRDatabase` selects the implementation from
:attr:`GossipConfig.mode`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.utils.rng import SeedLike, ensure_rng
from repro.utils.validation import check_positive_int

__all__ = [
    "BatchGossipBoard",
    "GossipConfig",
    "GossipBoard",
    "KnownRows",
    "SparseGossipBoard",
    "select_push_targets",
    "sparse_random_push_targets",
    "topology_push_targets",
]

#: Recognised board implementations (see module docstring).
GOSSIP_MODES = ("dense", "sparse")
#: Recognised push topologies of the sparse board; the dense board accepts
#: them too (``random`` keeps its historical batched ``(P, P)`` draw).
GOSSIP_TOPOLOGIES = ("random", "ring", "hypercube")


@dataclass(frozen=True)
class GossipConfig:
    """Tuning knobs of the push-gossip dissemination."""

    #: Number of peers each rank pushes its view to per step.
    fanout: int = 2
    #: Board implementation: ``"dense"`` keeps the full ``(P, P)`` view
    #: matrix, ``"sparse"`` bounds every rank's view to ``view_size`` entries
    #: (``O(P * view_size)`` memory -- the large-P execution path).
    mode: str = "dense"
    #: Push topology: ``"random"`` (uniform random peers, one batched RNG
    #: draw per round), ``"ring"`` (the ``fanout`` clockwise neighbours,
    #: deterministic) or ``"hypercube"`` (dimension-exchange partners,
    #: deterministic, completes fastest for power-of-two ``P``).
    topology: str = "random"
    #: Maximum entries a sparse view retains per rank (``None`` = unbounded,
    #: i.e. up to ``P`` entries).  Ignored by the dense board.  When a view
    #: overflows, the stalest (lowest-version) entries are evicted; a rank's
    #: own entry is never evicted.
    view_size: Optional[int] = None

    def __post_init__(self) -> None:
        check_positive_int(self.fanout, "fanout")
        if self.mode not in GOSSIP_MODES:
            raise ValueError(
                f"mode must be one of {GOSSIP_MODES}, got {self.mode!r}"
            )
        if self.topology not in GOSSIP_TOPOLOGIES:
            raise ValueError(
                f"topology must be one of {GOSSIP_TOPOLOGIES}, got {self.topology!r}"
            )
        if self.view_size is not None:
            check_positive_int(self.view_size, "view_size")
            if self.view_size < 2:
                raise ValueError(
                    "view_size must be >= 2 (a view needs the rank's own "
                    f"entry plus at least one neighbour), got {self.view_size}"
                )

    # ------------------------------------------------------------------
    def board_nbytes(self, num_ranks: int) -> int:
        """Steady-state bytes of one board's value/version state at ``P`` ranks.

        Dense: ``P * P * 16`` (one float64 + one int64 per entry).  Sparse:
        ``P * M * 24`` (source + value + version per retained entry, ``M``
        the effective view size).  This is what the batch engine's replica
        chunking and the large-P benchmarks budget against; transient
        per-round merge buffers are not included.
        """
        check_positive_int(num_ranks, "num_ranks")
        if self.mode == "sparse":
            m = num_ranks if self.view_size is None else min(self.view_size, num_ranks)
            return num_ranks * m * 24
        return num_ranks * num_ranks * 16


class KnownRows(NamedTuple):
    """Every rank's known values, row after row (compressed sparse rows).

    Row ``r`` -- the values rank ``r`` knows, in ascending source order --
    is ``values[start:start + counts[r]]`` with ``start = counts[:r].sum()``.
    ``own[r]`` is the value ``r`` published for itself, meaningful only
    where ``has_own[r]``.  A view that every rank shares (instant
    dissemination) may be given once: ``values`` is then that one row and
    every ``counts[r]`` its length.  The arrays may share memory with the
    board: read-only.
    """

    values: np.ndarray
    counts: np.ndarray
    own: np.ndarray
    has_own: np.ndarray


def _random_push_targets(
    rngs: Sequence[np.random.Generator], num_ranks: int, fanout: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Uniform random push targets of one round, for each generator.

    Every generator draws one ``(P, P)`` matrix of uniform keys; the ``k =
    min(fanout, P - 1)`` smallest off-diagonal keys of row ``r`` are rank
    ``r``'s targets -- a uniformly random ``k``-subset per rank, like
    per-rank sampling without replacement, but batched.  The selection runs
    once over the stacked keys: ``k <= 3`` repeated vectorized ``argmin``
    passes (several times faster than introselect), otherwise
    ``argpartition``.  Both yield the same set per rank, in different
    orders -- which push is enumerated first only affects value-neutral
    merge tie-breaks.  Requires ``P >= 2``.

    Returns ``src`` of shape ``(P * k,)``, shared by every generator, and
    ``dst`` of shape ``(len(rngs), P * k)``.
    """
    k = min(fanout, num_ranks - 1)
    keys = np.empty((len(rngs), num_ranks, num_ranks))
    for rng, rep_keys in zip(rngs, keys):
        rng.random(out=rep_keys)
    diag = np.arange(num_ranks)
    keys[:, diag, diag] = np.inf
    if k > 3:
        targets = np.argpartition(keys, k - 1, axis=-1)[..., :k]
    else:
        mins = []
        for _ in range(k):
            low = keys.argmin(axis=-1)
            mins.append(low)
            np.put_along_axis(keys, low[..., None], np.inf, axis=-1)
        targets = np.stack(mins, axis=-1)
    src = np.repeat(np.arange(num_ranks, dtype=np.intp), k)
    return src, targets.reshape(len(rngs), -1)


def select_push_targets(
    rng: np.random.Generator, num_ranks: int, fanout: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Select every rank's push targets for one round with one RNG draw.

    Each rank pushes to ``min(fanout, num_ranks - 1)`` distinct peers chosen
    uniformly at random (never itself), selected from one batched ``(P,
    P)`` key draw -- exactly how each replica of the dense board selects.

    Returns ``(src, dst)`` index arrays of equal length: push ``e`` sends the
    view of rank ``src[e]`` to rank ``dst[e]``.
    """
    check_positive_int(num_ranks, "num_ranks")
    if num_ranks == 1:
        empty = np.empty(0, dtype=np.intp)
        return empty, empty
    src, dst = _random_push_targets([rng], num_ranks, fanout)
    return src, dst[0]


def topology_push_targets(
    step: int, num_ranks: int, fanout: int, topology: str
) -> Tuple[np.ndarray, np.ndarray]:
    """Deterministic push edges of one round for ``ring`` / ``hypercube``.

    * ``ring``: every rank pushes to its ``fanout`` clockwise neighbours
      ``(rank + 1) ... (rank + fanout) mod P`` -- static, no RNG.
    * ``hypercube``: at round ``step`` every rank pushes to its partners
      across dimensions ``step ... step + fanout - 1`` (mod the hypercube
      dimension), i.e. ``rank XOR 2^d``; partners >= ``P`` are skipped for
      non-power-of-two ``P``.  One dimension per round with ``fanout=1``
      completes a broadcast in ``ceil(log2 P)`` rounds for power-of-two
      ``P``.

    Returns ``(src, dst)`` index arrays like :func:`select_push_targets`.
    """
    check_positive_int(num_ranks, "num_ranks")
    if num_ranks == 1:
        empty = np.empty(0, dtype=np.intp)
        return empty, empty
    ranks = np.arange(num_ranks, dtype=np.intp)
    if topology == "ring":
        k = min(fanout, num_ranks - 1)
        offsets = np.arange(1, k + 1, dtype=np.intp)
        dst = (ranks[:, None] + offsets[None, :]) % num_ranks
        src = np.repeat(ranks, k)
        return src, dst.reshape(-1)
    if topology == "hypercube":
        dim = max(1, int(num_ranks - 1).bit_length())
        k = min(fanout, dim)
        bits = (step + np.arange(k)) % dim
        dst = ranks[:, None] ^ (1 << bits.astype(np.intp))[None, :]
        src = np.repeat(ranks, k)
        dst = dst.reshape(-1)
        valid = dst < num_ranks
        return src[valid], dst[valid]
    raise ValueError(f"no deterministic target rule for topology {topology!r}")


def sparse_random_push_targets(
    rng: np.random.Generator, num_ranks: int, fanout: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Uniform random push edges with ``O(P * fanout)`` memory.

    One batched integer draw selects ``fanout`` peers per rank (uniform over
    the other ranks, duplicates within a rank possible -- sampling *with*
    replacement, unlike the dense board's ``(P, P)``-keyed subset draw,
    whose key matrix alone would defeat the sparse board's memory bound).
    """
    check_positive_int(num_ranks, "num_ranks")
    if num_ranks == 1:
        empty = np.empty(0, dtype=np.intp)
        return empty, empty
    k = min(fanout, num_ranks - 1)
    ranks = np.arange(num_ranks, dtype=np.intp)
    draws = rng.integers(0, num_ranks - 1, size=(num_ranks, k))
    # Shift draws at or above the drawing rank by one: uniform over the
    # other P-1 ranks, never self.
    dst = draws + (draws >= ranks[:, None])
    src = np.repeat(ranks, k)
    return src, dst.reshape(-1).astype(np.intp, copy=False)


class _PushBoard:
    """What every board shares: version resolution, rank checks, convergence.

    Subclasses provide ``num_ranks``, ``_steps``, ``is_complete()`` and
    ``step()``.
    """

    num_ranks: int
    _steps: int

    @property
    def steps(self) -> int:
        """Number of dissemination steps performed so far."""
        return self._steps

    def _rank_values(self, values: np.ndarray) -> np.ndarray:
        """``values`` as a float vector with one entry per rank."""
        values = np.asarray(values, dtype=float)
        if values.shape != (self.num_ranks,):
            raise ValueError(
                f"values must have one entry per rank ({self.num_ranks}), "
                f"got {values.shape}"
            )
        return values

    def _version(self, version: Optional[int]) -> int:
        """The version a publish writes: the step count unless explicit."""
        v = self.steps if version is None else int(version)
        if v < 0:
            raise ValueError(f"version must be >= 0, got {v}")
        return v

    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.num_ranks:
            raise ValueError(f"rank {rank} outside [0, {self.num_ranks})")

    def run_until_complete(self, max_steps: int = 1_000) -> int:
        """Gossip until every rank knows every value; returns the step count."""
        check_positive_int(max_steps, "max_steps")
        initial = self.steps
        while not self.is_complete():
            if self.steps - initial >= max_steps:
                raise RuntimeError(
                    f"gossip did not converge within {max_steps} steps; "
                    "did every rank publish a value?"
                )
            self.step()
        return self.steps - initial


class GossipBoard(_PushBoard):
    """Replicated ``rank -> value`` board maintained by push gossip.

    One replica of a dense :class:`BatchGossipBoard`: the ``(P, P)`` value
    and version matrices are views of that replica's slice of the batch
    state.  A standalone ``GossipBoard(P, seed=s)`` is a batch of one;
    :meth:`BatchGossipBoard.replica` hands out the views of a wider batch,
    which read and publish but do not :meth:`step` on their own (the batch
    steps every replica together).
    """

    def __init__(
        self,
        num_ranks: int,
        *,
        config: Optional[GossipConfig] = None,
        seed: SeedLike = None,
    ) -> None:
        self._bind(BatchGossipBoard(num_ranks, [seed], config=config), 0)

    @classmethod
    def _view(cls, batch: "BatchGossipBoard", replica: int) -> "GossipBoard":
        board = cls.__new__(cls)
        board._bind(batch, replica)
        return board

    def _bind(self, batch: "BatchGossipBoard", replica: int) -> None:
        self._batch = batch
        self._replica = replica
        self.num_ranks = batch.num_ranks
        self.config = batch.config
        #: ``values[r, s]`` / ``versions[r, s]``: what rank ``r`` knows about
        #: source rank ``s``; version -1 marks an unknown entry.
        self._values = batch._values[replica]
        self._versions = batch._versions[replica]
        # Completeness is monotone (versions never regress), so the check is
        # cached once it first succeeds.
        self._complete = False

    # ------------------------------------------------------------------
    @property
    def steps(self) -> int:
        """Number of dissemination steps performed so far."""
        return self._batch.steps

    def publish(self, rank: int, value: float, *, version: Optional[int] = None) -> None:
        """Rank ``rank`` publishes a new ``value`` for itself.

        ``version`` defaults to the current step count, so values published
        later always win over older ones when views merge.  A self-publish
        at the *same* version also wins (ties go to the owner), so the
        latest value published within a step is the one disseminated.
        Explicit versions must be >= 0 (-1 is the internal "unknown"
        sentinel).
        """
        self._check_rank(rank)
        v = self._version(version)
        if v >= self._versions[rank, rank]:
            self._values[rank, rank] = float(value)
            self._versions[rank, rank] = v

    def publish_all(
        self, values: np.ndarray, *, version: Optional[int] = None
    ) -> None:
        """Every rank publishes its own value in one vectorized update.

        Equivalent to ``publish(r, values[r])`` for every rank ``r``, with a
        single diagonal write instead of ``P`` Python calls.
        """
        values = self._rank_values(values)
        rows = slice(self._replica, self._replica + 1)
        self._batch._publish_rows(rows, values[None], self._version(version))

    def local_view(self, rank: int) -> Dict[int, float]:
        """The values rank ``rank`` currently knows, keyed by source rank."""
        self._check_rank(rank)
        known = np.flatnonzero(self._versions[rank] >= 0)
        row = self._values[rank]
        return {int(src): float(row[src]) for src in known}

    def known_values_row(self, rank: int) -> np.ndarray:
        """The values ``rank`` knows, compacted in ascending source order.

        Same numbers as ``local_view(rank).values()`` without building the
        dictionary.
        """
        self._check_rank(rank)
        return self._values[rank][self._versions[rank] >= 0]

    def known_rows(self) -> KnownRows:
        """Every rank's :meth:`known_values_row` at once, as :class:`KnownRows`.

        A complete board hands out its value matrix without a copy.
        """
        if self.is_complete():
            values = self._values.reshape(-1)
            counts = np.full(self.num_ranks, self.num_ranks)
        else:
            known = self._versions >= 0
            values, counts = self._values[known], np.count_nonzero(known, axis=1)
        return KnownRows(
            values, counts, self._values.diagonal(), self._versions.diagonal() >= 0
        )

    def is_complete(self) -> bool:
        """True when every rank knows a value for every other rank."""
        if not self._complete:
            self._complete = bool((self._versions >= 0).all())
        return self._complete

    # ------------------------------------------------------------------
    def step(self) -> None:
        """Perform one push-gossip dissemination round.

        See :meth:`BatchGossipBoard.step`; only a board that is the whole
        batch (a standalone board) may step.
        """
        if self._batch.num_replicas != 1:
            raise RuntimeError(
                "a replica view of a wider batch cannot step alone; "
                "step the BatchGossipBoard"
            )
        self._batch.step()


class SparseGossipBoard(_PushBoard):
    """Memory-bounded ``rank -> value`` board for the large-P regime.

    The dense :class:`GossipBoard` stores the fully replicated database as a
    ``(P, P)`` matrix pair -- 256 MiB of board state alone at ``P = 4096``
    and quadratic beyond, which caps experiments at a few hundred PEs.  This
    board bounds every rank's view to at most ``view_size`` entries, stored
    as three ``(P, view_size)`` arrays (source rank, value, version; source
    ``-1`` marks an empty slot), so total memory is ``O(P * view_size)``
    regardless of cluster size.

    The merge semantics are shared with the dense board: a pushed entry only
    overwrites a strictly older one, the receiver keeps its entry on version
    ties, and a self-publish at an unchanged version always wins.  What the
    bounded view adds is **eviction**: when a merged view exceeds
    ``view_size`` entries, the freshest ``view_size - 1`` non-self entries
    are retained (ties broken towards lower source ranks, so eviction is
    deterministic) and a rank's own entry -- pinned in slot 0 -- is never
    evicted.  Views are therefore *partial by design* and consumers must
    treat them like early-phase dense gossip views (the ULBA policies
    already do, through :meth:`known_rows`, whose ``counts`` give every
    view's width).

    Push targets come from :attr:`GossipConfig.topology`: ``random`` draws
    ``fanout`` uniform peers per rank with one batched ``(P, fanout)``
    integer draw per round (bounded memory, unlike the dense board's
    ``(P, P)`` key matrix), ``ring`` and ``hypercube`` are deterministic.
    """

    def __init__(
        self,
        num_ranks: int,
        *,
        config: Optional[GossipConfig] = None,
        seed: SeedLike = None,
    ) -> None:
        check_positive_int(num_ranks, "num_ranks")
        self.num_ranks = num_ranks
        self.config = config or GossipConfig(mode="sparse")
        self._rng = ensure_rng(seed)
        m = self.config.view_size
        #: Effective per-rank view bound (never useful beyond ``P``).
        self.view_size = num_ranks if m is None else min(m, num_ranks)
        # Row r holds rank r's bounded view; slot 0 is pinned to rank r
        # itself (version -1 until it publishes).
        self._src = np.full((num_ranks, self.view_size), -1, dtype=np.int64)
        self._val = np.zeros((num_ranks, self.view_size), dtype=float)
        self._ver = np.full((num_ranks, self.view_size), -1, dtype=np.int64)
        self._src[:, 0] = np.arange(num_ranks)
        self._steps = 0
        self._complete = False

    # ------------------------------------------------------------------
    @property
    def nbytes(self) -> int:
        """Bytes of the board's steady-state view arrays."""
        return int(self._src.nbytes + self._val.nbytes + self._ver.nbytes)

    def publish(self, rank: int, value: float, *, version: Optional[int] = None) -> None:
        """Rank ``rank`` publishes a new ``value`` for itself.

        Same contract as :meth:`GossipBoard.publish`: the version defaults
        to the step count, and a self-publish at an unchanged version wins.
        """
        self._check_rank(rank)
        v = self._version(version)
        if v >= self._ver[rank, 0]:
            self._val[rank, 0] = float(value)
            self._ver[rank, 0] = v

    def publish_all(
        self, values: np.ndarray, *, version: Optional[int] = None
    ) -> None:
        """Every rank publishes its own value in one vectorized update."""
        values = self._rank_values(values)
        v = self._version(version)
        mask = v >= self._ver[:, 0]
        self._val[mask, 0] = values[mask]
        self._ver[mask, 0] = v

    # ------------------------------------------------------------------
    def local_view(self, rank: int) -> Dict[int, float]:
        """The values rank ``rank`` currently knows, keyed by source rank."""
        self._check_rank(rank)
        valid = np.flatnonzero(self._ver[rank] >= 0)
        srcs = self._src[rank, valid]
        vals = self._val[rank, valid]
        order = np.argsort(srcs)
        return {int(srcs[i]): float(vals[i]) for i in order}

    def known_values_row(self, rank: int) -> np.ndarray:
        """The values ``rank`` knows, compacted in ascending source order.

        Same contract as :meth:`GossipBoard.known_values_row`; the slots
        are stored by freshness, so a small sort by source restores the
        canonical order.
        """
        self._check_rank(rank)
        valid = self._ver[rank] >= 0
        srcs = self._src[rank][valid]
        return self._val[rank][valid][np.argsort(srcs)]

    def known_rows(self) -> KnownRows:
        """Every rank's :meth:`known_values_row` at once, as :class:`KnownRows`.

        One row-wise sort of ``(source, slot)`` keys, unknown slots last,
        restores the canonical order of every view.
        """
        m = self.view_size
        known = self._ver >= 0
        counts = np.count_nonzero(known, axis=1)
        slot_bits = (m - 1).bit_length()
        key = np.where(known, self._src, self.num_ranks) << slot_bits
        key |= np.arange(m)
        key.sort(axis=1)
        values = np.take_along_axis(self._val, key & ((1 << slot_bits) - 1), axis=1)
        return KnownRows(
            values[np.arange(m) < counts[:, None]],
            counts,
            self._val[:, 0],
            self._ver[:, 0] >= 0,
        )

    def is_complete(self) -> bool:
        """True when every rank knows every value (requires an unbounded view)."""
        if self.view_size < self.num_ranks:
            return False
        if not self._complete:
            self._complete = bool((self._ver >= 0).all())
        return self._complete

    # ------------------------------------------------------------------
    def step(self) -> None:
        """One synchronous push round: select targets, merge, evict.

        All pushes of a round see the views at the start of the round, like
        the dense board.  The whole round is a constant number of array
        passes over ``O(P * fanout * view_size)`` candidate entries -- no
        ``(P, P)`` operand is ever formed.
        """
        if self.num_ranks > 1:
            if self.config.topology == "random":
                src, dst = sparse_random_push_targets(
                    self._rng, self.num_ranks, self.config.fanout
                )
            else:
                src, dst = topology_push_targets(
                    self._steps, self.num_ranks, self.config.fanout, self.config.topology
                )
            if src.size:
                self._merge(src, dst)
        self._steps += 1

    def run_until_complete(self, max_steps: int = 1_000) -> int:
        """Gossip until every rank knows every value; returns the step count.

        Only meaningful on an unbounded board: with ``view_size < P`` a view
        can never hold all entries and the call raises immediately.
        """
        if self.view_size < self.num_ranks:
            raise RuntimeError(
                f"a bounded view (view_size={self.view_size} < {self.num_ranks} "
                "ranks) can never become complete"
            )
        return super().run_until_complete(max_steps)

    # ------------------------------------------------------------------
    def _merge(self, push_src: np.ndarray, push_dst: np.ndarray) -> None:
        """Freshest-version merge + bounded eviction of one round's pushes.

        Candidate entries are every receiver's current slots plus every
        slot of each pushed view.  Per ``(receiver, source)`` pair the
        freshest version survives, with the receiver's existing entry
        winning ties (value-neutral, as on the dense board; among pushed
        copies of one version the later push wins).  Per receiver, the own
        entry is pinned to slot 0 and the freshest ``view_size - 1`` other
        entries fill slots ``1..`` in ``(-version, source)`` order (version
        ties evict higher source ranks first).

        Each of the two orderings is one ``np.sort`` of a packed int64 key
        that carries the candidate's index in its low bits, like the dense
        board's shift-packing.  The dedupe key is ``(receiver, source,
        version, existing, index)``; the last key of each ``(receiver,
        source)`` run wins.  The eviction key is ``(receiver, not own, vmax
        - version, source, index)``; the first ``view_size`` keys of each
        receiver fill its slots.  Versions enter the keys as offsets from
        the round's minimum version.  When explicit publishes spread them
        too far for 63 bits, each version is replaced by its rank among the
        round's distinct versions, which sorts the same.

        Unknown slots take part as candidates too.  A receiver's own slot 0
        (version -1 until it publishes) always stands for its own pair, so
        every receiver's run starts with its own entry.  Every other
        unknown slot enters as source -1 and sorts after every known entry;
        copying one into a slot writes exactly the empty state.
        """
        num_ranks, m = self.num_ranks, self.view_size
        num_blocks = num_ranks + push_src.size
        # Candidate i is slot i % m of block i // m: blocks 0..P-1 are the
        # receivers' current views, block P + e the view push e carries.
        block_row = np.concatenate([np.arange(num_ranks), push_src])
        block_recv = np.concatenate([np.arange(num_ranks), push_dst])

        sbits = num_ranks.bit_length()  # sources enter as source + 1 >= 0
        ibits = (num_blocks * m - 1).bit_length()
        fixed_bits = 2 * sbits + 1 + ibits
        vmin, vmax = int(self._ver.min()), int(self._ver.max())
        ver = self._ver - vmin
        span = vmax - vmin
        if fixed_bits + span.bit_length() > 63:
            distinct, ver = np.unique(self._ver, return_inverse=True)
            ver = ver.reshape(self._ver.shape)
            span = distinct.size - 1
            if fixed_bits + span.bit_length() > 63:
                raise ValueError(
                    f"{num_ranks} ranks x {num_blocks * m} merge candidates do "
                    "not fit a 63-bit merge key"
                )
        vbits = span.bit_length()
        rshift = sbits + vbits + 1 + ibits  # the receiver field, both keys
        imask = (1 << ibits) - 1

        # Dedupe on (receiver, source, version, existing, index): the last
        # key of each (receiver, source) run is the freshest entry, the
        # receiver's own copy on version ties, else the latest push.
        board_key = (self._src + 1) * (self._ver >= 0) << (vbits + 1 + ibits)
        board_key |= ver << (1 + ibits)
        key = board_key[block_row].reshape(-1)
        key |= np.repeat(block_recv << rshift, m)
        key[: num_ranks * m] |= 1 << ibits  # the existing bit
        # A receiver's own slot keeps its source while it is still unknown.
        key[: num_ranks * m : m] |= np.arange(1, num_ranks + 1) << (vbits + 1 + ibits)
        key |= np.arange(key.size)
        key.sort()
        pair = key >> (vbits + 1 + ibits)
        last = np.empty(key.size, dtype=bool)
        last[-1] = True
        np.not_equal(pair[1:], pair[:-1], out=last[:-1])
        key = key[last]

        # Evict on (receiver, not own, vmax - version, source, index).
        recv = key >> rshift
        src = (key >> (vbits + 1 + ibits)) & ((1 << sbits) - 1)
        ver = (key >> (1 + ibits)) & ((1 << vbits) - 1)
        key &= ~((1 << rshift) - 1) | imask
        key |= (src != recv + 1).astype(np.int64) << (vbits + sbits + ibits)
        key |= (span - ver) << (sbits + ibits)
        key |= src << ibits
        key.sort()
        counts = np.bincount(key >> rshift, minlength=num_ranks)
        slot = np.arange(key.size) - np.repeat(np.cumsum(counts) - counts, counts)
        keep = slot < m
        key = key[keep]
        slots = (key >> rshift) * m + slot[keep]
        block, offset = np.divmod(key & imask, m)
        kept = block_row[block] * m + offset

        new_src = np.full((num_ranks, m), -1, dtype=np.int64)
        new_val = np.zeros((num_ranks, m), dtype=float)
        new_ver = np.full((num_ranks, m), -1, dtype=np.int64)
        new_src.reshape(-1)[slots] = ((key >> ibits) & ((1 << sbits) - 1)) - 1
        new_val.reshape(-1)[slots] = self._val.reshape(-1)[kept]
        new_ver.reshape(-1)[slots] = self._ver.reshape(-1)[kept]
        self._src, self._val, self._ver = new_src, new_val, new_ver


class BatchGossipBoard(_PushBoard):
    """``R`` independent dense gossip boards advanced in lock step, batched.

    Every dense board is a replica of this class: the replica-batched
    execution engine (:mod:`repro.batch`) runs ``R`` seeded replicas of one
    configuration, each with an independent board and its own RNG stream,
    and a standalone :class:`GossipBoard` is a batch of one.  All replicas
    are stored as one ``(R, P, P)`` value/version pair and the per-round
    work -- target selection and the freshest-version merge -- runs as
    batched array operations over every replica at once.

    Each replica's peer selection consumes its own generator (one ``(P,
    P)`` uniform draw per round, like :func:`select_push_targets`), so
    replica ``r`` is bit-identical to a standalone board seeded with
    ``seeds[r]``.

    Parameters
    ----------
    num_ranks:
        PEs per replica (``P``).
    seeds:
        One seed (or ready generator) per replica; the batch width ``R`` is
        the length of this sequence.
    config:
        Shared :class:`GossipConfig` of all replicas.
    """

    def __init__(
        self,
        num_ranks: int,
        seeds: Sequence[SeedLike],
        *,
        config: Optional[GossipConfig] = None,
    ) -> None:
        check_positive_int(num_ranks, "num_ranks")
        if len(seeds) == 0:
            raise ValueError("seeds must name at least one replica")
        self.num_ranks = num_ranks
        self.num_replicas = len(seeds)
        self.config = config or GossipConfig()
        self._rngs: List[np.random.Generator] = [ensure_rng(s) for s in seeds]
        self._values = np.zeros(
            (self.num_replicas, num_ranks, num_ranks), dtype=float
        )
        self._versions = np.full(
            (self.num_replicas, num_ranks, num_ranks), -1, dtype=np.int64
        )
        self._steps = 0
        self._replicas = [
            GossipBoard._view(self, r) for r in range(self.num_replicas)
        ]

    # ------------------------------------------------------------------
    def replica(self, replica: int) -> GossipBoard:
        """The :class:`GossipBoard` view of one replica."""
        if not 0 <= replica < self.num_replicas:
            raise ValueError(f"replica {replica} outside [0, {self.num_replicas})")
        return self._replicas[replica]

    def publish_all(
        self, values: np.ndarray, *, version: Optional[int] = None
    ) -> None:
        """Every rank of every replica publishes its own value.

        ``values`` is ``(R, P)``; equivalent to
        ``replica(r).publish_all(values[r])`` for every replica.
        """
        values = np.asarray(values, dtype=float)
        expected = (self.num_replicas, self.num_ranks)
        if values.shape != expected:
            raise ValueError(
                f"values must be (replicas, ranks) = {expected}, got {values.shape}"
            )
        self._publish_rows(slice(None), values, self._version(version))

    def _publish_rows(self, rows: slice, values: np.ndarray, v: int) -> None:
        """Self-publish ``values`` (one row per replica in ``rows``) at ``v``."""
        diag = np.arange(self.num_ranks)
        board_values, board_versions = self._values[rows], self._versions[rows]
        rep_idx, rank_idx = np.nonzero(v >= board_versions[:, diag, diag])
        board_values[rep_idx, rank_idx, rank_idx] = values[rep_idx, rank_idx]
        board_versions[rep_idx, rank_idx, rank_idx] = v

    def is_complete(self) -> bool:
        """True when every rank of every replica knows every value."""
        return all(board.is_complete() for board in self._replicas)

    # ------------------------------------------------------------------
    def step(self) -> None:
        """One synchronous push round across every replica.

        With the (default) ``random`` topology each rank of each replica
        selects ``fanout`` distinct random peers: one ``(P, P)`` uniform
        draw per replica from its own generator, and one stacked selection
        over the ``(R, P, P)`` keys.  The deterministic ``ring`` /
        ``hypercube`` topologies consume no randomness and share one edge
        list across all replicas.  Every rank pushes its whole view;
        receivers keep the freshest version of each entry.  The pushes of a
        round are based on the views at the *start* of the round
        (synchronous gossip), matching one dissemination step per
        application iteration.
        """
        num_ranks = self.num_ranks
        if num_ranks > 1:
            if self.config.topology == "random":
                src, dst = _random_push_targets(
                    self._rngs, num_ranks, self.config.fanout
                )
            else:
                src, edges = topology_push_targets(
                    self._steps, num_ranks, self.config.fanout, self.config.topology
                )
                dst = np.broadcast_to(edges, (self.num_replicas, edges.size))
            if src.size:
                # Versions are packed once for the whole batch ((version <<
                # s) | edge index), and each replica merges inside its own
                # (P, P) board -- small enough to stay cache-resident, which
                # measures faster than one flattened (R*P, P) merge.
                shift = max(1, int(src.shape[0] - 1).bit_length())
                packed = np.left_shift(self._versions, shift)
                entry = np.arange(num_ranks)
                for rep in range(self.num_replicas):
                    self._merge_replica(rep, src, dst[rep], packed[rep], shift, entry)
        self._steps += 1

    def _merge_replica(
        self,
        rep: int,
        src: np.ndarray,
        dst: np.ndarray,
        packed: np.ndarray,
        shift: int,
        entry: np.ndarray,
    ) -> None:
        """One replica's grouped freshest-version merge of a round's pushes.

        Push ``e`` sends the pre-round view of rank ``src[e]`` to rank
        ``dst[e]``.  Versions arrive pre-shifted (``packed``) and the key of
        each pushed entry is ``(version << s) | push_index``, so a grouped
        ``np.maximum.reduceat`` per receiver yields both the freshest
        incoming version and a push that carries it (two bit operations to
        unpack); entries whose version strictly increases take that push's
        value.  Which of several equal-version pushes wins is immaterial:
        copies of the same ``(source, version)`` pair hold the same value.
        """
        num_pushes = src.shape[0]
        versions = self._versions[rep]
        values = self._values[rep]

        order = np.argsort(dst, kind="stable")
        dst_sorted = dst[order]
        boundaries = np.empty(num_pushes, dtype=bool)
        boundaries[0] = True
        np.not_equal(dst_sorted[1:], dst_sorted[:-1], out=boundaries[1:])
        group_starts = np.flatnonzero(boundaries)
        receivers = dst_sorted[group_starts]
        src_sorted = src[order]

        keys = packed[src_sorted]
        keys += np.arange(num_pushes, dtype=np.int64)[:, None]
        best = np.maximum.reduceat(keys, group_starts, axis=0)
        incoming_ver = best >> shift

        current_ver = versions[receivers]
        improved = incoming_ver > current_ver
        if not improved.any():
            return
        # Gather only the winning pushes' values (still the pre-round state:
        # nothing has been written yet).
        winner = best & ((1 << shift) - 1)
        incoming_val = values[src_sorted[winner], entry]
        values[receivers] = np.where(improved, incoming_val, values[receivers])
        versions[receivers] = np.where(improved, incoming_ver, current_ver)
