"""Gossip-based dissemination of per-PE metrics (Section III-C).

In the paper's implementation each PE keeps a database storing the workload
increase rate (WIR) of every PE.  Each PE evaluates its own WIR and
propagates it -- together with the most recent WIRs in its database -- to
the other PEs using a dissemination (gossip) algorithm; one dissemination
step is performed per application iteration, and the principle of
persistence makes slightly stale values acceptable.

The dense board reproduces that mechanism on flat array state.  A gossip
entry is a (value, timestamp) pair whose timestamp alone decides the merge,
so the replicated database is a ``(P, P)`` *version* matrix -- row ``r`` is
the view of rank ``r``, column ``s`` the version ``r`` holds of source rank
``s`` (``-1`` = unknown) -- plus a *publish log* that stores each published
``(P,)`` row of values once, under its version.  One round performs the
entire synchronous push with a single batched RNG draw and a merge of
versions only; values are looked up in the log when a view is read.

Version tie-break rule (applied consistently):

* **freshest wins** -- a merged entry only overwrites a strictly older one;
  on equal versions the receiver keeps what it has;
* **self-publish always wins ties** -- a rank re-publishing its own value at
  an unchanged version replaces its local entry, so the latest published
  value is what starts propagating.

Copies of one ``(source, version)`` pair carry the same value unless the
owner re-published at that version after an earlier copy had already
spread.  The dense board tells such copies apart by a *generation* that
counts those re-publishes: its matrix holds the key ``(version << (G + 1))
| generation`` (a negative key marks an unknown entry), and a receiver
that adopts an entry takes the largest incoming key -- so among
conflicting equal-version copies arriving in one round, the latest
re-publish wins.  The bit between version and generation is zero in the
matrix; a merge sets it on the receiver's own keys, which makes them win
version ties in a plain ``np.maximum``.  A re-publish before its copy
spread replaces that copy in place, and a rank that holds a copy keeps it
while the version stands, so every generation but the last is held by a
different rank: generations stay below ``P`` and ``G`` is the bit width of
``P - 1``.  Versions must stay below ``2**(62 - G)`` (``2**54`` at ``P =
256``); :meth:`GossipBoard.publish` raises ``ValueError`` beyond.

Two board implementations share those semantics:

* the **dense** board: :class:`BatchGossipBoard` stores ``R`` independent
  boards as one ``(R, P, P)`` version matrix plus one publish log and steps
  them together, and :class:`GossipBoard` is one replica of it (a
  standalone ``GossipBoard`` is a batch of one).  ``O(P^2)`` memory per
  replica, and every rank eventually knows every value.  The right choice
  up to a few hundred PEs.
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

Both boards are read one way: :meth:`~GossipBoard.known_rows` hands every
rank's known values and their sources over as one :class:`KnownRows`
snapshot, as the instant :class:`repro.lb.wir.WIRDatabase` does.
:class:`repro.lb.wir.BatchWIRDatabase` selects the implementation from
:attr:`GossipConfig.mode`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.utils.rng import SeedLike, ensure_rng
from repro.utils.validation import check_positive_int, read_only

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

#: Publish-log rows allocated up front (the log doubles when full).
_LOG_ROWS = 16


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

        Dense: ``P * P * 16``, the budget: one int64 version per entry
        (``P * P * 8``) plus up to ``P`` publish-log rows of ``P`` float64
        values.  The log keeps one row per live version, about as many as
        the stalest entry is old (10 rows at ``P = 256`` and 12 at ``P =
        1024`` when every rank publishes once per round), so a board
        measures a little over half its budget.  Sparse: ``P * M * 24``
        (source + value + version per retained entry, ``M`` the effective
        view size).  This is what the batch engine's replica chunking and
        the large-P benchmarks budget against; transient per-round merge
        buffers are not included.
        """
        check_positive_int(num_ranks, "num_ranks")
        if self.mode == "sparse":
            m = num_ranks if self.view_size is None else min(self.view_size, num_ranks)
            return num_ranks * m * 24
        return num_ranks * num_ranks * 16


@dataclass(frozen=True)
class KnownRows:
    """Every rank's known values and their sources, row after row.

    The one way WIR knowledge is read (compressed sparse rows).  Row ``r``
    -- what rank ``r`` knows, in ascending source order -- is
    ``values[start:start + counts[r]]`` with ``start = counts[:r].sum()``,
    and ``sources`` names the rank each value came from.  ``own[r]`` is the
    value ``r`` published for itself, meaningful only where ``has_own[r]``.

    ``values`` and ``sources`` each come in one of two layouts, told apart
    by size on their own: one entry per known value (``size ==
    counts.sum()``), or one row that every rank shares (instant
    dissemination, or the sources of a complete board), every
    ``counts[r]`` then being its length.  Producers build fresh arrays or
    read-only views of their state, so a snapshot is never written to.
    """

    values: np.ndarray
    sources: np.ndarray
    counts: np.ndarray
    own: np.ndarray
    has_own: np.ndarray

    def __len__(self) -> int:
        """Number of ranks."""
        return self.counts.size

    def _row(self, array: np.ndarray, rank: int) -> np.ndarray:
        if not 0 <= rank < self.counts.size:
            raise ValueError(f"rank {rank} outside [0, {self.counts.size})")
        if array.size != self.counts.sum():  # one shared row
            return array
        start = int(self.counts[:rank].sum())
        return array[start : start + int(self.counts[rank])]

    def known_values(self, rank: int) -> np.ndarray:
        """The values ``rank`` knows, in ascending source order."""
        return self._row(self.values, rank)

    def known_sources(self, rank: int) -> np.ndarray:
        """The source ranks of :meth:`known_values`, in the same order."""
        return self._row(self.sources, rank)

    @classmethod
    def from_views(cls, views: Sequence[Mapping[int, float]]) -> "KnownRows":
        """Pack one ``source -> value`` mapping per rank, in mapping order."""
        counts = np.array([len(view) for view in views], dtype=np.int64)
        total = int(counts.sum())
        own = [view.get(rank) for rank, view in enumerate(views)]
        return cls(
            np.fromiter(
                chain.from_iterable(view.values() for view in views), float, total
            ),
            np.fromiter(chain.from_iterable(views), np.int64, total),
            counts,
            np.array([0.0 if value is None else value for value in own], dtype=float),
            np.array([value is not None for value in own], dtype=bool),
        )


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

    One replica of a dense :class:`BatchGossipBoard`: the ``(P, P)`` version
    matrix is a view of that replica's slice of the batch state, and values
    are read from the batch's publish log.  A standalone
    ``GossipBoard(P, seed=s)`` is a batch of one;
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
        #: ``keys[r, s]``: the key (version and generation, see the module
        #: docstring) of what rank ``r`` knows about source rank ``s``; a
        #: negative key marks an unknown entry.
        self._keys = batch._keys[replica]
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
        Explicit versions must be >= 0 (negative keys mark unknown entries)
        and below ``2**(62 - G)``, ``G`` the bit width of ``P - 1`` (see the
        module docstring).
        """
        self._check_rank(rank)
        self._batch._publish(
            np.array([self._replica]),
            np.array([rank]),
            np.array([[float(value)]]),
            self._version(version),
        )

    def publish_all(
        self, values: np.ndarray, *, version: Optional[int] = None
    ) -> None:
        """Every rank publishes its own value in one vectorized update.

        Equivalent to ``publish(r, values[r])`` for every rank ``r``, with a
        single diagonal write instead of ``P`` Python calls.
        """
        values = self._rank_values(values)
        self._batch._publish(
            np.array([self._replica]),
            np.arange(self.num_ranks),
            values[None],
            self._version(version),
        )

    def known_rows(self) -> KnownRows:
        """Every rank's view, as :class:`KnownRows`.

        One gather of the whole ``(P, P)`` view from the publish log; an
        incomplete board then drops its unknown entries.  A complete
        board's sources are one shared row.
        """
        num_ranks = self.num_ranks
        sources = np.arange(num_ranks)
        values = self._batch._logged(self._replica, self._keys, sources)
        has_own = self._keys.diagonal() >= 0
        own = np.where(has_own, values.diagonal(), 0.0)
        if self.is_complete():
            counts = np.full(num_ranks, num_ranks)
            return KnownRows(values.reshape(-1), sources, counts, own, has_own)
        known = self._keys >= 0
        flat = known.reshape(-1)
        return KnownRows(
            np.compress(flat, values.reshape(-1)),
            np.flatnonzero(flat) % num_ranks,
            np.count_nonzero(known, axis=1),
            own,
            has_own,
        )

    def is_complete(self) -> bool:
        """True when every rank knows a value for every other rank."""
        if not self._complete:
            self._complete = bool((self._keys >= 0).all())
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
    def known_rows(self) -> KnownRows:
        """Every rank's view, as :class:`KnownRows`.

        The slots are stored by freshness; one row-wise sort of ``(source,
        slot)`` keys, unknown slots last, restores the canonical order of
        every view.  ``own`` is a read-only view of the own slots.
        """
        m = self.view_size
        known = self._ver >= 0
        counts = np.count_nonzero(known, axis=1)
        slot_bits = (m - 1).bit_length()
        key = np.where(known, self._src, self.num_ranks) << slot_bits
        key |= np.arange(m)
        key.sort(axis=1)
        filled = np.arange(m) < counts[:, None]
        values = np.take_along_axis(self._val, key & ((1 << slot_bits) - 1), axis=1)
        return KnownRows(
            values[filled],
            key[filled] >> slot_bits,
            counts,
            read_only(self._val[:, 0]),
            known[:, 0],
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
        the dense board.  The whole round is a few row-wise array passes
        per push count over ``O(P * fanout * view_size)`` candidate entries
        -- no ``(P, P)`` operand is ever formed.
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

        A receiver's candidate entries are its current slots plus every
        slot of each view pushed to it.  Per ``(receiver, source)`` pair the
        freshest version survives, with the receiver's existing entry
        winning ties (value-neutral, as on the dense board; among pushed
        copies of one version the later push wins).  Per receiver, the own
        entry is pinned to slot 0 and the freshest ``view_size - 1`` other
        entries fill slots ``1..`` in ``(-version, source)`` order (version
        ties evict higher source ranks first).  A receiver no push reaches
        keeps its view: views are always stored in that order.

        Receivers that get the same number ``c`` of pushes merge together,
        one row of ``(c + 1) * view_size`` candidates each: the own view,
        then the pushed views in push order.  The dedupe is one row-wise
        ``np.sort`` of the packed int64 key ``(source, version, existing,
        column)``: the last key of each source run wins.  The survivors'
        eviction key is ``(vmax - version, position)`` -- the sorted
        position breaks version ties by source -- and a second row-wise
        sort puts the first ``view_size - 1`` into slots ``1..``.
        Versions enter the keys as offsets from the round's minimum
        version.  When explicit publishes spread them too far for 62 bits,
        each version is replaced by its rank among the round's distinct
        versions, which sorts the same.

        Sources enter the dedupe key as ``source + 1``, and an unknown
        slot as 0.  A merge never changes a receiver's own slot (no copy
        of it is newer), so the own source's run, like the unknown run, is
        dropped; the slots a row does not fill are empty.
        """
        num_ranks, m = self.num_ranks, self.view_size
        order = np.argsort(push_dst, kind="stable")
        pushers = push_src[order]
        counts = np.bincount(push_dst, minlength=num_ranks)
        starts = np.cumsum(counts) - counts

        sbits = num_ranks.bit_length()
        mbits = (m - 1).bit_length()  # a column is (view << mbits) | slot
        cbits = (((int(counts.max()) + 1) << mbits) - 1).bit_length()
        vmin, vmax = int(self._ver.min()), int(self._ver.max())
        ver = self._ver - vmin
        span = vmax - vmin
        if sbits + 1 + cbits + span.bit_length() > 62:
            distinct, ver = np.unique(self._ver, return_inverse=True)
            ver = ver.reshape(self._ver.shape)
            span = distinct.size - 1
            if sbits + 1 + cbits + span.bit_length() > 62:
                raise ValueError(
                    f"{num_ranks} ranks x {(int(counts.max()) + 1) * m} merge "
                    "candidates do not fit a 62-bit merge key"
                )
        vbits = span.bit_length()
        fshift = vbits + 1 + cbits  # the source field

        # Per-slot dedupe keys: rows 0..P-1 as pushed copies, rows P..2P-1
        # as the receivers' own views (the existing bit set).
        keys = np.empty((2 * num_ranks, m), dtype=np.int64)
        pushed, own = keys[:num_ranks], keys[num_ranks:]
        np.multiply(self._src + 1, self._ver >= 0, out=pushed)
        pushed <<= fshift
        pushed |= ver << (1 + cbits)
        pushed |= np.arange(m)
        np.bitwise_or(pushed, 1 << cbits, out=own)

        # The pre-round views, flat, plus one empty cell for unfilled slots.
        empty = num_ranks * m
        src_flat = np.append(self._src, -1)
        val_flat = np.append(self._val, 0.0)
        ver_flat = np.append(self._ver, -1)
        new_src, new_val, new_ver = self._src.copy(), self._val.copy(), self._ver.copy()
        for c in np.unique(counts[counts > 0]).tolist():
            recv = np.flatnonzero(counts == c)
            width = (c + 1) * m
            pbits = (width - 1).bit_length()
            rows = np.empty((recv.size, c + 1), dtype=np.int64)
            rows[:, 0] = recv + num_ranks  # the own view's key row
            rows[:, 1:] = pushers[starts[recv, None] + np.arange(c)]
            dedupe = keys.take(rows, axis=0)
            rows[:, 0] = recv
            dedupe[:, 1:] += (np.arange(1, c + 1) << mbits)[:, None]
            dedupe = dedupe.reshape(-1, width)
            dedupe.sort(axis=1)
            source = dedupe >> fshift
            dead = np.empty(dedupe.shape, dtype=bool)
            dead[:, -1] = False
            np.equal(source[:, 1:], source[:, :-1], out=dead[:, :-1])
            dead |= source == 0
            dead |= source == (recv + 1)[:, None]
            # Eviction key (dead, vmax - version, position): dead sorts last.
            fresh = dedupe >> (1 + cbits)
            fresh &= (1 << vbits) - 1
            np.subtract(span, fresh, out=fresh)
            evict = dead.astype(np.int64)
            evict <<= vbits
            evict |= fresh
            evict <<= pbits
            evict |= np.arange(width)
            evict.sort(axis=1)
            evict = evict[:, : m - 1]
            filled = evict < 1 << (vbits + pbits)
            evict &= (1 << pbits) - 1
            evict += np.arange(0, dedupe.size, width)[:, None]
            column = dedupe.take(evict)
            view = column >> mbits
            view &= (1 << (cbits - mbits)) - 1
            view += np.arange(0, rows.size, c + 1)[:, None]
            pos = rows.take(view)
            pos *= m
            pos += column & ((1 << mbits) - 1)
            pos[~filled] = empty
            new_src[recv, 1:] = src_flat[pos]
            new_val[recv, 1:] = val_flat[pos]
            new_ver[recv, 1:] = ver_flat[pos]
        self._src, self._val, self._ver = new_src, new_val, new_ver


class BatchGossipBoard(_PushBoard):
    """``R`` independent dense gossip boards advanced in lock step, batched.

    Every dense board is a replica of this class: the replica-batched
    execution engine (:mod:`repro.batch`) runs ``R`` seeded replicas of one
    configuration, each with an independent board and its own RNG stream,
    and a standalone :class:`GossipBoard` is a batch of one.  All replicas
    are stored as one ``(R, P, P)`` key matrix (version and generation per
    entry, see the module docstring) and one publish log, and the per-round
    work -- target selection and the freshest-version merge -- runs as
    batched array operations over every replica at once.

    The log is shared by the replicas: row ``i`` has one key,
    ``_log_keys[i]``, and holds at ``_log_values[q, i, s]`` the value
    source ``s`` of replica ``q`` published under it.  Its rows are sorted
    by key.  After each round, rows older than the oldest key any entry
    still holds are dropped, and a log that outgrows ``P`` rows is
    compacted to the rows some entry holds.

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
        #: A key is ``(version << shift) | generation`` with the tie bit
        #: ``1 << (shift - 1)`` between them (see the module docstring).
        self._shift = max(1, (num_ranks - 1).bit_length()) + 1
        self._tie = 1 << (self._shift - 1)
        self._keys = np.full(
            (self.num_replicas, num_ranks, num_ranks), -1, dtype=np.int64
        )
        self._log_keys = np.empty(_LOG_ROWS, dtype=np.int64)
        self._log_values = np.zeros((self.num_replicas, _LOG_ROWS, num_ranks))
        self._log_len = 0
        #: Row count above which a round compacts the log.
        self._log_limit = num_ranks
        #: Whether any key has a generation above 0 (then reads search the
        #: log instead of indexing it by version).
        self._bumped = False
        #: Row offset of each replica's block in the stacked key matrix.
        self._row_offsets = np.arange(self.num_replicas)[:, None] * num_ranks
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
        self._publish(
            np.arange(self.num_replicas),
            np.arange(self.num_ranks),
            values,
            self._version(version),
        )

    def _publish(
        self, reps: np.ndarray, ranks: np.ndarray, values: np.ndarray, v: int
    ) -> None:
        """Rank ``ranks[j]`` of replica ``reps[i]`` self-publishes ``values[i, j]``.

        An older own entry (or none) takes key ``v << shift``.  At an unchanged
        version the key stays -- the value is overwritten in place -- unless
        the copy has already spread to another rank; then the generation is
        bumped so the new value is told apart from the spread one.  A newer
        own entry ignores the publish.
        """
        shift = self._shift
        if v >= 1 << (63 - shift):
            raise ValueError(
                f"version must be < 2**{63 - shift} on a dense board of "
                f"{self.num_ranks} ranks, got {v}"
            )
        own_cells = (reps[:, None], ranks, ranks)
        own = self._keys[own_cells]
        old = own >> shift
        new = np.maximum(own, v << shift)  # a newer own entry stays
        if (old == v).any():
            i, j = np.nonzero(old == v)
            held = self._keys[reps[i], :, ranks[j]] == own[i, j, None]
            spread = np.count_nonzero(held, axis=1) > 1
            new[i[spread], j[spread]] += 1
            self._bumped |= bool(spread.any())
        accept = old <= v
        for key in set(new[accept].tolist()):  # one key unless re-publishing
            row = self._log_row(key)
            i, j = np.nonzero(accept & (new == key))
            self._log_values[reps[i], row, ranks[j]] = values[i, j]
        self._keys[own_cells] = new

    def _log_row(self, key: int) -> int:
        """Index of ``key``'s log row, inserted in key order if missing."""
        n = self._log_len
        keys = self._log_keys[:n]
        pos = n if n == 0 or key > keys[-1] else int(np.searchsorted(keys, key))
        if pos < n and keys[pos] == key:
            return pos
        if n == self._log_keys.size:  # full: double the capacity
            self._log_keys = np.resize(self._log_keys, 2 * n)
            self._log_values = np.concatenate(
                [self._log_values, np.zeros_like(self._log_values)], axis=1
            )
        self._log_keys[pos + 1 : n + 1] = self._log_keys[pos:n]
        self._log_values[:, pos + 1 : n + 1] = self._log_values[:, pos:n]
        self._log_keys[pos] = key
        self._log_len = n + 1
        return pos

    def _logged(
        self, replica: int, keys: np.ndarray, sources: np.ndarray
    ) -> np.ndarray:
        """The logged values of ``replica``'s entries ``keys`` of ``sources``.

        ``keys`` and ``sources`` broadcast together; an unknown entry
        (negative key) reads an arbitrary logged value, for the caller to
        drop.  While the
        log's keys are consecutive versions of generation 0 -- always, in a
        run that publishes every rank once per round -- a key's row is its
        version's offset from the first row's; otherwise a binary search
        finds it.  The values come from one flat ``take``.
        """
        log = self._log_keys[: self._log_len]
        # Distinct generation-0 keys spanning n - 1 versions are consecutive.
        if (
            log.size
            and not self._bumped
            and int(log[-1]) - int(log[0]) == (log.size - 1) << self._shift
        ):
            rows = keys - log[0]
            np.maximum(rows, 0, out=rows)  # unknown entries read row 0
            rows >>= self._shift
        else:
            rows = np.searchsorted(log, keys)
        rows *= self.num_ranks
        rows += sources
        return self._log_values[replica].take(rows)

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
                # Every replica's board is a block of rows of one (R*P, P)
                # matrix, so one merge serves the whole batch.
                self._merge(
                    (src + self._row_offsets).reshape(-1),
                    (dst + self._row_offsets).reshape(-1),
                )
        self._prune_log()
        self._steps += 1

    def _merge(self, src: np.ndarray, dst: np.ndarray) -> None:
        """The freshest-version merge of one round's pushes, keys only.

        Push ``e`` sends the pre-round view of row ``src[e]`` of the stacked
        ``(R * P, P)`` key matrix to row ``dst[e]``.  The pushes are
        grouped by receiver, receivers with the most pushes first, so the
        receivers of pass ``j`` -- those with more than ``j`` pushes -- are
        a prefix, and the pass is one in-place ``np.maximum`` with each
        one's ``j``-th pushed row.  Every pass reads the pre-round keys;
        one row scatter writes the result.  A receiver adopts the largest
        incoming key only where its version is strictly newer: its own keys
        enter the final maximum with the tie bit set, which is cleared
        again afterwards.  Besides the key matrix the round holds two
        ``(receivers, P)`` int64 buffers.
        """
        keys = self._keys.reshape(-1, self.num_ranks)
        counts = np.bincount(dst, minlength=keys.shape[0])
        pushers = src[np.argsort(dst, kind="stable")]
        starts = np.cumsum(counts) - counts
        receivers = np.argsort(-counts, kind="stable")[: np.count_nonzero(counts)]
        sizes = counts[receivers]
        starts = starts[receivers]
        best = keys.take(pushers[starts], axis=0)
        pushed = np.empty_like(best)
        # mode="clip" (the indices are valid) lets take write straight into out.
        for j in range(1, int(sizes[0])):
            n = int(np.count_nonzero(sizes > j))
            keys.take(pushers[starts[:n] + j], axis=0, out=pushed[:n], mode="clip")
            np.maximum(best[:n], pushed[:n], out=best[:n])
        current = keys.take(receivers, axis=0, out=pushed, mode="clip")
        current |= self._tie  # unknown (negative) keys stay negative
        np.maximum(best, current, out=best)
        best &= ~self._tie
        keys[receivers] = best

    def _prune_log(self) -> None:
        """Drop the log rows no entry can hold any more.

        Keys never decrease, and a round only spreads keys some rank held,
        so rows below the smallest key held are dead for good.  Unknown
        (negative) keys read as ``uint64`` above every known key.  A
        log longer than ``P`` rows (or twice its size after the last
        compaction) keeps only the rows some entry holds.
        """
        n = self._log_len
        oldest = self._keys.view(np.uint64).min()
        keep = slice(np.searchsorted(self._log_keys[:n].view(np.uint64), oldest), n)
        if n - keep.start > self._log_limit:
            keep = np.flatnonzero(np.isin(self._log_keys[:n], self._keys))
            self._log_limit = max(self.num_ranks, 2 * keep.size)
        kept = self._log_keys[keep]
        if kept.size < n:
            self._log_keys[: kept.size] = kept
            self._log_values[:, : kept.size] = self._log_values[:, keep]
            self._log_len = kept.size
