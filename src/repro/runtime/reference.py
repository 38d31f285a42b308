"""Frozen loop-based reference implementation of the simulation core.

This module preserves the pre-vectorization (object-loop) implementations of
the gossip board, the virtual cluster and the Algorithm 1 runner, exactly as
they executed before the array-based rewrite of :mod:`repro.simcluster` and
:mod:`repro.runtime.skeleton`.  It exists for two purposes:

* **golden equivalence tests** -- seeded runs of the vectorized core must
  produce the same trace totals and the same LB-call iterations as this
  reference (``tests/runtime/test_golden_equivalence.py``);
* **benchmark baseline** -- ``benchmarks/test_bench_core.py`` measures the
  vectorized core's speedup against this reference.

Do not "optimize" this module: its value is being a faithful, slow copy.

The only intentional deviation is RNG handling in the gossip board.  The
historical board drew per-rank ``rng.choice`` samples (``P`` draws per
round); the vectorized board performs one batched draw per round
(:func:`repro.simcluster.gossip.select_push_targets`), which necessarily
changes the random stream.  :class:`ReferenceGossipBoard` therefore supports
both: by default it reproduces the historical per-rank draws, and with
``batched_targets=True`` it consumes the shared batched selection so that
end-to-end runs are comparable draw-for-draw with the vectorized core.

The loop still builds one dict view per rank, and
``ReferenceIterativeRunner._build_context`` packs them with
:meth:`~repro.simcluster.gossip.KnownRows.from_views` (dict order kept):
that is the form :class:`~repro.lb.base.LBContext` takes.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.lb.adaptive import DegradationTrigger
from repro.lb.base import LBContext, TriggerPolicy, WorkloadPolicy
from repro.lb.centralized import LBStepReport
from repro.lb.standard import StandardPolicy
from repro.lb.wir import WIREstimate
from repro.partitioning.stripe import StripePartition
from repro.partitioning.weighted import Partition1D
from repro.runtime.skeleton import RunResult, StripedApplication
from repro.simcluster.clock import synchronize
from repro.simcluster.comm import CommCostModel, SimCommunicator
from repro.simcluster.gossip import GossipConfig, KnownRows, select_push_targets
from repro.simcluster.pe import ProcessingElement
from repro.simcluster.tracing import ClusterTrace
from repro.utils.rng import SeedLike, ensure_rng
from repro.utils.validation import check_non_negative, check_positive, check_positive_int

__all__ = [
    "ReferenceCentralizedLoadBalancer",
    "ReferenceDegradationTracker",
    "ReferenceGossipBoard",
    "ReferenceIterativeRunner",
    "ReferenceStripePartitioner",
    "ReferenceVirtualCluster",
    "ReferenceWIRDatabase",
]


def _rolling_median_ref(values, window: int = 3) -> float:
    """Pre-vectorization rolling median (always via ``np.median``)."""
    vals = list(values)[-window:]
    return float(np.median(np.asarray(vals, dtype=float)))


def _partition_contiguous_ref(weights, num_parts, target_shares=None) -> Partition1D:
    """Pre-vectorization greedy cut placement (sequential Python loop)."""
    w = np.asarray(list(weights), dtype=float)
    if target_shares is None:
        shares = np.full(num_parts, 1.0 / num_parts)
    else:
        shares = np.asarray(list(target_shares), dtype=float)
        shares = shares / shares.sum()
    total = w.sum()
    prefix = np.concatenate([[0.0], np.cumsum(w)])
    if total <= 0.0:
        bounds = np.linspace(0, w.size, num_parts + 1).round().astype(int)
        return Partition1D(boundaries=tuple(int(b) for b in bounds))
    cumulative_targets = np.cumsum(shares) * total
    boundaries = [0]
    for part in range(num_parts - 1):
        target = cumulative_targets[part]
        lo = boundaries[-1] + 1
        hi = w.size - (num_parts - part - 1)
        if lo > hi:
            boundaries.append(boundaries[-1])
            continue
        idx = int(np.searchsorted(prefix, target, side="left"))
        candidates = [c for c in (idx - 1, idx, idx + 1) if lo <= c <= hi]
        if not candidates:
            idx = min(max(idx, lo), hi)
            candidates = [idx]
        best = min(candidates, key=lambda c: abs(prefix[c] - target))
        boundaries.append(int(best))
    boundaries.append(int(w.size))
    return Partition1D(boundaries=tuple(boundaries))


def _owners_ref(partition: Partition1D) -> np.ndarray:
    """Pre-vectorization per-part fill of the item -> owner array."""
    owners = np.empty(partition.num_items, dtype=np.int64)
    for part in range(partition.num_parts):
        start, stop = partition.part_range(part)
        owners[start:stop] = part
    return owners


def _migration_volume_ref(old_owners, new_owners, weights) -> float:
    """Pre-vectorization migration volume (with the historical copies)."""
    old = np.asarray(list(old_owners), dtype=np.int64)
    new = np.asarray(list(new_owners), dtype=np.int64)
    w = np.asarray(list(weights), dtype=float)
    moved = old != new
    return float(w[moved].sum())


class ReferenceDegradationTracker:
    """Pre-vectorization degradation accumulator (``np.median`` smoothing)."""

    def __init__(self, window: int = 3) -> None:
        self.window = window
        self._reference_time = None
        self._recent_times: List[float] = []
        self._degradation = 0.0
        self._iterations_since_reset = 0

    @property
    def degradation(self) -> float:
        """Accumulated degradation since the last reset, in seconds."""
        return self._degradation

    @property
    def iterations_since_reset(self) -> int:
        """Number of iterations observed since the last reset."""
        return self._iterations_since_reset

    def observe(self, iteration_time: float) -> float:
        """Record one iteration time; returns the updated degradation."""
        self._recent_times.append(float(iteration_time))
        if len(self._recent_times) > self.window:
            self._recent_times = self._recent_times[-self.window :]
        if self._reference_time is None:
            self._reference_time = float(iteration_time)
        smoothed = _rolling_median_ref(self._recent_times, self.window)
        self._degradation += smoothed - self._reference_time
        self._iterations_since_reset += 1
        return self._degradation

    def reset(self) -> None:
        """Reset after a LB step."""
        self._reference_time = None
        self._recent_times = []
        self._degradation = 0.0
        self._iterations_since_reset = 0


class ReferenceStripePartitioner:
    """Pre-vectorization stripe partitioner (sequential cut loop)."""

    def __init__(self, num_pes: int) -> None:
        check_positive_int(num_pes, "num_pes")
        self.num_pes = num_pes

    def partition(self, column_loads, *, target_shares=None) -> StripePartition:
        """Partition columns with the historical sequential cut placement."""
        loads = np.asarray(list(column_loads), dtype=float)
        part = _partition_contiguous_ref(loads, self.num_pes, target_shares)
        return StripePartition(partition=part, column_loads=tuple(loads.tolist()))

    def uniform_partition(self, num_columns: int) -> StripePartition:
        """Initial equal-width decomposition."""
        return self.partition(np.ones(num_columns))


class ReferenceCentralizedLoadBalancer:
    """Pre-vectorization centralized LB step (loop-based helpers)."""

    def __init__(
        self,
        cluster: "ReferenceVirtualCluster",
        policy: WorkloadPolicy,
        *,
        root: int = 0,
        partition_flop_per_column: float = 50.0,
        bytes_per_load_unit: float = 800.0,
    ) -> None:
        self.cluster = cluster
        self.policy = policy
        self.root = root
        self.partition_flop_per_column = partition_flop_per_column
        self.bytes_per_load_unit = bytes_per_load_unit
        self.partitioner = ReferenceStripePartitioner(cluster.size)
        self.history: List[LBStepReport] = []

    @property
    def average_cost(self) -> float:
        """Average virtual cost of the LB steps performed so far (seconds)."""
        if not self.history:
            return 0.0
        return float(np.mean([report.cost for report in self.history]))

    def execute(
        self,
        context: LBContext,
        column_loads,
        current_partition: Optional[StripePartition] = None,
    ) -> LBStepReport:
        """Run one LB step with the historical loop-based helpers."""
        loads = np.asarray(list(column_loads), dtype=float)
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
            old_owners = _owners_ref(current_partition.partition)
            new_owners = _owners_ref(new_partition.partition)
            migrated = _migration_volume_ref(old_owners, new_owners, loads)
            moved = old_owners != new_owners
            sent = np.bincount(
                old_owners[moved], weights=loads[moved], minlength=self.cluster.size
            )
            received = np.bincount(
                new_owners[moved], weights=loads[moved], minlength=self.cluster.size
            )
            per_pe_migrated = sent + received
        partition_seconds = (
            self.partition_flop_per_column
            * loads.size
            / self.cluster.pes[self.root].speed
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


class ReferenceGossipBoard:
    """Dict-based push-gossip board (pre-vectorization implementation)."""

    def __init__(
        self,
        num_ranks: int,
        *,
        config: Optional[GossipConfig] = None,
        seed: SeedLike = None,
        batched_targets: bool = False,
    ) -> None:
        check_positive_int(num_ranks, "num_ranks")
        self.num_ranks = num_ranks
        self.config = config or GossipConfig()
        self.batched_targets = batched_targets
        self._rng = ensure_rng(seed)
        self._views: List[Dict[int, Tuple[float, int]]] = [
            {} for _ in range(num_ranks)
        ]
        self._steps = 0

    # ------------------------------------------------------------------
    @property
    def steps(self) -> int:
        """Number of dissemination steps performed so far."""
        return self._steps

    def publish(self, rank: int, value: float, *, version: Optional[int] = None) -> None:
        """Rank ``rank`` publishes a new ``value`` for itself."""
        v = self._steps if version is None else int(version)
        if v < 0:
            raise ValueError(f"version must be >= 0, got {v}")
        current = self._views[rank].get(rank)
        if current is None or v >= current[1]:
            self._views[rank][rank] = (float(value), v)

    def local_view(self, rank: int) -> Dict[int, float]:
        """The values rank ``rank`` currently knows, keyed by source rank."""
        return {src: value for src, (value, _version) in self._views[rank].items()}

    def is_complete(self) -> bool:
        """True when every rank knows a value for every other rank."""
        return all(len(view) == self.num_ranks for view in self._views)

    def step(self) -> None:
        """One synchronous push round via per-rank dict snapshot/merge."""
        snapshot = [dict(view) for view in self._views]
        if self.batched_targets:
            src_idx, dst_idx = select_push_targets(
                self._rng, self.num_ranks, self.config.fanout
            )
            for src, dst in zip(src_idx.tolist(), dst_idx.tolist()):
                self._merge_into(dst, snapshot[src])
        else:
            for src in range(self.num_ranks):
                for dst in self._select_targets(src):
                    self._merge_into(dst, snapshot[src])
        self._steps += 1

    def _select_targets(self, src: int) -> List[int]:
        if self.num_ranks == 1:
            return []
        fanout = min(self.config.fanout, self.num_ranks - 1)
        candidates = [r for r in range(self.num_ranks) if r != src]
        chosen = self._rng.choice(len(candidates), size=fanout, replace=False)
        return [candidates[int(i)] for i in np.atleast_1d(chosen)]

    def _merge_into(self, dst: int, incoming: Dict[int, Tuple[float, int]]) -> None:
        view = self._views[dst]
        for src, (value, version) in incoming.items():
            current = view.get(src)
            if current is None or version > current[1]:
                view[src] = (value, version)


class ReferenceWIRDatabase:
    """Dict-backed replicated WIR database (pre-vectorization)."""

    def __init__(
        self,
        num_ranks: int,
        *,
        use_gossip: bool = True,
        seed: SeedLike = None,
        batched_targets: bool = False,
    ) -> None:
        self.num_ranks = num_ranks
        self._board = (
            ReferenceGossipBoard(
                num_ranks, seed=seed, batched_targets=batched_targets
            )
            if use_gossip
            else None
        )
        self._instant: Dict[int, float] = {}

    def publish(self, rank: int, wir: float) -> None:
        """Rank ``rank`` publishes its current WIR."""
        if self._board is not None:
            self._board.publish(rank, wir)
        else:
            self._instant[rank] = float(wir)

    def disseminate(self) -> None:
        """One gossip step (no-op in instant mode)."""
        if self._board is not None:
            self._board.step()

    def view(self, rank: int) -> Dict[int, float]:
        """WIR values known by ``rank``."""
        if self._board is not None:
            return self._board.local_view(rank)
        return dict(self._instant)


class ReferenceVirtualCluster:
    """Object-loop virtual cluster (pre-vectorization implementation)."""

    def __init__(
        self,
        num_pes: int,
        *,
        pe_speed: float = 1.0e9,
        cost_model: Optional[CommCostModel] = None,
    ) -> None:
        check_positive_int(num_pes, "num_pes")
        check_positive(pe_speed, "pe_speed")
        self.pes: List[ProcessingElement] = [
            ProcessingElement(rank=r, speed=pe_speed) for r in range(num_pes)
        ]
        self.comm = SimCommunicator(self.pes, cost_model)
        self.trace = ClusterTrace(num_pes=num_pes)

    @property
    def size(self) -> int:
        """Number of PEs."""
        return len(self.pes)

    @property
    def pe_speed(self) -> float:
        """Speed of the (homogeneous) PEs in FLOP/s."""
        return self.pes[0].speed

    @property
    def now(self) -> float:
        """Common virtual time."""
        return max(pe.now for pe in self.pes)

    def compute_step(self, loads_flop, *, iteration=None, sync_bytes=8.0):
        """One bulk-synchronous compute phase (per-PE Python loop)."""
        from repro.simcluster.cluster import StepResult

        loads = np.asarray(list(loads_flop), dtype=float)
        if loads.shape != (self.size,):
            raise ValueError(
                f"loads_flop must have length {self.size}, got {loads.shape}"
            )
        if (loads < 0).any():
            raise ValueError("loads_flop must all be >= 0")
        start = self.now
        pe_times = []
        for pe, flops in zip(self.pes, loads):
            pe_times.append(pe.compute(float(flops)))
        self.comm._collective_sync(sync_bytes)
        end = self.now
        elapsed = end - start
        result = StepResult(
            elapsed=elapsed, pe_times=tuple(pe_times), completed_at=end
        )
        if iteration is not None:
            self.trace.record_iteration(
                iteration=iteration,
                elapsed=elapsed,
                pe_compute_times=pe_times,
                timestamp=end,
            )
        return result

    def charge_lb_step(
        self,
        *,
        iteration: int,
        partition_seconds: float = 0.0,
        migration_bytes_per_pe=0.0,
        root: int = 0,
    ) -> float:
        """Charge one LB step via communicator collectives (loop version)."""
        check_non_negative(partition_seconds, "partition_seconds")
        start = self.now
        self.comm.gather([0.0] * self.size, root=root)
        self.pes[root].spend(partition_seconds)
        self.comm.bcast(None, root=root, nbytes=8.0 * self.size)
        if np.isscalar(migration_bytes_per_pe):
            volumes = np.full(self.size, float(migration_bytes_per_pe))
        else:
            volumes = np.asarray(list(migration_bytes_per_pe), dtype=float)
        max_volume = float(volumes.max()) if volumes.size else 0.0
        self.comm._collective_sync(max_volume)
        end = self.now
        elapsed = end - start
        for pe in self.pes:
            pe.lb_time += elapsed
        self.trace.record_lb_event(iteration=iteration, cost=elapsed, timestamp=end)
        return elapsed

    def synchronize(self) -> float:
        """Barrier: align every PE clock."""
        return synchronize(pe.clock for pe in self.pes)


class ReferenceIterativeRunner:
    """Pre-vectorization Algorithm 1 driver (per-rank Python loops).

    Accepts the same applications and policies as
    :class:`repro.runtime.skeleton.IterativeRunner` but executes the
    historical object-loop hot path: per-stripe slice sums, a list of scalar
    WIR estimators, per-rank publishes and eagerly materialized WIR views.
    """

    def __init__(
        self,
        cluster: ReferenceVirtualCluster,
        application: StripedApplication,
        *,
        workload_policy: Optional[WorkloadPolicy] = None,
        trigger_policy: Optional[TriggerPolicy] = None,
        use_gossip: bool = True,
        wir_smoothing: float = 0.5,
        initial_lb_cost_estimate: float = 0.0,
        partition_flop_per_column: float = 50.0,
        bytes_per_load_unit: float = 800.0,
        seed: SeedLike = None,
        batched_gossip_targets: bool = False,
    ) -> None:
        check_non_negative(initial_lb_cost_estimate, "initial_lb_cost_estimate")
        self.cluster = cluster
        self.application = application
        self.workload_policy = workload_policy or StandardPolicy()
        self.trigger_policy = trigger_policy or DegradationTrigger()
        self.initial_lb_cost_estimate = initial_lb_cost_estimate
        rng = ensure_rng(seed)
        self.wir_db = ReferenceWIRDatabase(
            cluster.size,
            use_gossip=use_gossip,
            seed=rng,
            batched_targets=batched_gossip_targets,
        )
        self.wir_estimates = [
            WIREstimate(smoothing=wir_smoothing) for _ in range(cluster.size)
        ]
        self.degradation = ReferenceDegradationTracker()
        self.load_balancer = ReferenceCentralizedLoadBalancer(
            cluster,
            self.workload_policy,
            partition_flop_per_column=partition_flop_per_column,
            bytes_per_load_unit=bytes_per_load_unit,
        )
        self.partitioner = ReferenceStripePartitioner(cluster.size)
        self.partition: StripePartition = self.partitioner.uniform_partition(
            application.num_columns
        )
        self._last_lb_iteration = 0
        self._total_iterations: Optional[int] = None

    # ------------------------------------------------------------------
    def _stripe_loads(self) -> np.ndarray:
        cols = self.application.column_loads()
        bounds = np.asarray(self.partition.partition.boundaries)
        return np.asarray(
            [cols[bounds[i] : bounds[i + 1]].sum() for i in range(self.cluster.size)]
        )

    def _average_lb_cost(self) -> float:
        measured = self.load_balancer.average_cost
        if measured > 0.0:
            return measured
        return self.initial_lb_cost_estimate

    def _build_context(self, iteration: int, stripe_loads: np.ndarray) -> LBContext:
        return LBContext(
            iteration=iteration,
            pe_workloads=tuple(
                float(load * self.application.flop_per_load_unit)
                for load in stripe_loads
            ),
            wir_views=KnownRows.from_views(
                [self.wir_db.view(rank) for rank in range(self.cluster.size)]
            ),
            last_lb_iteration=self._last_lb_iteration,
            accumulated_degradation=self.degradation.degradation,
            average_lb_cost=self._average_lb_cost(),
            pe_speed=self.cluster.pe_speed,
            total_iterations=self._total_iterations,
        )

    # ------------------------------------------------------------------
    def run(self, iterations: int) -> RunResult:
        """Execute ``iterations`` application iterations (historical loop)."""
        check_positive_int(iterations, "iterations")
        self._total_iterations = iterations
        result = RunResult(
            trace=self.cluster.trace,
            policy_name=self.workload_policy.name,
            trigger_name=self.trigger_policy.name,
        )

        for iteration in range(iterations):
            stripe_loads = self._stripe_loads()
            flop_per_pe = stripe_loads * self.application.flop_per_load_unit
            step = self.cluster.compute_step(flop_per_pe, iteration=iteration)
            self.application.advance()

            new_stripe_loads = self._stripe_loads()
            for rank in range(self.cluster.size):
                workload = float(
                    new_stripe_loads[rank] * self.application.flop_per_load_unit
                )
                rate = self.wir_estimates[rank].observe(workload)
                self.wir_db.publish(rank, rate)
            self.wir_db.disseminate()

            self.degradation.observe(step.elapsed)

            context = self._build_context(iteration, new_stripe_loads)
            if self.trigger_policy.should_balance(context):
                report = self.load_balancer.execute(
                    context,
                    self.application.column_loads(),
                    current_partition=self.partition,
                )
                result.lb_reports.append(report)
                self.partition = report.partition
                self._last_lb_iteration = iteration + 1
                self.degradation.reset()
                self.trigger_policy.notify_balanced(context)
                rebalanced = self._stripe_loads()
                for rank in range(self.cluster.size):
                    self.wir_estimates[rank].reset_after_migration(
                        float(
                            rebalanced[rank] * self.application.flop_per_load_unit
                        )
                    )

        return result
