"""The Algorithm 1 engine: ``R`` seeded replicas in one vectorized pass.

Campaigns and figure drivers average every curve over seeded repetitions:
the same configuration runs ``R`` times with different seeds and only the
replica-averaged trajectories reach the plots.  :class:`BatchRunner` runs
all ``R`` replicas in a *single* vectorized pass, and it is the only
implementation of the iteration loop: a solo run
(:class:`~repro.runtime.skeleton.IterativeRunner`) is a batch of one on the
caller's own cluster.

* the per-PE state is one ``(R, P)``
  :class:`~repro.simcluster.pe.PEStateArrays` -- a compute phase is one
  matrix operation for every replica at once;
* the ``R`` gossip boards live in one ``(R, P, P)`` version matrix plus a
  publish log (:class:`~repro.simcluster.gossip.BatchGossipBoard`) with a
  stacked per-round peer selection and one freshest-version merge over
  every replica;
* the ``R * P`` WIR estimators update in one batched EMA
  (:class:`~repro.lb.wir.WIREstimateArray` with ``replicas=R``).

Control flow that genuinely diverges per replica -- the LB trigger decision,
the centralized LB step, partitions -- stays per-replica, running the
per-replica components (one :class:`~repro.simcluster.cluster.VirtualCluster`,
load balancer, policy pair and :class:`~repro.lb.wir.WIRDatabase` view per
replica) against NumPy row views of the shared state.  Line 16 has one path,
the reference loop's: each replica's trigger decides on its own
:class:`~repro.lb.base.LBContext`, which a fired LB step reuses.  Replicas
share no state, so replica ``r`` of a batch is bit-identical to a solo run
with seed ``seeds[r]`` by construction (``tests/batch/test_batch_equivalence.py``
and the randomized ``tests/batch/test_solo_batch_differential.py`` pin it),
and the frozen loop of :mod:`repro.runtime.reference` plus the golden
fixtures pin that the numbers are the historical ones.

**Memory model.**  The dominant state of a dense-gossip batch is the
``(R, P, P)`` board -- budgeted at 16 bytes per entry, so 16 replicas at
``P = 1024`` already need 256 MiB of board alone and the batch engine would
fall off a memory cliff long before the CPU saturates.  Two escape hatches compose:

* ``gossip_config=GossipConfig(mode="sparse", ...)`` swaps the quadratic
  board for per-replica memory-bounded sparse boards
  (``O(R * P * view_size)``);
* ``memory_budget_bytes`` caps the resident board state: when the requested
  batch would exceed it, the replicas are **chunked** into sequential
  sub-batches that each fit the budget, transparently -- the returned
  :class:`~repro.batch.result.BatchResult` is indistinguishable from an
  unchunked run, and every replica stays bit-identical (replicas share no
  state, so splitting the batch cannot perturb them).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List, Optional, Sequence

import numpy as np

from repro.batch.result import BatchResult
from repro.lb.adaptive import DegradationTrigger, ULBADegradationTrigger
from repro.lb.base import LBContext, TriggerPolicy, WorkloadPolicy
from repro.lb.centralized import CentralizedLoadBalancer, LBStepReport
from repro.lb.standard import StandardPolicy
from repro.lb.wir import BatchWIRDatabase, WIREstimateArray
from repro.partitioning.stripe import StripePartition, StripePartitioner
from repro.obs.clock import wall_clock
from repro.runtime.degradation import BatchDegradationTracker
from repro.runtime.skeleton import RunResult, StripedApplication
from repro.simcluster.cluster import VirtualCluster
from repro.simcluster.comm import CommCostModel
from repro.simcluster.gossip import GossipConfig
from repro.simcluster.pe import PEStateArrays
from repro.simcluster.tracing import IterationRecord
from repro.utils.rng import SeedLike
from repro.utils.validation import check_non_negative, check_positive, check_positive_int

if TYPE_CHECKING:  # pragma: no cover - typing-only (obs stays optional)
    from repro.obs.profiler import StageProfiler

__all__ = ["BatchRunner"]


class BatchRunner:
    """Algorithm 1 over ``R`` seeded replicas in one vectorized pass.

    Parameters
    ----------
    num_pes:
        PEs per replica (every replica runs on the same cluster size).
    applications:
        One :class:`~repro.runtime.skeleton.StripedApplication` per replica
        (typically the same scenario built for ``R`` different seeds).  All
        replicas must expose the same number of columns.
    seeds:
        One gossip seed (or ready generator) per replica; replica ``r``
        consumes it exactly like a solo runner constructed with
        ``seed=seeds[r]``.
    workload_policies / trigger_policies:
        Per-replica policy instances (policies carry state, so replicas must
        not share them); ``None`` creates a
        :class:`~repro.lb.standard.StandardPolicy` /
        :class:`~repro.lb.adaptive.DegradationTrigger` per replica.
    initial_lb_cost_estimates:
        Per-replica LB-cost prior in seconds (or one scalar for all).
    pe_speed, cost_model, use_gossip, gossip_config, wir_smoothing,
    partition_flop_per_column, bytes_per_load_unit:
        As on :class:`~repro.runtime.skeleton.IterativeRunner`, shared by
        every replica.
    memory_budget_bytes:
        Upper bound on the peak gossip state of one sub-batch (resident
        board plus the per-round merge transients, which are equally
        quadratic in dense mode).  ``None`` (default) never chunks.  When the full ``R``-replica board
        would exceed the budget, :meth:`run` transparently executes the
        replicas as sequential sub-batches of ``chunk_size`` replicas each
        (at least one -- a single replica above budget still runs);
        component attributes (``state``, ``clusters``, ...) are then built
        per chunk and not exposed on this facade.
    profiler:
        Optional :class:`~repro.obs.profiler.StageProfiler` timing the
        named hot-loop stages (``compute_step`` / ``advance`` /
        ``stripe_sum`` / ``wir_update`` / ``gossip_round`` / ``lb_decide``
        / ``lb_apply``).  Chunked runs share one profiler across every
        sub-batch.  ``None`` (default) disables all probes.
    on_chunk:
        Optional callback ``(chunk, num_chunks, replicas, wall_time)``
        invoked after each completed sub-batch (once with ``(0, 1, R,
        wall)`` for an unchunked run); the session turns these into
        ``"batch_chunk"`` events.

    Example
    -------
    >>> from repro.batch import BatchRunner
    >>> from repro.runtime.synthetic import SyntheticGrowthApplication
    >>> apps = [SyntheticGrowthApplication(64) for _ in range(4)]
    >>> runner = BatchRunner(8, apps, seeds=[0, 1, 2, 3])
    >>> result = runner.run(20)
    >>> result.num_replicas
    4
    """

    def __init__(
        self,
        num_pes: int,
        applications: Sequence[StripedApplication],
        *,
        seeds: Sequence[SeedLike],
        pe_speed: float = 1.0e9,
        cost_model: Optional[CommCostModel] = None,
        workload_policies: Optional[Sequence[WorkloadPolicy]] = None,
        trigger_policies: Optional[Sequence[TriggerPolicy]] = None,
        use_gossip: bool = True,
        gossip_config: Optional[GossipConfig] = None,
        wir_smoothing: float = 0.5,
        initial_lb_cost_estimates: "Sequence[float] | float" = 0.0,
        partition_flop_per_column: float = 50.0,
        bytes_per_load_unit: float = 800.0,
        memory_budget_bytes: Optional[float] = None,
        profiler: "Optional[StageProfiler]" = None,
        on_chunk: Optional[Callable[[int, int, int, float], None]] = None,
    ) -> None:
        check_positive_int(num_pes, "num_pes")
        check_positive(pe_speed, "pe_speed")
        replicas = len(applications)
        if replicas == 0:
            raise ValueError("applications must name at least one replica")
        if len(seeds) != replicas:
            raise ValueError(
                f"need one seed per replica: {replicas} applications, "
                f"{len(seeds)} seeds"
            )
        num_columns = applications[0].num_columns
        for app in applications:
            if app.num_columns != num_columns:
                raise ValueError(
                    "all replica applications must have the same number of "
                    f"columns; got {app.num_columns} and {num_columns}"
                )
        if num_columns < num_pes:
            raise ValueError(
                f"the applications have {num_columns} columns, fewer than "
                f"the {num_pes} PEs"
            )
        if np.isscalar(initial_lb_cost_estimates):
            priors = [float(initial_lb_cost_estimates)] * replicas
        else:
            priors = [float(p) for p in initial_lb_cost_estimates]
            if len(priors) != replicas:
                raise ValueError(
                    f"need one LB-cost prior per replica, got {len(priors)}"
                )
        for prior in priors:
            check_non_negative(prior, "initial_lb_cost_estimate")
        if workload_policies is None:
            workload_policies = [StandardPolicy() for _ in range(replicas)]
        if trigger_policies is None:
            trigger_policies = [DegradationTrigger() for _ in range(replicas)]
        if len(workload_policies) != replicas or len(trigger_policies) != replicas:
            raise ValueError("need one workload and one trigger policy per replica")
        if len(set(map(id, workload_policies))) != replicas or len(
            set(map(id, trigger_policies))
        ) != replicas:
            raise ValueError(
                "policies carry per-run state; every replica needs its own instance"
            )

        self.num_pes = num_pes
        self.num_replicas = replicas
        self.seeds = tuple(seeds)
        self.applications = list(applications)
        self.workload_policies = list(workload_policies)
        self.trigger_policies = list(trigger_policies)
        self.initial_lb_cost_estimates = priors
        self._pe_speed = pe_speed
        self._cost_model = cost_model
        self._use_gossip = use_gossip
        self._gossip_config = gossip_config
        self._wir_smoothing = wir_smoothing
        self._partition_flop_per_column = partition_flop_per_column
        self._bytes_per_load_unit = bytes_per_load_unit
        self._num_columns = num_columns
        self._profiler = profiler
        self._on_chunk = on_chunk
        # Live per-iteration / per-LB-step observers of a solo run (set by
        # _run_on; the IterativeRunner facade forwards its callbacks here).
        self._on_iteration: Optional[Callable[[int, float], None]] = None
        self._on_lb_step: Optional[Callable[[int, LBStepReport], None]] = None
        #: Iterations completed by earlier :meth:`run` calls; the next call's
        #: iteration indices continue from here.
        self._iterations_done = 0
        self._total_iterations: Optional[int] = None

        if memory_budget_bytes is not None:
            check_positive(memory_budget_bytes, "memory_budget_bytes")
        self.memory_budget_bytes = memory_budget_bytes
        per_replica = self._per_replica_board_bytes(
            num_pes, use_gossip, gossip_config
        )
        if memory_budget_bytes is None:
            chunk = replicas
        else:
            chunk = min(replicas, max(1, int(memory_budget_bytes // per_replica)))
        #: Replicas executed per resident sub-batch (== ``num_replicas``
        #: when the whole batch fits the budget).
        self.chunk_size = chunk
        #: Number of sequential sub-batches :meth:`run` will execute.
        self.num_chunks = -(-replicas // chunk)
        if self.num_chunks > 1:
            # Deferred construction: each chunk builds (and frees) its own
            # engine inside run(), so the resident board state never
            # exceeds the budget.
            return
        self._build_engine()

    # ------------------------------------------------------------------
    @staticmethod
    def _per_replica_board_bytes(
        num_pes: int, use_gossip: bool, gossip_config: Optional[GossipConfig]
    ) -> int:
        """Peak gossip-state bytes one replica adds to the batch.

        Dense gossip costs ``P * P * 32`` bytes per replica: the resident
        board, budgeted at 16 bytes per entry (an int64 version plus the
        publish log, see
        :meth:`~repro.simcluster.gossip.GossipConfig.board_nbytes`),
        **plus** the equally quadratic per-round transients of
        :meth:`~repro.simcluster.gossip.BatchGossipBoard.step` -- the
        stacked ``(R, P, P)`` float64 target-key draw, then the merge's two
        int64 buffers of one row per receiving rank -- up to another 16
        bytes per entry at the peak of every dissemination round, so
        budgeting the board alone could overshoot the requested ceiling.
        Sparse gossip is the resident ``P * view_size * 24`` (its merge
        transients are one replica's worth regardless of ``R``: sparse
        boards step sequentially); instant dissemination keeps only
        ``(R, P)`` rows.
        Buffers proportional to ``R * columns`` are excluded -- the budget
        targets the quadratic cliff.
        """
        if not use_gossip:
            return num_pes * 9
        cfg = gossip_config or GossipConfig()
        if cfg.mode == "sparse":
            return cfg.board_nbytes(num_pes)
        return 2 * cfg.board_nbytes(num_pes)

    def _build_engine(self) -> None:
        """Materialize the vectorized ``(R, P)`` engine state (one chunk)."""
        num_pes = self.num_pes
        replicas = self.num_replicas
        pe_speed = self._pe_speed
        cost_model = self._cost_model
        num_columns = self._num_columns

        #: Shared ``(R, P)`` PE state of every replica.
        self.state = PEStateArrays(num_pes, pe_speed, replicas=replicas)
        #: Per-replica cluster facades over the shared state rows (each with
        #: its own trace; LB steps charge through these).
        self.clusters: List[VirtualCluster] = [
            VirtualCluster(
                num_pes,
                pe_speed=pe_speed,
                cost_model=cost_model,
                state=self.state.replica_view(r),
            )
            for r in range(replicas)
        ]
        self.load_balancers = [
            self._load_balancer(cluster, policy)
            for cluster, policy in zip(self.clusters, self.workload_policies)
        ]
        self.wir_db = BatchWIRDatabase(
            num_pes,
            self.seeds,
            use_gossip=self._use_gossip,
            gossip_config=self._gossip_config,
        )
        self.wir_estimates = WIREstimateArray(
            num_pes, smoothing=self._wir_smoothing, replicas=replicas
        )
        #: Vectorized degradation accumulation (elementwise bit-identical to
        #: R reference trackers; see BatchDegradationTracker).
        self.degradation = BatchDegradationTracker(replicas)
        # `degradation >= margin * avg_cost` is a necessary firing condition
        # of the degradation-trigger family (the ULBA overhead of Eq. 11
        # only raises the threshold).  When every trigger is exactly one of
        # the two, one vectorized compare on the margins picks the replicas
        # that ask their trigger; otherwise (None) every replica asks.
        triggers = self.trigger_policies
        self._trigger_margins: Optional[np.ndarray] = None
        if all(type(t) in (DegradationTrigger, ULBADegradationTrigger) for t in triggers):
            self._trigger_margins = np.asarray([t.cost_margin for t in triggers], dtype=float)
        #: Per-replica average LB cost; only changes at LB steps.
        self._avg_cost_buf = np.asarray(self.initial_lb_cost_estimates, dtype=float)
        self._last_lb_arr = np.zeros(replicas, dtype=np.int64)
        self.partitioner = StripePartitioner(num_pes)
        #: Current stripe partition of each replica (uniform until LB calls
        #: make them diverge).
        self.partitions: List[StripePartition] = [
            self.partitioner.uniform_partition(num_columns) for _ in range(replicas)
        ]
        self._stripe_starts = [self._starts_of(p) for p in self.partitions]
        #: Every replica's reduceat offsets into the flattened column buffer.
        self._concat_starts = np.concatenate(
            [starts + r * num_columns for r, starts in enumerate(self._stripe_starts)]
        )
        #: Per-replica column loads, copied once per iteration so the
        #: per-stripe sums of every replica are one concatenated reduceat.
        self._cols_buf = np.empty((replicas, num_columns), dtype=float)
        #: (buffer row, column_loads method) per replica, bound once.
        self._column_sources = list(
            zip(self._cols_buf, [app.column_loads for app in self.applications])
        )

    def _load_balancer(
        self, cluster: VirtualCluster, policy: WorkloadPolicy
    ) -> CentralizedLoadBalancer:
        return CentralizedLoadBalancer(
            cluster,
            policy,
            partition_flop_per_column=self._partition_flop_per_column,
            bytes_per_load_unit=self._bytes_per_load_unit,
        )

    def _run_on(
        self,
        cluster: VirtualCluster,
        *,
        on_iteration: Optional[Callable[[int, float], None]] = None,
        on_lb_step: Optional[Callable[[int, LBStepReport], None]] = None,
    ) -> None:
        """Run this one-replica batch on the caller's own ``cluster``.

        Compute phases and LB steps then charge into ``cluster.state``
        (through a ``(1, P)`` view) and the trace lands in
        ``cluster.trace``, so repeated :meth:`run` calls keep advancing
        that cluster.  ``on_lb_step(iteration, report)`` fires after every
        LB step and ``on_iteration(iteration, elapsed)`` at the end of every
        iteration, live.
        """
        self.state = cluster.state.batch_of_one()
        self.clusters = [cluster]
        self.load_balancers = [self._load_balancer(cluster, self.workload_policies[0])]
        self._on_iteration = on_iteration
        self._on_lb_step = on_lb_step

    # ------------------------------------------------------------------
    @staticmethod
    def _starts_of(partition: StripePartition) -> np.ndarray:
        """reduceat start offsets of a partition.

        Every partition comes from
        :func:`~repro.partitioning.weighted.partition_contiguous`, whose
        stripes are never empty, so ``reduceat`` sums each stripe exactly.
        """
        return np.asarray(partition.partition.boundaries[:-1])

    def _stripe_loads_all(self) -> np.ndarray:
        """``(R, P)`` stripe sums of every replica from the column buffer.

        One ``np.add.reduceat`` over the flattened ``(R * C,)`` column
        buffer computes every replica's stripe sums at once; segment sums
        are independent, so the result is bit-identical to ``R`` separate
        reduceats.
        """
        flat = np.add.reduceat(self._cols_buf.reshape(-1), self._concat_starts)
        return flat.reshape(self.num_replicas, self.num_pes)

    def _fill_columns(self) -> None:
        """Copy every application's current column loads into the buffer."""
        # repro: noqa[FLOW-HOT] -- O(R) calls into per-replica application objects; column_loads() is a Python-protocol method, the copy itself is one vectorized row assignment per replica
        for row, column_loads in self._column_sources:
            row[...] = column_loads()

    def _average_lb_cost(self, replica: int) -> float:
        measured = self.load_balancers[replica].average_cost
        if measured > 0.0:
            return measured
        return self.initial_lb_cost_estimates[replica]

    def _build_context(
        self, replica: int, iteration: int, stripe_loads: np.ndarray
    ) -> LBContext:
        return LBContext(
            iteration=iteration,
            pe_workloads=stripe_loads * self.applications[replica].flop_per_load_unit,
            wir_views=self.wir_db.replica(replica).known_rows(),
            last_lb_iteration=int(self._last_lb_arr[replica]),
            accumulated_degradation=self.degradation.degradation_of(replica),
            average_lb_cost=self._average_lb_cost(replica),
            pe_speed=self.state.speed,
            total_iterations=self._total_iterations,
        )

    # ------------------------------------------------------------------
    def _execute_lb_step(
        self,
        r: int,
        iteration: int,
        stripe_loads: np.ndarray,
        lb_reports: List[List[LBStepReport]],
        context: LBContext,
    ) -> None:
        """Run one replica's centralized LB step (Algorithm 2) on the
        ``context`` its trigger fired on."""
        report = self.load_balancers[r].execute(
            context,
            self._cols_buf[r],
            current_partition=self.partitions[r],
        )
        lb_reports[r].append(report)
        if self._on_lb_step is not None:
            self._on_lb_step(iteration, report)
        self.partitions[r] = report.partition
        starts = self._stripe_starts[r] = self._starts_of(report.partition)  # repro: noqa[FLOW-HOT] -- O(P) starts vector rebuilt once per LB step, not per iteration
        self._concat_starts[r * self.num_pes : (r + 1) * self.num_pes] = (
            starts + r * self._num_columns
        )
        self._last_lb_arr[r] = iteration + 1
        self._avg_cost_buf[r] = self._average_lb_cost(r)
        self.degradation.reset_replica(r)
        self.trigger_policies[r].notify_balanced(context)
        rebalanced = np.add.reduceat(self._cols_buf[r], starts)
        self.wir_estimates.reset_replica_after_migration(
            r, rebalanced * self.applications[r].flop_per_load_unit
        )
        stripe_loads[r] = rebalanced

    # ------------------------------------------------------------------
    def _run_chunked(self, iterations: int) -> BatchResult:
        """Execute the replicas as sequential budget-sized sub-batches.

        Each chunk builds a fresh full :class:`BatchRunner` over its slice
        of applications / seeds / policies and frees it before the next one
        starts, so the resident board state never exceeds the budget.
        Replicas share no state across the batch, so the concatenated
        result is bit-identical to one unchunked pass (guarded by
        ``tests/batch/test_batch_chunking.py``).  The sub-batches do not
        outlive the call, so a chunked runner runs once: a second call
        raises instead of restarting replicas whose applications already
        advanced.
        """
        check_positive_int(iterations, "iterations")
        if self._iterations_done:
            raise RuntimeError(
                f"this BatchRunner runs in {self.num_chunks} chunks, which "
                "cannot continue a previous run(); build a new runner, or "
                "raise memory_budget_bytes so the batch runs unchunked"
            )
        self._iterations_done = iterations
        replicas: List[RunResult] = []
        for chunk, start in enumerate(range(0, self.num_replicas, self.chunk_size)):
            stop = min(start + self.chunk_size, self.num_replicas)
            wall_start = wall_clock()
            sub = BatchRunner(
                self.num_pes,
                self.applications[start:stop],
                seeds=self.seeds[start:stop],
                pe_speed=self._pe_speed,
                cost_model=self._cost_model,
                workload_policies=self.workload_policies[start:stop],
                trigger_policies=self.trigger_policies[start:stop],
                use_gossip=self._use_gossip,
                gossip_config=self._gossip_config,
                wir_smoothing=self._wir_smoothing,
                initial_lb_cost_estimates=self.initial_lb_cost_estimates[start:stop],
                partition_flop_per_column=self._partition_flop_per_column,
                bytes_per_load_unit=self._bytes_per_load_unit,
                profiler=self._profiler,
            )
            replicas.extend(sub.run(iterations).replicas)
            if self._on_chunk is not None:
                self._on_chunk(
                    chunk,
                    self.num_chunks,
                    stop - start,
                    wall_clock() - wall_start,
                )
        prof = self._profiler
        return BatchResult(
            replicas=replicas,
            seeds=self.seeds,
            profile=prof.profile() if prof is not None else None,
        )

    def run(self, iterations: int) -> BatchResult:
        """Execute ``iterations`` application iterations on every replica.

        Iteration indices continue from earlier calls, so ``run(20)`` then
        ``run(30)`` equals one ``run(50)``.
        """
        if self.num_chunks > 1:
            return self._run_chunked(iterations)
        check_positive_int(iterations, "iterations")
        wall_start = wall_clock()
        first = self._iterations_done
        self._total_iterations = first + iterations
        R, P = self.num_replicas, self.num_pes
        state = self.state
        sync_cost = self.clusters[0].cost_model.collective(P, 8.0)
        flop_per_load = np.asarray(
            [app.flop_per_load_unit for app in self.applications], dtype=float
        )[:, None]
        margins = self._trigger_margins

        lb_reports: List[List[LBStepReport]] = [[] for _ in range(R)]
        # Deferred per-iteration trace buffers (one bulk write per run
        # instead of R Python record calls per iteration).
        pe_times_buf = np.empty((R, iterations, P), dtype=float)
        elapsed_buf = np.empty((R, iterations), dtype=float)
        timestamp_buf = np.empty((R, iterations), dtype=float)

        self._fill_columns()
        stripe_loads = self._stripe_loads_all()

        # Hot-loop stage attribution (repro.obs): every probe is guarded by
        # one `prof is not None` check, so the disabled default adds no
        # calls, no allocation and no branch beyond this comparison.
        prof = self._profiler
        if prof is not None:
            prof.loop_start()

        for step in range(iterations):
            iteration = first + step
            flop_per_pe = stripe_loads * flop_per_load

            # Line 10, batched: one bulk-synchronous compute phase of every
            # replica (the same method VirtualCluster.compute_step runs).
            t0 = prof.start() if prof is not None else 0
            pe_times = flop_per_pe / state.speed
            start, end = state.compute_phase(pe_times, sync_cost)
            elapsed = end - start
            pe_times_buf[:, step] = pe_times
            elapsed_buf[:, step] = elapsed
            timestamp_buf[:, step] = end
            if prof is not None:
                prof.stop("compute_step", t0)
                t0 = prof.start()

            # Application dynamics (per replica: each owns its instance).
            # repro: noqa[FLOW-HOT] -- advance() is the application protocol boundary: each replica owns an opaque Python object; dynamics cannot be batched without changing the public StripedApplication protocol
            for app in self.applications:
                app.advance()
            if prof is not None:
                prof.stop("advance", t0)
                t0 = prof.start()
            self._fill_columns()
            new_stripe_loads = self._stripe_loads_all()
            if prof is not None:
                prof.stop("stripe_sum", t0)
                t0 = prof.start()

            # WIR estimation and dissemination, batched over all replicas.
            rates = self.wir_estimates.observe(new_stripe_loads * flop_per_load)
            self.wir_db.publish_all(rates)
            if prof is not None:
                prof.stop("wir_update", t0)
                t0 = prof.start()
            self.wir_db.disseminate()
            if prof is not None:
                prof.stop("gossip_round", t0)
                t0 = prof.start()

            # Lines 11-15, batched: every replica's degradation accumulates
            # in one vectorized update.
            degradations = self.degradation.observe(elapsed)

            # Line 16, per replica: the replica's trigger decides on its own
            # context, and a fired replica's LB step reuses that context.
            # Only replicas that pass the degradation family's necessary
            # condition ask (every replica when some trigger is another
            # type).
            if margins is not None:
                candidates = np.flatnonzero(
                    (iteration > self._last_lb_arr)
                    & (degradations >= margins * self._avg_cost_buf)
                )
            else:
                candidates = range(R)
            fired = []
            # repro: noqa[FLOW-HOT] -- one should_balance call per trigger candidate, at most R per iteration; candidates almost always fire, and the fired replica's LB step needs the same context anyway
            for r in candidates:
                context = self._build_context(r, iteration, new_stripe_loads[r])
                if self.trigger_policies[r].should_balance(context):
                    fired.append((r, context))
            np.copyto(stripe_loads, new_stripe_loads)
            if prof is not None:
                prof.stop("lb_decide", t0)
            # repro: noqa[FLOW-HOT] -- iterates only replicas whose trigger fired, at most R per iteration; each step runs Algorithm 2's per-replica partition, which has no batched form
            for r, context in fired:
                t0 = prof.start() if prof is not None else 0
                self._execute_lb_step(  # repro: noqa[FLOW-HOT] -- LB-step cadence: reached only for replicas whose trigger fired
                    r, iteration, stripe_loads, lb_reports, context
                )
                if prof is not None:
                    prof.stop("lb_apply", t0)

            if self._on_iteration is not None:
                self._on_iteration(iteration, float(elapsed[0]))

        if prof is not None:
            prof.loop_stop()

        # Materialize the deferred iteration records (tolist() already yields
        # Python floats, so the records are built without per-element
        # conversion).
        results: List[RunResult] = []
        for r in range(R):
            trace = self.clusters[r].trace
            trace.iterations.extend(
                map(
                    IterationRecord,
                    range(first, first + iterations),
                    elapsed_buf[r].tolist(),
                    map(tuple, pe_times_buf[r].tolist()),
                    timestamp_buf[r].tolist(),
                )
            )
            results.append(
                RunResult(
                    trace=trace,
                    lb_reports=lb_reports[r],
                    policy_name=self.workload_policies[r].name,
                    trigger_name=self.trigger_policies[r].name,
                )
            )
        self._iterations_done += iterations
        if self._on_chunk is not None:
            self._on_chunk(0, 1, R, wall_clock() - wall_start)
        return BatchResult(
            replicas=results,
            seeds=self.seeds,
            profile=prof.profile() if prof is not None else None,
        )
