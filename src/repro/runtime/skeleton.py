"""The iterative application skeleton (Algorithm 1) on the virtual cluster.

:class:`IterativeRunner` is the reproduction's equivalent of the MPI main
loop of the paper's evaluation application: it executes a *striped*
application (anything implementing :class:`StripedApplication`) for a fixed
number of iterations, charging per-PE compute time on the virtual cluster,
maintaining the WIR database, tracking degradation and invoking the
centralized load balancer (Algorithm 2) when the trigger policy fires.

The same runner serves the standard method and ULBA -- only the injected
policies differ -- which mirrors the paper's statement that both
implementations share the same centralized LB technique.

The loop itself lives in :class:`repro.batch.BatchRunner`, which executes
``R`` seeded replicas in one vectorized pass over ``(R, P)`` state (the
unit of work of every paper figure); :class:`IterativeRunner` is its
one-replica facade on the caller's own :class:`VirtualCluster`, so a solo
run and replica ``r`` of a batch seeded ``r`` are the same code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional, Protocol, runtime_checkable

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.profiler import StageProfile, StageProfiler

from repro.lb.adaptive import DegradationTrigger
from repro.lb.base import TriggerPolicy, WorkloadPolicy
from repro.lb.centralized import LBStepReport
from repro.lb.standard import StandardPolicy
from repro.lb.wir import WIRDatabase
from repro.partitioning.stripe import StripePartition
from repro.simcluster.cluster import VirtualCluster
from repro.simcluster.gossip import GossipConfig
from repro.simcluster.tracing import ClusterTrace
from repro.utils.rng import SeedLike
from repro.utils.validation import check_non_negative, check_positive, check_positive_int

__all__ = [
    "StripedApplication",
    "RunResult",
    "IterativeRunner",
    "initial_lb_cost_prior",
]


def initial_lb_cost_prior(
    total_flop: float, num_pes: int, pe_speed: float
) -> float:
    """Standard LB-cost prior used before the first measured LB step.

    Half of one perfectly balanced per-PE iteration time: large enough to
    keep the degradation trigger from firing on noise in the first
    iterations, small enough not to postpone the first genuine LB call.
    Shared by the erosion experiments, the scenario layer and the campaign
    runner so they all assume the same prior.
    """
    check_non_negative(total_flop, "total_flop")
    check_positive_int(num_pes, "num_pes")
    check_positive(pe_speed, "pe_speed")
    return 0.5 * total_flop / num_pes / pe_speed


@runtime_checkable
class StripedApplication(Protocol):
    """What the runner needs from an application.

    The application owns a 1-D-decomposable workload (per-column loads) and
    a dynamics step; it knows nothing about PEs, partitions or load
    balancing.
    """

    #: FLOP charged per unit of column load (converts loads to compute work).
    flop_per_load_unit: float

    @property
    def num_columns(self) -> int:
        """Number of domain columns."""
        ...

    def column_loads(self) -> np.ndarray:
        """Current workload weight of every column."""
        ...

    def advance(self) -> None:
        """Advance the application dynamics by one iteration."""
        ...


@dataclass
class RunResult:
    """Outcome of one :meth:`IterativeRunner.run`."""

    #: Execution trace (iteration times, utilization, LB events).
    trace: ClusterTrace
    #: Reports of every LB step that was executed.
    lb_reports: list[LBStepReport] = field(default_factory=list)
    #: Name of the workload policy that was used.
    policy_name: str = ""
    #: Name of the trigger policy that was used.
    trigger_name: str = ""
    #: Wall-clock stage attribution of the run
    #: (:class:`~repro.obs.profiler.StageProfile`); ``None`` unless the
    #: runner was built with a profiler.
    profile: "Optional[StageProfile]" = None

    # ------------------------------------------------------------------
    @property
    def total_time(self) -> float:
        """Total virtual time of the run (seconds)."""
        return self.trace.total_time

    @property
    def num_lb_calls(self) -> int:
        """Number of LB invocations."""
        return self.trace.num_lb_calls

    @property
    def mean_utilization(self) -> float:
        """Time-weighted average PE utilization."""
        return self.trace.mean_utilization()

    def utilization_series(self) -> np.ndarray:
        """Per-iteration average PE utilization (Fig. 4b series)."""
        return self.trace.utilization_series()

    def summary(self) -> dict:
        """Plain-dictionary summary for experiment tables."""
        info = self.trace.summary()
        info.update(
            policy=self.policy_name,
            trigger=self.trigger_name,
        )
        return info


class IterativeRunner:
    """Algorithm 1 driver binding an application to the virtual cluster.

    A one-replica :class:`~repro.batch.runner.BatchRunner` (:attr:`engine`)
    executes the loop on ``cluster`` itself: clocks, PE accounting and the
    trace all advance on the caller's cluster, and repeated :meth:`run`
    calls continue where the previous one stopped, iteration count
    included (``run(20)`` then ``run(30)`` equals one ``run(50)``).

    Parameters
    ----------
    cluster:
        Virtual cluster to run on (one stripe per PE).
    application:
        The striped application.
    workload_policy:
        How to redistribute work at LB steps (standard / ULBA).
    trigger_policy:
        When to call the load balancer; defaults to the Zhai degradation
        trigger used in the paper's numerical study.
    use_gossip:
        Whether WIR values propagate by gossip (one step per iteration) or
        instantly.
    gossip_config:
        Tuning of the gossip substrate
        (:class:`~repro.simcluster.gossip.GossipConfig`): fanout, push
        topology, and -- through ``mode="sparse"`` -- the memory-bounded
        board for large clusters.  ``None`` keeps the historical dense
        defaults (bit-identical seeded runs).
    wir_smoothing:
        Smoothing factor of the per-PE WIR estimators.
    initial_lb_cost_estimate:
        LB cost assumed before the first LB call provides a measurement
        (seconds); keeps the degradation trigger from firing on the very
        first nonzero degradation when set > 0.
    seed:
        Randomness for the gossip peer selection.
    on_iteration:
        Optional observer called as ``on_iteration(iteration, elapsed)``
        after every completed iteration (the session facade's event bus
        plugs in here).  ``None`` (the default) adds no per-iteration work.
    on_lb_step:
        Optional observer called as ``on_lb_step(iteration, report)`` after
        every executed LB step.
    profiler:
        Optional :class:`~repro.obs.profiler.StageProfiler` timing the
        named hot-loop stages (``compute_step`` / ``advance`` /
        ``stripe_sum`` / ``wir_update`` / ``gossip_round`` / ``lb_decide``
        / ``lb_apply``).  ``None`` (the default) leaves the hot loop
        untouched apart from one ``is not None`` check per stage.
    """

    def __init__(
        self,
        cluster: VirtualCluster,
        application: StripedApplication,
        *,
        workload_policy: Optional[WorkloadPolicy] = None,
        trigger_policy: Optional[TriggerPolicy] = None,
        use_gossip: bool = True,
        gossip_config: Optional[GossipConfig] = None,
        wir_smoothing: float = 0.5,
        initial_lb_cost_estimate: float = 0.0,
        partition_flop_per_column: float = 50.0,
        bytes_per_load_unit: float = 800.0,
        seed: SeedLike = None,
        on_iteration: Optional[Callable[[int, float], None]] = None,
        on_lb_step: Optional[Callable[[int, LBStepReport], None]] = None,
        profiler: "Optional[StageProfiler]" = None,
    ) -> None:
        # Imported here: the batch engine imports this module's protocol
        # and result types.
        from repro.batch.runner import BatchRunner

        self.cluster = cluster
        self.application = application
        self.workload_policy = workload_policy or StandardPolicy()
        self.trigger_policy = trigger_policy or DegradationTrigger()
        self.initial_lb_cost_estimate = initial_lb_cost_estimate
        #: The one-replica batch engine that executes the loop.
        self.engine = BatchRunner(
            cluster.size,
            [application],
            seeds=[seed],
            pe_speed=cluster.pe_speed,
            cost_model=cluster.cost_model,
            workload_policies=[self.workload_policy],
            trigger_policies=[self.trigger_policy],
            use_gossip=use_gossip,
            gossip_config=gossip_config,
            wir_smoothing=wir_smoothing,
            initial_lb_cost_estimates=initial_lb_cost_estimate,
            partition_flop_per_column=partition_flop_per_column,
            bytes_per_load_unit=bytes_per_load_unit,
            profiler=profiler,
        )
        self.engine._run_on(cluster, on_iteration=on_iteration, on_lb_step=on_lb_step)

    @property
    def partition(self) -> StripePartition:
        """Current stripe partition (uniform before the first LB call)."""
        return self.engine.partitions[0]

    @property
    def wir_db(self) -> WIRDatabase:
        """The run's replicated WIR database."""
        return self.engine.wir_db.replica(0)

    def run(self, iterations: int) -> RunResult:
        """Execute ``iterations`` application iterations (Algorithm 1)."""
        batch = self.engine.run(iterations)
        result = batch.replicas[0]
        result.profile = batch.profile
        return result
