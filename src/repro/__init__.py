"""Reproduction of *On the Benefits of Anticipating Load Imbalance for
Performance Optimization of Parallel Applications* (Boulmier, Raynaud,
Abdennadher, Chopard -- IEEE CLUSTER 2019, arXiv:1909.07168).

The library implements the paper's contribution -- the **Underloading Load
Balancing Approach (ULBA)** -- together with every substrate its evaluation
depends on:

* :mod:`repro.core` -- the analytical application/LB cost models (Eq. 1-12):
  the standard LB method, the ULBA model, the LB interval bounds
  ``sigma_minus`` / ``sigma_plus``, LB schedules and their evaluation, and
  the Table II random-instance sampler.
* :mod:`repro.optim` -- a self-contained simulated-annealing engine, the
  LB-schedule search of Figure 2 and ``alpha`` grid searches.
* :mod:`repro.simcluster` -- a deterministic virtual SPMD cluster (per-PE
  virtual clocks, MPI-like collectives with a latency/bandwidth cost model,
  gossip dissemination, utilization traces) replacing the paper's physical
  MPI cluster.
* :mod:`repro.partitioning` -- weighted 1-D/stripe partitioning (the paper's
  centralized LB technique).
* :mod:`repro.lb` -- the load-balancing framework: WIR estimation and the
  replicated WIR database, the z-score overload detector, the standard and
  ULBA workload policies, adaptive trigger policies (periodic, Menon,
  Zhai-style degradation), and the centralized load balancer (Algorithm 2).
* :mod:`repro.erosion` -- the fluid-with-erosion evaluation application of
  Section IV-B (rock discs, probabilistic erosion, mesh refinement).
* :mod:`repro.runtime` -- the Algorithm 1 iterative skeleton binding an
  application, the virtual cluster and the LB framework.
* :mod:`repro.experiments` -- one driver per paper figure (Fig. 2-5)
  regenerating the corresponding series/tables.
* :mod:`repro.scenarios` -- a registry of named, parameterized workload
  scenarios (the paper's two applications plus bursty, drifting,
  adversarial, multi-phase and trace-replay generators).
* :mod:`repro.campaign` -- a parallel campaign engine crossing scenarios
  with LB policies and seeds, with JSONL persistence and resume.
* :mod:`repro.resilience` -- fault-tolerant campaign execution: a
  supervised worker pool with retries and deadlines, poison-cell
  quarantine and a deterministic chaos harness.
* :mod:`repro.api` -- the unified declarative run API: a serializable
  :class:`~repro.api.config.RunConfig` tree, the
  :class:`~repro.api.session.Session` facade executing it, and a streaming
  event bus (every experiment driver, the campaign engine and the CLI run
  through it).

Quickstart
----------
>>> from repro.core import TableIISampler, compare_policies
>>> instance = TableIISampler().sample(seed=0)
>>> report = compare_policies(instance)
>>> report.ulba_wins
True
"""

from repro.api import PolicyConfig, RunConfig, Session, SessionResult
from repro.campaign import CampaignSpec, PolicySpec, run_campaign
from repro.resilience import ChaosConfig, RetryPolicy, SupervisedPool
from repro.core import (
    ApplicationParameters,
    GainReport,
    LBSchedule,
    ScheduleEvaluation,
    StandardLBModel,
    TableIISampler,
    ULBAModel,
    WorkloadModel,
    compare_policies,
    evaluate_schedule,
    interval_bounds,
    make_parameters,
    menon_tau,
    sigma_minus,
    sigma_plus,
    sigma_plus_schedule,
)
from repro.erosion import ErosionApplication, ErosionConfig
from repro.lb import (
    CentralizedLoadBalancer,
    DegradationTrigger,
    StandardPolicy,
    ULBADegradationTrigger,
    ULBAPolicy,
)
from repro.runtime import (
    IterativeRunner,
    RunResult,
    SyntheticGrowthApplication,
    compare_runs,
)
from repro.scenarios import ScenarioSpec, available_scenarios, get_scenario
from repro.simcluster import VirtualCluster

__version__ = "1.0.0"

__all__ = [
    "ApplicationParameters",
    "CampaignSpec",
    "CentralizedLoadBalancer",
    "ChaosConfig",
    "DegradationTrigger",
    "ErosionApplication",
    "ErosionConfig",
    "GainReport",
    "IterativeRunner",
    "LBSchedule",
    "PolicyConfig",
    "PolicySpec",
    "RetryPolicy",
    "RunConfig",
    "RunResult",
    "ScenarioSpec",
    "Session",
    "SessionResult",
    "ScheduleEvaluation",
    "StandardLBModel",
    "StandardPolicy",
    "SupervisedPool",
    "SyntheticGrowthApplication",
    "TableIISampler",
    "ULBADegradationTrigger",
    "ULBAModel",
    "ULBAPolicy",
    "VirtualCluster",
    "WorkloadModel",
    "__version__",
    "available_scenarios",
    "compare_policies",
    "compare_runs",
    "evaluate_schedule",
    "get_scenario",
    "interval_bounds",
    "make_parameters",
    "menon_tau",
    "run_campaign",
    "sigma_minus",
    "sigma_plus",
    "sigma_plus_schedule",
]
