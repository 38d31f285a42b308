"""Load-balancing framework.

This package implements the decision layer of the paper: *when* to call the
load balancer (adaptive triggering policies) and *how* to redistribute the
workload when it is called (standard even split vs. ULBA underloading), on
top of the partitioning substrate of :mod:`repro.partitioning`.

Modules
-------
* :mod:`repro.lb.wir` -- workload-increase-rate (WIR) estimation, the
  replicated WIR database fed by gossip, and the z-score outlier detector
  used by Algorithm 1 to decide whether a PE is *overloading*.
* :mod:`repro.lb.base` -- common dataclasses: :class:`LBDecision` (what the
  policy decided), :class:`LBContext` (what the runtime knows when asking),
  and the :class:`WorkloadPolicy` / :class:`TriggerPolicy` interfaces.
* :mod:`repro.lb.standard` -- the standard workload policy (perfectly even
  redistribution).
* :mod:`repro.lb.ulba` -- the ULBA workload policy: z-score detection of
  overloading PEs, per-PE ``alpha`` assignment, and the 50 %-majority guard.
* :mod:`repro.lb.adaptive` -- triggering policies: never, periodic, Menon's
  ``tau`` interval, the Zhai-style cumulative-degradation trigger used by
  both methods in the paper's numerical study, and the ULBA-aware variant
  that adds the underloading overhead to the threshold.
* :mod:`repro.lb.centralized` -- the centralized LB technique of
  Algorithm 2, binding a workload policy to the stripe partitioner and the
  virtual cluster.
* :mod:`repro.lb.registry` -- the string-keyed registry resolving policy /
  trigger / pair names (``"standard"``, ``"ulba"``, ``"ulba-dynamic"``) into
  fresh policy objects; the single home of the name-to-class mapping used by
  the campaign grid, the experiments, the CLI and :mod:`repro.api`.
"""

from repro.lb.base import (
    LBContext,
    LBDecision,
    TriggerPolicy,
    WorkloadPolicy,
)
from repro.lb.wir import (
    OverloadDetector,
    WIREstimate,
    WIREstimateArray,
    WIRDatabase,
)
from repro.lb.standard import StandardPolicy
from repro.lb.ulba import ULBAPolicy
from repro.lb.dynamic_alpha import AlphaChoice, DynamicAlphaULBAPolicy
from repro.lb.adaptive import (
    DegradationTrigger,
    MenonIntervalTrigger,
    NeverTrigger,
    PeriodicTrigger,
    ULBADegradationTrigger,
)
from repro.lb.centralized import CentralizedLoadBalancer, LBStepReport
from repro.lb.registry import (
    available_policies,
    available_policy_pairs,
    available_triggers,
    make_policy,
    make_policy_pair,
    make_trigger,
    register_policy,
    register_policy_pair,
    register_trigger,
)

__all__ = [
    "AlphaChoice",
    "CentralizedLoadBalancer",
    "DegradationTrigger",
    "DynamicAlphaULBAPolicy",
    "LBContext",
    "LBDecision",
    "LBStepReport",
    "MenonIntervalTrigger",
    "NeverTrigger",
    "OverloadDetector",
    "PeriodicTrigger",
    "StandardPolicy",
    "TriggerPolicy",
    "ULBADegradationTrigger",
    "ULBAPolicy",
    "WIRDatabase",
    "WIREstimate",
    "WIREstimateArray",
    "WorkloadPolicy",
    "available_policies",
    "available_policy_pairs",
    "available_triggers",
    "make_policy",
    "make_policy_pair",
    "make_trigger",
    "register_policy",
    "register_policy_pair",
    "register_trigger",
]
