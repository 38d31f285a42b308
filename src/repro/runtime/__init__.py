"""Runtime layer: the Algorithm 1 application skeleton on the virtual cluster.

The runtime binds together an application (anything exposing per-column
workloads and a dynamics step -- the erosion application of
:mod:`repro.erosion` or the synthetic growth application used in tests), the
virtual cluster, the WIR database, a triggering policy and a workload policy,
and executes the iterative skeleton of Algorithm 1:

1. compute the iteration (bulk-synchronous, per-PE FLOP from stripe loads);
2. advance the application dynamics;
3. publish and disseminate the per-PE workload increase rates;
4. track the performance degradation with respect to the iteration right
   after the last LB step (median-of-3 smoothing, Zhai-style accumulation);
5. when the trigger fires, run the centralized load balancer (Algorithm 2)
   and reset the degradation tracking.

Modules
-------
* :mod:`repro.runtime.degradation` -- the Zhai-style degradation tracker,
  vectorized over replicas.
* :mod:`repro.runtime.skeleton` -- the :class:`IterativeRunner` driver and
  the :class:`StripedApplication` protocol.
* :mod:`repro.runtime.synthetic` -- a deterministic synthetic application
  with linear per-column growth, used by tests, examples and benchmarks.
* :mod:`repro.runtime.report` -- run reports comparing policies.
* :mod:`repro.runtime.reference` -- frozen pre-vectorization loop core,
  kept as the golden-equivalence reference and benchmark baseline.
"""

from repro.runtime.skeleton import IterativeRunner, RunResult, StripedApplication
from repro.runtime.synthetic import SyntheticGrowthApplication
from repro.runtime.report import PolicyComparison, compare_runs

__all__ = [
    "IterativeRunner",
    "PolicyComparison",
    "RunResult",
    "StripedApplication",
    "SyntheticGrowthApplication",
    "compare_runs",
]
