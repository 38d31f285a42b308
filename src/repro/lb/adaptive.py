"""Adaptive load-balancing triggering policies.

The paper's numerical study triggers the load balancer with the approach of
Zhai et al.: the runtime accumulates, iteration after iteration, the exact
performance degradation with respect to a reference iteration (the one right
after the last LB call) and invokes the balancer when the accumulated
degradation exceeds the average LB cost -- plus, for ULBA, the underloading
overhead (Eq. 9/11).  This module also provides the simpler policies used as
baselines and in tests: never balance, balance periodically, and balance at
Menon's closed-form interval.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.lb.base import LBContext, TriggerPolicy
from repro.lb.wir import OverloadDetector
from repro.utils.validation import check_fraction, check_positive_int

__all__ = [
    "NeverTrigger",
    "PeriodicTrigger",
    "MenonIntervalTrigger",
    "DegradationTrigger",
    "ULBADegradationTrigger",
]


class NeverTrigger(TriggerPolicy):
    """Static partitioning: the load balancer is never invoked."""

    name = "never"

    def should_balance(self, context: LBContext) -> bool:
        return False


class PeriodicTrigger(TriggerPolicy):
    """Invoke the load balancer every ``period`` iterations.

    The paper describes this as the straightforward (but poorly adaptive)
    strategy, e.g. "call the load balancer every 1000 iterations".
    """

    name = "periodic"

    def __init__(self, period: int) -> None:
        check_positive_int(period, "period")
        self.period = period

    def should_balance(self, context: LBContext) -> bool:
        since = context.iterations_since_lb
        return since > 0 and since % self.period == 0


class MenonIntervalTrigger(TriggerPolicy):
    """Invoke the load balancer every ``tau = sqrt(2 C omega / m_hat)`` iterations.

    ``m_hat`` (the growth rate of the most loaded PE's excess, in FLOP per
    iteration) is estimated online from the WIR database: it is the gap
    between the largest known WIR and the mean WIR.  The LB cost ``C`` is the
    runtime's current estimate (``context.average_lb_cost``).
    """

    name = "menon-interval"

    def __init__(self, *, minimum_interval: int = 1) -> None:
        check_positive_int(minimum_interval, "minimum_interval")
        self.minimum_interval = minimum_interval

    def _estimate_tau(self, context: LBContext) -> float:
        rates = context.wir_views.known_values(0).tolist()
        if not rates:
            return math.inf
        mean_rate = sum(rates) / len(rates)
        m_hat = max(rates) - mean_rate
        if m_hat <= 0.0 or context.average_lb_cost <= 0.0:
            return math.inf
        return math.sqrt(2.0 * context.average_lb_cost * context.pe_speed / m_hat)

    def should_balance(self, context: LBContext) -> bool:
        tau = self._estimate_tau(context)
        if math.isinf(tau):
            return False
        interval = max(self.minimum_interval, int(math.floor(tau)))
        return context.iterations_since_lb >= interval


class DegradationTrigger(TriggerPolicy):
    """Zhai-style trigger: balance when degradation exceeds the LB cost.

    The runtime accumulates ``sum_i (t_i - t_ref)`` where ``t_ref`` is the
    (median-smoothed) iteration time right after the last LB step; the
    balancer runs when that accumulation reaches the average LB cost.  The
    accumulation itself lives in :mod:`repro.runtime.degradation`;
    this policy only compares it to the threshold.
    """

    name = "degradation"

    def __init__(self, *, cost_margin: float = 1.0) -> None:
        if cost_margin <= 0.0:
            raise ValueError(f"cost_margin must be > 0, got {cost_margin}")
        self.cost_margin = cost_margin

    def threshold(self, context: LBContext) -> float:
        """Degradation level (seconds) above which the balancer should run."""
        return self.cost_margin * context.average_lb_cost

    def should_balance(self, context: LBContext) -> bool:
        if context.iterations_since_lb <= 0:
            return False
        return context.accumulated_degradation >= self.threshold(context)


class ULBADegradationTrigger(DegradationTrigger):
    """ULBA-aware degradation trigger (Eq. 9).

    Identical to :class:`DegradationTrigger` but the threshold additionally
    includes the ULBA overhead (Eq. 11): the extra work a non-overloading PE
    will absorb at the next LB step,
    ``alpha N / (P - N) * Wtot / (omega P)``, where ``N`` is the number of
    currently overloading PEs according to the WIR database.
    """

    name = "ulba-degradation"

    def __init__(
        self,
        alpha: float,
        *,
        detector: Optional[OverloadDetector] = None,
        cost_margin: float = 1.0,
    ) -> None:
        super().__init__(cost_margin=cost_margin)
        check_fraction(alpha, "alpha")
        self.alpha = alpha
        self.detector = detector or OverloadDetector()

    def _estimate_overhead(self, context: LBContext) -> float:
        """Eq. 11's ULBA overhead, ``alpha N / (P - N) * Wtot / (omega P)``.

        Only the *number* ``N`` of overloading PEs enters: count z-score
        exceedances within rank 0's view.  0 unless ``0 < N < P``.
        """
        n = self.detector.overloading_count(context.wir_views.known_values(0))
        num_pes = context.num_pes
        if not 0 < n < num_pes:
            return 0.0
        return (
            self.alpha * n / (num_pes - n)
            * context.total_workload / (context.pe_speed * num_pes)
        )

    def threshold(self, context: LBContext) -> float:
        base = super().threshold(context)
        return base + self._estimate_overhead(context)
