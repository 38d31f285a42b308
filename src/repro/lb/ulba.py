"""The ULBA workload policy (Section III-C, Algorithms 1-2).

At a load-balancing step every PE decides, from the replicated WIR database,
whether *it* is overloading (z-score of its WIR above the threshold).
Overloading PEs request to keep only ``(1 - alpha)`` of the perfectly
balanced workload; the surplus is divided evenly among the other PEs.  Two
guards from the paper are applied:

* if **no** PE is overloading the decision is the even split (there is no
  imbalance growth to anticipate);
* if **at least 50 %** of the PEs request underloading, the policy downgrades
  to the standard even split ("it is counter-productive to unload a majority
  of PEs").
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.lb.base import LBContext, LBDecision, WorkloadPolicy
from repro.lb.wir import OverloadDetector
from repro.partitioning.weighted import target_shares_from_alphas
from repro.utils.validation import check_fraction

__all__ = ["ULBAPolicy"]


class ULBAPolicy(WorkloadPolicy):
    """Underloading workload policy.

    Parameters
    ----------
    alpha:
        Underloading fraction a PE applies to itself when it detects it is
        overloading (user-defined constant in the paper; 0.4 in the Figure 4
        experiments).
    detector:
        Overload detector; defaults to the paper's z-score >= 3.0 rule.
    majority_guard:
        Fraction of PEs above which underloading is disabled for the step
        (0.5 in the paper).
    """

    name = "ulba"

    def __init__(
        self,
        alpha: float = 0.4,
        *,
        detector: Optional[OverloadDetector] = None,
        majority_guard: float = 0.5,
    ) -> None:
        check_fraction(alpha, "alpha")
        check_fraction(majority_guard, "majority_guard")
        self.alpha = alpha
        self.detector = detector or OverloadDetector()
        self.majority_guard = majority_guard

    # ------------------------------------------------------------------
    def decide(self, context: LBContext) -> LBDecision:
        """Apply the per-PE z-score rule and build the ULBA target shares.

        Each rank evaluates the rule against *its own* WIR view (they may be
        slightly stale and differ across ranks in gossip mode), exactly as in
        the distributed Algorithm 1; the root then aggregates the per-rank
        ``alpha`` requests (Algorithm 2).
        """
        num_pes = context.num_pes
        # The grouped row-wise rule yields the floats of P per-rank z-score
        # evaluations, bit for bit.
        flags = self.detector.overloading_mask(context.wir_views)
        overloading = np.flatnonzero(flags).tolist()
        requested = np.zeros(num_pes, dtype=float)
        requested[flags] = self.alpha

        downgraded = False
        if overloading and len(overloading) >= self.majority_guard * num_pes:
            # Majority guard: unloading most of the machine cannot help.
            requested[:] = 0.0
            downgraded = True

        if not overloading or downgraded:
            share = 1.0 / num_pes
            return LBDecision(
                target_shares=(share,) * num_pes,
                alphas=(0.0,) * num_pes,
                overloading_ranks=tuple(overloading),
                downgraded_to_standard=downgraded,
                policy=self.name,
            )

        shares = target_shares_from_alphas(requested)
        return LBDecision(
            target_shares=tuple(shares.tolist()),
            alphas=tuple(requested.tolist()),
            overloading_ranks=tuple(overloading),
            downgraded_to_standard=False,
            policy=self.name,
        )
