"""Runtime-adaptive choice of the ULBA underloading fraction ``alpha``.

The paper treats ``alpha`` as a user-defined constant and repeatedly notes
that its best value depends on runtime conditions -- in particular on the
fraction of overloading PEs, because the ULBA overhead grows like
``alpha * N / (P - N)`` (Eq. 11) -- and lists the dynamic adjustment of
``alpha`` as future work (Sections III-A, IV-B and V).

This module implements that extension.  :class:`DynamicAlphaULBAPolicy` is a
drop-in replacement for :class:`repro.lb.ulba.ULBAPolicy` that, at every LB
step, *derives* ``alpha`` instead of using a constant:

1. the z-score rule identifies the ``N`` overloading PEs, exactly as in the
   fixed-``alpha`` policy;
2. the runtime state is condensed into an
   :class:`~repro.core.parameters.ApplicationParameters` instance: ``Wtot``
   from the current PE workloads, the rates ``a`` / ``m`` from the replicated
   WIR database, the LB cost ``C`` from the runtime's running estimate;
3. the paper's own analytical model (Eq. 4 with Eq. 5 in Eq. 3, evaluated
   over the ``sigma_plus`` schedule) is minimised over a small ``alpha``
   grid, and the winning value is applied to the overloading PEs.

The same 50 %-majority guard as the fixed policy applies.  When the runtime
estimates are too degenerate to build a model (no LB cost estimate yet, no
imbalance, a majority overloading), the policy falls back to a configurable
fixed ``alpha``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.gains import best_alpha_for_instance
from repro.core.intervals import menon_tau
from repro.core.parameters import ApplicationParameters
from repro.lb.base import LBContext, LBDecision, WorkloadPolicy
from repro.lb.wir import OverloadDetector
from repro.partitioning.weighted import target_shares_from_alphas
from repro.utils.validation import check_fraction, check_positive, check_positive_int

__all__ = ["AlphaChoice", "DynamicAlphaULBAPolicy"]


@dataclass(frozen=True)
class AlphaChoice:
    """Diagnostic record of one runtime ``alpha`` selection."""

    #: Iteration at which the choice was made.
    iteration: int
    #: The selected underloading fraction.
    alpha: float
    #: Number of overloading PEs at the decision point.
    num_overloading: int
    #: The analytical instance the choice was derived from (None when the
    #: policy fell back to the fixed default).
    model: Optional[ApplicationParameters]
    #: True when the fixed fallback value was used.
    used_fallback: bool


class DynamicAlphaULBAPolicy(WorkloadPolicy):
    """ULBA workload policy with model-driven, per-step ``alpha`` selection.

    Parameters
    ----------
    strategy:
        ``"interval"`` (default) sizes ``alpha`` so that the catch-up length
        ``sigma_minus(alpha)`` matches one Menon LB interval -- a
        self-limiting rule that never removes more work than the predicted
        growth can refill before the next natural LB point.  ``"model"``
        instead minimises the analytical run-time model (Eq. 4/5) over
        ``alpha_grid``; it is the more aggressive choice and assumes the
        growth persists for the whole remaining run.
    fallback_alpha:
        Value used when the runtime estimates cannot support a model-based
        choice (e.g. before the first LB cost measurement).  0.4 matches the
        constant the paper uses in its experiments.
    alpha_grid:
        Candidate values evaluated at each LB step by the ``"model"``
        strategy; a coarse grid keeps the per-step cost negligible (the model
        evaluation is closed-form).
    horizon:
        Upper bound, in iterations, on the planning horizon of the
        ``"model"`` strategy (clamped to the remaining iterations when the
        runtime provides them).  The default of 100 matches the paper's
        ``gamma``.
    max_alpha:
        Hard cap on any selected ``alpha``.
    interval_factor:
        Number of Menon intervals the ``"interval"`` strategy aims to bridge
        with one underloading step (2 by default: the overloading PEs should
        catch back up to the average after roughly two natural LB intervals,
        i.e. one LB invocation is skipped).
    detector:
        Overload detector (z-score >= 3 by default, as in the paper).
    majority_guard:
        Fraction of PEs above which underloading is disabled for the step.
    """

    name = "ulba-dynamic-alpha"

    def __init__(
        self,
        *,
        strategy: str = "interval",
        fallback_alpha: float = 0.4,
        alpha_grid: Optional[Sequence[float]] = None,
        horizon: int = 100,
        max_alpha: float = 0.9,
        interval_factor: float = 2.0,
        detector: Optional[OverloadDetector] = None,
        majority_guard: float = 0.5,
    ) -> None:
        if strategy not in ("interval", "model"):
            raise ValueError(
                f"strategy must be 'interval' or 'model', got {strategy!r}"
            )
        check_fraction(fallback_alpha, "fallback_alpha")
        check_fraction(max_alpha, "max_alpha")
        check_fraction(majority_guard, "majority_guard")
        check_positive_int(horizon, "horizon")
        check_positive(interval_factor, "interval_factor")
        if alpha_grid is None:
            grid = np.linspace(0.0, 0.9, 10)
        else:
            grid = np.asarray(list(alpha_grid), dtype=float)
            if grid.size == 0:
                raise ValueError("alpha_grid must not be empty")
            if np.any((grid < 0.0) | (grid > 1.0)):
                raise ValueError("alpha_grid values must lie within [0, 1]")
        self.strategy = strategy
        self.fallback_alpha = fallback_alpha
        self.alpha_grid: Tuple[float, ...] = tuple(float(a) for a in grid)
        self.horizon = horizon
        self.max_alpha = max_alpha
        self.interval_factor = interval_factor
        self.detector = detector or OverloadDetector()
        self.majority_guard = majority_guard
        #: History of runtime alpha selections (one entry per LB step where
        #: at least one PE was overloading).
        self.choices: List[AlphaChoice] = []

    # ------------------------------------------------------------------
    # Runtime -> analytical-model estimation.
    # ------------------------------------------------------------------
    def _estimate_model(
        self, context: LBContext, flags: np.ndarray
    ) -> Optional[ApplicationParameters]:
        """Condense the runtime state into an analytical instance.

        ``flags`` marks the overloading PEs; rank 0's view splits into their
        rates and everyone else's.  Returns ``None`` when the estimates are
        degenerate (no imbalance rate, no workload, or no LB cost
        measurement yet).
        """
        num_pes = context.num_pes
        num_over = int(np.count_nonzero(flags))
        if num_over == 0 or num_over >= num_pes:
            return None
        total_workload = context.total_workload
        if total_workload <= 0.0 or context.average_lb_cost <= 0.0:
            return None

        rows = context.wir_views
        rates = rows.known_values(0)
        over = flags[rows.known_sources(0)]
        over_rates, other_rates = rates[over], rates[~over]
        if not over_rates.size or not other_rates.size:
            return None

        # Per-PE uniform rate `a` and extra rate `m` of the overloading PEs
        # (clamped at zero: a transient negative estimate must not produce an
        # invalid analytical instance).
        a = max(0.0, float(np.mean(other_rates)))
        m = float(np.mean(over_rates)) - a
        if m <= 0.0:
            return None

        # Plan only over the remaining run, if the runtime told us how long
        # that is: assuming the growth persists further than the application
        # actually runs systematically overestimates the value of aggressive
        # underloading.
        horizon = self.horizon
        remaining = context.remaining_iterations
        if remaining is not None:
            horizon = max(1, min(horizon, remaining))

        return ApplicationParameters(
            num_pes=num_pes,
            num_overloading=num_over,
            iterations=horizon,
            initial_workload=total_workload,
            uniform_rate=a,
            overload_rate=m,
            alpha=self.fallback_alpha,
            pe_speed=context.pe_speed,
            lb_cost=context.average_lb_cost,
        )

    def _interval_matched_alpha(self, model: ApplicationParameters, context: LBContext) -> float:
        """``alpha`` whose catch-up length matches one natural LB interval.

        Underloading is only useful while the overloading PEs are climbing
        back to the average (Eq. 8); removing more work than the predicted
        growth can refill within one Menon interval just creates imbalance in
        the opposite direction if the growth stops (the principle of
        persistence only holds over short horizons).  Solving
        ``sigma_minus(alpha) = tau`` for ``alpha`` gives

        ``alpha = tau * m * P / (Wtot * (1 + N / (P - N)))``.
        """
        tau = menon_tau(model)
        if math.isinf(tau):
            return self.fallback_alpha
        remaining = context.remaining_iterations
        target = self.interval_factor * tau
        if remaining is not None:
            target = min(target, max(1.0, float(remaining)))
        factor = 1.0 + model.N / (model.P - model.N)
        alpha = target * model.m * model.P / (model.W0 * factor)
        return float(min(self.max_alpha, max(0.0, alpha)))

    def _choose_alpha(self, context: LBContext, flags: np.ndarray) -> AlphaChoice:
        """Pick the ``alpha`` for this LB step according to the strategy."""
        model = self._estimate_model(context, flags)
        num_over = int(np.count_nonzero(flags))
        if model is None:
            choice = AlphaChoice(
                iteration=context.iteration,
                alpha=self.fallback_alpha,
                num_overloading=num_over,
                model=None,
                used_fallback=True,
            )
        elif self.strategy == "model":
            best_alpha, _evaluation = best_alpha_for_instance(model, self.alpha_grid)
            choice = AlphaChoice(
                iteration=context.iteration,
                alpha=float(min(self.max_alpha, best_alpha)),
                num_overloading=num_over,
                model=model,
                used_fallback=False,
            )
        else:  # "interval"
            choice = AlphaChoice(
                iteration=context.iteration,
                alpha=self._interval_matched_alpha(model, context),
                num_overloading=num_over,
                model=model,
                used_fallback=False,
            )
        self.choices.append(choice)
        return choice

    # ------------------------------------------------------------------
    # WorkloadPolicy interface.
    # ------------------------------------------------------------------
    def decide(self, context: LBContext) -> LBDecision:
        """Detect the overloading PEs and underload them by a derived ``alpha``."""
        num_pes = context.num_pes
        flags = self.detector.overloading_mask(context.wir_views)
        overloading: List[int] = np.flatnonzero(flags).tolist()

        downgraded = False
        if overloading and len(overloading) >= self.majority_guard * num_pes:
            downgraded = True

        if not overloading or downgraded:
            share = 1.0 / num_pes
            return LBDecision(
                target_shares=tuple(share for _ in range(num_pes)),
                alphas=tuple(0.0 for _ in range(num_pes)),
                overloading_ranks=tuple(overloading),
                downgraded_to_standard=downgraded,
                policy=self.name,
            )

        choice = self._choose_alpha(context, flags)
        requested = np.zeros(num_pes, dtype=float)
        requested[list(overloading)] = choice.alpha
        if choice.alpha == 0.0:
            # The model judged underloading unprofitable at this step: behave
            # exactly like the standard method but keep the diagnostics.
            share = 1.0 / num_pes
            return LBDecision(
                target_shares=tuple(share for _ in range(num_pes)),
                alphas=tuple(0.0 for _ in range(num_pes)),
                overloading_ranks=tuple(overloading),
                downgraded_to_standard=False,
                policy=self.name,
            )

        shares = target_shares_from_alphas(requested)
        return LBDecision(
            target_shares=tuple(float(s) for s in shares),
            alphas=tuple(float(a) for a in requested),
            overloading_ranks=tuple(overloading),
            downgraded_to_standard=False,
            policy=self.name,
        )

    # ------------------------------------------------------------------
    @property
    def last_alpha(self) -> Optional[float]:
        """The most recently selected ``alpha`` (None before any selection)."""
        return self.choices[-1].alpha if self.choices else None

    def alpha_history(self) -> List[Tuple[int, float]]:
        """``(iteration, alpha)`` pairs of every runtime selection."""
        return [(c.iteration, c.alpha) for c in self.choices]
