"""Ablation studies of the reproduction's design choices.

The paper fixes several design decisions without evaluating them in
isolation: the Zhai-style degradation trigger, the z-score-3 overload rule,
gossip dissemination of the WIR database, and a constant ``alpha``.  The
DESIGN.md inventory calls these out as the knobs most likely to change the
outcome, and this module provides one ablation driver per knob so their
effect can be quantified on the same erosion workload used by Figure 4:

* :func:`run_trigger_ablation` -- never / periodic / Menon-interval / Zhai
  degradation triggers under the standard (even) workload policy;
* :func:`run_dissemination_ablation` -- gossip (stale views, as in the
  paper) vs. instant (allgather-like) WIR dissemination under ULBA;
* :func:`run_threshold_ablation` -- sensitivity of ULBA to the z-score
  overload threshold;
* :func:`run_lb_cost_sensitivity` -- ULBA gain over the standard method as a
  function of the LB (migration) cost, documenting the cost regime the
  Figure 4 reproduction operates in;
* :func:`run_alpha_policy_comparison` -- standard vs. fixed-``alpha`` ULBA
  vs. the runtime-adaptive ``alpha`` extension
  (:class:`repro.lb.dynamic_alpha.DynamicAlphaULBAPolicy`).

Every driver evaluates its variants on one shared
:class:`repro.scenarios.erosion.ErosionScenario` (re-exported here for
backwards compatibility), returns a result object exposing ``rows()`` and
``format_report()`` like the figure drivers, and is exercised by
``benchmarks/test_bench_ablations.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.common import format_percentage, format_table
from repro.lb.base import TriggerPolicy
from repro.lb.registry import make_policy, make_policy_pair, make_trigger
from repro.runtime.skeleton import RunResult
from repro.scenarios.erosion import ErosionScenario
from repro.utils.stats import relative_gain
from repro.utils.validation import check_positive, check_positive_int

__all__ = [
    "AblationCase",
    "AblationResult",
    "ErosionScenario",
    "run_alpha_policy_comparison",
    "run_dissemination_ablation",
    "run_lb_cost_sensitivity",
    "run_threshold_ablation",
    "run_trigger_ablation",
]


@dataclass(frozen=True)
class AblationCase:
    """One variant of an ablation study."""

    label: str
    run: RunResult
    #: Optional extra columns for the report table.
    extra: Dict[str, object] = field(default_factory=dict)

    def as_row(self, baseline_time: Optional[float] = None) -> Dict[str, object]:
        """One report-table row; adds a gain column when a baseline is given."""
        row: Dict[str, object] = {
            "variant": self.label,
            "time [s]": round(self.run.total_time, 5),
            "LB calls": self.run.num_lb_calls,
            "mean utilization": format_percentage(self.run.mean_utilization),
        }
        if baseline_time is not None:
            row["gain vs baseline"] = format_percentage(
                relative_gain(baseline_time, self.run.total_time)
            )
        row.update(self.extra)
        return row


@dataclass(frozen=True)
class AblationResult:
    """Outcome of one ablation study."""

    title: str
    cases: Tuple[AblationCase, ...]
    #: Label of the case used as the gain baseline (None = no gain column).
    baseline_label: Optional[str] = None

    # ------------------------------------------------------------------
    def case(self, label: str) -> AblationCase:
        """Look up one variant by its label."""
        for c in self.cases:
            if c.label == label:
                return c
        raise KeyError(f"no ablation case labelled {label!r}")

    @property
    def baseline(self) -> Optional[AblationCase]:
        if self.baseline_label is None:
            return None
        return self.case(self.baseline_label)

    def gain_of(self, label: str) -> float:
        """Relative gain of ``label`` over the baseline case."""
        if self.baseline is None:
            raise ValueError("this ablation has no baseline case")
        return relative_gain(self.baseline.run.total_time, self.case(label).run.total_time)

    def best_case(self) -> AblationCase:
        """The variant with the smallest total time."""
        return min(self.cases, key=lambda c: c.run.total_time)

    def rows(self) -> List[Dict[str, object]]:
        """Report-table rows of every variant, with normalised columns."""
        baseline_time = self.baseline.run.total_time if self.baseline else None
        raw = [c.as_row(baseline_time) for c in self.cases]
        # Cases may carry different extra columns; normalise so every row has
        # the same keys (required by the table formatter).
        columns: List[str] = []
        for row in raw:
            for key in row:
                if key not in columns:
                    columns.append(key)
        return [{key: row.get(key, "") for key in columns} for row in raw]

    def format_report(self) -> str:
        """Human-readable text table of the ablation (printed by CLI/benchmarks)."""
        return format_table(self.rows(), title=self.title)


# ----------------------------------------------------------------------
# Individual ablation drivers.
# ----------------------------------------------------------------------
def run_trigger_ablation(
    scenario: ErosionScenario | None = None, *, periodic_period: int = 10
) -> AblationResult:
    """Compare LB trigger policies under the standard (even) workload policy.

    Quantifies why the paper (and this reproduction) uses the Zhai-style
    degradation trigger: static partitioning pays the full imbalance cost,
    eager periodic balancing pays the LB cost too often, Menon's closed-form
    interval needs accurate rate estimates, and the degradation trigger
    adapts with none of those inputs.
    """
    s = scenario or ErosionScenario()
    check_positive_int(periodic_period, "periodic_period")
    variants: List[Tuple[str, TriggerPolicy]] = [
        ("never (static partitioning)", make_trigger("never")),
        (
            f"periodic (every {periodic_period})",
            make_trigger("periodic", period=periodic_period),
        ),
        ("menon interval", make_trigger("menon-interval")),
        ("degradation (Zhai)", make_trigger("degradation")),
    ]
    cases = [
        AblationCase(label=label, run=s.run(make_policy("standard"), trigger))
        for label, trigger in variants
    ]
    return AblationResult(
        title="Ablation -- LB trigger policy (standard workload policy)",
        cases=tuple(cases),
        baseline_label="never (static partitioning)",
    )


def run_dissemination_ablation(
    scenario: ErosionScenario | None = None, *, alpha: float = 0.4
) -> AblationResult:
    """Gossip (stale WIR views) vs. instant dissemination under ULBA.

    The paper argues one gossip step per iteration is enough because of the
    principle of persistence; this ablation measures the cost of that
    staleness against an idealised allgather-based WIR database.
    """
    s = scenario or ErosionScenario()
    cases = [
        AblationCase(
            label="gossip (1 step/iteration)",
            run=s.run(*make_policy_pair("ulba", alpha=alpha), use_gossip=True),
        ),
        AblationCase(
            label="instant (allgather)",
            run=s.run(*make_policy_pair("ulba", alpha=alpha), use_gossip=False),
        ),
    ]
    return AblationResult(
        title="Ablation -- WIR dissemination (ULBA, alpha=0.4)",
        cases=tuple(cases),
        baseline_label="gossip (1 step/iteration)",
    )


def run_threshold_ablation(
    scenario: ErosionScenario | None = None,
    *,
    thresholds: Sequence[float] = (2.0, 2.5, 3.0, 3.5),
    alpha: float = 0.4,
) -> AblationResult:
    """Sensitivity of ULBA to the z-score overload threshold.

    The paper uses 3.0; lower thresholds flag more PEs (more anticipation,
    more overhead), higher thresholds may miss genuine overloaders.
    """
    s = scenario or ErosionScenario()
    if not thresholds:
        raise ValueError("thresholds must not be empty")
    cases = []
    for threshold in thresholds:
        # The registry's threshold parameter shares one detector between the
        # policy and its trigger, as this ablation always has.
        run = s.run(*make_policy_pair("ulba", alpha=alpha, threshold=float(threshold)))
        label = f"z-score >= {threshold:.1f}"
        extra = {"paper value": "*" if abs(threshold - 3.0) < 1e-9 else ""}
        cases.append(AblationCase(label=label, run=run, extra=extra))
    return AblationResult(
        title="Ablation -- overload-detection threshold (ULBA, alpha=0.4)",
        cases=tuple(cases),
        baseline_label=f"z-score >= {3.0:.1f}" if 3.0 in thresholds else None,
    )


def run_lb_cost_sensitivity(
    scenario: ErosionScenario | None = None,
    *,
    bytes_per_load_unit: Sequence[float] = (300.0, 1200.0, 4800.0),
    alpha: float = 0.4,
) -> List[AblationResult]:
    """ULBA gain over the standard method as a function of the LB cost.

    One :class:`AblationResult` per migration-cost setting, each containing a
    standard and a ULBA case.  The more expensive the LB step, the more
    valuable anticipating the imbalance becomes -- the main fidelity lever
    of the Figure 4 reproduction (``docs/paper-map.md`` maps Fig. 4 to its
    driver).
    """
    s = scenario or ErosionScenario()
    if not bytes_per_load_unit:
        raise ValueError("bytes_per_load_unit must not be empty")
    results = []
    for volume in bytes_per_load_unit:
        check_positive(volume, "bytes_per_load_unit")
        standard = s.run(*make_policy_pair("standard"), bytes_per_load_unit=volume)
        ulba = s.run(
            *make_policy_pair("ulba", alpha=alpha), bytes_per_load_unit=volume
        )
        results.append(
            AblationResult(
                title=f"LB-cost sensitivity -- {volume:.0f} bytes per unit of cell load",
                cases=(
                    AblationCase(label="standard", run=standard),
                    AblationCase(label="ulba (alpha=0.4)", run=ulba),
                ),
                baseline_label="standard",
            )
        )
    return results


def run_alpha_policy_comparison(
    scenario: ErosionScenario | None = None, *, fixed_alpha: float = 0.4
) -> AblationResult:
    """Standard vs. fixed-``alpha`` ULBA vs. runtime-adaptive ``alpha``.

    Evaluates the library's implementation of the paper's future-work item
    (dynamic adjustment of ``alpha``) against the constant the paper used.
    """
    s = scenario or ErosionScenario()
    dynamic_policy, dynamic_trigger = make_policy_pair("ulba-dynamic", alpha=fixed_alpha)
    cases = [
        AblationCase(
            label="standard",
            run=s.run(*make_policy_pair("standard")),
        ),
        AblationCase(
            label=f"ulba (alpha={fixed_alpha})",
            run=s.run(*make_policy_pair("ulba", alpha=fixed_alpha)),
        ),
        AblationCase(
            label="ulba (dynamic alpha)",
            run=s.run(dynamic_policy, dynamic_trigger),
            extra={
                "alphas chosen": ", ".join(
                    f"{alpha:.2f}" for _, alpha in dynamic_policy.alpha_history()
                )
                or "-"
            },
        ),
    ]
    return AblationResult(
        title="Ablation -- workload policy (fixed vs. runtime-adaptive alpha)",
        cases=tuple(cases),
        baseline_label="standard",
    )
