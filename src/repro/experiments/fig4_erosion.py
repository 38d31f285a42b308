"""Figure 4 -- the erosion application: standard adaptive LB vs. ULBA.

Paper setup (Section IV-B): a fluid domain of ``(P * 1000) x 1000`` cells
with ``P`` rock discs (radius 250), one per PE, of which 1-3 are strongly
erodible (erosion probability 0.4 vs. 0.02); the application is decomposed
into vertical stripes by a centralized LB technique, the standard method
uses the adaptive trigger of Zhai et al., ULBA runs with ``alpha = 0.4``,
``P`` scales from 32 to 256 and the median of five runs is reported.
Figure 4a compares the running times, Figure 4b the per-iteration average PE
utilization of the 32-PE / 1-strong-rock case.

Paper claims reproduced here (on the virtual cluster, with a scaled-down
domain so the reproduction runs on a laptop):

* ULBA is faster than (or ties with) the standard method on every
  configuration, by up to ~16 %;
* the ULBA advantage shrinks as the number of strongly erodible rocks (the
  overloading fraction) grows;
* ULBA performs fewer LB calls (62.5 % fewer on the paper's 32-PE / 1-rock
  case) and sustains a higher average PE utilization.

Scaling note: the domain is shrunk from one million cells per PE to
``columns_per_pe x rows`` (default 96 x 96) and the run from ~400 to 80
iterations; the rock radius stays at a quarter of the domain height, the
erosion probabilities, the refinement factor, the LB machinery and the
adaptive triggers are unchanged.  The interconnect parameters (latency,
bandwidth, bytes migrated per unit of cell workload) are chosen so the cost
of one LB step sits in the same "a few iterations" regime as the paper's
centralized technique, which is what makes anticipating the imbalance
profitable; :func:`repro.experiments.ablations.run_lb_cost_sensitivity`
measures how the result depends on the migration cost.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.experiments.common import ExperimentSeeds, format_percentage, format_table
from repro.lb.registry import make_policy_pair
from repro.runtime.report import PolicyComparison
from repro.runtime.skeleton import RunResult
from repro.scenarios.erosion import (
    DEFAULT_BANDWIDTH,
    DEFAULT_BYTES_PER_LOAD_UNIT,
    DEFAULT_LATENCY,
    ErosionScenario,
)
from repro.utils.stats import relative_gain
from repro.utils.validation import check_fraction, check_positive, check_positive_int

__all__ = [
    "DEFAULT_BANDWIDTH",
    "DEFAULT_BYTES_PER_LOAD_UNIT",
    "DEFAULT_LATENCY",
    "Fig4Config",
    "Fig4Case",
    "Fig4Result",
    "run_erosion_case",
    "run_fig4",
    "main",
]


@dataclass(frozen=True)
class Fig4Config:
    """Knobs of the Figure 4 reproduction.

    The paper's scale (32-256 PEs, one million cells per PE, 5 repetitions)
    is far beyond what a pure-Python reproduction should attempt; the
    defaults below keep the *structure* (one rock disc per PE, disc radius =
    rows / 4, same erosion probabilities, same LB machinery) at a size that
    runs in seconds while preserving the imbalance dynamics.
    """

    #: PE counts to sweep (paper: 32, 64, 128, 256).
    pe_counts: Tuple[int, ...] = (16, 32, 64)
    #: Numbers of strongly erodible rocks (paper: 1, 2, 3).
    strong_rock_counts: Tuple[int, ...] = (1, 2, 3)
    #: Application iterations (paper: ~400 until erosion completes).
    iterations: int = 80
    #: ULBA underloading fraction (paper: 0.4).
    alpha: float = 0.4
    #: Domain columns per PE (paper: 1000).
    columns_per_pe: int = 96
    #: Domain rows (paper: 1000).
    rows: int = 96
    #: Repetitions per configuration; the reported time is the median
    #: (paper: median of five runs).
    repetitions: int = 1
    #: Interconnect latency in seconds.
    latency: float = DEFAULT_LATENCY
    #: Interconnect bandwidth in bytes per second.
    bandwidth: float = DEFAULT_BANDWIDTH
    #: Migration bytes charged per unit of cell workload.
    bytes_per_load_unit: float = DEFAULT_BYTES_PER_LOAD_UNIT
    #: Configuration traced for Figure 4b (pe_count, strong rocks).
    usage_case: Tuple[int, int] = (32, 1)
    #: Master seed.
    seed: Optional[int] = 0

    def __post_init__(self) -> None:
        if not self.pe_counts:
            raise ValueError("pe_counts must not be empty")
        for p in self.pe_counts:
            check_positive_int(p, "pe_count")
        if not self.strong_rock_counts:
            raise ValueError("strong_rock_counts must not be empty")
        check_positive_int(self.iterations, "iterations")
        check_fraction(self.alpha, "alpha")
        check_positive_int(self.columns_per_pe, "columns_per_pe")
        check_positive_int(self.rows, "rows")
        check_positive_int(self.repetitions, "repetitions")
        check_positive(self.bandwidth, "bandwidth")
        if self.latency < 0:
            raise ValueError(f"latency must be >= 0, got {self.latency}")
        if self.bytes_per_load_unit < 0:
            raise ValueError(
                f"bytes_per_load_unit must be >= 0, got {self.bytes_per_load_unit}"
            )


@dataclass(frozen=True)
class Fig4Case:
    """One (PE count, strong-rock count) configuration of Figure 4a.

    ``standard`` / ``ulba`` hold the run whose total time is the median over
    the configured repetitions (the run the paper would report);
    ``standard_times`` / ``ulba_times`` hold every repetition's total time.
    """

    num_pes: int
    num_strong_rocks: int
    standard: RunResult
    ulba: RunResult
    standard_times: Tuple[float, ...]
    ulba_times: Tuple[float, ...]

    # ------------------------------------------------------------------
    @property
    def standard_median_time(self) -> float:
        """Median total time of the standard method over the repetitions."""
        return float(np.median(self.standard_times))

    @property
    def ulba_median_time(self) -> float:
        """Median total time of ULBA over the repetitions."""
        return float(np.median(self.ulba_times))

    @property
    def comparison(self) -> PolicyComparison:
        """Comparison of the two representative (median-time) runs."""
        return PolicyComparison(baseline=self.standard, candidate=self.ulba)

    @property
    def gain(self) -> float:
        """Relative gain of ULBA on the median times (positive = faster)."""
        return relative_gain(self.standard_median_time, self.ulba_median_time)

    def as_row(self) -> Dict[str, object]:
        """One table row of the Figure 4a comparison."""
        comp = self.comparison
        return {
            "PEs": self.num_pes,
            "strong rocks": self.num_strong_rocks,
            "standard time [s]": round(self.standard_median_time, 4),
            "ULBA time [s]": round(self.ulba_median_time, 4),
            "gain": format_percentage(self.gain),
            "standard LB calls": self.standard.num_lb_calls,
            "ULBA LB calls": self.ulba.num_lb_calls,
            "LB call reduction": format_percentage(comp.lb_call_reduction),
            "utilization gain": format_percentage(comp.utilization_gain),
        }


@dataclass(frozen=True)
class Fig4Result:
    """Outcome of the Figure 4 experiment."""

    cases: Tuple[Fig4Case, ...]
    #: The case whose utilization series reproduces Figure 4b (None when the
    #: requested usage case is not part of the sweep and the sweep is empty).
    usage_case: Optional[Fig4Case]
    config: Fig4Config

    # ------------------------------------------------------------------
    def case(self, num_pes: int, num_strong_rocks: int) -> Fig4Case:
        """Look up one configuration of the sweep."""
        for c in self.cases:
            if c.num_pes == num_pes and c.num_strong_rocks == num_strong_rocks:
                return c
        raise KeyError(
            f"no case with {num_pes} PEs and {num_strong_rocks} strong rocks"
        )

    @property
    def max_gain(self) -> float:
        """Largest ULBA gain across the sweep (paper: up to ~16 %)."""
        return max(c.gain for c in self.cases)

    @property
    def ulba_never_slower(self) -> bool:
        """True when ULBA never lost by more than a small tolerance."""
        return all(c.gain >= -0.02 for c in self.cases)

    def rows(self) -> List[Dict[str, object]]:
        """All Figure 4a table rows."""
        return [c.as_row() for c in self.cases]

    def usage_rows(self) -> List[Dict[str, object]]:
        """Figure 4b series: per-iteration utilization for both methods."""
        if self.usage_case is None:
            return []
        std = self.usage_case.standard.utilization_series()
        ulba = self.usage_case.ulba.utilization_series()
        rows = []
        for i in range(max(len(std), len(ulba))):
            rows.append(
                {
                    "iteration": i,
                    "standard utilization": round(float(std[i]), 4) if i < len(std) else "",
                    "ULBA utilization": round(float(ulba[i]), 4) if i < len(ulba) else "",
                }
            )
        return rows

    def format_report(self, *, include_usage: bool = False) -> str:
        """Human-readable report printed by ``main()`` and the benchmark."""
        report = format_table(
            self.rows(),
            title="Figure 4a -- erosion application: standard adaptive LB vs. ULBA",
        )
        if include_usage and self.usage_case is not None:
            report += "\n\n" + format_table(
                self.usage_rows(),
                title=(
                    "Figure 4b -- average PE utilization per iteration "
                    f"({self.usage_case.num_pes} PEs, "
                    f"{self.usage_case.num_strong_rocks} strong rock(s))"
                ),
            )
        return report


# ----------------------------------------------------------------------
# Single-case runner (shared with Figure 5).
# ----------------------------------------------------------------------
def run_erosion_case(
    *,
    num_pes: int,
    num_strong_rocks: int,
    iterations: int,
    policy: str,
    alpha: float = 0.4,
    columns_per_pe: int = 96,
    rows: int = 96,
    seed: Optional[int] = 0,
    pe_speed: float = 1.0e9,
    latency: float = DEFAULT_LATENCY,
    bandwidth: float = DEFAULT_BANDWIDTH,
    bytes_per_load_unit: float = DEFAULT_BYTES_PER_LOAD_UNIT,
    use_gossip: bool = True,
) -> RunResult:
    """Run the erosion application once under one LB policy.

    Parameters
    ----------
    policy:
        ``"standard"`` (even split + Zhai degradation trigger) or ``"ulba"``
        (underloading policy + ULBA-aware degradation trigger).
    alpha:
        ULBA underloading fraction (ignored for the standard policy).
    seed:
        Controls rock selection, erosion randomness and gossip peer choice.
        The same seed produces the same erosion dynamics for both policies,
        which is how the paper compares them on the same problem.
    latency, bandwidth, bytes_per_load_unit:
        Interconnect model used to charge collective and migration costs.

    Returns
    -------
    RunResult
        Trace, LB reports and summary statistics of the run.
    """
    if policy not in ("standard", "ulba"):
        raise ValueError(f"policy must be 'standard' or 'ulba', got {policy!r}")
    scenario = ErosionScenario(
        num_pes=num_pes,
        num_strong_rocks=num_strong_rocks,
        iterations=iterations,
        columns_per_pe=columns_per_pe,
        rows=rows,
        latency=latency,
        bandwidth=bandwidth,
        bytes_per_load_unit=bytes_per_load_unit,
        pe_speed=pe_speed,
        seed=seed,
    )
    params = {"alpha": alpha} if policy == "ulba" else {}
    return scenario.run(*make_policy_pair(policy, **params), use_gossip=use_gossip)


def _median_run(runs: Sequence[RunResult]) -> RunResult:
    """The run whose total time is closest to the median of the batch."""
    times = np.asarray([r.total_time for r in runs])
    median = float(np.median(times))
    return runs[int(np.argmin(np.abs(times - median)))]


def run_fig4(config: Fig4Config | None = None) -> Fig4Result:
    """Run the full Figure 4 sweep (both panels)."""
    cfg = config or Fig4Config()
    seeds = ExperimentSeeds(cfg.seed)

    cases: List[Fig4Case] = []
    for pe_index, num_pes in enumerate(cfg.pe_counts):
        for rock_index, num_strong in enumerate(cfg.strong_rock_counts):
            if num_strong > num_pes:
                continue
            standard_runs: List[RunResult] = []
            ulba_runs: List[RunResult] = []
            for repetition in range(cfg.repetitions):
                case_seed = int(
                    seeds.rng_for(pe_index, rock_index, repetition).integers(0, 2**31 - 1)
                )
                common = dict(
                    num_pes=num_pes,
                    num_strong_rocks=num_strong,
                    iterations=cfg.iterations,
                    columns_per_pe=cfg.columns_per_pe,
                    rows=cfg.rows,
                    seed=case_seed,
                    latency=cfg.latency,
                    bandwidth=cfg.bandwidth,
                    bytes_per_load_unit=cfg.bytes_per_load_unit,
                )
                standard_runs.append(run_erosion_case(policy="standard", **common))
                ulba_runs.append(
                    run_erosion_case(policy="ulba", alpha=cfg.alpha, **common)
                )
            cases.append(
                Fig4Case(
                    num_pes=num_pes,
                    num_strong_rocks=num_strong,
                    standard=_median_run(standard_runs),
                    ulba=_median_run(ulba_runs),
                    standard_times=tuple(r.total_time for r in standard_runs),
                    ulba_times=tuple(r.total_time for r in ulba_runs),
                )
            )

    usage_case: Optional[Fig4Case] = None
    wanted_pes, wanted_rocks = cfg.usage_case
    for case in cases:
        if case.num_pes == wanted_pes and case.num_strong_rocks == wanted_rocks:
            usage_case = case
            break
    if usage_case is None and cases:
        # Fall back to the largest PE count with the fewest strong rocks,
        # which is the closest analogue of the paper's 32-PE / 1-rock panel.
        usage_case = max(cases, key=lambda c: (c.num_pes, -c.num_strong_rocks))

    return Fig4Result(cases=tuple(cases), usage_case=usage_case, config=cfg)


def main(argv: Optional[Sequence[str]] = None) -> Fig4Result:
    """Command-line entry point: ``python -m repro.experiments.fig4_erosion``."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--pes", type=int, nargs="+", default=list(Fig4Config.pe_counts)
    )
    parser.add_argument(
        "--strong-rocks", type=int, nargs="+", default=list(Fig4Config.strong_rock_counts)
    )
    parser.add_argument("--iterations", type=int, default=Fig4Config.iterations)
    parser.add_argument("--alpha", type=float, default=Fig4Config.alpha)
    parser.add_argument("--columns-per-pe", type=int, default=Fig4Config.columns_per_pe)
    parser.add_argument("--rows", type=int, default=Fig4Config.rows)
    parser.add_argument("--repetitions", type=int, default=Fig4Config.repetitions)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--usage", action="store_true", help="print the Figure 4b series")
    args = parser.parse_args(argv)

    result = run_fig4(
        Fig4Config(
            pe_counts=tuple(args.pes),
            strong_rock_counts=tuple(args.strong_rocks),
            iterations=args.iterations,
            alpha=args.alpha,
            columns_per_pe=args.columns_per_pe,
            rows=args.rows,
            repetitions=args.repetitions,
            seed=args.seed,
        )
    )
    print(result.format_report(include_usage=args.usage))
    return result


if __name__ == "__main__":  # pragma: no cover - manual invocation
    main()
