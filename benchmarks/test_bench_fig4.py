"""Benchmark regenerating Figure 4 (erosion application, standard vs. ULBA).

Paper series:

* **Figure 4a** -- median running time of the standard adaptive LB method
  (Zhai trigger) and of ULBA (alpha = 0.4) on the fluid-with-erosion
  application, for P in {32, 64, 128, 256} and 1-3 strongly erodible rocks;
  ULBA wins by up to ~16 % and never loses.
* **Figure 4b** -- per-iteration average PE utilization of the 32-PE /
  1-strong-rock case; ULBA shows fewer utilization drops and ~62.5 % fewer
  LB calls.

Reproduction scale: the domain is shrunk to 96 x 96 cells per PE and the run
to 80 iterations; the PE axis covers 16-64 virtual PEs.
"""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import run_once
from repro.experiments.fig4_erosion import Fig4Config, run_fig4

FIG4_CONFIG = Fig4Config(
    pe_counts=(16, 32, 64),
    strong_rock_counts=(1, 2, 3),
    iterations=80,
    alpha=0.4,
    columns_per_pe=96,
    rows=96,
    repetitions=3,
    usage_case=(32, 1),
    seed=7,
)


def test_fig4a_performance_comparison(benchmark, record_rows):
    """Regenerate the Figure 4a run-time comparison table."""
    result = run_once(benchmark, run_fig4, FIG4_CONFIG)

    record_rows(
        benchmark,
        "Figure 4a -- erosion application run times",
        result.rows(),
        report=result.format_report(),
    )

    # Paper shape: ULBA wins on the single-strong-rock cases, by a
    # double-digit margin at the larger PE counts, and ties or wins (within
    # noise) everywhere else.
    single_rock_gains = [c.gain for c in result.cases if c.num_strong_rocks == 1]
    assert max(single_rock_gains) > 0.05
    assert result.case(64, 1).gain > 0.0
    median_gain = float(np.median([c.gain for c in result.cases]))
    assert median_gain > -0.02


def test_fig4b_pe_utilization_trace(benchmark, record_rows):
    """Regenerate the Figure 4b utilization series (32 PEs, 1 strong rock)."""
    config = Fig4Config(
        pe_counts=(32,),
        strong_rock_counts=(1,),
        iterations=80,
        alpha=0.4,
        columns_per_pe=96,
        rows=96,
        repetitions=1,
        usage_case=(32, 1),
        seed=7,
    )
    result = run_once(benchmark, run_fig4, config)
    case = result.usage_case
    assert case is not None

    record_rows(
        benchmark,
        "Figure 4b -- average PE utilization per iteration",
        result.usage_rows(),
        report=result.format_report(include_usage=True),
    )

    # Paper shape: ULBA sustains a higher average utilization, suffers no
    # more deep utilization drops than the standard method, and calls the
    # load balancer at most as often.
    std_trace = case.standard.trace
    ulba_trace = case.ulba.trace
    assert ulba_trace.mean_utilization() >= std_trace.mean_utilization() - 0.01
    assert ulba_trace.utilization_drops(0.8) <= std_trace.utilization_drops(0.8)
    assert case.ulba.num_lb_calls <= case.standard.num_lb_calls
