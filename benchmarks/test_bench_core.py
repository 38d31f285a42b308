"""Micro-benchmarks of the vectorized simulation core (PR 2 tentpole).

Runner-iteration throughput at 16 / 64 / 256 PEs with gossip enabled, plus
the speedup assertion against the frozen pre-vectorization core preserved in
:mod:`repro.runtime.reference`.  The speedup test fails loudly when the
array-based core regresses towards object-loop speeds.

Smoke mode (``REPRO_BENCH_SMOKE=1``, used by CI) shortens the runs and
relaxes the speedup threshold so shared runners do not flake; the full local
run asserts the >= 5x acceptance bar of the PR at 64 PEs / 512 columns.
"""

from __future__ import annotations

import os
from functools import partial

import pytest

from _artifacts import alternating_best_of, record_bench

from repro.runtime.reference import (
    ReferenceIterativeRunner,
    ReferenceVirtualCluster,
)
from repro.runtime.skeleton import IterativeRunner, initial_lb_cost_prior
from repro.runtime.synthetic import SyntheticGrowthApplication
from repro.simcluster.cluster import VirtualCluster

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))

#: Acceptance bar of the PR (full mode) vs. noise-tolerant CI bar (smoke).
SPEEDUP_THRESHOLD = 2.0 if SMOKE else 5.0
SPEEDUP_ITERATIONS = 60 if SMOKE else 300
THROUGHPUT_ITERATIONS = 30 if SMOKE else 120


def make_setup(num_pes, columns_per_pe=8):
    num_columns = num_pes * columns_per_pe
    app = SyntheticGrowthApplication(
        num_columns,
        hot_regions=[(0, num_columns // 16)],
        hot_growth=5.0,
    )
    cluster = VirtualCluster(num_pes)
    prior = initial_lb_cost_prior(
        app.total_load() * app.flop_per_load_unit, num_pes, cluster.pe_speed
    )
    return app, cluster, prior


@pytest.mark.parametrize("num_pes", [16, 64, 256])
def test_bench_runner_iterations(benchmark, num_pes):
    """Iteration throughput of the vectorized runner, gossip on."""

    def run():
        app, cluster, prior = make_setup(num_pes)
        runner = IterativeRunner(
            cluster,
            app,
            use_gossip=True,
            initial_lb_cost_estimate=prior,
            seed=123,
        )
        return runner.run(THROUGHPUT_ITERATIONS)

    result = benchmark.pedantic(run, rounds=1 if SMOKE else 3, iterations=1)
    assert result.trace.num_iterations == THROUGHPUT_ITERATIONS
    benchmark.extra_info["num_pes"] = num_pes
    benchmark.extra_info["iterations"] = THROUGHPUT_ITERATIONS
    record_bench(
        "core",
        f"runner-iterations-p{num_pes}",
        {"num_pes": num_pes, "iterations": THROUGHPUT_ITERATIONS, "smoke": SMOKE},
        benchmark.stats.stats.min,
        THROUGHPUT_ITERATIONS / benchmark.stats.stats.min,
    )


def test_vectorized_core_speedup_vs_reference():
    """The acceptance criterion: >= 5x at 64 PEs / 512 columns, gossip on.

    Both cores run the identical seeded workload; the reference is the
    frozen pre-vectorization implementation.  Timing uses best-of-N wall
    clock over alternating rounds, which is robust against transient
    machine load.
    """

    def new_runner():
        app, cluster, prior = make_setup(64)
        return IterativeRunner(
            cluster,
            app,
            use_gossip=True,
            initial_lb_cost_estimate=prior,
            seed=123,
        )

    def ref_runner():
        app, _, prior = make_setup(64)
        cluster = ReferenceVirtualCluster(64)
        return ReferenceIterativeRunner(
            cluster,
            app,
            use_gossip=True,
            initial_lb_cost_estimate=prior,
            seed=123,
        )

    reps = 2 if SMOKE else 4
    (new_time, new_result), (ref_time, ref_result) = alternating_best_of(
        lambda: partial(new_runner().run, SPEEDUP_ITERATIONS),
        lambda: partial(ref_runner().run, SPEEDUP_ITERATIONS),
        reps,
    )

    # Same workload, same trigger schedule (seeded, gossip-independent here).
    assert new_result.num_lb_calls == ref_result.num_lb_calls

    speedup = ref_time / new_time
    print(
        f"\nvectorized core: {new_time / SPEEDUP_ITERATIONS * 1e3:.3f} ms/iter, "
        f"reference core: {ref_time / SPEEDUP_ITERATIONS * 1e3:.3f} ms/iter, "
        f"speedup {speedup:.1f}x (threshold {SPEEDUP_THRESHOLD}x)"
    )
    record_bench(
        "core",
        "vectorized-vs-reference-p64",
        {
            "num_pes": 64,
            "iterations": SPEEDUP_ITERATIONS,
            "smoke": SMOKE,
            "speedup": speedup,
        },
        new_time,
        SPEEDUP_ITERATIONS / new_time,
    )
    assert speedup >= SPEEDUP_THRESHOLD, (
        f"vectorized core is only {speedup:.1f}x faster than the reference "
        f"(threshold {SPEEDUP_THRESHOLD}x)"
    )
