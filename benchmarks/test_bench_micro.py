"""Micro-benchmarks of the library's hot paths.

These are conventional pytest-benchmark timings (many rounds) of the pieces
the experiment drivers call millions of times: analytical schedule
evaluation, the weighted stripe partitioner, one erosion step, one virtual
cluster compute step and one gossip dissemination round.  They exist so
performance regressions in the substrates are caught independently of the
figure-level reproductions.
"""

from __future__ import annotations

import os
from functools import partial

import numpy as np
import pytest

from _artifacts import alternating_best_of, record_bench

from repro.core.parameters import TableIISampler
from repro.core.schedule import evaluate_schedule, sigma_plus_schedule
from repro.erosion.app import ErosionApplication, ErosionConfig
from repro.obs import StageProfiler
from repro.optim.schedule_search import anneal_schedule
from repro.partitioning.stripe import StripePartitioner
from repro.runtime.skeleton import IterativeRunner, initial_lb_cost_prior
from repro.runtime.synthetic import SyntheticGrowthApplication
from repro.simcluster.cluster import VirtualCluster
from repro.simcluster.gossip import GossipBoard

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))


@pytest.fixture(scope="module")
def table2_instance():
    return TableIISampler().sample(seed=0)


def test_bench_sigma_plus_schedule_evaluation(benchmark, table2_instance):
    """Analytical cost of one sigma_plus schedule (the Fig. 3 inner loop)."""
    schedule = sigma_plus_schedule(table2_instance, alpha=0.4)

    def evaluate():
        return evaluate_schedule(table2_instance, schedule, model="ulba", alpha=0.4)

    result = benchmark(evaluate)
    assert result.total_time > 0.0


def test_bench_schedule_annealing_small(benchmark, table2_instance):
    """One short simulated-annealing search (the Fig. 2 inner loop)."""
    result = benchmark.pedantic(
        anneal_schedule,
        kwargs=dict(params=table2_instance, annealing_steps=500, seed=0),
        rounds=3,
        iterations=1,
    )
    assert result.annealed.total_time > 0.0


def test_bench_stripe_partitioner(benchmark):
    """Weighted stripe partitioning of a 16k-column domain into 64 stripes."""
    rng = np.random.default_rng(0)
    loads = rng.random(16_384) * 100.0
    partitioner = StripePartitioner(64)

    partition = benchmark(partitioner.partition, loads)
    assert partition.num_pes == 64


def test_bench_erosion_step(benchmark):
    """One probabilistic erosion + refinement step on a 128k-cell domain."""
    config = ErosionConfig(num_pes=16, columns_per_pe=96, rows=96, seed=0)
    app = ErosionApplication.from_config(config)

    benchmark(app.advance)
    assert app.total_load() > 0.0


def test_bench_erosion_column_loads(benchmark):
    """Per-column workload accounting on a 128k-cell domain."""
    config = ErosionConfig(num_pes=16, columns_per_pe=96, rows=96, seed=0)
    app = ErosionApplication.from_config(config)

    loads = benchmark(app.column_loads)
    assert loads.shape == (config.width,)


def test_bench_cluster_compute_step(benchmark):
    """One bulk-synchronous compute step on a 256-PE virtual cluster."""
    cluster = VirtualCluster(256)
    loads = np.full(256, 1.0e6)

    def step():
        return cluster.compute_step(loads)

    result = benchmark(step)
    assert result.elapsed > 0.0


def test_bench_gossip_round(benchmark):
    """One push-gossip dissemination round across 256 ranks."""
    board = GossipBoard(256, seed=0)
    for rank in range(256):
        board.publish(rank, float(rank))

    benchmark(board.step)
    assert board.steps >= 1


# --------------------------------------------------------------------------
# Observability overhead
# --------------------------------------------------------------------------

OBS_ITERATIONS = 60 if SMOKE else 300
OBS_REPS = 2 if SMOKE else 8
#: Allowed profiled-on slowdown relative to the profiled-off run.  The
#: probes are seven perf_counter_ns pairs per iteration against ms-scale
#: iterations, so the true cost is well under a percent; the bound only
#: guards against the probes growing allocations or Python-level work.
#: (The <=2% *off*-overhead acceptance bar is enforced across commits by
#: comparing the runner-iterations rows in BENCH_core.json, since the
#: pre-instrumentation loop no longer exists in-tree to time against.)
OBS_ON_OVERHEAD_LIMIT = 0.40 if SMOKE else 0.15
OBS_COVERAGE_FLOOR = 0.80 if SMOKE else 0.90


def _obs_bench_runner(profiler):
    num_pes, columns_per_pe = 64, 8
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
    return IterativeRunner(
        cluster,
        app,
        use_gossip=True,
        initial_lb_cost_estimate=prior,
        seed=123,
        profiler=profiler,
    )


def test_bench_obs_profiler_overhead():
    """Stage profiling of the P=64 gossip loop: cheap probes, >=90% coverage.

    Times the identical seeded workload with the profiler detached and
    attached (best-of-N wall clock over alternated rounds), records both
    throughputs to ``BENCH_core.json``, and asserts the attached run stays
    within :data:`OBS_ON_OVERHEAD_LIMIT` of the detached one.  The profiled
    run must also attribute at least 90% of measured loop time to named
    stages (80% in smoke mode) -- the acceptance bar for the probe layout.
    """
    (off_wall, _), (on_wall, _) = alternating_best_of(
        lambda: partial(_obs_bench_runner(None).run, OBS_ITERATIONS),
        lambda: partial(_obs_bench_runner(StageProfiler()).run, OBS_ITERATIONS),
        OBS_REPS,
    )

    profiler = StageProfiler()
    _obs_bench_runner(profiler).run(OBS_ITERATIONS)
    coverage = profiler.profile().coverage()

    overhead = on_wall / off_wall - 1.0
    print(
        f"\nobs off: {off_wall / OBS_ITERATIONS * 1e3:.3f} ms/iter, "
        f"obs on: {on_wall / OBS_ITERATIONS * 1e3:.3f} ms/iter, "
        f"overhead {overhead * 100:+.1f}%, coverage {coverage * 100:.1f}%"
    )
    for mode, wall in (("off", off_wall), ("on", on_wall)):
        record_bench(
            "core",
            f"obs-{mode}-p64",
            {
                "num_pes": 64,
                "iterations": OBS_ITERATIONS,
                "smoke": SMOKE,
                "profiled": mode == "on",
            },
            wall,
            OBS_ITERATIONS / wall,
        )
    assert coverage >= OBS_COVERAGE_FLOOR, (
        f"stage probes only cover {coverage * 100:.1f}% of the hot loop "
        f"(floor {OBS_COVERAGE_FLOOR * 100:.0f}%)"
    )
    assert overhead <= OBS_ON_OVERHEAD_LIMIT, (
        f"attached profiler slows the loop by {overhead * 100:.1f}% "
        f"(limit {OBS_ON_OVERHEAD_LIMIT * 100:.0f}%)"
    )
