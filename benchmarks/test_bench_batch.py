"""Benchmarks of the replica-batched execution engine (PR 4 tentpole).

Throughput of one :class:`repro.batch.BatchRunner` pass over 16 seeded
replicas at 64 PEs versus the sequential baseline (16 solo
:class:`~repro.runtime.skeleton.IterativeRunner` runs), on a workload with
the production-regime LB cadence (a handful of LB steps per couple hundred
iterations).

Two dissemination modes are measured, with different acceptance bars:

* **instant WIR dissemination** (the allgather-style mode of the paper's
  ablations): everything in the per-iteration hot loop batches across the
  replica axis, and the engine must deliver the PR's >= 3x acceptance bar.
* **gossip dissemination**: bit-identical equivalence pins one RNG stream
  and one ``(P, P)`` board *per replica*, so the gossip round is
  data-bound -- batching can amortize Python call overhead but not the
  O(R x P^2) state it must carry.  The measured speedup (~1.8x here) is
  asserted against a regression floor, not the 3x bar; the win is real but
  bounded by design, and recorded honestly.

Smoke mode (``REPRO_BENCH_SMOKE=1``, used by CI) shortens the runs and
relaxes both thresholds so shared runners do not flake.  Both cases persist
``BENCH_batch.json`` rows (see ``benchmarks/_artifacts.py``).
"""

from __future__ import annotations

import os
from functools import partial

import pytest

from _artifacts import alternating_best_of, record_bench

from repro.batch import BatchRunner
from repro.lb.registry import make_policy_pair
from repro.runtime.skeleton import IterativeRunner, initial_lb_cost_prior
from repro.runtime.synthetic import SyntheticGrowthApplication
from repro.simcluster.cluster import VirtualCluster

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))

NUM_PES = 64
REPLICAS = 16
COLUMNS_PER_PE = 8
ITERATIONS = 60 if SMOKE else 200
#: Slow hot-region growth and a realistic migration volume give the
#: production-regime cadence of a handful of LB steps per run.
HOT_GROWTH = 0.005
BYTES_PER_LOAD_UNIT = 200_000.0

#: Acceptance bar of the PR (instant mode) vs. the gossip regression floor.
INSTANT_THRESHOLD = 1.5 if SMOKE else 3.0
GOSSIP_THRESHOLD = 1.1 if SMOKE else 1.3


def make_app():
    num_columns = NUM_PES * COLUMNS_PER_PE
    return SyntheticGrowthApplication(
        num_columns,
        hot_regions=[(0, num_columns // 16)],
        hot_growth=HOT_GROWTH,
    )


def _prior(app):
    return initial_lb_cost_prior(
        app.total_load() * app.flop_per_load_unit, NUM_PES, 1.0e9
    )


def run_sequential(use_gossip):
    results = []
    for seed in range(REPLICAS):
        app = make_app()
        cluster = VirtualCluster(NUM_PES)
        workload, trigger = make_policy_pair("ulba", alpha=0.4)
        runner = IterativeRunner(
            cluster,
            app,
            workload_policy=workload,
            trigger_policy=trigger,
            use_gossip=use_gossip,
            initial_lb_cost_estimate=_prior(app),
            bytes_per_load_unit=BYTES_PER_LOAD_UNIT,
            seed=seed,
        )
        results.append(runner.run(ITERATIONS))
    return results


def run_batched(use_gossip):
    apps = [make_app() for _ in range(REPLICAS)]
    pairs = [make_policy_pair("ulba", alpha=0.4) for _ in range(REPLICAS)]
    runner = BatchRunner(
        NUM_PES,
        apps,
        seeds=list(range(REPLICAS)),
        use_gossip=use_gossip,
        workload_policies=[pair[0] for pair in pairs],
        trigger_policies=[pair[1] for pair in pairs],
        initial_lb_cost_estimates=_prior(apps[0]),
        bytes_per_load_unit=BYTES_PER_LOAD_UNIT,
    )
    return runner.run(ITERATIONS)


def _measure(use_gossip, threshold, label, rounds):
    (seq_time, seq_results), (batch_time, batch_result) = alternating_best_of(
        lambda: partial(run_sequential, use_gossip),
        lambda: partial(run_batched, use_gossip),
        2 if SMOKE else rounds,
    )

    # Same runs, same schedules: the batch engine is bit-identical.
    assert [r.num_lb_calls for r in seq_results] == batch_result.lb_calls().tolist()

    replica_iters = REPLICAS * ITERATIONS
    speedup = seq_time / batch_time
    print(
        f"\nbatch engine [{label}]: sequential {seq_time / replica_iters * 1e6:.1f} "
        f"us/replica-iter, batched {batch_time / replica_iters * 1e6:.1f} "
        f"us/replica-iter, speedup {speedup:.2f}x (threshold {threshold}x), "
        f"lb calls/replica ~{batch_result.lb_calls().mean():.1f}"
    )
    record_bench(
        "batch",
        f"batch-vs-sequential-{label}",
        {
            "num_pes": NUM_PES,
            "replicas": REPLICAS,
            "iterations": ITERATIONS,
            "use_gossip": use_gossip,
            "smoke": SMOKE,
            "speedup": speedup,
        },
        batch_time,
        replica_iters / batch_time,
    )
    assert speedup >= threshold, (
        f"replica batching [{label}] is only {speedup:.2f}x faster than "
        f"sequential replicas (threshold {threshold}x)"
    )


def test_batch_engine_speedup_instant():
    """Acceptance bar: >= 3x over sequential replicas, instant WIR mode.

    A batched instant run takes under 0.1 s, and a few seconds of host
    contention slow it more than the sequential side, by more than the
    bar's margin.  Sixteen alternated rounds span enough time for both
    sides to meet a quiet stretch.
    """
    _measure(False, INSTANT_THRESHOLD, "instant", rounds=16)


def test_batch_engine_speedup_gossip():
    """Gossip mode: real but data-bound win; guarded against regression.

    Host contention slows the batched side more here too; eight rounds
    give both sides the chance of a quiet stretch.
    """
    _measure(True, GOSSIP_THRESHOLD, "gossip", rounds=8)


@pytest.mark.parametrize("replicas", [4, 16])
def test_bench_batch_throughput(benchmark, replicas):
    """Replica-iteration throughput of one batched pass (gossip on)."""

    def run():
        apps = [make_app() for _ in range(replicas)]
        pairs = [make_policy_pair("ulba", alpha=0.4) for _ in range(replicas)]
        runner = BatchRunner(
            NUM_PES,
            apps,
            seeds=list(range(replicas)),
            workload_policies=[pair[0] for pair in pairs],
            trigger_policies=[pair[1] for pair in pairs],
            initial_lb_cost_estimates=_prior(apps[0]),
            bytes_per_load_unit=BYTES_PER_LOAD_UNIT,
        )
        return runner.run(ITERATIONS)

    result = benchmark.pedantic(run, rounds=1 if SMOKE else 3, iterations=1)
    assert result.num_replicas == replicas
    benchmark.extra_info["replicas"] = replicas
    benchmark.extra_info["num_pes"] = NUM_PES
    record_bench(
        "batch",
        f"batch-throughput-r{replicas}",
        {
            "num_pes": NUM_PES,
            "replicas": replicas,
            "iterations": ITERATIONS,
            "smoke": SMOKE,
        },
        benchmark.stats.stats.min,
        replicas * ITERATIONS / benchmark.stats.stats.min,
    )
