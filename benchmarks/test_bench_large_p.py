"""Large-P benchmark tier: the memory-bounded sparse gossip path (PR 5).

The dense gossip board stores the replicated WIR database as a ``(P, P)``
matrix pair -- 16 bytes per entry, i.e. 16 MiB of board state at ``P =
1024`` and 256 MiB at ``P = 4096`` -- which walls off the cluster sizes the
paper's context actually targets.  The sparse board bounds every rank's
view (``O(P * view_size)``), and this tier pins the two claims that make it
the large-P execution path:

* **throughput** -- a ``P = 1024`` solo ULBA run under sparse gossip
  sustains at least :data:`SPARSE_SPEEDUP_MIN` times the iterations per
  second of the dense board at the same size (both rates are persisted to
  ``BENCH_large_p.json``, so the artifact shows both trajectories per
  commit);
* **memory** -- a ``P = 4096`` solo run under sparse gossip completes
  within the documented budget of :data:`MEMORY_BUDGET_BYTES` (128 MiB of
  traced allocations for the *whole run*), which the dense board cannot
  meet: its board state alone is 256 MiB before the first iteration runs.

Smoke mode (``REPRO_BENCH_SMOKE=1``, the CI large-P lane) shortens the runs
but keeps both assertions live.
"""

from __future__ import annotations

import os
import time
import tracemalloc

from _artifacts import record_bench

from repro.lb.registry import make_policy_pair
from repro.runtime.skeleton import IterativeRunner, initial_lb_cost_prior
from repro.runtime.synthetic import SyntheticGrowthApplication
from repro.simcluster.cluster import VirtualCluster
from repro.simcluster.gossip import GossipConfig

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))

#: The sparse configuration of the large-P tier: bounded 64-entry views.
SPARSE_64 = GossipConfig(mode="sparse", view_size=64, fanout=2)
#: Tighter views for the P=4096 memory case (32 entries per rank).
SPARSE_32 = GossipConfig(mode="sparse", view_size=32, fanout=2)

THROUGHPUT_P = 1024
THROUGHPUT_ITERATIONS = 8 if SMOKE else 24
MEMORY_P = 4096
MEMORY_ITERATIONS = 3 if SMOKE else 8

#: Minimum sparse/dense iterations-per-second ratio of the P=1024 run.
SPARSE_SPEEDUP_MIN = 1.5

#: Documented memory budget of the P=4096 sparse run: every allocation of
#: the whole run (board, WIR estimators, transient merge buffers, traces)
#: must fit in 128 MiB -- half of what the dense board's (P, P) state alone
#: would occupy before the first iteration.
MEMORY_BUDGET_BYTES = 128 * 2**20


def run_solo(num_pes, iterations, gossip_config, *, seed=0):
    """One ULBA run of the synthetic-hotspot growth workload at ``num_pes``."""
    num_columns = num_pes * 2
    app = SyntheticGrowthApplication(
        num_columns, hot_regions=[(0, num_columns // 64)], hot_growth=0.5
    )
    cluster = VirtualCluster(num_pes)
    workload, trigger = make_policy_pair("ulba", alpha=0.4)
    prior = initial_lb_cost_prior(
        app.total_load() * app.flop_per_load_unit, num_pes, cluster.pe_speed
    )
    runner = IterativeRunner(
        cluster,
        app,
        workload_policy=workload,
        trigger_policy=trigger,
        gossip_config=gossip_config,
        initial_lb_cost_estimate=prior,
        seed=seed,
    )
    return runner.run(iterations)


def test_large_p_throughput_p1024():
    """P=1024 sparse-gossip throughput, recorded to BENCH_large_p.json."""
    rows = []
    for label, config in (("sparse", SPARSE_64), ("dense", None)):
        start = time.perf_counter()
        result = run_solo(THROUGHPUT_P, THROUGHPUT_ITERATIONS, config)
        wall = time.perf_counter() - start
        assert len(result.trace.iterations) == THROUGHPUT_ITERATIONS
        board_bytes = (config or GossipConfig()).board_nbytes(THROUGHPUT_P)
        iters_per_s = THROUGHPUT_ITERATIONS / wall
        rows.append((label, wall, iters_per_s, board_bytes))
        record_bench(
            "large_p",
            f"solo-p{THROUGHPUT_P}-{label}",
            {
                "num_pes": THROUGHPUT_P,
                "iterations": THROUGHPUT_ITERATIONS,
                "gossip": label,
                "view_size": config.view_size if config else None,
                "board_bytes": board_bytes,
                "smoke": SMOKE,
            },
            wall,
            iters_per_s,
        )
    print()
    for label, wall, iters_per_s, board_bytes in rows:
        print(
            f"large-P [{label}] P={THROUGHPUT_P}: {wall:.2f} s for "
            f"{THROUGHPUT_ITERATIONS} iters ({iters_per_s:.2f} it/s), "
            f"board {board_bytes / 2**20:.1f} MiB"
        )
    # The sparse board state is two orders of magnitude smaller.
    assert rows[0][3] * 10 < rows[1][3]
    # ... and the bounded board is the faster path at large P, which is its
    # premise: each round costs O(P * fanout * view_size), not O(P^2).
    sparse_rate, dense_rate = rows[0][2], rows[1][2]
    assert sparse_rate >= SPARSE_SPEEDUP_MIN * dense_rate, (
        f"sparse {sparse_rate:.1f} it/s is below {SPARSE_SPEEDUP_MIN}x the dense "
        f"{dense_rate:.1f} it/s at P={THROUGHPUT_P}"
    )


def test_large_p_memory_budget_p4096():
    """A P=4096 sparse run fits the documented budget; dense cannot.

    The assertion is about the *whole run's* traced allocation peak -- not
    just the steady-state board -- because the sparse merge allocates
    transient per-round candidate buffers, and those must stay bounded too.
    """
    dense_board = GossipConfig().board_nbytes(MEMORY_P)
    assert dense_board >= MEMORY_BUDGET_BYTES * 2  # 256 MiB vs 128 MiB budget
    assert SPARSE_32.board_nbytes(MEMORY_P) < MEMORY_BUDGET_BYTES // 30

    tracemalloc.start()
    try:
        start = time.perf_counter()
        result = run_solo(MEMORY_P, MEMORY_ITERATIONS, SPARSE_32)
        wall = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()

    assert len(result.trace.iterations) == MEMORY_ITERATIONS
    assert peak <= MEMORY_BUDGET_BYTES, (
        f"P={MEMORY_P} sparse run peaked at {peak / 2**20:.1f} MiB, above the "
        f"documented {MEMORY_BUDGET_BYTES / 2**20:.0f} MiB budget"
    )
    print(
        f"\nlarge-P memory: P={MEMORY_P} sparse run peak "
        f"{peak / 2**20:.1f} MiB (budget {MEMORY_BUDGET_BYTES / 2**20:.0f} MiB; "
        f"dense board alone would be {dense_board / 2**20:.0f} MiB), "
        f"{wall:.2f} s for {MEMORY_ITERATIONS} iters"
    )
    record_bench(
        "large_p",
        f"memory-budget-p{MEMORY_P}",
        {
            "num_pes": MEMORY_P,
            "iterations": MEMORY_ITERATIONS,
            "view_size": SPARSE_32.view_size,
            "peak_bytes": int(peak),
            "budget_bytes": MEMORY_BUDGET_BYTES,
            "dense_board_bytes": dense_board,
            "smoke": SMOKE,
        },
        wall,
        MEMORY_ITERATIONS / wall,
    )
