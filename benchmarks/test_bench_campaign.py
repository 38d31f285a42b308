"""Micro-benchmark of the campaign engine: serial vs. parallel wall time.

Runs the smoke-scale campaign grid once serially (``jobs=1``, in-process)
and once across worker processes (``jobs=2``), without persistence so pure
execution time is measured.  The parallel timing includes the pool start-up
cost, which is why the smoke grid -- a dozen sub-second cells -- is the
honest floor: speed-ups only appear once the per-cell work dominates the
fork overhead, and the recorded numbers document where that break-even sits
on the benchmark machine.

The supervision bar: running the same fault-free grid with every guard
armed (per-task deadlines, retry budget, quarantine sidecar) must cost at
most 5% over the bare pool dispatch (relaxed under ``REPRO_BENCH_SMOKE=1``
-- sub-second totals on shared runners make tight ratios flake).
"""

from __future__ import annotations

import os
from functools import partial

from _artifacts import alternating_best_of, record_bench
from conftest import run_once

from repro.campaign import campaign_for_scale, run_campaign
from repro.resilience import RetryPolicy

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))

#: Fault-free overhead budget of the armed supervisor (ISSUE acceptance bar).
OVERHEAD_THRESHOLD = 1.5 if SMOKE else 1.05


def _smoke_spec():
    return campaign_for_scale("smoke", 0)


def _record(benchmark, name, spec, jobs):
    record_bench(
        "campaign",
        name,
        {"cells": spec.num_cells, "jobs": jobs},
        benchmark.stats.stats.min,
        spec.num_cells / benchmark.stats.stats.min,
    )


def test_bench_campaign_serial(benchmark, record_rows):
    """Smoke campaign grid executed in-process (jobs=1, seed-batched)."""
    spec = _smoke_spec()
    run = run_once(benchmark, run_campaign, spec, jobs=1)
    assert run.executed == spec.num_cells
    record_rows(
        benchmark,
        "campaign smoke -- serial",
        run.rows,
    )
    _record(benchmark, "campaign-smoke-serial", spec, 1)


def test_bench_campaign_parallel_two_jobs(benchmark, record_rows):
    """Smoke campaign grid fanned out over two worker processes (jobs=2)."""
    spec = _smoke_spec()
    run = run_once(benchmark, run_campaign, spec, jobs=2)
    assert run.executed == spec.num_cells
    record_rows(
        benchmark,
        "campaign smoke -- 2 worker processes",
        run.rows,
    )
    _record(benchmark, "campaign-smoke-jobs2", spec, 2)


def test_bench_supervised_overhead(tmp_path):
    """Arming every supervision guard costs <= 5% on a fault-free campaign.

    Both runs use the same jobs=2 pool dispatch; the guarded run adds a
    per-batch deadline, a retry budget and the quarantine sidecar.  Bare
    and guarded runs alternate which side runs first, so host drift and
    warm-up land on both sides alike.  A single ~0.1 s run differs from
    the next by about 10% on a shared host, twice the bar, so a round's
    time is the sum of sixteen runs per side, taken across the whole
    measurement; best of N round times per side keeps scheduler noise out
    of the ratio.
    """
    spec = _smoke_spec()
    rounds, repeat = (1, 1) if SMOKE else (5, 16)
    guards = {
        "task_timeout": 300.0,
        "retry": RetryPolicy(max_retries=3),
        "quarantine": tmp_path / "bench.quarantine.jsonl",
    }

    def run(kwargs):
        result = run_campaign(spec, jobs=2, **kwargs)
        assert result.executed == spec.num_cells
        assert result.clean
        return result

    (bare, _), (guarded, _) = alternating_best_of(
        lambda: partial(run, {}), lambda: partial(run, guards), rounds, repeat
    )
    ratio = guarded / bare
    record_bench(
        "campaign",
        "campaign-smoke-supervised-overhead",
        {
            "cells": spec.num_cells,
            "jobs": 2,
            "bare_s": bare,
            "guarded_s": guarded,
            "overhead_ratio": ratio,
        },
        guarded,
        spec.num_cells / guarded,
    )
    assert ratio <= OVERHEAD_THRESHOLD, (
        f"supervision overhead {ratio:.3f}x exceeds "
        f"{OVERHEAD_THRESHOLD}x (bare {bare:.3f}s, guarded {guarded:.3f}s)"
    )
