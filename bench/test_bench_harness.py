"""Fast checks of the benchmark harness (smoke-sized workloads, 2 ops each).

Run with ``PYTHONPATH=src python -m pytest bench/test_bench_harness.py``.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _load_workloads():
    if "bench_workloads" not in sys.modules:
        spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules["bench_workloads"] = module
        spec.loader.exec_module(module)
    return sys.modules["bench_workloads"]


workloads = _load_workloads()
trace = workloads.load_bench_module("trace")
compare = workloads.load_bench_module("compare")
SPEC = workloads.load_spec()
ALL_TARGETS = {t.path: t for w in workloads.make_workloads("smoke").values() for t in w.targets}


@pytest.mark.parametrize("mode", ["run", "trace"])
@pytest.mark.parametrize("name", workloads.WORKLOAD_NAMES)
def test_workload_reports_every_declared_metric(name, mode):
    before = trace.snapshot(list(ALL_TARGETS.values()))
    result = workloads.measure(name, seed=0, seconds=0.0, mode=mode, ops=2, size="smoke",
                               setup_repeats=1, import_repeats=1)
    after = trace.snapshot(list(ALL_TARGETS.values()))

    assert all(after[path] is before[path] for path in before), "wrappers not restored"
    assert result["info"]["problems"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    declared = SPEC["end_to_end" if mode == "run" else "per_layer"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    if mode == "run":
        assert all(v["value"] > 0 for v in result["metrics"].values())
    else:
        assert result["metrics"]["bench.span_coverage"]["value"] > 0.5


def test_wrappers_are_restored_when_the_op_raises():
    targets = list(ALL_TARGETS.values())
    before = trace.snapshot(targets)
    recorder = trace.SpanRecorder()
    with pytest.raises(ZeroDivisionError):
        with trace.instrumented(recorder, targets):
            assert trace.snapshot(targets) != before
            with recorder.root(0):
                1 / 0
    after = trace.snapshot(targets)
    assert all(after[path] is before[path] for path in before)
    assert [s.name for s in recorder.spans] == [trace.ROOT]


def test_span_self_time_excludes_children():
    recorder = trace.SpanRecorder()
    with recorder.root(0):
        recorder.push("child")
        recorder.pop()
    child, root = recorder.spans
    assert child.parent == root.id and root.parent == -1
    assert root.self_ns == root.dur_ns - child.dur_ns
    assert 0.0 <= recorder.coverage() <= 1.0


def test_corrupted_partition_counts_as_failure(monkeypatch):
    from repro.partitioning.stripe import StripePartition
    from repro.partitioning.weighted import Partition1D

    w = workloads.make_workloads("smoke")["batch-lb-p64x16"]
    victim = w.op_input(0, 0).scenario.seed
    run_op = w.run_op

    def corrupting_run_op(cfg):
        out = run_op(cfg)
        if cfg.scenario.seed == victim:
            run = out.replicas[0]
            report = run.lb_reports[0]
            bounds = report.partition.partition.boundaries
            dropped = Partition1D(bounds[:-1] + (bounds[-1] - 1,))  # loses the last column
            run.lb_reports[0] = dataclasses.replace(
                report, partition=StripePartition(dropped, report.partition.column_loads))
        return out

    monkeypatch.setattr(w, "run_op", corrupting_run_op)
    raw = workloads.run_e2e(w, seed=0, seconds=0.0, ops=2, setup_repeats=1)
    tally = raw["tally"]
    assert tally.failed == 1
    assert tally.problems[0].startswith("op 0:")
    assert "do not split" in tally.problems[0]


def _write_runs(path: Path, seed: int, values: dict) -> Path:
    """A result file with one run per value of each metric."""
    count = len(next(iter(values.values())))
    runs = [{"seed": seed, "seconds": 10, "workloads": {"w": {"metrics": {
        name: {"value": series[i], "unit": "s"} for name, series in values.items()}}}}
        for i in range(count)]
    path.write_text(json.dumps({"runs": runs}), encoding="utf-8")
    return path


def test_compare_verdicts(tmp_path):
    assert compare.verdict([1.00, 1.01, 0.99], [1.30, 1.31, 1.29], "lower", 0.10) == "worse"
    assert compare.verdict([1.00, 1.01, 0.99], [0.80, 0.81, 0.79], "lower", 0.10) == "better"
    assert compare.verdict([1.00, 1.01, 0.99], [1.05, 1.04, 1.06], "lower", 0.10) == "unchanged"
    assert compare.verdict([100.0, 101.0], [80.0, 81.0], "higher", 0.10) == "worse"
    # A spread wider than the bound cannot resolve a move of the bound's size...
    wide_base, wide_new = [1.0, 1.5, 0.7, 1.2], [1.3, 1.9, 0.9, 1.5]
    assert compare.verdict(wide_base, wide_new, "lower", 0.10) == "unresolved"
    # ...unless every new run beats every base run.
    assert compare.verdict([1.0, 1.5, 1.2], [0.5, 0.6, 0.55], "lower", 0.10) == "better"

    base = _write_runs(tmp_path / "a.json", 0, {"run_s_p50": [1.0, 1.01], "lb.steps": [5, 5]})
    same = _write_runs(tmp_path / "b.json", 0, {"run_s_p50": [1.02, 1.0], "lb.steps": [5, 5]})
    slower = _write_runs(tmp_path / "c.json", 0, {"run_s_p50": [1.5, 1.6], "lb.steps": [5, 5]})
    recount = _write_runs(tmp_path / "d.json", 0, {"run_s_p50": [1.0, 1.0], "lb.steps": [5, 6]})
    assert compare.main([str(base), str(same)]) == 0
    assert compare.main([str(base), str(slower)]) == 1
    assert compare.main([str(base), str(recount)]) == 1
    rows, worse = compare.compare(base, slower, SPEC)
    verdicts = {row[1]: row[-1] for row in rows}
    assert worse == 1 and verdicts == {"run_s_p50": "worse", "lb.steps": "-"}


def test_run_refuses_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "gossip-dense-p256",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
