"""Run the benchmark: every end-to-end metric per workload, or the traced run.

    python bench/run.py [--workload NAME] [--seed K] [--seconds S] [--trace 0|1] [--out FILE]

Each workload runs in a fresh worker process (``workloads.py``) with one BLAS
thread.  ``--trace 0`` measures the end-to-end metrics with tracing off,
``--trace 1`` does the traced run that gives the per-layer metrics, and no
``--trace`` does both.  The tables go to standard output, the self-time
tables of traced runs to standard error, and the last line of standard output
is the result as one JSON object::

    {"correct": true, "attempted": 41, "failed": 0,
     "metrics": {"setup_s": {"value": 0.41, "unit": "s"}, ...}}

With several workloads the metric names are prefixed ``<workload>/``.
``--out FILE`` appends the full result, with an environment stamp, to
``FILE`` (``{"runs": [...]}``), the input of ``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

import workloads

BENCH = workloads.BENCH
ROOT = workloads.ROOT
#: A worker that runs longer is killed, with every process it started.
WORKER_TIMEOUT_S = 170


def run_worker(name: str, mode: str, seed: int, seconds: float) -> Optional[Dict[str, Any]]:
    """Run one workload in one mode in a fresh process; None if it failed."""
    cmd = [sys.executable, str(BENCH / "workloads.py"), name, "--seed", str(seed),
           "--seconds", str(seconds), "--mode", mode]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=workloads.child_env(), stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print(f"error: {name} ({mode}) took over {WORKER_TIMEOUT_S} s", file=sys.stderr)
        return None
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"error: {name} ({mode}) exited {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def env_stamp(numpy_version: str) -> Dict[str, Any]:
    """Where the numbers were measured."""
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            models = [line.split(":", 1)[1].strip() for line in handle
                      if line.startswith("model name")]
        cpu = models[0] if models else cpu
    except OSError:
        pass
    sha = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True)
        sha = proc.stdout.strip() or sha
    return {"python": platform.python_version(), "numpy": numpy_version,
            "nproc": os.cpu_count(), "cpu": cpu, "git_sha": sha}


def format_table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    widths = [max(len(str(row[i])) for row in [headers, *rows]) for i in range(len(headers))]
    lines = [" | ".join(str(h).ljust(w) for h, w in zip(headers, widths)),
             "-+-".join("-" * w for w in widths)]
    lines += [" | ".join(str(c).ljust(w) for c, w in zip(row, widths)) for row in rows]
    return "\n".join(lines)


def end_to_end_table(spec: Dict[str, Any], results: Dict[str, Dict[str, Any]]) -> str:
    metrics = spec["end_to_end"]
    headers = ["workload"] + [f"{m['name']} [{m['unit']}]" for m in metrics] + [
        "fail_frac", "ops", "tail pct", "op speed", "set-up speed"]
    rows = []
    for name, result in results.items():
        info = result["info"]["run"]
        rows.append([name] + [f"{result['metrics'][m['name']]['value']:.4g}" for m in metrics]
                    + [f"{info['fail_frac']:.3g}", str(info["ops"]),
                       f"p{info['tail_percentile']:.0f}", f"{info['op_speed']:.3f}",
                       f"{info['setup_speed']:.3f}"])
    return format_table(headers, rows)


def per_layer_table(spec: Dict[str, Any], results: Dict[str, Dict[str, Any]]) -> str:
    headers = ["metric [unit]"] + list(results)
    rows = [[f"{m['name']} [{m['unit']}]"]
            + [f"{r['metrics'][m['name']]['value']:.4g}" for r in results.values()]
            for m in spec["per_layer"]]
    return format_table(headers, rows)


def append_run(path: Path, run: Dict[str, Any]) -> None:
    runs: List[Dict[str, Any]] = []
    if path.exists():
        runs = json.loads(path.read_text(encoding="utf-8"))["runs"]
    runs.append(run)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps({"runs": runs}, indent=1) + "\n", encoding="utf-8")
    os.replace(tmp, path)


def main(argv: Optional[Sequence[str]] = None) -> int:
    spec = workloads.load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names, action="append",
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics, 1: traced run (default: both)")
    parser.add_argument("--out", type=Path, default=None,
                        help="append the full result to this JSON file")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    modes = {None: ("run", "trace"), 0: ("run",), 1: ("trace",)}[args.trace]
    results: Dict[str, Dict[str, Any]] = {}
    for name in args.workload or names:
        merged: Dict[str, Any] = {"correct": True, "attempted": 0, "failed": 0,
                                  "metrics": {}, "info": {}}
        for mode in modes:
            result = run_worker(name, mode, args.seed, args.seconds)
            if result is None:
                return 1
            merged["correct"] = merged["correct"] and result["correct"]
            merged["attempted"] += result["attempted"]
            merged["failed"] += result["failed"]
            merged["metrics"].update(result["metrics"])
            merged["info"][mode] = result["info"]
            for problem in result["info"]["problems"]:
                print(f"{name}: FAILED {problem}", file=sys.stderr)
            if mode == "trace":
                print(result["info"]["self_time_table"] + "\n", file=sys.stderr)
        results[name] = merged

    if "run" in modes:
        print(end_to_end_table(spec, results) + "\n")
    if "trace" in modes:
        print(per_layer_table(spec, results) + "\n")
    if args.out is not None:
        numpy_version = next(iter(results.values()))["info"][modes[0]]["numpy"]
        append_run(args.out, {"env": env_stamp(numpy_version), "seed": args.seed,
                              "seconds": args.seconds, "workloads": results})

    if len(results) == 1:
        (only,) = results.values()
        metrics = only["metrics"]
    else:
        metrics = {f"{name}/{metric}": value for name, r in results.items()
                   for metric, value in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
