"""Compare benchmark results: medians, quartiles and a verdict per metric.

    python bench/compare.py BASE.json NEW.json [NEW2.json ...]

Each file holds the runs that ``run.py --out`` appended to it.  For every
(workload, end-to-end metric) the table gives each side's median and
quartiles across its runs and a verdict against the metric's bound in
``BENCHMARK.json``:

* ``worse`` / ``better``: the median moved the wrong / right way by more than
  the bound;
* ``unchanged``: it moved by at most the bound;
* ``unresolved``: one side's quartile spread exceeds the bound, so a move of
  that size cannot be told from noise -- unless every run of the new side
  beats every run of the base, in which case the verdict is judged as above.

Per-layer metrics are listed without a verdict, except the counts in
:data:`EXACT_COUNTS`: runs with the same seed and length must agree on them
exactly.  Exits 1 on any ``worse`` verdict or count mismatch.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
#: Per-layer counts that must repeat exactly for the same seed.
EXACT_COUNTS = ("lb.steps", "simcluster.gossip_steps", "lb.migrated_load")


def load_runs(path: Path) -> List[Dict[str, Any]]:
    return json.loads(path.read_text(encoding="utf-8"))["runs"]


def values_of(runs: Sequence[Dict[str, Any]]) -> Dict[Tuple[str, str], List[float]]:
    """``(workload, metric) -> [value per run]``."""
    out: Dict[Tuple[str, str], List[float]] = {}
    for run in runs:
        for workload, result in run["workloads"].items():
            for metric, entry in result["metrics"].items():
                out.setdefault((workload, metric), []).append(float(entry["value"]))
    return out


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)``; a single value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: Sequence[float]) -> float:
    """Distance between the quartiles, as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def verdict(base: Sequence[float], new: Sequence[float], better: str, bound: float) -> str:
    """``better``, ``worse``, ``unchanged`` or ``unresolved`` (see module doc)."""
    sign = 1.0 if better == "lower" else -1.0
    base_median, new_median = quartiles(base)[1], quartiles(new)[1]
    worsening = sign * (new_median - base_median) / abs(base_median)
    if max(spread(base), spread(new)) > bound:
        if not all(sign * (n - b) < 0 for n in new for b in base):
            return "unresolved"
    if worsening > bound:
        return "worse"
    if worsening < -bound:
        return "better"
    return "unchanged"


def count_mismatches(runs: Sequence[Dict[str, Any]]) -> List[str]:
    """Exact counts that differ between runs of the same seed and length."""
    seen: Dict[Tuple[Any, ...], float] = {}
    problems = []
    for run in runs:
        for workload, result in run["workloads"].items():
            for metric in EXACT_COUNTS:
                if metric not in result["metrics"]:
                    continue
                key = (run["seed"], run["seconds"], workload, metric)
                value = result["metrics"][metric]["value"]
                if seen.setdefault(key, value) != value:
                    problems.append(f"{workload} {metric} at seed {run['seed']}: "
                                    f"{seen[key]!r} != {value!r}")
    return problems


def _fmt(values: Sequence[float]) -> str:
    q1, median, q3 = quartiles(values)
    return f"{median:.4g} [{q1:.4g}, {q3:.4g}]"


def compare(base_path: Path, new_path: Path, spec: Dict[str, Any]) -> Tuple[List[List[str]], int]:
    """Table rows for one pair of files, and the number of ``worse`` rows."""
    base = values_of(load_runs(base_path))
    new = values_of(load_runs(new_path))
    declared = {m["name"]: m for m in spec["end_to_end"]}
    rows, worse = [], 0
    for key in sorted(set(base) & set(new)):
        workload, metric = key
        m = declared.get(metric)
        if m is None:
            if not any(base[key]) and not any(new[key]):
                continue  # a layer this workload does not use
            result = "-"
        else:
            result = verdict(base[key], new[key], m["better"], m["bound"])
            worse += result == "worse"
        base_median = quartiles(base[key])[1]
        change = (quartiles(new[key])[1] / base_median - 1.0) if base_median else 0.0
        rows.append([workload, metric, _fmt(base[key]), _fmt(new[key]),
                     f"{change:+.1%}", result])
    return rows, worse


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path, nargs="+")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    failed = False
    for new_path in args.new:
        rows, worse = compare(args.base, new_path, spec)
        # Rows with a verdict (the end-to-end metrics) first.
        rows.sort(key=lambda row: (row[5] == "-", row[0], row[1]))
        headers = ["workload", "metric", f"{args.base.name} median [q1, q3]",
                   f"{new_path.name} median [q1, q3]", "change", "verdict"]
        widths = [max(len(r[i]) for r in [headers, *rows]) for i in range(len(headers))]
        print(f"== {args.base} -> {new_path}")
        for row in [headers, ["-" * w for w in widths], *rows]:
            print(" | ".join(cell.ljust(w) for cell, w in zip(row, widths)))
        mismatches = count_mismatches(load_runs(args.base) + load_runs(new_path))
        for problem in mismatches:
            print(f"count mismatch: {problem}")
        print()
        failed = failed or worse > 0 or bool(mismatches)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
