"""Persisted benchmark artifacts (``BENCH_<suite>.json``).

The benchmark suites used to compute throughput numbers and print them;
nothing was persisted, so the performance trajectory across commits was
invisible.  :func:`record_bench` appends one measurement row to a per-suite
JSON file (schema: ``name`` / ``params`` / ``wall_s`` / ``ops_per_s``), and
CI uploads the files as build artifacts, so every run leaves a comparable
perf record.

The output directory defaults to the repository root (where the files are
gitignored), never the invoker's working directory; override it with
``REPRO_BENCH_OUT`` (CI points it at an upload directory), or set
``REPRO_BENCH_OUT=`` (empty) to disable persistence entirely.

:func:`alternating_best_of` is the one timer of the ratio gates: it
interleaves the two sides of a comparison run by run.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import time
from functools import lru_cache
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["alternating_best_of", "env_metadata", "record_bench"]

_REPO_ROOT = Path(__file__).resolve().parent.parent


@lru_cache(maxsize=1)
def env_metadata() -> Dict[str, object]:
    """Execution-environment stamp attached to every measurement row.

    Comparing ``ops_per_s`` across commits is only meaningful when the
    machine and toolchain are known; the stamp records the interpreter and
    NumPy versions, the CPU count and the git commit the row was measured
    at (``None`` outside a git checkout).  Computed once per process.
    """
    import numpy

    try:
        sha: Optional[str] = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=_REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "git_sha": sha,
    }


def alternating_best_of(
    first: Callable[[], Callable[[], Any]],
    second: Callable[[], Callable[[], Any]],
    rounds: int,
    repeat: int = 1,
) -> Tuple[Tuple[float, Any], Tuple[float, Any]]:
    """``(best wall seconds per run, last result)`` of each side.

    Each side is a factory: calling it prepares one run off the clock and
    returns the zero-argument callable whose call alone is timed.  The two
    sides run in ``rounds * repeat`` back-to-back pairs, and the side that
    runs first alternates, so host drift and warm-up land on both sides
    alike.  Pair ``i`` counts toward round ``i % rounds``: a round's time
    is the sum of its ``repeat`` runs per side, spread over the whole
    measurement, so a quick or slow stretch of the host is shared by every
    round instead of deciding one.  Each side keeps its best round.  A
    side's previous result is released before its next run starts, so
    freeing it is not timed either.
    """
    sides = (first, second)
    spent = [[0.0] * rounds, [0.0] * rounds]
    last: List[Any] = [None, None]
    for pair in range(rounds * repeat):
        sweep, round_index = divmod(pair, rounds)
        for index in (0, 1) if (sweep + round_index) % 2 == 0 else (1, 0):
            last[index] = None
            run = sides[index]()
            start = time.perf_counter()
            last[index] = run()
            spent[index][round_index] += time.perf_counter() - start
    return (min(spent[0]) / repeat, last[0]), (min(spent[1]) / repeat, last[1])


def _out_dir() -> Optional[Path]:
    raw = os.environ.get("REPRO_BENCH_OUT")
    if raw is None:
        return _REPO_ROOT
    if not raw:
        return None
    return Path(raw)


def record_bench(
    suite: str,
    name: str,
    params: Dict[str, object],
    wall_s: float,
    ops_per_s: float,
) -> Optional[Path]:
    """Append one measurement to ``BENCH_<suite>.json``.

    Parameters
    ----------
    suite:
        Artifact group (``"core"``, ``"campaign"``, ``"batch"``, ...);
        selects the output file.
    name:
        Measurement name, unique within the suite per run.
    params:
        JSON-serializable measurement parameters (sizes, modes).
    wall_s:
        Measured wall-clock seconds.
    ops_per_s:
        Throughput in suite-defined operations per second (iterations,
        cells, replica-iterations...).

    Returns the path written, or ``None`` when persistence is disabled.
    The file holds a JSON list; a missing or corrupt file is started fresh
    (benchmarks must never fail because a previous run was interrupted).
    """
    out = _out_dir()
    if out is None:
        return None
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"BENCH_{suite}.json"
    rows = []
    if path.exists():
        try:
            loaded = json.loads(path.read_text(encoding="utf-8"))
            if isinstance(loaded, list):
                rows = loaded
        except (OSError, json.JSONDecodeError):
            rows = []
    rows = [row for row in rows if row.get("name") != name]
    rows.append(
        {
            "name": name,
            "params": params,
            "wall_s": float(wall_s),
            "ops_per_s": float(ops_per_s),
            # Environment stamp (new key; the measurement fields above keep
            # their schema so existing consumers are unaffected).
            "env": env_metadata(),
        }
    )
    # Atomic replace: concurrent/interrupted bench runs can never leave a
    # torn artifact (the "corrupt file is started fresh" fallback above
    # then only covers pre-existing damage, not our own writes).
    from repro.utils.io import atomic_write_text

    return atomic_write_text(path, json.dumps(rows, indent=2) + "\n")
