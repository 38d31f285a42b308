"""The five benchmark workloads, and the closed loop that measures one of them.

Each workload turns ``(seed, op index)`` into the inputs of one op, runs the op
through the program's public entry points, and checks what it returned.  One
client issues the next op when the previous one returns, after untimed
warm-up ops.  Two modes:

* ``run``: tracing off.  Ops run until ``--seconds`` have passed and at least
  :data:`MIN_TAIL_OPS` ops are done, then set-up is timed in fresh processes.
  Every timing is followed by a calibration kernel of the same kind
  (:data:`IN_PROCESS` or :data:`FRESH_PROCESS`) and scaled by it.  Gives the
  end-to-end metrics.
* ``trace``: a fixed number of ops, each run twice on the same input, first
  plain and then with the span wrappers of ``trace.py`` installed.  Gives the
  per-layer metrics and the tracing overhead.

This file is also the worker process that ``run.py`` starts for each workload::

    python bench/workloads.py NAME --seed K --seconds S --mode run|trace
    python bench/workloads.py NAME --seed K --setup-only

The worker prints its result as one JSON line.  ``--setup-only`` imports the
program, builds the first op's inputs and exits; ``setup_s`` times it.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import math
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter
from types import ModuleType
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"


def load_bench_module(name: str) -> ModuleType:
    """Import ``bench/<name>.py`` as ``bench_<name>``.

    Loaded by path, because ``trace`` is also a standard-library module name.
    """
    key = f"bench_{name}"
    if key not in sys.modules:
        spec = importlib.util.spec_from_file_location(key, BENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[key] = module
        spec.loader.exec_module(module)
    return sys.modules[key]


_trace = load_bench_module("trace")
SpanRecorder, Target, instrumented = _trace.SpanRecorder, _trace.Target, _trace.instrumented

#: Ops a run completes at least, so ``run_s_tail`` has ten samples beyond it.
MIN_TAIL_OPS = 20
#: Samples beyond the tail percentile.
TAIL_BEYOND = 10
#: A run window never exceeds this, however slow the ops (seconds).
MAX_WINDOW_S = 120.0
#: Fresh processes timed for ``setup_s``.
SETUP_REPEATS = 10
#: ``-X importtime`` processes behind the ``*.import_s`` metrics.
IMPORT_REPEATS = 5
#: Modules whose cumulative import time is reported, by metric prefix.
IMPORT_MODULES = {
    "repro": "repro",
    "api": "repro.api",
    "campaign": "repro.campaign",
    "lb": "repro.lb",
    "simcluster": "repro.simcluster",
    "numpy": "numpy",
}
#: Cells of the campaign op: one repetition seed of the full default grid.
CAMPAIGN_FILTER = "|seed0|"


def sub_seed(workload: str, seed: int, index: int) -> int:
    """Seed of op ``index`` of ``workload`` in the run seeded ``seed``."""
    digest = hashlib.blake2b(f"{workload}|{seed}|{index}".encode(), digest_size=4).digest()
    return int.from_bytes(digest, "little") & 0x7FFFFFFF


def child_env() -> Dict[str, str]:
    """Environment of every process the benchmark starts."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH", "")) if p
    )
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


# ----------------------------------------------------------------------
# CPU-speed calibration.  On a shared host the speed a process gets drifts
# by up to 2x over minutes.  Each timing is followed by a fixed kernel that
# shares no code with the program and slows down with it, and is reported
# as if measured on the reference CPU: time x ref_s / median kernel time.
# ----------------------------------------------------------------------
def calibration_kernel() -> float:
    """Time a fixed in-process NumPy loop (about 10 ms on the reference CPU).

    It allocates like the ops do, so it follows their page-fault cost too;
    a variant on preallocated buffers tracked op times less closely.
    """
    import numpy as np

    rng = np.random.default_rng(12345)
    start = perf_counter()
    for _ in range(15):
        np.argpartition(rng.random((256, 256)), 2, axis=1)
    return perf_counter() - start


def process_kernel() -> float:
    """Time a fresh interpreter that imports NumPy and exits.

    Fresh processes spend their time in exec, page faults and imports, which
    the in-process kernel does not follow: scaling set-up times by it
    widened their spread, while this kernel narrowed it.
    """
    start = perf_counter()
    # Captured output: with a timeout and no pipes, ``subprocess`` polls for
    # the exit in steps of up to 50 ms, which would quantize the time.
    subprocess.run([sys.executable, "-c", "import numpy"], env=child_env(), cwd=ROOT,
                   capture_output=True, check=True, timeout=60)
    return perf_counter() - start


class Calibration(NamedTuple):
    kernel: Callable[[], float]
    #: Kernel time on the reference CPU.
    ref_s: float

    def speed(self, kernel_times: Sequence[float]) -> float:
        """Reference kernel time over the median measured one."""
        return self.ref_s / statistics.median(kernel_times)


#: For ops that run inside the worker process.
IN_PROCESS = Calibration(calibration_kernel, 0.010)
#: For fresh processes: set-up, and the campaign's CLI invocations.
FRESH_PROCESS = Calibration(process_kernel, 0.100)


# ----------------------------------------------------------------------
# Output checks.  Each returns a list of problems; an empty list passes.
# ----------------------------------------------------------------------
def check_run(run: Any, iterations: int, label: str = "run") -> List[str]:
    """A :class:`~repro.runtime.skeleton.RunResult` completed its iterations."""
    problems = []
    done = len(run.trace.iterations)
    if done != iterations:
        problems.append(f"{label}: {done} of {iterations} iterations recorded")
    total = run.total_time
    if not (math.isfinite(total) and total > 0.0):
        problems.append(f"{label}: virtual time {total!r} is not finite and positive")
    return problems


def check_partition(report: Any, num_pes: int, num_columns: int) -> List[str]:
    """An LB step's partition covers each column once and conserves load."""
    import numpy as np

    part = report.partition
    bounds = np.asarray(part.partition.boundaries)
    where = f"LB step at iteration {report.iteration}"
    if bounds.size != num_pes + 1 or bounds[0] != 0 or bounds[-1] != num_columns:
        return [f"{where}: boundaries {bounds.tolist()[:3]}... do not split "
                f"{num_columns} columns into {num_pes} stripes"]
    if (np.diff(bounds) < 0).any():
        return [f"{where}: boundaries decrease"]
    owners = part.partition.owners()
    loads = np.asarray(part.column_loads, dtype=float)
    if owners.size != num_columns or loads.size != num_columns:
        return [f"{where}: {owners.size} owned columns, {loads.size} loads, "
                f"expected {num_columns}"]
    per_stripe = np.bincount(owners, weights=loads, minlength=num_pes)
    if not math.isclose(math.fsum(per_stripe), math.fsum(loads), rel_tol=1e-9):
        return [f"{where}: stripe loads sum to {math.fsum(per_stripe)!r}, "
                f"columns to {math.fsum(loads)!r}"]
    return []


def check_lb_reports(run: Any, num_pes: int, num_columns: int) -> List[str]:
    problems: List[str] = []
    for report in run.lb_reports:
        problems += check_partition(report, num_pes, num_columns)
    return problems


# ----------------------------------------------------------------------
# Workloads.
# ----------------------------------------------------------------------
class Workload:
    """One set of inputs the benchmark runs; subclasses define the op."""

    name = ""
    #: ``"full"``, or ``"smoke"`` for the harness tests.
    size = "full"
    #: Simulated (replica-)iterations per op, the numerator of sim_iter_per_s.
    iterations = 1
    #: Typical op time on a 2-core box; sets the traced op count.
    nominal_op_s = 0.3
    #: Ops come in groups of this many (erosion: standard, then ULBA).
    group = 1
    #: Untimed ops before a timed window (the first one is checked).
    warmup_ops = 4
    #: Calibrates the op times.
    op_calibration = IN_PROCESS
    #: Wrapped during traced ops.
    targets: Sequence[Target] = ()

    def op_input(self, seed: int, index: int) -> Any:
        raise NotImplementedError

    def run_op(self, inp: Any) -> Any:
        raise NotImplementedError

    def check(self, inp: Any, out: Any) -> List[str]:
        raise NotImplementedError

    def trace_op(self, inp: Any) -> Any:
        """The op of a traced run (the same op unless overridden)."""
        return self.run_op(inp)

    def check_trace(self, inp: Any, out: Any) -> List[str]:
        return self.check(inp, out)

    def fingerprint(self, out: Any) -> Any:
        """Deterministic summary; a traced op must reproduce it exactly."""
        raise NotImplementedError

    def warmup_checks(self, seed: int, inp: Any, out: Any) -> List[Tuple[str, List[str]]]:
        """Untimed checks on the warm-up op, each counted as one op."""
        return []

    def record(self, inp: Any, out: Any, kept: List[Any]) -> None:
        """Keep what :meth:`set_checks` needs from a passing op."""

    def set_checks(self, kept: List[Any]) -> Tuple[List[Tuple[str, List[str]]], Dict[str, float]]:
        """Checks over the whole seed set (each counted as one op), and
        values to report."""
        return [], {}

    def traced_counters(self, recorder: SpanRecorder, out: Any) -> None:
        """Add counters of a traced op's result to the recorder."""

    def board_bytes(self) -> int:
        """Computed gossip-board bytes of one op (0 without a board)."""
        return 0

    def setup(self, seed: int) -> None:
        """What a fresh process does before its first op (``--setup-only``)."""
        self.op_input(seed, 0)

    def measure_setup(self, seed: int, warm: Any, repeats: int) -> ProcessTimes:
        """Time ``repeats`` fresh set-up processes."""
        cmd = [sys.executable, str(BENCH / "workloads.py"), self.name,
               "--seed", str(seed), "--setup-only", "--size", self.size]
        return _time_processes(cmd, repeats, lambda proc: [])

    def close(self) -> None:
        """Remove what the ops left on disk."""


class ProcessTimes(NamedTuple):
    times: List[float]
    #: :func:`process_kernel` timed after each process.
    kernel_times: List[float]
    problems: List[str]


def _time_processes(
    cmd: List[str], repeats: int, check: Callable[[subprocess.CompletedProcess], List[str]]
) -> ProcessTimes:
    out = ProcessTimes([], [], [])
    for _ in range(repeats):
        start = perf_counter()
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=120)
        out.times.append(perf_counter() - start)
        out.kernel_times.append(process_kernel())
        if proc.returncode != 0:
            out.problems.append(f"{' '.join(cmd[1:4])} exited {proc.returncode}: "
                                f"{proc.stderr.strip()[-300:]}")
        else:
            out.problems.extend(check(proc))
    return out


@dataclass(frozen=True)
class SimSize:
    num_pes: int
    columns_per_pe: int
    iterations: int
    replicas: int = 1
    view_size: Optional[int] = None


_LB_PROBE = "simcluster.view_coverage"


def _observe_lb_step(recorder: SpanRecorder, args: tuple, kwargs: dict, report: Any) -> None:
    """After each LB step: WIR view coverage of two ranks, and the report.

    Rank 0 is the view the ULBA trigger reads; two samples keep the probe
    cheap on the batch workload's ~270 LB steps per op.
    """
    context = args[1] if len(args) > 1 else kwargs["context"]
    views = context.wir_views
    num = len(views)
    for rank in sorted({0, num // 2}):
        recorder.add(_LB_PROBE, len(views.known_values(rank)) / num)
        recorder.add(_LB_PROBE + ".samples", 1)
    recorder.add("lb.migrated_load", report.migrated_load)
    recorder.add("lb.virtual_cost_s", report.cost)


#: Public calls of the simulation layers, wrapped during traced ops.
SIM_TARGETS: Tuple[Target, ...] = (
    Target("repro.api.session:Session.from_config", "api.session_build"),
    Target("repro.scenarios.base:FunctionScenario.build", "scenarios.build"),
    Target("repro.erosion.app:ErosionApplication.from_config", "erosion.build"),
    Target("repro.erosion.app:ErosionApplication.advance", "erosion.advance"),
    Target("repro.runtime.synthetic:SyntheticGrowthApplication.advance", "runtime.advance"),
    Target("repro.runtime.skeleton:IterativeRunner.run", "runtime.loop"),
    Target("repro.batch.runner:BatchRunner.run", "batch.loop"),
    Target("repro.simcluster.cluster:VirtualCluster.compute_step", "simcluster.compute_step"),
    Target("repro.simcluster.gossip:GossipBoard.step", "simcluster.gossip_step"),
    Target("repro.simcluster.gossip:SparseGossipBoard.step", "simcluster.gossip_step"),
    Target("repro.simcluster.gossip:BatchGossipBoard.step", "simcluster.gossip_step"),
    Target("repro.lb.wir:WIREstimateArray.observe", "lb.wir_update"),
    Target("repro.lb.wir:WIRDatabase.publish_all", "lb.wir_update"),
    Target("repro.lb.wir:BatchWIRDatabase.publish_all", "lb.wir_update"),
    Target("repro.lb.adaptive:DegradationTrigger.should_balance", "lb.trigger"),
    Target("repro.lb.centralized:CentralizedLoadBalancer.execute", "lb.execute",
           observe=_observe_lb_step),
    Target("repro.lb.standard:StandardPolicy.decide", "lb.policy_decide"),
    Target("repro.lb.ulba:ULBAPolicy.decide", "lb.policy_decide"),
    Target("repro.partitioning.stripe:StripePartitioner.partition", "partitioning.partition"),
)


class SyntheticWorkload(Workload):
    """``Session.from_config(cfg).run()`` on the synthetic hotspot scenario
    under ULBA (alpha 0.4); ``replicas > 1`` runs ``Session.run_batch``."""

    targets = SIM_TARGETS

    def __init__(self, name: str, size: str, sizes: Dict[str, SimSize],
                 gossip_mode: str, nominal_op_s: float, warmup_ops: int = 4) -> None:
        self.name, self.size = name, size
        self.shape = sizes[size]
        self.gossip_mode = gossip_mode
        self.nominal_op_s = nominal_op_s
        self.warmup_ops = warmup_ops
        self.iterations = self.shape.iterations * self.shape.replicas

    @property
    def num_columns(self) -> int:
        return self.shape.num_pes * self.shape.columns_per_pe

    def config(self, seed: int) -> Any:
        from repro.api import (ClusterConfig, PolicyConfig, RunConfig, ScenarioConfig,
                               TopologyConfig)

        return RunConfig(
            cluster=ClusterConfig(num_pes=self.shape.num_pes),
            topology=TopologyConfig(gossip_mode=self.gossip_mode, view_size=self.shape.view_size),
            policy=PolicyConfig("ulba", {"alpha": 0.4}),
            scenario=ScenarioConfig(name="synthetic-hotspot",
                                    columns_per_pe=self.shape.columns_per_pe,
                                    iterations=self.shape.iterations, seed=seed),
        )

    def op_input(self, seed: int, index: int) -> Any:
        return self.config(sub_seed(self.name, seed, index))

    def _seeds(self, cfg: Any) -> List[int]:
        return [cfg.scenario.seed + r for r in range(self.shape.replicas)]

    def run_op(self, cfg: Any) -> Any:
        from repro.api import Session

        if self.shape.replicas == 1:
            return Session.from_config(cfg).run().run
        return Session.from_config(cfg).run_batch(seeds=self._seeds(cfg))

    def _runs(self, out: Any) -> List[Any]:
        return [out] if self.shape.replicas == 1 else list(out.replicas)

    def check(self, cfg: Any, out: Any) -> List[str]:
        runs = self._runs(out)
        if len(runs) != self.shape.replicas:
            return [f"{len(runs)} replicas returned, {self.shape.replicas} requested"]
        problems: List[str] = []
        for r, run in enumerate(runs):
            problems += check_run(run, self.shape.iterations, f"replica {r}")
            problems += check_lb_reports(run, self.shape.num_pes, self.num_columns)
        return problems

    def fingerprint(self, out: Any) -> Any:
        return [(run.total_time, run.num_lb_calls) for run in self._runs(out)]

    def warmup_checks(self, seed: int, cfg: Any, out: Any) -> List[Tuple[str, List[str]]]:
        if self.shape.replicas == 1:
            return []
        import numpy as np
        from repro.api import Session

        solo_cfg = replace(cfg, scenario=replace(cfg.scenario, seed=self._seeds(cfg)[0]))
        solo = Session.from_config(solo_cfg).run().run
        first = out.replicas[0]
        same = (
            np.array_equal(solo.trace.iteration_time_series(),
                           first.trace.iteration_time_series())
            and solo.num_lb_calls == first.num_lb_calls
        )
        return [("batch replica 0 == solo run", [] if same else [
            "replica 0 of the batch differs from the solo run with its seed"])]

    def board_bytes(self) -> int:
        return self.config(0).topology.gossip_config().board_nbytes(
            self.shape.num_pes) * self.shape.replicas


class ErosionWorkload(Workload):
    """``run_erosion_case`` (the paper's Fig. 4 application, one strongly
    erodible rock) for each seed under the standard method, then ULBA."""

    name = "fig4-erosion-p64"
    group = 2
    nominal_op_s = 0.5
    targets = SIM_TARGETS
    policies = ("standard", "ulba")
    #: Set check: ULBA's median gain over the seeds, and its share of wins.
    min_gain_pct = 5.0
    min_win_share = 0.8
    #: Fewer seed pairs than this make no meaningful median.
    min_pairs = 5

    def __init__(self, size: str) -> None:
        self.size = size
        self.num_pes, self.columns_per_pe, self.iterations = {
            "full": (64, 96, 60), "smoke": (16, 16, 10)}[size]

    def op_input(self, seed: int, index: int) -> Dict[str, Any]:
        return {"seed": sub_seed(self.name, seed, index // 2),
                "policy": self.policies[index % 2]}

    def run_op(self, inp: Dict[str, Any]) -> Any:
        from repro.experiments.fig4_erosion import run_erosion_case

        return run_erosion_case(
            num_pes=self.num_pes, num_strong_rocks=1, iterations=self.iterations,
            policy=inp["policy"], alpha=0.4, columns_per_pe=self.columns_per_pe,
            rows=self.columns_per_pe, seed=inp["seed"])

    def check(self, inp: Dict[str, Any], out: Any) -> List[str]:
        return check_run(out, self.iterations) + check_lb_reports(
            out, self.num_pes, self.num_pes * self.columns_per_pe)

    def fingerprint(self, out: Any) -> Any:
        return (out.total_time, out.num_lb_calls)

    def record(self, inp: Dict[str, Any], out: Any, kept: List[Any]) -> None:
        kept.append((inp["seed"], inp["policy"], out.total_time))

    def set_checks(self, kept: List[Any]) -> Tuple[List[Tuple[str, List[str]]], Dict[str, float]]:
        times: Dict[int, Dict[str, float]] = {}
        for seed, policy, total in kept:
            times.setdefault(seed, {})[policy] = total
        gains = [100.0 * (t["standard"] - t["ulba"]) / t["standard"]
                 for t in times.values() if len(t) == 2]
        if len(gains) < self.min_pairs:
            return [], {}
        median = statistics.median(gains)
        wins = sum(g > 0.0 for g in gains) / len(gains)
        problems = []
        if median < self.min_gain_pct:
            problems.append(f"median ULBA gain {median:.2f}% < {self.min_gain_pct}%")
        if wins < self.min_win_share:
            problems.append(f"ULBA wins on {wins:.0%} of seeds < {self.min_win_share:.0%}")
        return [("ULBA gain over the seed set", problems)], {"paper.ulba_gain_pct": median}

    def board_bytes(self) -> int:
        from repro.simcluster.gossip import GossipConfig

        return GossipConfig().board_nbytes(self.num_pes)


@dataclass
class CampaignTraceOut:
    fresh: Any
    resumed: Any
    rows: List[Dict[str, Any]]
    faults: int
    wall_s: float
    jsonl_bytes: int


class CampaignWorkload(Workload):
    """``python -m repro campaign --scale default --jobs 2`` over one
    repetition seed of the full catalog (8 scenarios x 3 policies = 24 cells
    of 40 iterations); set-up is the same command resuming a complete log."""

    name = "campaign-default-jobs2"
    nominal_op_s = 0.3  # the in-process op of the traced run
    op_calibration = FRESH_PROCESS
    #: Each op is a fresh process; warm-up only fills the page cache.
    warmup_ops = 2
    jobs = 2

    def __init__(self, size: str) -> None:
        self.size = size
        self.scale, self.cells = {"full": ("default", 24), "smoke": ("smoke", 6)}[size]
        self.iterations = self.cells * {"default": 40, "smoke": 30}[self.scale]
        self.targets = (
            Target("repro.campaign.runner:run_campaign", "campaign.run"),
            Target("repro.campaign.runner:load_results", "campaign.resume_scan"),
        )
        self.workdir = OUT / f"campaign-{os.getpid()}"

    def command(self, master: int, path: Path) -> List[str]:
        return [sys.executable, "-m", "repro", "campaign", "--scale", self.scale,
                "--jobs", str(self.jobs), "--seed", str(master),
                "--filter", CAMPAIGN_FILTER, "--out", str(path)]

    def op_input(self, seed: int, index: int) -> Tuple[int, Path]:
        self.workdir.mkdir(parents=True, exist_ok=True)
        path = self.workdir / f"op{index}.jsonl"
        for stale in self.workdir.glob(f"op{index}.jsonl*"):
            stale.unlink()
        return sub_seed(self.name, seed, index), path

    def run_op(self, inp: Tuple[int, Path]) -> subprocess.CompletedProcess:
        master, path = inp
        return subprocess.run(self.command(master, path), env=child_env(), cwd=ROOT,
                              capture_output=True, text=True, timeout=120)

    def _check_rows(self, path: Path) -> List[str]:
        rows = {}
        with path.open(encoding="utf-8") as handle:
            for line in handle:
                row = json.loads(line)
                rows[row["cell_id"]] = row
        problems = []
        if len(rows) != self.cells:
            problems.append(f"{len(rows)} distinct cells in the log, expected {self.cells}")
        bad = [cid for cid, row in rows.items() if not math.isfinite(float(row["total_time"]))]
        if bad:
            problems.append(f"non-finite total_time in {bad[:3]}")
        return problems

    def check(self, inp: Tuple[int, Path], proc: subprocess.CompletedProcess) -> List[str]:
        if proc.returncode != 0:
            return [f"campaign exited {proc.returncode}: {proc.stderr.strip()[-300:]}"]
        return self._check_rows(inp[1])

    def setup(self, seed: int) -> None:
        raise NotImplementedError("campaign set-up is timed by resuming the CLI")

    def measure_setup(self, seed: int, warm: Any, repeats: int) -> ProcessTimes:
        """Resume the warm-up op's complete log: start-up, import, log scan."""
        master, path = warm

        def resumed_nothing(proc: subprocess.CompletedProcess) -> List[str]:
            if re.search(r"\b0 executed\b", proc.stdout):
                return []
            return [f"resume executed cells: {proc.stdout.strip().splitlines()[:1]}"]

        return _time_processes(self.command(master, path), repeats, resumed_nothing)

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    def trace_op(self, inp: Tuple[int, Path]) -> CampaignTraceOut:
        import repro.campaign.runner as runner
        from repro.api.events import EV_CAMPAIGN_FAULT, EventBus
        from repro.campaign.presets import campaign_for_scale

        master, path = inp
        path.unlink(missing_ok=True)
        spec = campaign_for_scale(self.scale, master)
        bus = EventBus()
        faults: List[Any] = []
        bus.on(EV_CAMPAIGN_FAULT, faults.append)
        rows: List[Dict[str, Any]] = []
        start = perf_counter()
        fresh = runner.run_campaign(spec, jobs=self.jobs, out_path=path,
                                    name_filter=CAMPAIGN_FILTER, events=bus,
                                    on_cell_done=rows.append)
        wall = perf_counter() - start
        resumed = runner.run_campaign(spec, jobs=self.jobs, out_path=path,
                                      name_filter=CAMPAIGN_FILTER)
        size = path.stat().st_size
        path.unlink()
        return CampaignTraceOut(fresh, resumed, rows, len(faults), wall, size)

    def check_trace(self, inp: Any, out: CampaignTraceOut) -> List[str]:
        problems = []
        if out.fresh.executed != self.cells or len(out.rows) != self.cells:
            problems.append(f"fresh run executed {out.fresh.executed} cells, "
                            f"expected {self.cells}")
        if len({row["cell_id"] for row in out.fresh.rows}) != self.cells:
            problems.append("cell ids are not distinct")
        if not all(math.isfinite(float(row["total_time"])) for row in out.fresh.rows):
            problems.append("non-finite total_time")
        if out.resumed.executed != 0:
            problems.append(f"resume executed {out.resumed.executed} cells")
        return problems

    def fingerprint(self, out: CampaignTraceOut) -> Any:
        return sorted((row["cell_id"], row["total_time"]) for row in out.fresh.rows)

    def traced_counters(self, recorder: SpanRecorder, out: CampaignTraceOut) -> None:
        busy = sum(float(row["wall_time"]) for row in out.rows)
        recorder.add("campaign.worker_busy_s", busy)
        recorder.add("campaign.wall_s", out.wall_s)
        recorder.add("campaign.seed_batches",
                     len({(row["scenario"], row["policy"]) for row in out.rows}))
        recorder.add("campaign.jsonl_bytes", out.jsonl_bytes)
        recorder.add("resilience.faults", out.faults)


def make_workloads(size: str = "full") -> Dict[str, Workload]:
    """Every workload by name; ``size="smoke"`` shrinks them for tests."""
    dense = {"full": SimSize(256, 8, 40), "smoke": SimSize(32, 4, 6)}
    sparse = {"full": SimSize(1024, 2, 8, view_size=64), "smoke": SimSize(64, 2, 4, view_size=16)}
    batch = {"full": SimSize(64, 48, 40, replicas=16), "smoke": SimSize(16, 8, 10, replicas=4)}
    workloads: List[Workload] = [
        # A fresh process runs its first 10-20 dense ops 10-35% slower than
        # later ones, even on one repeated input (2-core VM, NumPy 2.4,
        # glibc malloc); the calibration kernel does not slow down with them.
        # Freeing one 4 MiB array before the first op (raising glibc's
        # adaptive mmap threshold) removed that phase and made every op about
        # 20% faster: page faults on fresh arrays are part of the op's cost,
        # so the benchmark leaves the allocator as users get it.
        SyntheticWorkload("gossip-dense-p256", size, dense, "dense", 0.25, warmup_ops=20),
        SyntheticWorkload("gossip-sparse-p1024", size, sparse, "sparse", 0.3),
        SyntheticWorkload("batch-lb-p64x16", size, batch, "dense", 0.35),
        ErosionWorkload(size),
        CampaignWorkload(size),
    ]
    return {w.name: w for w in workloads}


WORKLOAD_NAMES = tuple(make_workloads())


# ----------------------------------------------------------------------
# The closed loop.
# ----------------------------------------------------------------------
class Tally:
    """Attempted and failed ops, with the first few problems for the log."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def count(self, label: str, problems: Sequence[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{label}: {'; '.join(problems)}")
        return not problems


def _call(fn: Callable[[Any], Any], inp: Any) -> Tuple[Any, List[str], float]:
    """Run one op; return its output, any exception as a problem, and its time."""
    start = perf_counter()
    try:
        out = fn(inp)
    except Exception as exc:  # an op that raises counts as failed; the run goes on
        return None, [f"{type(exc).__name__}: {exc}"], perf_counter() - start
    return out, [], perf_counter() - start


def tail(times: Sequence[float]) -> Tuple[float, float]:
    """The (N-10)-th smallest time and its percentile; the maximum below
    :data:`MIN_TAIL_OPS` samples."""
    ordered = sorted(times)
    n = len(ordered)
    if n < MIN_TAIL_OPS:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def peak_rss_mib() -> float:
    """Peak resident set of this process or of any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def run_e2e(w: Workload, seed: int, seconds: float, ops: Optional[int] = None,
            setup_repeats: int = SETUP_REPEATS) -> Dict[str, Any]:
    """Untraced closed-loop run: end-to-end metric values and the tally."""
    tally = Tally()
    warm = w.op_input(seed, -1)
    out, problems, _ = _call(w.run_op, warm)
    # Through one op only: later ops grow the heap by allocator fragmentation
    # that depends on how many ops the window fits.
    rss = peak_rss_mib()
    problems = problems or w.check(warm, out)
    if problems:  # a broken warm-up op counts like any other
        tally.count("warm-up op", problems)
    else:
        for label, found in w.warmup_checks(seed, warm, out):
            tally.count(label, found)
    if ops is None:
        for extra in range(1, w.warmup_ops):
            _call(w.run_op, w.op_input(seed, -1 - extra))

    times: List[float] = []
    calibration: List[float] = []
    kept: List[Any] = []
    start = perf_counter()
    index = 0
    while True:
        elapsed = perf_counter() - start
        if ops is not None:
            if index >= ops:
                break
        elif (elapsed >= seconds and index >= MIN_TAIL_OPS) or elapsed >= MAX_WINDOW_S:
            break
        inp = w.op_input(seed, index)
        out, problems, dt = _call(w.run_op, inp)
        calibration.append(w.op_calibration.kernel())
        problems = problems or w.check(inp, out)
        if tally.count(f"op {index}", problems):
            times.append(dt)
            w.record(inp, out, kept)
        index += 1
    window = perf_counter() - start
    checks, reported = w.set_checks(kept)
    for label, found in checks:
        tally.count(label, found)
    setup = w.measure_setup(seed, warm, setup_repeats)
    tally.count("set-up processes", setup.problems)
    if not times:
        raise RuntimeError(f"{w.name}: no op succeeded: {tally.problems[:3]}")

    speed = w.op_calibration.speed(calibration)
    setup_speed = FRESH_PROCESS.speed(setup.kernel_times)
    p50 = statistics.median(times)
    tail_s, tail_pct = tail(times)
    setup_s = statistics.median(setup.times)
    values = {
        "setup_s": setup_s * setup_speed,
        "sim_iter_per_s": w.iterations / (p50 * speed),
        "run_s_p50": p50 * speed,
        "run_s_tail": tail_s * speed,
        "peak_rss_mib": rss,
    }
    info = {
        "ops": len(times), "window_s": window, "tail_percentile": tail_pct,
        "fail_frac": tally.failed / tally.attempted,
        "op_speed": speed, "setup_speed": setup_speed,
        "measured": {"setup_s": setup_s, "run_s_p50": p50, "run_s_tail": tail_s},
        "problems": tally.problems, **reported,
    }
    return {"tally": tally, "values": values, "info": info}


def _import_times(repeats: int) -> Dict[str, float]:
    """Median cumulative import time of :data:`IMPORT_MODULES` (seconds)."""
    samples: Dict[str, List[float]] = {key: [] for key in IMPORT_MODULES}
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import repro"],
                              env=child_env(), cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        cumulative: Dict[str, int] = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[0].startswith("import time:"):
                module = parts[2].strip()
                try:
                    micros = int(parts[1])
                except ValueError:  # the header line
                    continue
                cumulative[module] = max(cumulative.get(module, 0), micros)
        for key, module in IMPORT_MODULES.items():
            samples[key].append(cumulative.get(module, 0) * 1e-6)
    return {f"{key}.import_s": statistics.median(v) for key, v in samples.items()}


def traced_op_count(w: Workload, seconds: float) -> int:
    """Traced ops of a run: each runs twice, so about ``seconds`` in total."""
    count = max(2, int(seconds / (2.0 * w.nominal_op_s)))
    return -(-count // w.group) * w.group


def run_traced(w: Workload, seed: int, seconds: float, ops: Optional[int] = None,
               import_repeats: int = IMPORT_REPEATS,
               trace_file: Optional[Path] = None) -> Dict[str, Any]:
    """Traced run: per-layer metric values, the tally and the self-time table."""
    tally = Tally()
    warm = w.op_input(seed, -1)
    out, problems, _ = _call(w.trace_op, warm)
    tally.count("warm-up op", problems or w.check_trace(warm, out))

    count = ops if ops is not None else traced_op_count(w, seconds)
    recorder = SpanRecorder()
    overheads: List[float] = []  # 1 - plain / traced time, per op
    calibration: List[float] = []
    kept: List[Any] = []
    for index in range(count):
        calibration.append(IN_PROCESS.kernel())
        inp = w.op_input(seed, index)
        out, problems, plain = _call(w.trace_op, inp)
        problems = problems or w.check_trace(inp, out)
        reference = w.fingerprint(out) if tally.count(f"op {index}", problems) else None

        with instrumented(recorder, w.targets):
            with recorder.root(index):
                out, problems, dt = _call(w.trace_op, inp)
        problems = problems or w.check_trace(inp, out)
        if not problems and reference is not None and w.fingerprint(out) != reference:
            problems = ["traced op differs from the untraced op on the same input"]
        if tally.count(f"traced op {index}", problems):
            if reference is not None:
                overheads.append(1.0 - plain / dt)
            w.record(inp, out, kept)
            w.traced_counters(recorder, out)
    checks, reported = w.set_checks(kept)
    for label, found in checks:
        tally.count(label, found)
    if not overheads:
        raise RuntimeError(f"{w.name}: no op succeeded: {tally.problems[:3]}")

    values = _layer_values(recorder, w, count)
    values.update(_import_times(import_repeats))
    values["paper.ulba_gain_pct"] = reported.get("paper.ulba_gain_pct", 0.0)
    values["bench.trace_overhead_frac"] = statistics.median(overheads)
    values["bench.cpu_speed"] = IN_PROCESS.speed(calibration)
    table = recorder.self_time_table(w.name)
    if trace_file is not None:
        recorder.write_chrome_trace(str(trace_file), w.name)
    info = {"traced_ops": count, "problems": tally.problems, "self_time_table": table}
    return {"tally": tally, "values": values, "info": info}


def _layer_values(recorder: SpanRecorder, w: Workload, ops: int) -> Dict[str, float]:
    totals = recorder.totals()
    counters = recorder.counters

    def total(span: str) -> float:
        return totals.get(span, {}).get("total_s", 0.0)

    def self_s(span: str) -> float:
        return totals.get(span, {}).get("self_s", 0.0)

    def calls(span: str) -> int:
        return int(totals.get(span, {}).get("calls", 0))

    def per_call_ms(span: str) -> float:
        return 1e3 * total(span) / calls(span) if calls(span) else 0.0

    samples = counters.get(_LB_PROBE + ".samples", 0.0)
    busy = counters.get("campaign.worker_busy_s", 0.0)
    wall = counters.get("campaign.wall_s", 0.0)
    jobs = getattr(w, "jobs", 1)
    return {
        "api.session_build_s": total("api.session_build"),
        "scenarios.build_s": total("scenarios.build"),
        "erosion.build_s": total("erosion.build"),
        "erosion.advance_s": total("erosion.advance"),
        "erosion.advance_calls": calls("erosion.advance"),
        "runtime.advance_s": total("runtime.advance"),
        "runtime.loop_self_s": self_s("runtime.loop"),
        "simcluster.compute_step_s": total("simcluster.compute_step"),
        "simcluster.gossip_step_s": total("simcluster.gossip_step"),
        "simcluster.gossip_steps": calls("simcluster.gossip_step"),
        "simcluster.gossip_step_ms": per_call_ms("simcluster.gossip_step"),
        "simcluster.view_coverage": counters.get(_LB_PROBE, 0.0) / samples if samples else 0.0,
        "simcluster.board_mib": w.board_bytes() / 2**20,
        "lb.wir_update_s": total("lb.wir_update"),
        "lb.trigger_s": total("lb.trigger"),
        "lb.trigger_calls": calls("lb.trigger"),
        "lb.steps": calls("lb.execute"),
        "lb.execute_s": total("lb.execute"),
        "lb.execute_ms": per_call_ms("lb.execute"),
        "lb.policy_decide_s": total("lb.policy_decide"),
        "lb.steps_per_iter": calls("lb.execute") / (ops * w.iterations),
        "lb.migrated_load": counters.get("lb.migrated_load", 0.0),
        "lb.virtual_cost_s": counters.get("lb.virtual_cost_s", 0.0),
        "partitioning.partition_s": total("partitioning.partition"),
        "partitioning.calls": calls("partitioning.partition"),
        "batch.loop_self_s": self_s("batch.loop"),
        "campaign.worker_busy_s": busy,
        "campaign.pool_idle_frac": 1.0 - busy / (jobs * wall) if wall else 0.0,
        "campaign.seed_batches": counters.get("campaign.seed_batches", 0.0),
        "campaign.resume_scan_s": total("campaign.resume_scan"),
        "campaign.jsonl_bytes": counters.get("campaign.jsonl_bytes", 0.0),
        "resilience.faults": counters.get("resilience.faults", 0.0),
        "bench.span_coverage": recorder.coverage(),
        "bench.traced_ops": ops,
    }


# ----------------------------------------------------------------------
# Results in the benchmark's output format.
# ----------------------------------------------------------------------
def load_spec() -> Dict[str, Any]:
    with (ROOT / "BENCHMARK.json").open(encoding="utf-8") as handle:
        return json.load(handle)


def with_units(values: Dict[str, float], declared: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """``{name: {"value", "unit"}}`` for exactly the declared metrics."""
    names = [m["name"] for m in declared]
    if set(values) != set(names):
        raise RuntimeError(
            f"measured metrics differ from BENCHMARK.json: missing "
            f"{sorted(set(names) - set(values))}, undeclared {sorted(set(values) - set(names))}")
    return {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in declared}


def measure(name: str, seed: int, seconds: float, mode: str, ops: Optional[int] = None,
            size: str = "full", setup_repeats: int = SETUP_REPEATS,
            import_repeats: int = IMPORT_REPEATS) -> Dict[str, Any]:
    """One workload in one mode, as ``{"correct", "attempted", "failed",
    "metrics", "info"}``."""
    spec = load_spec()
    w = make_workloads(size)[name]
    try:
        if mode == "run":
            raw = run_e2e(w, seed, seconds, ops, setup_repeats)
            metrics = with_units(raw["values"], spec["end_to_end"])
        else:
            trace_file = OUT / f"trace-{name}-seed{seed}.json"
            raw = run_traced(w, seed, seconds, ops, import_repeats, trace_file)
            metrics = with_units(raw["values"], spec["per_layer"])
            raw["info"]["trace_file"] = str(trace_file.relative_to(ROOT))
    finally:
        w.close()
    import numpy

    raw["info"]["numpy"] = numpy.__version__
    tally = raw["tally"]
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics, "info": raw["info"]}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--mode", choices=("run", "trace"), default="run")
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    import repro

    if src not in Path(repro.__file__).resolve().parents:
        print(f"error: repro imported from {repro.__file__}, not from {src}", file=sys.stderr)
        return 2
    w = make_workloads(args.size)[args.workload]
    if args.setup_only:
        w.setup(args.seed)
        return 0
    result = measure(args.workload, args.seed, args.seconds, args.mode, size=args.size)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
