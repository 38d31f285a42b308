"""Campaign execution: supervised worker processes with JSONL resume.

:func:`run_campaign` executes the cells of a :class:`~repro.campaign.spec.CampaignSpec`
in supervised worker processes and persists one JSON object per completed
cell to a JSONL file.  Persistence doubles as the resume log: a rerun with
the same spec and output path loads the file first and only executes the
cells whose ids are not on disk yet, so an interrupted campaign (Ctrl-C,
crashed worker, killed CI job) continues where it stopped instead of
starting over.

Work is dispatched as *seed-batches*: the pending cells are grouped into
(scenario, policy) groups whose members differ only in their repetition
seed, and each group executes all of its seeds as one vectorized replica
batch (:meth:`repro.api.session.Session.run_batch` on the replica-batched
engine of :mod:`repro.batch`).  Worker processes therefore parallelize over
the groups while the replica axis is vectorized inside each worker.  Each
worker rebuilds its cells from the picklable
:class:`~repro.campaign.spec.CampaignCell` descriptors alone, so results
are identical whatever the worker count, in a resumed invocation or as one
replica of a batch (the batch engine is bit-identical to solo runs; only
the bookkeeping field ``wall_time`` varies).

Every campaign runs through one :class:`~repro.resilience.pool.SupervisedPool`
of ``jobs`` workers (``jobs=1`` is a pool of one): every in-flight
seed-batch has a deadline and its worker a heartbeat, dead or hung workers
are killed and restarted, lost batches re-dispatch under bounded backoff,
and a batch that keeps failing is split into single cells to isolate the
culprit.  With a ``quarantine`` sidecar configured the poisoned cell is
recorded there (with full replay context) and the campaign continues;
without one the first irrecoverable failure raises a
:class:`~repro.resilience.errors.CellError` carrying the worker traceback
(fail-fast, the library default).  A first SIGINT/SIGTERM drains in-flight
batches and returns the partial run (``interrupted=True``); a second one
hard-kills.
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import os
import pickle
import signal
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.api.config import ObsConfig
from repro.api.events import (
    EV_CAMPAIGN_CELL,
    EV_CAMPAIGN_FAULT,
    EV_WORKER_HEARTBEAT,
    CampaignCellEvent,
    CampaignFaultEvent,
    EventBus,
    WorkerHeartbeatEvent,
)
from repro.api.session import Session
from repro.campaign.spec import CampaignCell, CampaignSpec
from repro.obs.clock import epoch_ns, wall_clock
from repro.obs.metrics import MetricsRegistry
from repro.obs.profiler import StageProfile, merge_stage_snapshots
from repro.obs.trace import TraceWriter
from repro.resilience.chaos import ChaosConfig
from repro.resilience.pool import (
    SupervisedPool,
    TaskFailure,
    TaskResult,
    check_task_timeout,
)
from repro.resilience.quarantine import QuarantineEntry, QuarantineLog
from repro.resilience.retry import RetryPolicy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.skeleton import RunResult
    from repro.scenarios.base import ScenarioInstance

__all__ = [
    "CampaignRun",
    "load_results",
    "run_campaign",
    "run_cell",
    "run_cell_batch",
]

#: One persisted result row: plain JSON-serialisable cell outcome.
CellRow = Dict[str, object]

#: Worker-side execution info shipped back next to the rows: worker pid,
#: epoch start, wall time and (when observability is on) profiler/metrics
#: snapshots -- everything is plain dicts so it crosses the Pool boundary.
BatchInfo = Dict[str, object]


def _cell_config(cell: CampaignCell, obs: Optional[ObsConfig]):
    """The cell's run config, with the campaign's obs section grafted on."""
    config = cell.run_config()
    if obs is not None and obs.any_enabled:
        config = dataclasses.replace(config, obs=obs)
    return config


def _session_telemetry(session: Session, telemetry: Optional[dict]) -> None:
    """Snapshot a session's profiler/metrics into the telemetry dict."""
    if telemetry is None:
        return
    if session.profiler is not None:
        telemetry["profile"] = session.profiler.snapshot()
    if session.metrics is not None:
        telemetry["metrics"] = session.metrics.snapshot()


def run_cell(
    cell: CampaignCell,
    *,
    obs: Optional[ObsConfig] = None,
    telemetry: Optional[dict] = None,
) -> CellRow:
    """Execute one campaign cell and return its JSON-serialisable row.

    Hands the cell's declarative run config to the
    :class:`~repro.api.session.Session` facade -- which builds the scenario
    instance for the cell's seed, the virtual cluster with the campaign's
    interconnect model and the policy pair via the LB registry -- and
    summarises the trace.  Deterministic except for the ``wall_time``
    bookkeeping field.  ``obs`` grafts an observability section onto the
    cell's config (profiling never perturbs the simulated results);
    ``telemetry`` receives the profiler/metrics snapshots when provided.
    """
    started = wall_clock()
    session = Session.from_config(_cell_config(cell, obs))
    result = session.run()
    _session_telemetry(session, telemetry)
    return _cell_row(
        cell, result.run, session.scenario_instance, wall_clock() - started
    )


def _cell_row(
    cell: CampaignCell,
    result: "RunResult",
    instance: "ScenarioInstance",
    wall_time: float,
) -> CellRow:
    """The JSON row of one executed cell (solo or one replica of a batch)."""
    return {
        "cell_id": cell.cell_id,
        "scenario": cell.scenario,
        "policy": cell.policy.label,
        "policy_kind": cell.policy.kind,
        "alpha": cell.policy.alpha,
        "seed_index": cell.seed_index,
        "seed": cell.seed,
        "num_pes": cell.num_pes,
        "iterations": cell.iterations,
        "latency": cell.latency,
        "bandwidth": cell.bandwidth,
        "bytes_per_load_unit": cell.bytes_per_load_unit,
        "pe_speed": cell.pe_speed,
        "total_time": result.total_time,
        "num_lb_calls": result.num_lb_calls,
        "mean_utilization": result.mean_utilization,
        "model_N": instance.parameters.num_overloading,
        "wall_time": wall_time,
    }


def run_cell_batch(
    cells: Sequence[CampaignCell],
    *,
    obs: Optional[ObsConfig] = None,
    telemetry: Optional[dict] = None,
) -> List[CellRow]:
    """Execute one seed-batch -- all repetitions of one (scenario, policy).

    The cells must differ only in their seeding (the runner groups them that
    way); their shared :class:`~repro.api.config.RunConfig` is handed to
    :meth:`repro.api.session.Session.run_batch`, which executes every seed
    as one replica of a single vectorized pass.  Multiprocessing therefore
    parallelizes over (scenario, policy) groups while the replica axis is
    vectorized inside each worker.  Each returned row is bit-identical to
    what :func:`run_cell` computes for that cell (only the bookkeeping
    ``wall_time``, here the per-replica share of the batch, differs).
    ``obs``/``telemetry`` behave as on :func:`run_cell`.
    """
    started = wall_clock()
    if len(cells) == 1:
        return [run_cell(cells[0], obs=obs, telemetry=telemetry)]
    session = Session.from_config(_cell_config(cells[0], obs))
    batch = session.run_batch(seeds=[cell.seed for cell in cells])
    _session_telemetry(session, telemetry)
    wall_share = (wall_clock() - started) / len(cells)
    return [
        _cell_row(cell, result, instance, wall_share)
        for cell, result, instance in zip(cells, batch.replicas, session.batch_instances)
    ]


#: A supervised task payload: the seed-batch, the worker-side obs config
#: and the chaos injector (None outside chaos runs).
TaskPayload = Tuple[List[CampaignCell], Optional[ObsConfig], Optional[ChaosConfig]]


def _supervised_batch_task(
    payload: TaskPayload, attempt: int
) -> "Tuple[List[CellRow], BatchInfo]":
    """Supervised-pool task: chaos gate, then one seed-batch plus its info.

    The fault injector runs *before* any simulation work, so a cell that
    survives injection produces a row bit-identical to a fault-free run;
    ``attempt`` feeds the injector's per-attempt decision (transient faults
    stop firing once a cell used up its injection cap).

    Returns the rows unchanged (the persisted row schema stays exactly what
    :func:`run_cell` produces) and a separate info dict carrying the worker
    pid, the epoch-clock start (``time.time_ns`` -- the only clock that is
    meaningful across processes) and the optional obs snapshots; the parent
    turns these into ``"campaign_cell"`` events, worker-pid trace tracks and
    merged metrics/profiles.
    """
    cells, obs, chaos = payload
    if chaos is not None and chaos.any_enabled:
        chaos.inject([cell.cell_id for cell in cells], attempt)
    start_ns = epoch_ns()
    started = wall_clock()
    telemetry: dict = {}
    rows = run_cell_batch(cells, obs=obs, telemetry=telemetry)
    telemetry.update(
        worker_pid=os.getpid(),
        start_ns=start_ns,
        wall_time=wall_clock() - started,
    )
    return rows, telemetry


def _subdivide_payload(payload: TaskPayload) -> Optional[List[TaskPayload]]:
    """Split a failed multi-cell payload into single-cell payloads.

    The supervised pool calls this when a seed-batch exhausts its retries
    (or fails deterministically): re-running the cells one by one isolates
    the poisoned cell while its siblings complete normally.  Single-cell
    payloads return ``None`` -- they are already irreducible.
    """
    cells, obs, chaos = payload
    if len(cells) <= 1:
        return None
    return [([cell], obs, chaos) for cell in cells]


def _trace_batch(
    writer: TraceWriter,
    rows: Sequence[CellRow],
    info: BatchInfo,
    named_pids: set,
) -> None:
    """Record one seed-batch on its worker's trace track.

    One complete event spans the whole batch (tid 0) and each cell gets an
    evenly divided sub-span (tid 1) -- the worker measures only the batch
    wall time, mirroring the ``wall_time`` = per-replica-share convention of
    the persisted rows.  All timestamps are epoch nanoseconds shipped from
    the worker, so tracks from different pids line up in the viewer.
    """
    pid = int(info.get("worker_pid", 0))
    if pid not in named_pids:
        writer.set_process_name(f"worker {pid}", pid=pid)
        writer.set_thread_name("seed batches", pid=pid, tid=0)
        writer.set_thread_name("cells", pid=pid, tid=1)
        named_pids.add(pid)
    start_ns = int(info.get("start_ns", 0))
    dur_ns = max(int(float(info.get("wall_time", 0.0)) * 1e9), 1)
    first = rows[0]
    writer.complete(
        f"batch:{first['scenario']}|{first['policy']}",
        start_ns,
        dur_ns,
        cat="campaign_batch",
        pid=pid,
        args={"cells": len(rows)},
    )
    share = max(dur_ns // len(rows), 1)
    for index, row in enumerate(rows):
        writer.complete(
            f"cell:{row['cell_id']}",
            start_ns + index * share,
            share,
            cat="campaign_cell",
            pid=pid,
            tid=1,
            args={
                "total_time": float(row["total_time"]),
                "num_lb_calls": int(row["num_lb_calls"]),
            },
        )


def _seed_batches(cells: Sequence[CampaignCell]) -> List[List[CampaignCell]]:
    """Group cells into seed-batches: same cell in everything but the seed.

    Grouping preserves first-appearance order of both the groups and the
    cells inside them, so batched execution visits cells in the same
    deterministic order as the flat grid.
    """
    groups: Dict[tuple, List[CampaignCell]] = {}
    for cell in cells:
        key = (
            cell.scenario,
            cell.policy,
            cell.num_pes,
            cell.columns_per_pe,
            cell.rows,
            cell.iterations,
            cell.latency,
            cell.bandwidth,
            cell.bytes_per_load_unit,
            cell.pe_speed,
        )
        groups.setdefault(key, []).append(cell)
    return list(groups.values())


def load_results(path: Union[str, Path]) -> List[CellRow]:
    """Load previously persisted rows from a JSONL file (missing file: []).

    Malformed trailing lines (e.g. a run killed mid-write) are ignored, so a
    resumed campaign simply re-executes the affected cell.  Rows sharing a
    ``cell_id`` are de-duplicated keeping the **newest** (last appended) row:
    the log is append-only, so a rerun that re-executed a cell -- e.g. after
    :func:`_heal_torn_tail` invalidated a torn duplicate of it -- appends a
    fresh row after the stale one, and the fresh row is the one a resume (or
    a report over the loaded rows) must trust.
    """
    path = Path(path)
    if not path.exists():
        return []
    by_id: Dict[str, CellRow] = {}
    with path.open("r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(row, dict) and "cell_id" in row:
                # Last occurrence wins; re-inserting moves nothing (dicts
                # keep first-insertion order), so the returned order is the
                # first-appearance order of the cell ids.
                by_id[str(row["cell_id"])] = row
    return list(by_id.values())


def _heal_torn_tail(path: Path) -> None:
    """Terminate a torn final line (crash mid-write) before appending.

    Without this, the first row appended by a resumed run would concatenate
    onto the partial line and both rows would be lost to the JSON parser.
    The torn line itself stays unparseable, so its cell simply re-runs.
    """
    if not path.exists():
        return
    with path.open("rb+") as handle:
        handle.seek(0, 2)
        if handle.tell() == 0:
            return
        handle.seek(-1, 2)
        if handle.read(1) != b"\n":
            handle.write(b"\n")


def _row_matches_cell(row: CellRow, cell: CampaignCell) -> bool:
    """True when a persisted row was produced by exactly this cell.

    The cell id encodes scenario, policy label, grid size and seeding, but
    not the full-precision ``alpha`` or the interconnect model; comparing
    those fields too keeps resume from silently reusing results of a spec
    that shares the id but simulates a different machine.
    """
    checks = {
        "seed": cell.seed,
        "alpha": cell.policy.alpha,
        "latency": cell.latency,
        "bandwidth": cell.bandwidth,
        "bytes_per_load_unit": cell.bytes_per_load_unit,
        "pe_speed": cell.pe_speed,
    }
    return all(row.get(key) == value for key, value in checks.items())


def _shippable_scenarios() -> List[object]:
    """Snapshot of the scenario registry that can travel to worker processes.

    Under the ``spawn`` / ``forkserver`` start methods, workers re-import
    the library and therefore only see the built-in catalog -- a campaign
    over a scenario the caller registered at runtime would die mid-run with
    an unknown-scenario error.  The snapshot is re-registered by the pool
    initializer (:func:`_init_worker`).  Entries that cannot pickle (e.g. a
    scenario built around a lambda or a closure) are skipped: ``fork``
    workers inherit them anyway, and under ``spawn`` they were never going
    to cross the process boundary -- their cells then fail with the same
    clear unknown-scenario error as before instead of poisoning the pool.
    """
    import repro.scenarios  # noqa: F401  -- populates the built-in catalog
    from repro.scenarios import available_scenarios

    shippable: List[object] = []
    for scenario in available_scenarios():
        try:
            pickle.dumps(scenario)
        except Exception:
            continue
        shippable.append(scenario)
    return shippable


def _init_worker(scenarios: Sequence[object]) -> None:
    """Pool initializer: mirror the parent's scenario catalog in the worker."""
    from repro.scenarios.registry import register

    for scenario in scenarios:
        register(scenario, replace=True)  # repro: noqa[FLOW-MUT] -- intentional worker-side rehydration: spawn workers start with an empty registry and must repopulate their own copy from the shipped scenarios


def _pool_context(mp_start_method: Optional[str]) -> multiprocessing.context.BaseContext:
    """Resolve the multiprocessing context of the worker pool.

    ``None`` prefers ``fork`` where available (cheapest start-up; workers
    inherit even unpicklable registry entries) and otherwise falls back to
    the platform default.  An explicit method must be supported on the
    platform.
    """
    methods = multiprocessing.get_all_start_methods()
    if mp_start_method is None:
        return multiprocessing.get_context("fork" if "fork" in methods else None)
    if mp_start_method not in methods:
        raise ValueError(
            f"mp_start_method must be one of {methods} on this platform, "
            f"got {mp_start_method!r}"
        )
    return multiprocessing.get_context(mp_start_method)


@dataclass(frozen=True)
class CampaignRun:
    """Outcome of one :func:`run_campaign` invocation."""

    #: The spec that was executed.
    spec: CampaignSpec
    #: Every known result row (resumed + freshly executed), cell order.
    rows: List[CellRow]
    #: Number of cells executed by this invocation.
    executed: int
    #: Number of cells skipped because they were already on disk.
    skipped: int
    #: Output path the rows were persisted to (None = no persistence).
    out_path: Optional[Path]
    #: Merged hot-loop stage profile across every worker (``obs.profile``).
    profile: Optional[StageProfile] = None
    #: Merged metrics across every worker (``obs.metrics``).
    metrics: Optional[MetricsRegistry] = None
    #: Campaign-level Chrome trace, one track per worker pid (``obs.trace``).
    trace: Optional[TraceWriter] = None
    #: Cell ids quarantined by this invocation (empty on a clean run).
    quarantined: Tuple[str, ...] = ()
    #: Pending cells skipped because an earlier run quarantined them.
    skipped_quarantined: int = 0
    #: True when a SIGINT/SIGTERM drained the run before it finished.
    interrupted: bool = False

    @property
    def num_cells(self) -> int:
        """Number of result rows."""
        return len(self.rows)

    @property
    def clean(self) -> bool:
        """True when the run completed fully with nothing quarantined."""
        return (
            not self.interrupted
            and not self.quarantined
            and self.skipped_quarantined == 0
        )


def run_campaign(
    spec: CampaignSpec,
    *,
    jobs: int = 1,
    out_path: Optional[Union[str, Path]] = None,
    name_filter: Optional[str] = None,
    resume: bool = True,
    on_cell_done: Optional[Callable[[CellRow], None]] = None,
    mp_start_method: Optional[str] = None,
    events: Optional[EventBus] = None,
    obs: Optional[ObsConfig] = None,
    retry: Optional[RetryPolicy] = None,
    task_timeout: Optional[float] = None,
    quarantine: Optional[Union[str, Path]] = None,
    retry_quarantined: bool = False,
    chaos: Optional[ChaosConfig] = None,
    install_signal_handlers: Optional[bool] = None,
) -> CampaignRun:
    """Execute a campaign, resuming from ``out_path`` when it already exists.

    Parameters
    ----------
    spec:
        The campaign grid to run.
    jobs:
        Number of worker processes of the supervised pool
        (:class:`~repro.resilience.pool.SupervisedPool`) every campaign runs
        in -- capped at the number of seed-batches; ``1`` is a pool of one.
        The pool detects dead and hung workers, restarts them and
        re-dispatches lost batches.
    out_path:
        JSONL file results are appended to as cells complete (flushed per
        row, so progress survives interruption).  ``None`` disables
        persistence (and therefore resume).  Note that seed-batching makes
        one (scenario, policy) seed group the unit of completion: an
        interruption mid-batch loses that group's in-flight seeds (they
        simply re-run, again as one batch, on resume), whereas completed
        groups are fully persisted.
    name_filter:
        Substring filter on cell ids (the CLI's ``--filter``).
    resume:
        When true (default), cells whose ids already appear in ``out_path``
        are loaded instead of re-executed.
    on_cell_done:
        Progress callback invoked with each freshly executed row.
    mp_start_method:
        Start method of the worker pool (``"fork"`` / ``"spawn"`` /
        ``"forkserver"``); ``None`` prefers ``fork`` where available.
        Scenarios registered by the calling process are shipped to the
        workers through the pool initializer either way, so campaigns over
        user-registered scenarios work under ``spawn`` too (previously they
        crashed mid-run with an unknown-scenario error).
    events:
        Optional :class:`~repro.api.events.EventBus`; one
        :class:`~repro.api.events.CampaignCellEvent` is emitted per freshly
        executed cell (resumed cells emit nothing) -- the live
        ``--progress`` line subscribes here.  The supervised pool additionally
        emits :class:`~repro.api.events.CampaignFaultEvent` per supervision
        event and :class:`~repro.api.events.WorkerHeartbeatEvent` per
        worker liveness beat.
    obs:
        Optional :class:`~repro.api.config.ObsConfig` enabling campaign
        observability: ``profile``/``metrics`` run inside every worker and
        their snapshots merge into :attr:`CampaignRun.profile` /
        :attr:`CampaignRun.metrics`; ``trace`` builds a campaign-level
        Chrome trace (:attr:`CampaignRun.trace`) with one track per worker
        pid, one span per seed-batch and one sub-span per cell (epoch
        clock, so tracks from different processes line up).  Rows are
        unaffected either way.
    retry:
        :class:`~repro.resilience.retry.RetryPolicy` bounding how often a
        crashed or timed-out batch is re-dispatched (default: 2 retries
        under exponential backoff with full jitter).  Deterministic task
        exceptions are never retried -- the same code on the same cell
        reproduces the same error.
    task_timeout:
        Per-batch deadline in seconds; a batch running longer has its
        worker killed and counts as a (retryable) timeout.  ``None``
        disables deadlines; any other value must be finite and > 0.
    quarantine:
        Path of the ``*.quarantine.jsonl`` sidecar.  When set, a cell that
        keeps failing after isolation is recorded there -- with the
        exception, worker traceback, attempt count, environment stamp and
        its exact :class:`~repro.api.config.RunConfig` for replay -- and
        the campaign **continues** (check :attr:`CampaignRun.quarantined`).
        When ``None`` (the library default) the first irrecoverable
        failure raises a :class:`~repro.resilience.errors.CellError`
        (``error_type`` and ``worker_traceback`` set), fail-fast.  On
        resume, cells quarantined by an earlier run are skipped (counted in
        :attr:`CampaignRun.skipped_quarantined`).
    retry_quarantined:
        Re-execute previously quarantined cells instead of skipping them; a
        cell that now succeeds gets a resolution marker appended to the
        sidecar so later resumes treat it normally.
    chaos:
        Optional :class:`~repro.resilience.chaos.ChaosConfig` fault
        injector (testing/CI only): workers deterministically crash, hang,
        raise or slow down per ``(seed, cell id, attempt)``; an injected
        crash kills a worker, never the caller.
    install_signal_handlers:
        Install SIGINT/SIGTERM handlers while executing: the first signal
        drains in-flight batches and returns the partial run
        (:attr:`CampaignRun.interrupted` set, rows persisted as usual); the
        second hard-kills via :class:`KeyboardInterrupt`.  ``None`` (the
        default) auto-installs when running on the main thread; handlers
        are always restored afterwards.

    Returns
    -------
    CampaignRun
        All known rows of the (possibly filtered) grid in deterministic
        cell order -- quarantined and drained cells have no row -- plus
        executed/skipped/quarantined/interrupted bookkeeping.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    check_task_timeout(task_timeout)
    retry_policy = retry if retry is not None else RetryPolicy()
    cells = spec.cells(name_filter=name_filter)

    obs_enabled = obs is not None and obs.any_enabled
    merged_metrics = MetricsRegistry() if (obs_enabled and obs.metrics) else None
    profile_snapshots: List[dict] = []
    trace_writer: Optional[TraceWriter] = None
    campaign_start_ns = 0
    # Workers never build their own TraceWriter: perf_counter_ns spans from
    # different processes share no clock, so the campaign trace is
    # synthesized parent-side on the epoch clock (time.time_ns) instead.
    worker_obs = dataclasses.replace(obs, trace=False) if obs_enabled else None
    if worker_obs is not None and not worker_obs.any_enabled:
        worker_obs = None
    if obs_enabled and obs.trace:
        trace_writer = TraceWriter(max_events=obs.trace_max_events)
        trace_writer.set_process_name("campaign driver")
        campaign_start_ns = epoch_ns()

    by_id = {cell.cell_id: cell for cell in cells}
    done: Dict[str, CellRow] = {}
    out = Path(out_path) if out_path is not None else None
    if out is not None and resume:
        for row in load_results(out):
            cell_id = str(row["cell_id"])
            cell = by_id.get(cell_id)
            # Trust a persisted row only when it provably came from this
            # cell (same seed, alpha and interconnect model); otherwise the
            # file belongs to a different campaign and the cell re-runs.
            if cell is not None and _row_matches_cell(row, cell):
                done[cell_id] = row
    pending = [cell for cell in cells if cell.cell_id not in done]
    skipped = len(cells) - len(pending)

    quarantine_log = QuarantineLog(quarantine) if quarantine is not None else None
    previously_quarantined = quarantine_log.load() if quarantine_log is not None else {}
    skipped_quarantined = 0
    if previously_quarantined and not retry_quarantined:
        unquarantined = [
            cell for cell in pending if cell.cell_id not in previously_quarantined
        ]
        skipped_quarantined = len(pending) - len(unquarantined)
        pending = unquarantined
    to_resolve = set(previously_quarantined) if retry_quarantined else set()

    quarantined: List[str] = []
    fresh: Dict[str, CellRow] = {}
    completed_cells = 0
    named_pids: set = set()
    interrupt = {"signals": 0}

    def _emit_fault(
        kind: str,
        cell_ids: Sequence[str],
        attempt: int,
        worker_pid: Optional[int],
        retry_in: Optional[float],
        message: str,
    ) -> None:
        if merged_metrics is not None:
            merged_metrics.inc(f"campaign/faults/{kind}")
        if events is not None and events.has_listeners(EV_CAMPAIGN_FAULT):
            events.emit(
                EV_CAMPAIGN_FAULT,
                CampaignFaultEvent(
                    kind=kind,
                    cell_ids=tuple(cell_ids),
                    attempt=attempt,
                    worker_pid=worker_pid or 0,
                    retry_in=retry_in or 0.0,
                    message=message,
                ),
            )

    def _consume(batch_rows: List[CellRow], info: BatchInfo, sink) -> None:
        nonlocal completed_cells
        worker_pid = int(info.get("worker_pid", 0))
        if merged_metrics is not None:
            snapshot = info.get("metrics")
            if snapshot:
                merged_metrics.merge(snapshot)
            merged_metrics.inc("campaign/cells", len(batch_rows))
            merged_metrics.inc(f"campaign/worker/{worker_pid}/cells", len(batch_rows))
        if obs_enabled and obs.profile and info.get("profile"):
            profile_snapshots.append(info["profile"])
        if trace_writer is not None:
            _trace_batch(trace_writer, batch_rows, info, named_pids)
        for row in batch_rows:
            cell_id = str(row["cell_id"])
            fresh[cell_id] = row
            completed_cells += 1
            if sink is not None:
                sink.write(json.dumps(row) + "\n")
                sink.flush()
            if quarantine_log is not None and cell_id in to_resolve:
                # A previously quarantined cell just completed: retract its
                # quarantine entry so later resumes run it normally.
                quarantine_log.resolve(cell_id)
                to_resolve.discard(cell_id)
            if on_cell_done is not None:
                on_cell_done(row)
            if events is not None and events.has_listeners(EV_CAMPAIGN_CELL):
                events.emit(
                    EV_CAMPAIGN_CELL,
                    CampaignCellEvent(
                        cell_id=cell_id,
                        scenario=str(row["scenario"]),
                        policy=str(row["policy"]),
                        total_time=float(row["total_time"]),
                        num_lb_calls=int(row["num_lb_calls"]),
                        worker_pid=worker_pid,
                        index=completed_cells,
                        total=len(pending),
                    ),
                )

    def _quarantine_failure(failure: TaskFailure) -> None:
        failed_cells = failure.payload[0]
        error = failure.error
        for cell in failed_cells:
            quarantine_log.append(
                QuarantineEntry(
                    cell_id=cell.cell_id,
                    error_type=error.error_type,
                    message=str(error),
                    traceback=error.worker_traceback or "",
                    attempts=max(int(failure.attempts), 1),
                    run_config=cell.run_config().to_dict(),
                )
            )
            quarantined.append(cell.cell_id)
            _emit_fault(
                "quarantine",
                [cell.cell_id],
                max(failure.attempts - 1, 0),
                error.worker_pid,
                None,
                f"quarantined after {failure.attempts} attempt(s): {error}",
            )

    def _pool_fault(fault) -> None:
        cell_ids = (
            [cell.cell_id for cell in fault.payload[0]]
            if fault.payload is not None
            else []
        )
        _emit_fault(
            fault.kind,
            cell_ids,
            fault.attempt,
            fault.worker_pid,
            fault.retry_in,
            fault.message,
        )

    def _pool_heartbeat(worker_id: int, pid: int, stamp: float, busy: bool) -> None:
        if events is not None and events.has_listeners(EV_WORKER_HEARTBEAT):
            events.emit(
                EV_WORKER_HEARTBEAT,
                WorkerHeartbeatEvent(
                    worker_id=worker_id, pid=pid, timestamp=stamp, busy=busy
                ),
            )

    if pending:
        # Seed-batches: every (scenario, policy) group runs its repetition
        # seeds as one vectorized replica batch (repro.batch); worker
        # processes parallelize over the groups.
        batches = _seed_batches(pending)
        payloads: List[TaskPayload] = [(batch, worker_obs, chaos) for batch in batches]
        # Imported here, not at module top, so ``import repro`` stays lean:
        # fork workers then inherit the batch engine instead of each paying
        # its import on the first seed-batch.
        import repro.batch.runner  # noqa: F401
        pool = SupervisedPool(
            _supervised_batch_task,
            processes=min(jobs, len(batches)),
            context=_pool_context(mp_start_method),
            retry=retry_policy,
            task_timeout=task_timeout,
            initializer=_init_worker,
            initargs=(_shippable_scenarios(),),
            subdivide=_subdivide_payload,
            on_fault=_pool_fault,
            on_heartbeat=_pool_heartbeat,
        )

        def _on_signal(signum, frame) -> None:
            interrupt["signals"] += 1
            if interrupt["signals"] >= 2:
                # Second signal: stop cooperating.  The KeyboardInterrupt
                # unwinds through the supervision loop, which tears every
                # worker down on the way out.
                raise KeyboardInterrupt
            pool.drain()

        if out is not None:
            out.parent.mkdir(parents=True, exist_ok=True)
            _heal_torn_tail(out)
        sink = out.open("a", encoding="utf-8") if out is not None else None
        install = install_signal_handlers
        if install is None:
            install = threading.current_thread() is threading.main_thread()
        installed: List[tuple] = []
        results = pool.run(payloads)
        try:
            if install:
                for signum in (signal.SIGINT, signal.SIGTERM):
                    try:
                        installed.append((signum, signal.signal(signum, _on_signal)))
                    except (ValueError, OSError):  # pragma: no cover - non-main thread
                        pass
            try:
                for item in results:
                    if isinstance(item, TaskResult):
                        _consume(*item.value, sink)
                    elif item.dropped:
                        # Abandoned mid-drain: the cells simply re-run on
                        # the next resume; quarantining them would be wrong.
                        continue
                    elif quarantine_log is None:
                        raise item.error
                    else:
                        _quarantine_failure(item)
            except BaseException:
                # Ctrl-C (second signal), a failing callback or fail-fast:
                # close the supervision generator *now* -- its finally tears
                # every worker down -- instead of leaving orphaned workers
                # alive until the traceback releases the frame.  The JSONL
                # log already holds every completed row, so a rerun resumes.
                results.close()
                raise
        finally:
            for signum, previous in installed:
                try:
                    signal.signal(signum, previous)
                except (ValueError, OSError):  # pragma: no cover
                    pass
            if sink is not None:
                sink.close()
        if merged_metrics is not None:
            for key, value in pool.stats.items():
                if value:
                    merged_metrics.inc(f"campaign/pool/{key}", value)

    rows: List[CellRow] = []
    for cell in cells:
        row = done.get(cell.cell_id) or fresh.get(cell.cell_id)
        # Quarantined, drained and skipped-quarantined cells have no row.
        if row is not None:
            rows.append(row)
    if trace_writer is not None:
        trace_writer.complete(
            "campaign",
            campaign_start_ns,
            epoch_ns() - campaign_start_ns,
            cat="campaign",
            args={"executed": len(fresh), "skipped": skipped},
        )
    return CampaignRun(
        spec=spec,
        rows=rows,
        executed=len(fresh),
        skipped=skipped,
        out_path=out,
        profile=(
            merge_stage_snapshots(profile_snapshots)
            if obs_enabled and obs.profile
            else None
        ),
        metrics=merged_metrics,
        trace=trace_writer,
        quarantined=tuple(quarantined),
        skipped_quarantined=skipped_quarantined,
        interrupted=interrupt["signals"] > 0,
    )
