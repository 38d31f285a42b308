"""The supervised worker pool behind fault-tolerant campaign execution.

``multiprocessing.Pool`` treats its workers as infallible: one segfault,
OOM kill or hung task and ``imap_unordered`` either raises away the whole
campaign or blocks forever.  :class:`SupervisedPool` replaces it with an
explicitly supervised design:

* one duplex :func:`multiprocessing.Pipe` per worker carries tasks down and
  results *and heartbeats* up -- the same channel the campaign's telemetry
  rides on, so a frozen worker is indistinguishable from a dead one and
  both are detected;
* the supervisor tracks a deadline per in-flight task (``task_timeout``),
  polls worker liveness (``Process.is_alive`` + heartbeat staleness), kills
  and **restarts** failed workers, and re-dispatches the lost task with
  bounded retries under exponential backoff + full jitter
  (:class:`~repro.resilience.retry.RetryPolicy`);
* a task that exhausts its retries is *subdivided* (when the caller
  provides a ``subdivide`` hook) so one poisoned cell inside a seed-batch
  is isolated instead of condemning its siblings; an irreducible task
  surfaces as a structured :class:`TaskFailure` carrying the full error
  taxonomy (:mod:`repro.resilience.errors`) -- the caller decides whether
  to quarantine it or raise.

Workers are plain :class:`multiprocessing.Process` instances (any start
method), so a worker calling ``os._exit`` or being SIGKILLed corrupts at
most its own pipe -- never a shared queue.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass
from multiprocessing.connection import wait as _wait_connections
from typing import Callable, Deque, Dict, Iterable, List, Optional, Sequence

from repro.resilience.errors import (
    CellError,
    RetryExhausted,
    TaskTimeout,
    WorkerCrash,
)
from repro.resilience.retry import RetryPolicy

__all__ = [
    "PoolFault",
    "SupervisedPool",
    "TaskFailure",
    "TaskResult",
    "check_task_timeout",
]

#: Fallback polling period of the supervision loop (seconds).
_POLL_INTERVAL = 0.05


def check_task_timeout(task_timeout: Optional[float]) -> None:
    """Reject a task deadline that is not ``None`` or a finite ``> 0``.

    ``nan`` would otherwise pass a plain ``<= 0`` check and silently
    disable the deadline (``now > now + nan`` is never true).
    """
    if task_timeout is not None and not 0 < task_timeout < math.inf:
        raise ValueError(
            f"task_timeout must be a finite number > 0 or None, got {task_timeout}"
        )


@dataclass(frozen=True)
class TaskResult:
    """One successfully completed task."""

    #: The payload the task was created from.
    payload: object
    #: Return value of the task function.
    value: object
    #: Number of executions it took (1 = first try).
    attempts: int
    #: Pid of the worker that completed it.
    worker_pid: int


@dataclass(frozen=True)
class TaskFailure:
    """One task the pool gave up on.

    ``dropped`` marks failures abandoned because the pool was draining
    (first Ctrl-C): the task was neither retried nor subdivided and simply
    re-runs on the next resume -- callers must not quarantine it.
    """

    #: The payload of the failed task.
    payload: object
    #: Structured final error (taxonomy of :mod:`repro.resilience.errors`).
    error: CellError
    #: Number of executions attempted.
    attempts: int
    #: True when the failure was abandoned mid-drain, not exhausted.
    dropped: bool = False


@dataclass(frozen=True)
class PoolFault:
    """One supervision event (telemetry; reported via ``on_fault``)."""

    #: ``"crash"`` / ``"timeout"`` / ``"error"`` / ``"retry"`` / ``"split"``
    #: / ``"restart"``.
    kind: str
    #: Payload of the affected task (None for worker-only events).
    payload: Optional[object]
    #: 0-based attempt index the fault happened on.
    attempt: int
    #: Backoff delay before the re-dispatch (None when not retrying).
    retry_in: Optional[float]
    #: Pid of the affected worker (None when unknown).
    worker_pid: Optional[int]
    #: Human-readable description.
    message: str


class _Task:
    """Mutable supervisor-side state of one unit of work."""

    __slots__ = ("key", "payload", "attempts", "not_before")

    def __init__(self, key: int, payload: object) -> None:
        self.key = key
        self.payload = payload
        #: Completed dispatches so far (== the next attempt index).
        self.attempts = 0
        #: Earliest monotonic instant the task may (re-)dispatch.
        self.not_before = 0.0


class _Worker:
    """One supervised worker slot (respawned in place on failure)."""

    __slots__ = (
        "worker_id",
        "process",
        "conn",
        "pid",
        "last_beat",
        "current",
        "deadline",
        "spawn_count",
    )

    def __init__(self, worker_id: int) -> None:
        self.worker_id = worker_id
        self.spawn_count = 0
        self.process: Optional[multiprocessing.process.BaseProcess] = None
        self.conn = None
        self.pid: Optional[int] = None
        self.last_beat = 0.0
        self.current: Optional[_Task] = None
        self.deadline: Optional[float] = None


def _describe_error(exc: BaseException) -> Dict[str, object]:
    """Picklable description of a worker-side exception."""
    return {
        "type": type(exc).__name__,
        "message": str(exc),
        "traceback": traceback.format_exc(),
        "retryable": bool(getattr(exc, "retryable", False)),
        "cell_ids": list(getattr(exc, "cell_ids", ()) or ()),
    }


def _worker_main(
    worker_id: int,
    conn,
    fn: Callable[[object, int], object],
    initializer: Optional[Callable],
    initargs: Sequence[object],
    heartbeat_interval: float,
) -> None:
    """Worker process body: run tasks, stream results and heartbeats up.

    The heartbeat thread shares the task channel (one lock serialises
    sends), so liveness telemetry piggybacks on the same pipe the results
    travel on.  A parent that went away just ends the loop -- workers never
    outlive the supervisor.
    """
    send_lock = threading.Lock()

    def _send(message) -> bool:
        with send_lock:
            try:
                conn.send(message)
                return True
            except (BrokenPipeError, EOFError, OSError):
                return False

    if initializer is not None:
        initializer(*initargs)
    stop_beating = threading.Event()

    def _beat() -> None:
        while not stop_beating.wait(heartbeat_interval):
            if not _send(("heartbeat", worker_id, os.getpid(), time.time())):
                return

    beater = threading.Thread(target=_beat, daemon=True, name="heartbeat")
    beater.start()
    _send(("ready", worker_id, os.getpid()))
    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break
            if message[0] == "stop":
                break
            _, key, payload, attempt = message
            try:
                value = fn(payload, attempt)
            except BaseException as exc:  # noqa: BLE001 - shipped to supervisor
                if not _send(("error", worker_id, key, _describe_error(exc))):
                    break
            else:
                if not _send(("ok", worker_id, key, value)):
                    break
    finally:
        stop_beating.set()
        try:
            conn.close()
        except OSError:
            pass


class SupervisedPool:
    """A self-healing worker pool with deadlines, retries and isolation.

    Parameters
    ----------
    fn:
        Task function ``fn(payload, attempt)``; must be a picklable
        top-level callable (it crosses the process boundary).
    processes:
        Number of worker slots.
    context:
        :mod:`multiprocessing` context (default: the module default).
    retry:
        Bounded-retry/backoff policy for crashed and timed-out tasks.
    task_timeout:
        Per-task deadline in seconds; ``None`` disables deadlines (hung
        workers are then only caught by heartbeat loss or a second
        signal).
    heartbeat_interval:
        Period of the worker heartbeat thread (seconds).
    heartbeat_timeout:
        Staleness threshold after which a busy worker counts as dead even
        if its process object still looks alive (default:
        ``max(5 s, 20 * heartbeat_interval)``).
    initializer / initargs:
        Run once in every (re)spawned worker, exactly like
        ``multiprocessing.Pool``.
    subdivide:
        ``subdivide(payload) -> list[payload] | None``; called when a task
        exhausts its retries (or fails non-retryably) to isolate the
        culprit.  Children start with a fresh retry budget.
    on_fault / on_heartbeat:
        Optional telemetry callbacks invoked in the supervising process.
    """

    def __init__(
        self,
        fn: Callable[[object, int], object],
        *,
        processes: int,
        context: Optional[multiprocessing.context.BaseContext] = None,
        retry: Optional[RetryPolicy] = None,
        task_timeout: Optional[float] = None,
        heartbeat_interval: float = 0.25,
        heartbeat_timeout: Optional[float] = None,
        initializer: Optional[Callable] = None,
        initargs: Sequence[object] = (),
        subdivide: Optional[Callable[[object], Optional[List[object]]]] = None,
        on_fault: Optional[Callable[[PoolFault], None]] = None,
        on_heartbeat: Optional[Callable[[int, int, float, bool], None]] = None,
    ) -> None:
        if processes < 1:
            raise ValueError(f"processes must be >= 1, got {processes}")
        check_task_timeout(task_timeout)
        self._fn = fn
        self._context = context if context is not None else multiprocessing.get_context()
        self._retry = retry if retry is not None else RetryPolicy()
        self._task_timeout = task_timeout
        self._heartbeat_interval = heartbeat_interval
        self._heartbeat_timeout = (
            heartbeat_timeout
            if heartbeat_timeout is not None
            else max(5.0, 20.0 * heartbeat_interval)
        )
        self._initializer = initializer
        self._initargs = tuple(initargs)
        self._subdivide = subdivide
        self._on_fault = on_fault
        self._on_heartbeat = on_heartbeat
        self._workers = [_Worker(i) for i in range(processes)]
        self._pending: Deque[_Task] = deque()
        self._completed: Deque[object] = deque()
        self._next_key = 0
        self._draining = False
        #: Supervision counters (crashes / timeouts / retries / splits /
        #: restarts); exposed for telemetry and tests.
        self.stats: Dict[str, int] = {
            "crashes": 0,
            "timeouts": 0,
            "retries": 0,
            "splits": 0,
            "restarts": 0,
            "errors": 0,
        }

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------
    def __enter__(self) -> "SupervisedPool":
        """Context-manager entry (no eager spawning)."""
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        """Context-manager exit: always tear the workers down."""
        self.terminate()

    def drain(self) -> None:
        """Stop dispatching; let in-flight tasks finish, drop their retries.

        The cooperative half of graceful shutdown: after :meth:`drain` the
        :meth:`run` generator completes as soon as every in-flight task
        has ended (successfully, or killed by its deadline).
        """
        self._draining = True

    def close(self) -> None:
        """Ask every live worker to exit and reap it (graceful)."""
        for worker in self._workers:
            if worker.process is not None and worker.process.is_alive():
                try:
                    worker.conn.send(("stop",))
                except (BrokenPipeError, EOFError, OSError):
                    pass
        deadline = time.monotonic() + 2.0
        for worker in self._workers:
            if worker.process is not None:
                worker.process.join(max(0.0, deadline - time.monotonic()))
        self.terminate()

    def terminate(self) -> None:
        """Kill every remaining worker process (idempotent)."""
        for worker in self._workers:
            self._kill_worker(worker)

    # ------------------------------------------------------------------
    # Worker management.
    # ------------------------------------------------------------------
    def _spawn_worker(self, worker: _Worker) -> None:
        parent_conn, child_conn = self._context.Pipe(duplex=True)
        process = self._context.Process(
            target=_worker_main,
            args=(
                worker.worker_id,
                child_conn,
                self._fn,
                self._initializer,
                self._initargs,
                self._heartbeat_interval,
            ),
            daemon=True,
            name=f"supervised-worker-{worker.worker_id}",
        )
        process.start()
        child_conn.close()
        worker.process = process
        worker.conn = parent_conn
        worker.pid = process.pid
        worker.last_beat = time.monotonic()
        worker.current = None
        worker.deadline = None

    def _kill_worker(self, worker: _Worker) -> None:
        process = worker.process
        if process is not None:
            if process.is_alive():
                process.terminate()
                process.join(0.5)
                if process.is_alive():
                    process.kill()
                    process.join(1.0)
            else:
                process.join(0.1)
        if worker.conn is not None:
            try:
                worker.conn.close()
            except OSError:
                pass
        worker.process = None
        worker.conn = None
        worker.current = None
        worker.deadline = None

    def _ensure_worker(self, worker: _Worker) -> bool:
        if worker.process is not None and worker.process.is_alive():
            return True
        self._kill_worker(worker)
        was_spawned = worker.spawn_count > 0
        self._spawn_worker(worker)
        worker.spawn_count += 1
        if was_spawned:
            self.stats["restarts"] += 1
            self._fault("restart", None, 0, None, worker.pid, "worker restarted")
        return True

    # ------------------------------------------------------------------
    # Supervision loop.
    # ------------------------------------------------------------------
    def run(self, payloads: Iterable[object]):
        """Execute every payload; yield :class:`TaskResult` / :class:`TaskFailure`.

        Results arrive in completion order.  The generator owns the worker
        lifecycle: normal exhaustion closes the pool gracefully, and an
        exception (or early ``close()``) in the consumer terminates every
        worker -- no orphan processes either way.
        """
        for payload in payloads:
            self._add_task(payload)
        try:
            while True:
                now = time.monotonic()
                self._dispatch(now)
                self._poll_messages(self._wait_timeout(now))
                self._police(time.monotonic())
                while self._completed:
                    yield self._completed.popleft()
                if not self._in_flight() and (self._draining or not self._pending):
                    break
            self.close()
        finally:
            self.terminate()

    def _add_task(self, payload: object) -> None:
        task = _Task(self._next_key, payload)
        self._next_key += 1
        self._pending.append(task)

    def _in_flight(self) -> bool:
        return any(worker.current is not None for worker in self._workers)

    def _ready_task(self, now: float) -> Optional[_Task]:
        for index, task in enumerate(self._pending):
            if task.not_before <= now:
                del self._pending[index]
                return task
        return None

    def _dispatch(self, now: float) -> None:
        if self._draining:
            return
        for worker in self._workers:
            if worker.current is not None:
                continue
            task = self._ready_task(now)
            if task is None:
                return
            self._ensure_worker(worker)
            try:
                worker.conn.send(("task", task.key, task.payload, task.attempts))
            except (BrokenPipeError, EOFError, OSError):
                # The worker died between spawn and send: requeue the task
                # unchanged (it never started, so this is not an attempt)
                # and let the next loop iteration respawn the slot.
                self._kill_worker(worker)
                self._pending.appendleft(task)
                continue
            worker.current = task
            worker.deadline = (
                now + self._task_timeout if self._task_timeout is not None else None
            )

    def _wait_timeout(self, now: float) -> float:
        timeout = _POLL_INTERVAL
        for task in self._pending:
            if task.not_before > now:
                timeout = min(timeout, task.not_before - now)
        for worker in self._workers:
            if worker.deadline is not None:
                timeout = min(timeout, worker.deadline - now)
        return max(0.005, min(timeout, 0.5))

    def _poll_messages(self, timeout: float) -> None:
        conns = {
            worker.conn: worker
            for worker in self._workers
            if worker.conn is not None
        }
        if not conns:
            if self._pending and not self._draining:
                time.sleep(min(timeout, _POLL_INTERVAL))
            return
        for conn in _wait_connections(list(conns), timeout):
            worker = conns[conn]
            try:
                while True:
                    self._handle_message(worker, conn.recv())
                    if not conn.poll():
                        break
            except (EOFError, OSError):
                self._handle_dead_worker(worker, reason="pipe closed")

    def _handle_message(self, worker: _Worker, message) -> None:
        kind = message[0]
        worker.last_beat = time.monotonic()
        if kind == "heartbeat":
            if self._on_heartbeat is not None:
                _, worker_id, pid, stamp = message
                self._on_heartbeat(worker_id, pid, stamp, worker.current is not None)
            return
        if kind == "ready":
            return
        _, _, key, body = message
        task = worker.current
        if task is None or task.key != key:
            return  # stale message from a task this supervisor already wrote off
        worker.current = None
        worker.deadline = None
        task.attempts += 1
        if kind == "ok":
            self._completed.append(
                TaskResult(
                    payload=task.payload,
                    value=body,
                    attempts=task.attempts,
                    worker_pid=worker.pid or 0,
                )
            )
            return
        self.stats["errors"] += 1
        error = CellError(
            f"{body.get('type', 'Exception')}: {body.get('message', '')}",
            cell_ids=body.get("cell_ids", ()),
            attempts=task.attempts,
            worker_pid=worker.pid,
            error_type=str(body.get("type", "Exception")),
            worker_traceback=str(body.get("traceback", "")),
            retryable=bool(body.get("retryable", False)),
        )
        self._fault(
            "error", task.payload, task.attempts - 1, None, worker.pid, str(error)
        )
        self._resolve_failure(task, error)

    def _handle_dead_worker(self, worker: _Worker, *, reason: str) -> None:
        task = worker.current
        pid = worker.pid
        exitcode = None
        if worker.process is not None:
            # Reap first: until the zombie is joined, exitcode reads None
            # and the crash report would lose the actual exit status.
            worker.process.join(0.5)
            exitcode = worker.process.exitcode
        self._kill_worker(worker)
        if task is None:
            return
        self.stats["crashes"] += 1
        task.attempts += 1
        error = WorkerCrash(
            f"worker {pid} died while executing the task "
            f"({reason}; exitcode={exitcode})",
            attempts=task.attempts,
            worker_pid=pid,
        )
        self._fault("crash", task.payload, task.attempts - 1, None, pid, str(error))
        self._resolve_failure(task, error)

    def _police(self, now: float) -> None:
        for worker in self._workers:
            if worker.process is None:
                continue
            if not worker.process.is_alive():
                self._handle_dead_worker(worker, reason="process exited")
                continue
            if worker.current is None:
                continue
            if worker.deadline is not None and now > worker.deadline:
                task = worker.current
                pid = worker.pid
                self.stats["timeouts"] += 1
                self._kill_worker(worker)
                task.attempts += 1
                error = TaskTimeout(
                    f"task exceeded its {self._task_timeout:.3g}s deadline on "
                    f"worker {pid}; worker killed",
                    attempts=task.attempts,
                    worker_pid=pid,
                )
                self._fault(
                    "timeout", task.payload, task.attempts - 1, None, pid, str(error)
                )
                self._resolve_failure(task, error)
                continue
            if now - worker.last_beat > self._heartbeat_timeout:
                self._handle_dead_worker(worker, reason="heartbeat lost")

    # ------------------------------------------------------------------
    # Failure resolution: retry -> subdivide -> report.
    # ------------------------------------------------------------------
    def _resolve_failure(self, task: _Task, error: CellError) -> None:
        if self._draining:
            self._completed.append(
                TaskFailure(
                    payload=task.payload,
                    error=error,
                    attempts=task.attempts,
                    dropped=True,
                )
            )
            return
        if error.retryable and task.attempts <= self._retry.max_retries:
            delay = self._retry.delay(task.attempts, task.key)
            task.not_before = time.monotonic() + delay
            self.stats["retries"] += 1
            self._fault(
                "retry",
                task.payload,
                task.attempts - 1,
                delay,
                error.worker_pid,
                f"re-dispatching in {delay:.3g}s ({task.attempts}/"
                f"{self._retry.max_retries} retries used)",
            )
            self._pending.append(task)
            return
        children = self._subdivide(task.payload) if self._subdivide else None
        if children and len(children) > 1:
            self.stats["splits"] += 1
            self._fault(
                "split",
                task.payload,
                task.attempts - 1,
                None,
                error.worker_pid,
                f"splitting failed task into {len(children)} single-cell tasks",
            )
            for child in children:
                self._add_task(child)
            return
        final = error
        if error.retryable:
            final = RetryExhausted(
                f"task failed {task.attempts} times (max_retries="
                f"{self._retry.max_retries}); last error: {error}",
                cell_ids=error.cell_ids,
                attempts=task.attempts,
                worker_pid=error.worker_pid,
                error_type=error.error_type,
                worker_traceback=error.worker_traceback,
            )
        self._completed.append(
            TaskFailure(payload=task.payload, error=final, attempts=task.attempts)
        )

    def _fault(
        self,
        kind: str,
        payload: Optional[object],
        attempt: int,
        retry_in: Optional[float],
        worker_pid: Optional[int],
        message: str,
    ) -> None:
        if self._on_fault is not None:
            self._on_fault(
                PoolFault(
                    kind=kind,
                    payload=payload,
                    attempt=attempt,
                    retry_in=retry_in,
                    worker_pid=worker_pid,
                    message=message,
                )
            )
