"""Unit tests of :class:`repro.resilience.pool.SupervisedPool`.

The pool is exercised with toy task functions that fail in controlled,
deterministic ways -- killing their own process, stopping their heartbeat,
hanging past the deadline, raising -- so every supervision path (detect,
kill, restart, retry, subdivide, report) is pinned without any flakiness.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time

import pytest

from repro.resilience import (
    CellError,
    RetryExhausted,
    RetryPolicy,
    SupervisedPool,
    TaskFailure,
    TaskResult,
    TaskTimeout,
    WorkerCrash,
)

FAST_RETRY = RetryPolicy(max_retries=2, backoff_base=0.005, backoff_cap=0.02)


def toy(payload, attempt):
    """Top-level task fn (picklable): behaviour keyed by the payload."""
    kind = payload[0]
    if kind == "ok":
        return payload[1] * 2
    if kind == "crash_once":
        if attempt == 0:
            os._exit(17)
        return "recovered"
    if kind == "crash_always":
        os._exit(17)
    if kind == "hang_once":
        if attempt == 0:
            time.sleep(60)
        return "unhung"
    if kind == "stop_once":
        if attempt == 0:
            os.kill(os.getpid(), signal.SIGSTOP)
        return "unstopped"
    if kind == "boom":
        raise ValueError("deterministic boom")
    if kind == "batch":
        items = payload[1]
        if any(item == "bad" for item in items):
            raise ValueError(f"bad item in {items}")
        return [item.upper() for item in items]
    if kind == "slow":
        time.sleep(payload[1])
        return "slow done"
    raise AssertionError(f"unknown toy payload {payload!r}")


def subdivide_batch(payload):
    """Split a ('batch', [...]) payload into single-item batches."""
    if payload[0] != "batch" or len(payload[1]) <= 1:
        return None
    return [("batch", [item]) for item in payload[1]]


def run_pool(payloads, **kwargs):
    kwargs.setdefault("processes", 2)
    kwargs.setdefault("retry", FAST_RETRY)
    pool = SupervisedPool(toy, **kwargs)
    results = list(pool.run(payloads))
    return results, pool


def assert_no_orphans():
    deadline = time.monotonic() + 5.0
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.05)
    assert multiprocessing.active_children() == []


class TestHappyPath:
    def test_all_results_in_completion_order(self):
        results, pool = run_pool([("ok", i) for i in range(8)])
        assert all(isinstance(r, TaskResult) for r in results)
        assert sorted(r.value for r in results) == [0, 2, 4, 6, 8, 10, 12, 14]
        assert all(r.attempts == 1 for r in results)
        assert pool.stats["retries"] == 0
        assert_no_orphans()

    def test_worker_pids_are_real_children(self):
        results, _ = run_pool([("ok", i) for i in range(4)])
        assert all(r.worker_pid > 0 and r.worker_pid != os.getpid() for r in results)

    def test_context_manager_terminates(self):
        with SupervisedPool(toy, processes=2, retry=FAST_RETRY) as pool:
            assert list(pool.run([("ok", 1)]))[0].value == 2
        assert_no_orphans()


class TestCrashRecovery:
    def test_worker_crash_is_retried_and_recovers(self):
        results, pool = run_pool([("crash_once", None), ("ok", 1)])
        recovered = [r for r in results if r.payload[0] == "crash_once"][0]
        assert isinstance(recovered, TaskResult)
        assert recovered.value == "recovered"
        assert recovered.attempts == 2
        assert pool.stats["crashes"] >= 1
        assert pool.stats["restarts"] >= 1
        assert_no_orphans()

    def test_crash_always_exhausts_retries(self):
        results, pool = run_pool([("crash_always", None)])
        assert len(results) == 1
        failure = results[0]
        assert isinstance(failure, TaskFailure)
        assert isinstance(failure.error, RetryExhausted)
        # max_retries=2 -> 3 executions in total.
        assert failure.attempts == FAST_RETRY.max_retries + 1
        assert "exitcode=17" in str(failure.error)
        assert_no_orphans()

    def test_heartbeat_loss_detected_without_deadline(self):
        # The worker SIGSTOPs itself: the process object stays "alive" but
        # beats stop flowing; the supervisor must kill and retry it even
        # with no task_timeout configured.
        results, pool = run_pool(
            [("stop_once", None)],
            processes=1,
            heartbeat_interval=0.05,
            heartbeat_timeout=0.6,
        )
        assert isinstance(results[0], TaskResult)
        assert results[0].value == "unstopped"
        assert pool.stats["crashes"] >= 1
        assert_no_orphans()


class TestDeadlines:
    def test_hung_task_times_out_and_recovers(self):
        results, pool = run_pool([("hang_once", None)], task_timeout=0.8)
        assert isinstance(results[0], TaskResult)
        assert results[0].value == "unhung"
        assert results[0].attempts == 2
        assert pool.stats["timeouts"] == 1
        assert_no_orphans()

    def test_timeout_error_is_structured(self):
        results, _ = run_pool(
            [("slow", 30.0)],
            task_timeout=0.3,
            retry=RetryPolicy(max_retries=0),
        )
        failure = results[0]
        assert isinstance(failure, TaskFailure)
        assert isinstance(failure.error, RetryExhausted)
        assert "deadline" in str(failure.error)
        assert_no_orphans()

    def test_invalid_timeout_rejected(self):
        with pytest.raises(ValueError, match="task_timeout"):
            SupervisedPool(toy, processes=1, task_timeout=0.0)
        with pytest.raises(ValueError, match="task_timeout"):
            SupervisedPool(toy, processes=1, task_timeout=-1.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_timeout_rejected(self, bad):
        # nan passes a plain `<= 0` check yet never expires a deadline.
        with pytest.raises(ValueError, match="finite"):
            SupervisedPool(toy, processes=1, task_timeout=bad)
        with pytest.raises(ValueError, match="processes"):
            SupervisedPool(toy, processes=0)


class TestDeterministicErrors:
    def test_task_exception_not_retried(self):
        results, pool = run_pool([("boom", None)])
        failure = results[0]
        assert isinstance(failure, TaskFailure)
        assert isinstance(failure.error, CellError)
        assert not isinstance(failure.error, (WorkerCrash, TaskTimeout))
        assert failure.attempts == 1  # never re-dispatched
        assert pool.stats["retries"] == 0
        assert failure.error.error_type == "ValueError"
        assert "deterministic boom" in str(failure.error)
        assert "deterministic boom" in failure.error.worker_traceback

    def test_subdivision_isolates_the_culprit(self):
        results, pool = run_pool(
            [("batch", ["a", "bad", "c"])], subdivide=subdivide_batch
        )
        ok = [r for r in results if isinstance(r, TaskResult)]
        bad = [r for r in results if isinstance(r, TaskFailure)]
        assert sorted(v for r in ok for v in r.value) == ["A", "C"]
        assert len(bad) == 1
        assert bad[0].payload == ("batch", ["bad"])
        assert pool.stats["splits"] == 1
        assert_no_orphans()


class TestLifecycle:
    def test_consumer_exception_leaves_no_orphans(self):
        pool = SupervisedPool(toy, processes=2, retry=FAST_RETRY)
        with pytest.raises(RuntimeError, match="consumer stopped"):
            for result in pool.run([("slow", 0.2) for _ in range(6)]):
                raise RuntimeError("consumer stopped")
        assert_no_orphans()

    def test_drain_stops_dispatch_but_finishes_in_flight(self):
        pool = SupervisedPool(toy, processes=1, retry=FAST_RETRY)
        seen = []
        for result in pool.run([("slow", 0.1) for _ in range(10)]):
            seen.append(result)
            pool.drain()
        # One task was in flight (none, with processes=1 the next dispatch
        # happens after the yield); drain keeps the rest from starting.
        assert 1 <= len(seen) <= 2
        assert all(isinstance(r, TaskResult) for r in seen)
        assert_no_orphans()

    def test_fault_callback_sees_supervision_events(self):
        kinds = []
        pool = SupervisedPool(
            toy,
            processes=1,
            retry=FAST_RETRY,
            on_fault=lambda fault: kinds.append(fault.kind),
        )
        list(pool.run([("crash_once", None)]))
        assert "crash" in kinds
        assert "retry" in kinds

    def test_heartbeat_callback_fires(self):
        beats = []
        pool = SupervisedPool(
            toy,
            processes=1,
            retry=FAST_RETRY,
            heartbeat_interval=0.05,
            on_heartbeat=lambda wid, pid, stamp, busy: beats.append(pid),
        )
        list(pool.run([("slow", 0.3)]))
        assert beats, "no heartbeats observed during a 0.3s task"
