"""Wall-clock stage attribution of the execution hot loops.

The ROADMAP's "compile the inner loop" item needs to know *which* stage of
the per-iteration pipeline dominates -- compute step, gossip merge, stripe
reduceat, WIR update or the LB decision -- before anything is worth
compiling.  :class:`StageProfiler` answers that with per-stage wall-time
totals and counts gathered by ``time.perf_counter_ns`` probes that the
runner places around its named stages::

    prof = self._profiler            # None when profiling is off
    ...
    t0 = prof.start() if prof is not None else 0
    self.wir_db.disseminate()
    if prof is not None:
        prof.stop("gossip_round", t0)

The disabled path is a single ``is not None`` check per probe -- no
allocation, no call -- which is what keeps the default run bit-identical
*and* within the <= 2 % off-overhead budget asserted by
``benchmarks/test_bench_micro.py``.

A finished run exposes its profile as an immutable :class:`StageProfile`
(on :attr:`repro.runtime.skeleton.RunResult.profile` and
:attr:`repro.batch.result.BatchResult.profile`): totals, counts, the
enclosing loop time, share-of-loop coverage and a ready-to-print stage
table.  Snapshots are plain dicts, so campaign workers ship them through
multiprocessing results and :func:`merge_stage_snapshots` folds them back
together.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter_ns
from typing import Dict, Iterable, Mapping, Optional

__all__ = ["StageProfile", "StageProfiler", "merge_stage_snapshots"]


@dataclass(frozen=True)
class StageProfile:
    """Immutable per-stage wall-time attribution of one (or many) runs."""

    #: Stage name -> accumulated wall time in nanoseconds.
    totals_ns: Mapping[str, int] = field(default_factory=dict)
    #: Stage name -> number of timed entries into the stage.
    counts: Mapping[str, int] = field(default_factory=dict)
    #: Wall time of the enclosing hot loop (ns); 0 when it was not measured.
    loop_ns: int = 0

    # ------------------------------------------------------------------
    @property
    def total_ns(self) -> int:
        """Sum of all stage totals (ns)."""
        return sum(self.totals_ns.values())

    def coverage(self) -> float:
        """Fraction of the measured loop time the stages account for.

        The acceptance bar of the observability layer: the named stages must
        explain >= 90 % of where the loop's wall clock went (the remainder
        is interpreter glue between the probes).  Returns 0.0 when the loop
        time was not measured.
        """
        if self.loop_ns <= 0:
            return 0.0
        return self.total_ns / self.loop_ns

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable snapshot (stage -> {total_ns, count}, loop_ns)."""
        return {
            "stages": {
                name: {"total_ns": int(self.totals_ns[name]), "count": int(self.counts[name])}
                for name in sorted(self.totals_ns)
            },
            "loop_ns": int(self.loop_ns),
        }

    def stage_table(self) -> str:
        """Human-readable stage table, largest share first.

        One line per stage -- total milliseconds, share of the loop, count
        and mean microseconds per entry -- plus a coverage footer.
        """
        if not self.totals_ns:
            return "(no stages profiled)"
        width = max(len(name) for name in self.totals_ns)
        denom = self.loop_ns if self.loop_ns > 0 else max(self.total_ns, 1)
        lines = [
            f"{'stage':<{width}}  {'total [ms]':>10}  {'share':>6}  {'count':>7}  {'mean [us]':>10}"
        ]
        for name, total in sorted(self.totals_ns.items(), key=lambda kv: -kv[1]):
            count = self.counts.get(name, 0)
            mean_us = (total / count / 1e3) if count else 0.0
            lines.append(
                f"{name:<{width}}  {total / 1e6:>10.3f}  {total / denom:>5.1%}  "
                f"{count:>7d}  {mean_us:>10.2f}"
            )
        if self.loop_ns > 0:
            lines.append(
                f"{'(loop)':<{width}}  {self.loop_ns / 1e6:>10.3f}  "
                f"coverage {self.coverage():.1%}"
            )
        return "\n".join(lines)


class StageProfiler:
    """Accumulates per-stage wall time from explicit start/stop probes.

    The probe pair is split (``t0 = prof.start()`` ... ``prof.stop(name,
    t0)``) instead of offered as a context manager because the hot loops
    cannot afford a ``with`` block's frame churn per stage per iteration.
    When a :class:`~repro.obs.trace.TraceWriter` is attached, every ``stop``
    also records one complete trace event, so the same probes feed both the
    aggregate table and the Chrome timeline.
    """

    __slots__ = ("totals_ns", "counts", "loop_ns", "trace", "_loop_t0")

    def __init__(self, trace: Optional[object] = None) -> None:
        self.totals_ns: Dict[str, int] = {}
        self.counts: Dict[str, int] = {}
        self.loop_ns: int = 0
        #: Optional TraceWriter receiving one complete event per stop().
        self.trace = trace
        self._loop_t0: Optional[int] = None

    # ------------------------------------------------------------------
    @staticmethod
    def start() -> int:
        """Timestamp origin of one stage entry (``perf_counter_ns``)."""
        return perf_counter_ns()

    def stop(self, stage: str, t0: int) -> None:
        """Close the stage entry opened at ``t0`` and accumulate it."""
        now = perf_counter_ns()
        dt = now - t0
        self.totals_ns[stage] = self.totals_ns.get(stage, 0) + dt
        self.counts[stage] = self.counts.get(stage, 0) + 1
        if self.trace is not None:
            self.trace.complete(stage, t0, dt, cat="stage")

    # ------------------------------------------------------------------
    def loop_start(self) -> None:
        """Mark the beginning of the enclosing hot loop."""
        self._loop_t0 = perf_counter_ns()

    def loop_stop(self) -> None:
        """Accumulate the wall time of the loop marked by :meth:`loop_start`."""
        if self._loop_t0 is not None:
            self.loop_ns += perf_counter_ns() - self._loop_t0
            self._loop_t0 = None

    # ------------------------------------------------------------------
    def profile(self) -> StageProfile:
        """Immutable view of what has been accumulated so far."""
        return StageProfile(
            totals_ns=dict(self.totals_ns),
            counts=dict(self.counts),
            loop_ns=self.loop_ns,
        )

    def snapshot(self) -> Dict[str, object]:
        """JSON-serializable snapshot (see :meth:`StageProfile.to_dict`)."""
        return self.profile().to_dict()

    def merge(self, snapshot: Mapping[str, object]) -> "StageProfiler":
        """Fold a worker's :meth:`snapshot` into this profiler (sums)."""
        for name, entry in dict(snapshot.get("stages", {})).items():
            self.totals_ns[name] = self.totals_ns.get(name, 0) + int(entry["total_ns"])
            self.counts[name] = self.counts.get(name, 0) + int(entry["count"])
        self.loop_ns += int(snapshot.get("loop_ns", 0))
        return self


def merge_stage_snapshots(
    snapshots: Iterable[Mapping[str, object]],
) -> StageProfile:
    """Merge profiler snapshots from many runs/workers into one profile."""
    merged = StageProfiler()
    for snapshot in snapshots:
        merged.merge(snapshot)
    return merged.profile()
