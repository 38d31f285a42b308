"""Outside-in span recorder for the benchmark's traced run.

The program under test carries no benchmark hooks.  Instead, :func:`instrumented`
swaps selected public methods (and a few module-level functions) for thin
wrappers that record a span per call, and puts the original attributes back
afterwards, checking by identity that every one was restored.

A span has a name, a start, an end, the span that was open when it started
(its parent) and the op it belongs to.  Self time is the span's duration minus
the durations of its direct children; calls are synchronous and
single-threaded, so children never overlap.  Spans stay in memory until
:meth:`SpanRecorder.write_chrome_trace` writes them out.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter_ns
from typing import Any, Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

#: Span of the op itself; every layer span of an op descends from it.
ROOT = "op"
#: Span around the benchmark's own observers (see :class:`Target`), so their
#: cost is attributed to the benchmark, not to the layer that was called.
OBSERVE = "bench.observe"


class Span(NamedTuple):
    """One finished call, in nanoseconds of ``time.perf_counter_ns``.

    A named tuple: it is built once per wrapped call, about 3x faster than a
    frozen dataclass.
    """

    id: int
    parent: int  # -1 for a root span
    name: str
    op: int
    start_ns: int
    dur_ns: int
    self_ns: int


@dataclass(frozen=True)
class Target:
    """One attribute to wrap: ``module:Owner.attr`` or ``module:function``.

    ``observe(recorder, args, kwargs, result)`` runs after the call, inside an
    :data:`OBSERVE` span, and may add to ``recorder.counters``.
    """

    path: str
    span: str
    observe: Optional[Callable[["SpanRecorder", tuple, dict, Any], None]] = None

    def resolve(self) -> Tuple[Any, str]:
        """The object that owns the attribute, and the attribute name."""
        module_name, _, dotted = self.path.partition(":")
        owner: Any = importlib.import_module(module_name)
        *owners, attr = dotted.split(".")
        for name in owners:
            owner = getattr(owner, name)
        return owner, attr


class SpanRecorder:
    """Collects spans of a single thread, keyed by the current op."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: Values summed by target observers (e.g. migrated load).
        self.counters: Dict[str, float] = {}
        self.op = -1
        self._stack: List[List[Any]] = []  # [id, name, start_ns, child_ns]
        self._next_id = 0

    def push(self, name: str) -> None:
        self._stack.append([self._next_id, name, perf_counter_ns(), 0])
        self._next_id += 1

    def pop(self) -> None:
        end = perf_counter_ns()
        span_id, name, start, child_ns = self._stack.pop()
        dur = end - start
        parent = -1
        if self._stack:
            self._stack[-1][3] += dur
            parent = self._stack[-1][0]
        self.spans.append(Span(span_id, parent, name, self.op, start, dur, dur - child_ns))

    def add(self, counter: str, value: float) -> None:
        self.counters[counter] = self.counters.get(counter, 0.0) + value

    @contextmanager
    def root(self, op: int) -> Iterator[None]:
        """Record one op as a root span."""
        self.op = op
        self.push(ROOT)
        try:
            yield
        finally:
            self.pop()

    # ------------------------------------------------------------------
    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls``, inclusive ``total_s`` and ``self_s``."""
        out: Dict[str, Dict[str, float]] = {}
        for span in self.spans:
            row = out.setdefault(span.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += span.dur_ns * 1e-9
            row["self_s"] += span.self_ns * 1e-9
        return out

    def coverage(self) -> float:
        """Share of root-span time that some child span accounts for."""
        roots = [s for s in self.spans if s.parent == -1]
        total = sum(s.dur_ns for s in roots)
        if total == 0:
            return 0.0
        return 1.0 - sum(s.self_ns for s in roots) / total

    def self_time_table(self, title: str) -> str:
        """Fixed-width table of self time per span name, largest first."""
        totals = self.totals()
        wall = sum(s.dur_ns for s in self.spans if s.parent == -1) * 1e-9
        lines = [
            f"self time per span -- {title} (op wall {wall:.3f} s, "
            f"coverage {self.coverage():.1%})",
            f"{'span':<28} {'calls':>7} {'self [s]':>10} {'share':>7} {'incl [s]':>10}",
        ]
        for name, row in sorted(totals.items(), key=lambda kv: -kv[1]["self_s"]):
            share = row["self_s"] / wall if wall > 0 else 0.0
            lines.append(
                f"{name:<28} {int(row['calls']):>7} {row['self_s']:>10.4f} "
                f"{share:>7.1%} {row['total_s']:>10.4f}"
            )
        return "\n".join(lines)

    def write_chrome_trace(self, path: str, process_name: str) -> None:
        """Write every span as a Chrome trace-event ``X`` record."""
        origin = min((s.start_ns for s in self.spans), default=0)
        events: List[Dict[str, Any]] = [
            {"name": "process_name", "ph": "M", "pid": 1, "tid": 1,
             "args": {"name": process_name}},
        ]
        for span in self.spans:
            events.append({
                "name": span.name,
                "cat": span.name.split(".", 1)[0],
                "ph": "X",
                "ts": (span.start_ns - origin) / 1e3,
                "dur": span.dur_ns / 1e3,
                "pid": 1,
                "tid": 1,
                "args": {"op": span.op, "id": span.id, "parent": span.parent,
                         "self_us": span.self_ns / 1e3},
            })
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
        os.replace(tmp, path)


def _wrap(fn: Callable[..., Any], target: Target, recorder: SpanRecorder) -> Callable[..., Any]:
    name, observe = target.span, target.observe

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        recorder.push(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.pop()
        if observe is not None:
            recorder.push(OBSERVE)
            try:
                observe(recorder, args, kwargs, result)
            finally:
                recorder.pop()
        return result

    return wrapper


@contextmanager
def instrumented(recorder: SpanRecorder, targets: Sequence[Target]) -> Iterator[None]:
    """Wrap every target for the duration of the block, then restore them.

    The attribute must be defined on the named owner itself (not inherited),
    so restoring it puts back exactly the object that was there.  Raises
    :class:`RuntimeError` if any attribute is not the original afterwards.
    """
    saved: List[Tuple[Any, str, Any]] = []
    try:
        for target in targets:
            owner, attr = target.resolve()
            original = vars(owner)[attr]
            if isinstance(original, (classmethod, staticmethod)):
                wrapped: Any = type(original)(_wrap(original.__func__, target, recorder))
            else:
                wrapped = _wrap(original, target, recorder)
            setattr(owner, attr, wrapped)
            saved.append((owner, attr, original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
        leaked = [f"{owner.__name__}.{attr}" for owner, attr, original in saved
                  if vars(owner)[attr] is not original]
        if leaked:
            raise RuntimeError(f"wrappers not restored: {leaked}")


def snapshot(targets: Sequence[Target]) -> Dict[str, Any]:
    """The raw attribute object behind every target, for identity checks."""
    out: Dict[str, Any] = {}
    for target in targets:
        owner, attr = target.resolve()
        out[target.path] = vars(owner)[attr]
    return out
