"""Virtual clocks for the simulated cluster.

Each processing element owns a :class:`VirtualClock`.  Compute work advances
only that PE's clock; collective communication synchronises all clocks to the
latest participant (plus the communication cost), reproducing the implicit
barrier semantics of the bulk-synchronous SPMD applications the paper
studies.
"""

from __future__ import annotations

from typing import Iterable, List

from repro.utils.validation import check_non_negative

__all__ = ["VirtualClock", "synchronize"]


class VirtualClock:
    """A monotonically increasing virtual clock, in seconds."""

    __slots__ = ("_now",)

    def __init__(self, start: float = 0.0) -> None:
        check_non_negative(start, "start")
        self._now = float(start)

    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    def advance(self, seconds: float) -> float:
        """Advance the clock by ``seconds`` (must be >= 0) and return the new time."""
        if seconds < 0:
            raise ValueError(f"cannot advance a clock by {seconds} s (negative)")
        self._now += float(seconds)
        return self._now

    def advance_to(self, timestamp: float) -> float:
        """Advance the clock to ``timestamp`` if it is in the future.

        Clocks never move backwards; synchronising to an earlier timestamp is
        a no-op, which is what an MPI barrier does to the latest rank.
        """
        if timestamp > self._now:
            self._now = float(timestamp)
        return self._now

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"VirtualClock(now={self._now:.6f})"


def synchronize(clocks: Iterable[VirtualClock], *, extra_cost: float = 0.0) -> float:
    """Synchronise ``clocks`` to their common maximum plus ``extra_cost``.

    Returns the post-synchronisation timestamp.  This is the core primitive
    behind every collective of :class:`repro.simcluster.comm.SimCommunicator`.
    """
    clock_list: List[VirtualClock] = list(clocks)
    if not clock_list:
        raise ValueError("cannot synchronise an empty set of clocks")
    if extra_cost < 0:
        raise ValueError(f"extra_cost must be >= 0, got {extra_cost}")
    target = max(c.now for c in clock_list) + float(extra_cost)
    for c in clock_list:
        c.advance_to(target)
    return target
