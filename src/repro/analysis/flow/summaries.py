"""Per-function summary vocabulary of the dataflow engine.

Summaries are what make the whole-program analyses linear in call-graph
size: each function is analyzed against its *callees' summaries* instead
of being re-analyzed at every call site, and a worklist iterates to a
fixpoint (recursion converges because every summary field is monotone:
origins only appear, param sets only grow).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import FrozenSet, List, Optional, Tuple

__all__ = ["AV", "CLEAN", "SinkEvent", "TaintSummary", "PuritySummary"]


@dataclass(frozen=True)
class AV:
    """Abstract value of the taint lattice.

    ``origin`` is ``None`` for clean values, else a human-readable
    description of the taint source (threaded into finding messages);
    ``params`` holds the caller-parameter indices this value may carry,
    which is how summaries express "flows from parameter *i*".
    """

    origin: Optional[str] = None
    params: FrozenSet[int] = frozenset()

    @property
    def tainted(self) -> bool:
        return self.origin is not None

    def merged(self, other: "AV") -> "AV":
        if other is CLEAN:
            return self
        if self is CLEAN:
            return other
        return AV(
            origin=self.origin if self.origin is not None else other.origin,
            params=self.params | other.params,
        )


#: The bottom element: untainted, parameter-free.
CLEAN = AV()


@dataclass(frozen=True)
class SinkEvent:
    """One tainted value crossing a sink boundary.

    Recorded in the file of the function whose body contains the crossing
    call, which is where the suppression comment belongs: the frontier
    where the taint meets a sink-reaching path.
    """

    #: Display path of the file holding the crossing call.
    path: str
    line: int
    col: int
    #: Description of the taint source (``AV.origin``).
    origin: str
    #: Description of the sink (callee display name).
    sink: str


@dataclass(frozen=True)
class TaintSummary:
    """What a function does with taint, from its callers' point of view."""

    #: Taint-source description when the function can return a tainted
    #: value given clean arguments (``None`` otherwise).
    return_origin: Optional[str] = None
    #: Parameter indices that may flow into the return value.
    return_params: FrozenSet[int] = frozenset()
    #: Parameter indices that may (transitively) reach a sink.
    sink_params: FrozenSet[int] = frozenset()

    def merged(self, other: "TaintSummary") -> "TaintSummary":
        return TaintSummary(
            return_origin=(
                self.return_origin
                if self.return_origin is not None
                else other.return_origin
            ),
            return_params=self.return_params | other.return_params,
            sink_params=self.sink_params | other.sink_params,
        )


#: Summary of a function the analysis knows nothing about.
EMPTY_TAINT = TaintSummary()


@dataclass(frozen=True)
class PuritySummary:
    """Transitive allocation-freedom of a function.

    ``impurity`` is ``None`` for allocation-free functions; otherwise a
    stable description of the first impurity found, prefixed with the
    callee chain when it lives further down the call graph.  The
    description deliberately carries no line numbers, so finding messages
    stay stable under unrelated edits.
    """

    impurity: Optional[str] = None

    @property
    def pure(self) -> bool:
        return self.impurity is None


@dataclass
class MutationInfo:
    """Module-global writes performed directly by one function."""

    #: Names of the module globals written.
    names: Tuple[str, ...] = ()
    #: Write sites as ``(line, col)`` pairs in the function's file.
    sites: List[Tuple[int, int]] = field(default_factory=list)

    @property
    def writes(self) -> bool:
        return bool(self.names)


def node_location(node: ast.AST) -> Tuple[int, int]:
    """``(line, col)`` of an AST node (defensive defaults)."""
    return getattr(node, "lineno", 1), getattr(node, "col_offset", 0)
