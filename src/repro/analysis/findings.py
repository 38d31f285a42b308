"""Finding vocabulary of the static-analysis layer.

A :class:`Finding` is one rule violation at one source location.  Every
finding fails the lint run unless a justified suppression covers it.
Findings are plain frozen dataclasses so both reporters (text, SARIF)
serialize the same object, and so test fixtures can compare them
structurally.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

__all__ = ["Finding"]


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    #: Id of the rule that fired (e.g. ``"DET004"``).
    rule: str
    #: Path of the offending file, as given to the runner.
    path: str
    #: 1-based line of the violation.
    line: int
    #: 0-based column of the violation.
    col: int
    #: Human-readable description of what is wrong *here*.
    message: str
    #: True when a ``repro: noqa`` suppression comment covers this finding.
    suppressed: bool = False
    #: The justification text of the covering suppression (None when
    #: unsuppressed).
    justification: Optional[str] = None

    # ------------------------------------------------------------------
    @property
    def location(self) -> str:
        """``path:line:col`` as printed by the text reporter."""
        return f"{self.path}:{self.line}:{self.col + 1}"

    def suppress(self, justification: str) -> "Finding":
        """A copy of this finding marked suppressed with ``justification``."""
        return replace(self, suppressed=True, justification=justification)
