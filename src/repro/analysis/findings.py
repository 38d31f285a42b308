"""Finding and severity vocabulary of the static-analysis layer.

A :class:`Finding` is one rule violation at one source location.  Findings
are plain frozen dataclasses so every reporter (text, JSON, SARIF)
serializes the same object, and so test fixtures can compare them
structurally.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, Optional

__all__ = ["SEVERITIES", "Finding"]

#: Recognised severities, most severe first.  ``error`` findings fail the
#: lint run; so do ``warning`` findings (``repro lint`` exits 1 on any
#: unsuppressed finding) -- the split only grades them in reports.
SEVERITIES = ("error", "warning")


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    #: Id of the rule that fired (e.g. ``"DET004"``).
    rule: str
    #: ``"error"`` or ``"warning"``.
    severity: str
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
    #: Extra structured context some rules attach (kept JSON-scalar).
    extra: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ValueError(
                f"severity must be one of {SEVERITIES}, got {self.severity!r}"
            )

    # ------------------------------------------------------------------
    @property
    def location(self) -> str:
        """``path:line:col`` as printed by the text reporter."""
        return f"{self.path}:{self.line}:{self.col + 1}"

    def suppress(self, justification: str) -> "Finding":
        """A copy of this finding marked suppressed with ``justification``."""
        return replace(self, suppressed=True, justification=justification)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable view (the ``--format json`` row schema)."""
        payload: Dict[str, Any] = {
            "rule": self.rule,
            "severity": self.severity,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "suppressed": self.suppressed,
        }
        if self.justification is not None:
            payload["justification"] = self.justification
        if self.extra:
            payload["extra"] = dict(self.extra)
        return payload
