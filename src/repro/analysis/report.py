"""Reporters: render findings as text or SARIF-flavoured JSON.

Both renderers consume the same :class:`~repro.analysis.findings.Finding`
sequence and return a string; the CLI picks one via ``--format`` and decides
where it goes (stdout or ``--output``).
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Sequence

from repro.analysis.findings import Finding
from repro.analysis.framework import LintRule, all_rules

__all__ = ["render", "render_text", "render_sarif", "summarize"]

#: SARIF version stamped into :func:`render_sarif` output.
_SARIF_VERSION = "2.1.0"


def summarize(findings: Sequence[Finding]) -> Dict[str, int]:
    """Counts the reporters and the CLI exit code share.

    Every unsuppressed finding is an error.
    """
    suppressed = sum(1 for f in findings if f.suppressed)
    return {
        "total": len(findings),
        "suppressed": suppressed,
        "errors": len(findings) - suppressed,
    }


def render_text(
    findings: Sequence[Finding], *, show_suppressed: bool = False
) -> str:
    """One ``path:line:col rule message`` line per finding."""
    lines: List[str] = []
    for finding in findings:
        if finding.suppressed and not show_suppressed:
            continue
        marker = " (suppressed)" if finding.suppressed else ""
        lines.append(
            f"{finding.location}: {finding.rule}{marker} {finding.message}"
        )
    counts = summarize(findings)
    lines.append(
        f"{counts['errors']} error(s), {counts['suppressed']} suppressed"
    )
    return "\n".join(lines)


def render_sarif(
    findings: Sequence[Finding], *, rules: Optional[Sequence[LintRule]] = None
) -> str:
    """SARIF 2.1.0-shaped JSON (one run, one result per unsuppressed finding).

    Close enough to the schema for code-scanning UIs to ingest; suppressed
    findings are carried with SARIF's ``suppressions`` block so audits can
    still see them.
    """
    catalog = list(rules) if rules is not None else all_rules()
    results: List[Dict[str, Any]] = []
    for finding in findings:
        result: Dict[str, Any] = {
            "ruleId": finding.rule,
            "level": "error",
            "message": {"text": finding.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {"uri": finding.path},
                        "region": {
                            "startLine": finding.line,
                            "startColumn": finding.col + 1,
                        },
                    }
                }
            ],
        }
        if finding.suppressed:
            result["suppressions"] = [
                {
                    "kind": "inSource",
                    "justification": finding.justification or "",
                }
            ]
        results.append(result)
    payload = {
        "version": _SARIF_VERSION,
        "$schema": (
            "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
            "Schemata/sarif-schema-2.1.0.json"
        ),
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-lint",
                        "informationUri": "https://example.invalid/repro",
                        "rules": [
                            {
                                "id": rule.rule_id,
                                "name": rule.name,
                                "shortDescription": {"text": rule.name},
                                "fullDescription": {"text": rule.rationale},
                                "defaultConfiguration": {"level": "error"},
                            }
                            for rule in catalog
                        ],
                    }
                },
                "results": results,
            }
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def render(
    findings: Sequence[Finding],
    fmt: str = "text",
    *,
    show_suppressed: bool = False,
) -> str:
    """Dispatch on ``fmt`` (``text`` | ``sarif``)."""
    if fmt == "text":
        return render_text(findings, show_suppressed=show_suppressed)
    if fmt == "sarif":
        return render_sarif(findings)
    raise ValueError(f"unknown format {fmt!r}; expected text or sarif")
