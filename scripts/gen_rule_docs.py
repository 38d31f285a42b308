#!/usr/bin/env python
"""Regenerate ``docs/reference/rules.md`` from the live lint-rule registry.

The rule registry of :mod:`repro.analysis` is the single source of truth
for ``repro lint --list-rules`` and the self-lint test; this script renders
the same registry as a reference page so the docs can never drift from the
shipped rule set.  The page is checked in (the docs build needs no
imports) and ``tests/docs/test_docs_drift.py`` asserts it is up to date::

    PYTHONPATH=src python scripts/gen_rule_docs.py          # rewrite
    PYTHONPATH=src python scripts/gen_rule_docs.py --check  # CI mode
"""

from __future__ import annotations

import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

HEADER = """\
<!-- GENERATED FILE - do not edit by hand.
     Regenerate with: PYTHONPATH=src python scripts/gen_rule_docs.py -->

# Lint rule catalog

Every rule registered by `repro.analysis`, generated from the live
registry (`python -m repro lint --list-rules` prints the same set).
Single-file rules match AST patterns in one module at a time; the
`FLOW-*` families run over the whole-program call graph, so their
findings can involve code in other files -- see
[Static analysis](../static-analysis.md) for how each family works and
how to suppress a finding with a justified `# repro: noqa[RULE]`.
"""

#: rule-id prefix -> catalog section (insertion order = page order).
FAMILIES = [
    ("DET", "Determinism"),
    ("SPN", "Spawn-safety"),
    ("API", "API hygiene"),
    ("SUP", "Suppression hygiene"),
    ("FLOW", "Interprocedural dataflow"),
]


def render() -> str:
    from repro.analysis import all_rules

    rules = list(all_rules())
    lines = [HEADER]
    for prefix, title in FAMILIES:
        members = [r for r in rules if r.rule_id.startswith(prefix)]
        if not members:
            continue
        lines.append(f"## {title}\n")
        lines.append("| rule | severity | name | rationale |")
        lines.append("|------|----------|------|-----------|")
        for rule in members:
            rationale = " ".join(rule.rationale.split())
            lines.append(
                f"| `{rule.rule_id}` | {rule.severity} | "
                f"{rule.name} | {rationale} |"
            )
        lines.append("")
    covered = {r.rule_id for prefix, _ in FAMILIES for r in rules
               if r.rule_id.startswith(prefix)}
    missing = [r.rule_id for r in rules if r.rule_id not in covered]
    if missing:  # a new family must get a section, not vanish silently
        raise SystemExit(f"rules outside every documented family: {missing}")
    return "\n".join(lines)


def main(argv) -> int:
    target = REPO / "docs" / "reference" / "rules.md"
    content = render()
    if "--check" in argv:
        current = target.read_text(encoding="utf-8") if target.exists() else ""
        if current != content:
            print(
                f"{target} is stale; regenerate with "
                "PYTHONPATH=src python scripts/gen_rule_docs.py",
                file=sys.stderr,
            )
            return 1
        print(f"{target} is up to date")
        return 0
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(content, encoding="utf-8")
    print(f"wrote {target}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
