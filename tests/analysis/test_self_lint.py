"""The shipped tree must lint clean, with the full rule catalog active.

These tests are the acceptance gate of the static-analysis layer:

* ``src/repro`` produces zero unsuppressed findings;
* every ``# repro: noqa[...]`` in the tree carries a justification;
* the registry holds exactly the shipped catalog -- deleting any rule
  module (or failing to register a rule) fails here, so the rules are
  provably active, not just present on disk.
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis import all_rules, lint_paths, parse_suppressions, rule_ids

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

#: The shipped rule catalog.  Update this set deliberately when adding or
#: retiring a rule -- it is what makes rule deletion a test failure.
EXPECTED_RULES = {
    "DET001",
    "DET002",
    "DET003",
    "DET004",
    "DET005",
    "API001",
    "API002",
    "SUP001",
    "SUP002",
    "FLOW-HOT",
    "FLOW-PKL",
    "FLOW-MUT",
}


def test_source_tree_exists():
    assert SRC.is_dir(), f"expected package sources at {SRC}"


def test_rule_catalog_is_exactly_the_shipped_set():
    assert set(rule_ids()) == EXPECTED_RULES


def test_every_rule_has_identity_and_rationale():
    for rule in all_rules():
        assert rule.rule_id and rule.name, rule
        assert len(rule.rationale) > 40, f"{rule.rule_id} needs a real rationale"


def test_src_repro_has_zero_unsuppressed_findings():
    findings = lint_paths([SRC])
    unsuppressed = [f for f in findings if not f.suppressed]
    assert unsuppressed == [], "\n".join(
        f"{f.location}: {f.rule} {f.message}" for f in unsuppressed
    )


def test_every_suppression_in_tree_is_justified():
    naked = []
    for path in sorted(SRC.rglob("*.py")):
        for suppression in parse_suppressions(path.read_text(encoding="utf-8")):
            if not suppression.justification:
                naked.append(f"{path}:{suppression.line}")
            if not suppression.rules:
                naked.append(f"{path}:{suppression.line} (no rule ids)")
    assert naked == []


def test_suppressions_name_only_known_rules():
    known = EXPECTED_RULES | {"SYN001"}
    unknown = []
    for path in sorted(SRC.rglob("*.py")):
        for suppression in parse_suppressions(path.read_text(encoding="utf-8")):
            for rule in suppression.rules:
                if rule not in known:
                    unknown.append(f"{path}:{suppression.line}: {rule}")
    assert unknown == []


def test_flow_rules_are_active_on_the_shipped_tree():
    """The FLOW-* gate: the whole-program pass runs by default and the
    tree is clean under it *because of* justified suppressions, not
    because the pass silently skipped -- the suppressed findings prove
    the rules actually fired on the real sources."""
    findings = lint_paths([SRC])
    flow = [f for f in findings if f.rule.startswith("FLOW-")]
    assert flow, "the FLOW-* pass produced no findings at all on src/repro"
    assert all(f.suppressed for f in flow), [
        f"{f.location}: {f.rule} {f.message}" for f in flow if not f.suppressed
    ]
    # The known, deliberately-suppressed instances.
    assert {f.rule for f in flow} >= {"FLOW-HOT", "FLOW-MUT"}
