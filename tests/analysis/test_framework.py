"""Framework behaviour: suppressions, drivers, reporters."""

from __future__ import annotations

import ast
import json

import pytest

from repro.analysis import (
    get_rules,
    lint_paths,
    lint_source,
    parse_suppressions,
    render,
    render_sarif,
    summarize,
)
from repro.analysis.framework import (
    MISSING_JUSTIFICATION_RULE,
    SYNTAX_RULE,
    UNKNOWN_SUPPRESSION_RULE,
    _module_relpath,
)

_BAD = "import numpy as np\nnp.random.seed(1)\n"
#: A bare suppression (SUP001) and one naming an unknown rule (SUP002).
_HYGIENE = "x = 1  # repro: noqa[DET004]\ny = 2  # repro: noqa[NOPE999] -- typo'd id\n"


def _unsuppressed(findings):
    return [f for f in findings if not f.suppressed]


# ----------------------------------------------------------------------
# Suppression comments.
# ----------------------------------------------------------------------
class TestSuppressions:
    def test_trailing_comment_suppresses_its_line(self):
        source = (
            "import numpy as np\n"
            "np.random.seed(1)  # repro: noqa[DET001] -- fixture exercising the seeded path\n"
        )
        findings = lint_source(source)
        assert _unsuppressed(findings) == []
        (finding,) = [f for f in findings if f.rule == "DET001"]
        assert finding.suppressed
        assert "fixture exercising" in (finding.justification or "")

    def test_standalone_comment_suppresses_next_line(self):
        source = (
            "import numpy as np\n"
            "# repro: noqa[DET001] -- standalone form for long lines\n"
            "np.random.seed(1)\n"
        )
        assert _unsuppressed(lint_source(source)) == []

    def test_suppression_is_rule_specific(self):
        source = (
            "import numpy as np\n"
            "np.random.seed(1)  # repro: noqa[DET002] -- names the wrong rule\n"
        )
        remaining = _unsuppressed(lint_source(source))
        assert [f.rule for f in remaining] == ["DET001"]

    def test_missing_justification_is_a_finding(self):
        source = (
            "import numpy as np\n"
            "np.random.seed(1)  # repro: noqa[DET001]\n"
        )
        findings = lint_source(source)
        rules = [f.rule for f in _unsuppressed(findings)]
        # The naked suppression does NOT silence the finding and adds SUP001.
        assert "DET001" in rules
        assert MISSING_JUSTIFICATION_RULE in rules

    def test_unknown_rule_in_suppression_is_a_finding(self):
        source = "x = 1  # repro: noqa[NOPE999] -- typo'd id\n"
        findings = lint_source(source)
        assert [f.rule for f in findings] == [UNKNOWN_SUPPRESSION_RULE]

    def test_hygiene_findings_skipped_when_rules_not_selected(self):
        assert lint_source(_HYGIENE, rules=get_rules(["DET001"])) == []

    def test_hygiene_findings_emitted_when_selected(self):
        only_sup001 = lint_source(_HYGIENE, rules=get_rules([MISSING_JUSTIFICATION_RULE]))
        assert [(f.rule, f.line) for f in only_sup001] == [
            (MISSING_JUSTIFICATION_RULE, 1)
        ]
        both = lint_source(
            _HYGIENE,
            rules=get_rules([MISSING_JUSTIFICATION_RULE, UNKNOWN_SUPPRESSION_RULE]),
        )
        assert [(f.rule, f.line) for f in both] == [
            (MISSING_JUSTIFICATION_RULE, 1),
            (UNKNOWN_SUPPRESSION_RULE, 2),
        ]

    def test_colon_separator_accepted(self):
        source = (
            "import numpy as np\n"
            "np.random.seed(1)  # repro: noqa[DET001]: colon-style justification\n"
        )
        assert _unsuppressed(lint_source(source)) == []

    def test_marker_inside_string_literal_is_ignored(self):
        source = 's = "# repro: noqa[DET001] -- not a comment"\n'
        assert parse_suppressions(source) == []

    def test_parse_suppressions_fields(self):
        source = "# repro: noqa[DET001,FLOW-HOT] -- two rules at once\nx = 1\n"
        (suppression,) = parse_suppressions(source)
        assert suppression.rules == ("DET001", "FLOW-HOT")
        assert suppression.line == 1
        assert suppression.applies_to == 2
        assert suppression.justification == "two rules at once"


# ----------------------------------------------------------------------
# Drivers.
# ----------------------------------------------------------------------
class TestDrivers:
    def test_syntax_error_becomes_syn001(self):
        (finding,) = lint_source("def broken(:\n")
        assert finding.rule == SYNTAX_RULE
        assert finding.line == 1

    def test_lint_paths_walks_directories(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "a.py").write_text(_BAD)
        (tmp_path / "pkg" / "b.py").write_text("x = 1\n")
        findings = lint_paths([tmp_path])
        assert [f.rule for f in findings] == ["DET001"]

    def test_non_utf8_file_becomes_syn001(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "a.py").write_bytes(b"x = '\xff'\n")
        (tmp_path / "pkg" / "b.py").write_text(_BAD)
        findings = lint_paths([tmp_path])
        assert [(f.rule, f.path.rsplit("/", 1)[-1]) for f in findings] == [
            (SYNTAX_RULE, "a.py"),
            ("DET001", "b.py"),
        ]
        assert "unreadable source" in findings[0].message

    def test_lint_paths_parses_each_file_once(self, tmp_path, monkeypatch):
        (tmp_path / "repro" / "batch").mkdir(parents=True)
        (tmp_path / "repro" / "a.py").write_text(_BAD)
        (tmp_path / "repro" / "b.py").write_text(
            "import numpy as np\n\ndef helper():\n    return np.zeros(3)\n"
        )
        (tmp_path / "repro" / "batch" / "runner.py").write_text(
            "from repro.b import helper\n"
            "\n"
            "class BatchRunner:\n"
            "    def run(self, iterations):\n"
            "        for iteration in range(iterations):\n"
            "            helper()\n"
        )
        parses = []
        real_parse = ast.parse

        def counting_parse(source, *args, **kwargs):
            parses.append(source)
            return real_parse(source, *args, **kwargs)

        monkeypatch.setattr(ast, "parse", counting_parse)
        findings = lint_paths([tmp_path])
        assert sorted(f.rule for f in findings) == ["DET001", "FLOW-HOT"]
        assert len(parses) == 3

    def test_overlapping_paths_lint_each_file_once(self, tmp_path):
        pkg = tmp_path / "repro"
        (pkg / "batch").mkdir(parents=True)
        (pkg / "batch" / "helpers.py").write_text(
            "import numpy as np\n\ndef helper():\n    return np.zeros(3)\n"
        )
        (pkg / "batch" / "runner.py").write_text(
            "from repro.batch.helpers import helper\n"
            "\n"
            "class BatchRunner:\n"
            "    def run(self, iterations):\n"
            "        for iteration in range(iterations):\n"
            "            helper()\n"
        )
        alone = lint_paths([pkg])
        overlapping = lint_paths([pkg, pkg / "batch" / "helpers.py"])
        assert [f.rule for f in alone] == ["FLOW-HOT"]
        assert overlapping == alone

    def test_unreadable_file_becomes_syn001_not_a_skip(self, tmp_path):
        # A directory named like a module matches the *.py walk but raises
        # OSError on read; lint must not pass a file it never read.
        (tmp_path / "pkg" / "odd.py").mkdir(parents=True)
        (finding,) = lint_paths([tmp_path])
        assert finding.rule == SYNTAX_RULE
        assert finding.path.endswith("odd.py")

    def test_lint_paths_missing_path_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            lint_paths([tmp_path / "definitely-not-there"])

    def test_rule_selection_unknown_id_raises(self):
        with pytest.raises(KeyError):
            get_rules(["NOPE999"])

    def test_rule_selection_filters(self):
        findings = lint_source(_BAD, rules=get_rules(["DET002"]))
        assert findings == []

    def test_module_relpath_normalises_to_package_root(self):
        assert (
            _module_relpath("/root/repo/src/repro/obs/clock.py")
            == "repro/obs/clock.py"
        )
        assert _module_relpath("repro/cli.py") == "repro/cli.py"
        # Paths outside any `repro` package keep their plain posix form
        # (path-scoped rules then simply never match).
        assert _module_relpath("/tmp/elsewhere/x.py") == "/tmp/elsewhere/x.py"


# ----------------------------------------------------------------------
# Findings and reporters.
# ----------------------------------------------------------------------
class TestReporters:
    def test_text_report_counts(self):
        report = render(lint_source(_BAD), "text")
        assert "DET001" in report
        assert "1 error(s), 0 suppressed" in report

    def test_sarif_report_shape(self):
        payload = json.loads(render_sarif(lint_source(_BAD)))
        assert payload["version"] == "2.1.0"
        (run,) = payload["runs"]
        assert run["results"][0]["ruleId"] == "DET001"
        rule_ids = {rule["id"] for rule in run["tool"]["driver"]["rules"]}
        assert "DET001" in rule_ids and "FLOW-HOT" in rule_ids

    def test_unknown_format_raises(self):
        with pytest.raises(ValueError):
            render([], "xml")

    def test_summarize_counts_suppressed_separately(self):
        source = (
            "import numpy as np\n"
            "np.random.seed(1)  # repro: noqa[DET001] -- fixture\n"
            "np.random.rand()\n"
        )
        counts = summarize(lint_source(source))
        assert counts == {"total": 2, "suppressed": 1, "errors": 1}
