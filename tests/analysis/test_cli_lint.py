"""CLI surface of ``repro lint``: formats, exit codes, outputs."""

from __future__ import annotations

import json

import pytest

from repro.cli import main

_BAD = "import numpy as np\nnp.random.seed(1)\n"
_CLEAN = "import numpy as np\nrng = np.random.default_rng(1)\n"


@pytest.fixture
def bad_file(tmp_path):
    path = tmp_path / "bad.py"
    path.write_text(_BAD)
    return path


@pytest.fixture
def clean_file(tmp_path):
    path = tmp_path / "clean.py"
    path.write_text(_CLEAN)
    return path


def test_clean_file_exits_zero(clean_file, capsys):
    assert main(["lint", str(clean_file)]) == 0
    assert "0 error(s)" in capsys.readouterr().out


def test_findings_exit_one_text(bad_file, capsys):
    assert main(["lint", str(bad_file)]) == 1
    out = capsys.readouterr().out
    assert "DET001" in out and "bad.py:2" in out


def test_sarif_format_parses(bad_file, capsys):
    assert main(["lint", str(bad_file), "--format", "sarif"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["version"] == "2.1.0"
    assert payload["runs"][0]["results"][0]["ruleId"] == "DET001"


def test_rules_filter(bad_file, capsys):
    assert main(["lint", str(bad_file), "--rules", "DET004"]) == 0
    capsys.readouterr()
    assert main(["lint", str(bad_file), "--rules", "DET001"]) == 1


def test_unknown_rule_id_is_usage_error(bad_file, capsys):
    assert main(["lint", str(bad_file), "--rules", "NOPE999"]) == 2
    assert "unknown rule id" in capsys.readouterr().err


def test_missing_path_is_usage_error(tmp_path, capsys):
    assert main(["lint", str(tmp_path / "ghost.py")]) == 2
    assert "no such file" in capsys.readouterr().err


def test_output_file(bad_file, tmp_path, capsys):
    out_file = tmp_path / "report.sarif"
    code = main(
        ["lint", str(bad_file), "--format", "sarif", "--output", str(out_file)]
    )
    assert code == 1
    assert capsys.readouterr().out == ""
    (result,) = json.loads(out_file.read_text())["runs"][0]["results"]
    assert result["ruleId"] == "DET001"


def test_unwritable_output_is_usage_error(bad_file, tmp_path, capsys):
    target = tmp_path / "no-such-dir" / "report.sarif"
    code = main(["lint", str(bad_file), "--format", "sarif", "--output", str(target)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("repro lint: error: cannot write report")
    assert "Traceback" not in err


def test_non_utf8_file_is_a_finding_not_a_crash(tmp_path, capsys):
    path = tmp_path / "latin1.py"
    path.write_bytes(b"name = '\xe9t\xe9'\n")
    assert main(["lint", str(path)]) == 1
    out = capsys.readouterr().out
    assert "SYN001" in out and "unreadable source" in out


def test_list_rules(capsys):
    assert main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ("DET001", "FLOW-MUT", "FLOW-HOT", "API001", "SUP001"):
        assert rule_id in out


def test_suppressed_findings_hidden_unless_requested(tmp_path, capsys):
    path = tmp_path / "suppressed.py"
    path.write_text(
        "import numpy as np\n"
        "np.random.seed(1)  # repro: noqa[DET001] -- fixture\n"
    )
    assert main(["lint", str(path)]) == 0
    assert "DET001" not in capsys.readouterr().out
    assert main(["lint", str(path), "--show-suppressed"]) == 0
    assert "(suppressed)" in capsys.readouterr().out
