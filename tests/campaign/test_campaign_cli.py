"""Tests of the ``python -m repro campaign`` command."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main


class TestCampaignParser:
    def test_defaults(self):
        args = build_parser().parse_args(["campaign"])
        assert args.command == "campaign"
        assert args.scale == "default"
        assert args.jobs == 1
        assert args.out is None
        assert args.filter is None
        assert args.list is False

    def test_all_options(self):
        args = build_parser().parse_args(
            [
                "campaign",
                "--scale", "smoke",
                "--jobs", "4",
                "--out", "results.jsonl",
                "--filter", "bursty",
                "--seed", "9",
            ]
        )
        assert args.scale == "smoke"
        assert args.jobs == 4
        assert args.out == "results.jsonl"
        assert args.filter == "bursty"
        assert args.seed == 9

    def test_options_accepted_before_the_command(self):
        # Historical flat-parser order, kept working after the subparser move.
        args = build_parser().parse_args(["--scale", "smoke", "--seed", "7", "campaign"])
        assert (args.scale, args.seed, args.command) == ("smoke", 7, "campaign")
        args = build_parser().parse_args(["--scale", "smoke", "fig2"])
        assert (args.scale, args.seed) == ("smoke", 0)
        # A value after the command wins over one before it.
        args = build_parser().parse_args(["--scale", "smoke", "fig2", "--scale", "paper"])
        assert args.scale == "paper"

    def test_supervision_options(self):
        args = build_parser().parse_args(
            ["campaign", "--max-retries", "0", "--task-timeout", "2.5"]
        )
        assert (args.max_retries, args.task_timeout) == (0, 2.5)

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--task-timeout", "-1"),
            ("--task-timeout", "0"),
            ("--task-timeout", "nan"),
            ("--task-timeout", "inf"),
            ("--task-timeout", "soon"),
            ("--max-retries", "-1"),
            ("--max-retries", "1.5"),
        ],
    )
    def test_bad_supervision_values_are_usage_errors(
        self, capsys, tmp_path, monkeypatch, flag, value
    ):
        # A clean argparse usage error (exit 2) before anything runs, like
        # a bad --chaos spec -- never a traceback from deeper validation.
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            main(["campaign", "--scale", "smoke", flag, value])
        assert excinfo.value.code == 2
        assert f"argument {flag}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_campaign_listed_in_help(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--help"])
        assert "campaign" in capsys.readouterr().out


class TestCampaignCommand:
    def test_list_prints_catalog_without_running(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["campaign", "--list"]) == 0
        out = capsys.readouterr().out
        for name in ("synthetic-hotspot", "erosion", "bursty", "trace-replay"):
            assert name in out
        assert list(tmp_path.iterdir()) == []  # nothing was executed or written

    def test_smoke_campaign_runs_and_resumes(self, capsys, tmp_path):
        out_file = tmp_path / "smoke.jsonl"
        argv = [
            "campaign", "--scale", "smoke", "--jobs", "2",
            "--out", str(out_file), "--seed", "1",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "12 cells" in first
        assert "12 executed, 0 resumed" in first
        assert "Campaign summary" in first

        rows = [json.loads(line) for line in out_file.read_text().splitlines()]
        assert len(rows) == 12
        assert {row["policy_kind"] for row in rows} == {"standard", "ulba"}

        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "0 executed, 12 resumed" in second
        assert len(out_file.read_text().splitlines()) == 12

    def test_filter_limits_cells(self, capsys, tmp_path):
        out_file = tmp_path / "filtered.jsonl"
        assert (
            main(
                [
                    "campaign", "--scale", "smoke",
                    "--out", str(out_file), "--filter", "bursty",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "4 cells" in out
        rows = [json.loads(line) for line in out_file.read_text().splitlines()]
        assert rows and all(row["scenario"] == "bursty" for row in rows)

    def test_filter_without_match_reports_empty(self, capsys, tmp_path):
        out_file = tmp_path / "empty.jsonl"
        assert (
            main(
                [
                    "campaign", "--scale", "smoke",
                    "--out", str(out_file), "--filter", "zzz",
                ]
            )
            == 0
        )
        assert "no cells matched" in capsys.readouterr().out

    def test_default_out_path_in_cwd(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert (
            main(["campaign", "--scale", "smoke", "--filter", "|seed0"]) == 0
        )
        capsys.readouterr()
        assert (tmp_path / "campaign-smoke.jsonl").exists()
