"""Tests of the campaign runner: determinism, persistence, resume, parallel."""

from __future__ import annotations

import json

import pytest

from repro.campaign import (
    CampaignSpec,
    PolicySpec,
    aggregate_rows,
    format_campaign_report,
    load_results,
    run_campaign,
    run_cell,
)

SPEC = CampaignSpec(
    scenarios=("synthetic-hotspot", "bursty", "multiphase"),
    policies=(PolicySpec("standard"), PolicySpec("ulba")),
    num_seeds=2,
    num_pes=8,
    columns_per_pe=16,
    rows=16,
    iterations=10,
)

#: Bookkeeping fields that legitimately differ between two identical runs.
VOLATILE = ("wall_time",)


def stable(rows):
    return sorted(
        ({k: v for k, v in row.items() if k not in VOLATILE} for row in rows),
        key=lambda row: row["cell_id"],
    )


class TestRunCell:
    def test_row_contents(self):
        cell = SPEC.cells()[0]
        row = run_cell(cell)
        assert row["cell_id"] == cell.cell_id
        assert row["scenario"] == cell.scenario
        assert row["policy"] == cell.policy.label
        assert row["total_time"] > 0.0
        assert row["num_lb_calls"] >= 0
        assert 0.0 < row["mean_utilization"] <= 1.0
        json.dumps(row)  # must be JSON-serialisable

    def test_deterministic(self):
        cell = SPEC.cells()[0]
        a, b = run_cell(cell), run_cell(cell)
        assert {k: v for k, v in a.items() if k not in VOLATILE} == {
            k: v for k, v in b.items() if k not in VOLATILE
        }


class TestPersistenceAndResume:
    def test_same_spec_produces_identical_jsonl(self, tmp_path):
        out_a, out_b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        run_campaign(SPEC, out_path=out_a)
        run_campaign(SPEC, out_path=out_b)
        assert stable(load_results(out_a)) == stable(load_results(out_b))
        assert len(load_results(out_a)) == SPEC.num_cells

    def test_resume_skips_completed_cells(self, tmp_path):
        out = tmp_path / "campaign.jsonl"
        first = run_campaign(SPEC, out_path=out)
        assert (first.executed, first.skipped) == (SPEC.num_cells, 0)
        second = run_campaign(SPEC, out_path=out)
        assert (second.executed, second.skipped) == (0, SPEC.num_cells)
        assert stable(second.rows) == stable(first.rows)
        # The file was not re-appended to.
        assert len(load_results(out)) == SPEC.num_cells

    def test_partial_file_resumes_remaining(self, tmp_path):
        out = tmp_path / "campaign.jsonl"
        run_campaign(SPEC, out_path=out, name_filter="bursty")
        done = len(load_results(out))
        assert 0 < done < SPEC.num_cells
        full = run_campaign(SPEC, out_path=out)
        assert full.skipped == done
        assert full.executed == SPEC.num_cells - done
        assert len(load_results(out)) == SPEC.num_cells

    def test_torn_trailing_line_healed_before_append(self, tmp_path):
        out = tmp_path / "campaign.jsonl"
        run_campaign(SPEC, out_path=out, name_filter="|seed0")
        persisted = len(load_results(out))
        # Simulate a crash mid-write: torn final line without a newline.
        with out.open("a", encoding="utf-8") as handle:
            handle.write('{"cell_id": "torn')
        resumed = run_campaign(SPEC, out_path=out)
        assert resumed.skipped == persisted
        # The rows appended by the resumed run must not merge into the torn
        # line: a third run finds every cell on disk.
        final = run_campaign(SPEC, out_path=out)
        assert (final.executed, final.skipped) == (0, SPEC.num_cells)

    def test_malformed_trailing_line_ignored(self, tmp_path):
        out = tmp_path / "campaign.jsonl"
        run_campaign(SPEC, out_path=out, name_filter="seed0")
        with out.open("a", encoding="utf-8") as handle:
            handle.write('{"cell_id": "truncated...\n')
        rows = load_results(out)
        assert all("total_time" in row for row in rows)

    def test_no_out_path_runs_everything(self):
        run = run_campaign(SPEC, name_filter="|seed0")
        assert run.out_path is None
        assert run.skipped == 0
        assert run.executed == len(SPEC.cells(name_filter="|seed0")) > 0

    def test_reseeded_campaign_never_resumes_other_seed(self, tmp_path):
        out = tmp_path / "campaign.jsonl"
        run_campaign(SPEC, out_path=out, name_filter="|seed0")
        reseeded = CampaignSpec(
            scenarios=SPEC.scenarios,
            policies=SPEC.policies,
            num_seeds=SPEC.num_seeds,
            num_pes=SPEC.num_pes,
            columns_per_pe=SPEC.columns_per_pe,
            rows=SPEC.rows,
            iterations=SPEC.iterations,
            master_seed=SPEC.master_seed + 1,
        )
        rerun = run_campaign(reseeded, out_path=out, name_filter="|seed0")
        assert rerun.skipped == 0
        assert rerun.executed == len(reseeded.cells(name_filter="|seed0"))

    def test_resume_ignores_rows_with_mismatched_seed(self, tmp_path):
        out = tmp_path / "campaign.jsonl"
        run_campaign(SPEC, out_path=out, name_filter="|seed0")
        rows = load_results(out)
        # Corrupt the persisted seeds in place (same cell ids, wrong seeds).
        with out.open("w", encoding="utf-8") as handle:
            for row in rows:
                row["seed"] = row["seed"] + 1
                handle.write(json.dumps(row) + "\n")
        rerun = run_campaign(SPEC, out_path=out, name_filter="|seed0")
        assert rerun.skipped == 0
        assert rerun.executed == len(rows)

    def test_resume_rejects_different_interconnect(self, tmp_path):
        out = tmp_path / "campaign.jsonl"
        run_campaign(SPEC, out_path=out, name_filter="|seed0")
        done = len(load_results(out))
        slower = CampaignSpec(
            scenarios=SPEC.scenarios,
            policies=SPEC.policies,
            num_seeds=SPEC.num_seeds,
            num_pes=SPEC.num_pes,
            columns_per_pe=SPEC.columns_per_pe,
            rows=SPEC.rows,
            iterations=SPEC.iterations,
            bandwidth=SPEC.bandwidth / 10.0,
        )
        rerun = run_campaign(slower, out_path=out, name_filter="|seed0")
        assert rerun.skipped == 0
        assert rerun.executed == done

    def test_failing_callback_leaves_resumable_log(self, tmp_path):
        out = tmp_path / "campaign.jsonl"

        def boom(row):
            raise RuntimeError("stop the campaign")

        with pytest.raises(RuntimeError, match="stop the campaign"):
            run_campaign(SPEC, jobs=2, out_path=out, on_cell_done=boom)
        persisted = len(load_results(out))
        assert persisted >= 1
        resumed = run_campaign(SPEC, out_path=out)
        assert resumed.skipped == persisted
        assert resumed.executed == SPEC.num_cells - persisted

    def test_resume_false_reruns(self, tmp_path):
        out = tmp_path / "campaign.jsonl"
        run_campaign(SPEC, out_path=out, name_filter="multiphase")
        rerun = run_campaign(
            SPEC, out_path=out, name_filter="multiphase", resume=False
        )
        assert rerun.executed > 0 and rerun.skipped == 0


class TestParallelExecution:
    def test_parallel_matches_serial(self, tmp_path):
        serial = run_campaign(SPEC, jobs=1, out_path=tmp_path / "serial.jsonl")
        parallel = run_campaign(SPEC, jobs=2, out_path=tmp_path / "parallel.jsonl")
        assert stable(serial.rows) == stable(parallel.rows)

    def test_rows_follow_cell_order_even_parallel(self, tmp_path):
        run = run_campaign(SPEC, jobs=2, out_path=tmp_path / "ordered.jsonl")
        expected = [cell.cell_id for cell in SPEC.cells()]
        assert [row["cell_id"] for row in run.rows] == expected

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ValueError, match="jobs"):
            run_campaign(SPEC, jobs=0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0, -1.0])
    def test_invalid_task_timeout_rejected(self, bad, tmp_path):
        # Rejected before anything runs or is written.
        out = tmp_path / "never.jsonl"
        with pytest.raises(ValueError, match="task_timeout"):
            run_campaign(SPEC, out_path=out, task_timeout=bad)
        assert not out.exists()

    def test_progress_callback_sees_every_fresh_cell(self, tmp_path):
        seen = []
        run_campaign(
            SPEC,
            jobs=2,
            out_path=tmp_path / "cb.jsonl",
            on_cell_done=seen.append,
        )
        assert sorted(row["cell_id"] for row in seen) == sorted(
            cell.cell_id for cell in SPEC.cells()
        )


class TestAggregation:
    def test_aggregate_rows_shape(self, tmp_path):
        run = run_campaign(SPEC, out_path=tmp_path / "agg.jsonl")
        table = aggregate_rows(run.rows)
        assert len(table) == len(SPEC.scenarios) * len(SPEC.policies)
        for entry in table:
            assert entry["runs"] == SPEC.num_seeds
            if entry["policy"] == "standard":
                assert entry["gain vs standard"] == "-"
            else:
                assert entry["gain vs standard"].endswith("%")

    def test_format_report_is_table(self, tmp_path):
        run = run_campaign(SPEC, out_path=tmp_path / "rep.jsonl")
        report = format_campaign_report(run.rows)
        assert "Campaign summary" in report
        assert "gain vs standard" in report
        for scenario in SPEC.scenarios:
            assert scenario in report
