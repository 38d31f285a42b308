"""End-to-end tests of fault-tolerant campaign execution.

This file pins the ISSUE acceptance criteria at the :func:`run_campaign`
level: a chaos campaign with a >=20% crash rate over >=2 workers completes
every cell with rows bit-identical to a fault-free run; deterministically
poisoned cells are quarantined (and only those) while the campaign
continues; resume skips quarantined cells unless ``retry_quarantined``;
the fail-fast path surfaces the worker's real error without leaving
orphaned processes (the ``except BaseException`` cleanup bugfix).
"""

from __future__ import annotations

import json
import multiprocessing
import time

import pytest

from repro.api import ObsConfig
from repro.campaign import CampaignSpec, PolicySpec, load_results, run_campaign
from repro.resilience import (
    CellError,
    ChaosConfig,
    QuarantineLog,
    RetryPolicy,
    validate_quarantine,
)
from repro.scenarios import register_scenario
from repro.scenarios.base import estimate_parameters
from repro.scenarios.registry import unregister
from repro.runtime.synthetic import SyntheticGrowthApplication

SPEC = CampaignSpec(
    scenarios=("synthetic-hotspot", "bursty"),
    policies=(PolicySpec("standard"), PolicySpec("ulba")),
    num_seeds=2,
    num_pes=8,
    columns_per_pe=16,
    rows=16,
    iterations=10,
)

VOLATILE = ("wall_time",)

FAST_RETRY = RetryPolicy(max_retries=3, backoff_base=0.005, backoff_cap=0.02)


def stable(rows):
    return sorted(
        ({k: v for k, v in row.items() if k not in VOLATILE} for row in rows),
        key=lambda row: row["cell_id"],
    )


def assert_no_orphans():
    deadline = time.monotonic() + 5.0
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.05)
    assert multiprocessing.active_children() == []


# Module-level builder that always raises: a deterministic poison cell
# without chaos injection, picklable for the spawn path.
def _broken_builder(spec):
    raise RuntimeError("broken scenario builder (intentional)")


def _flat_builder(spec):
    app = SyntheticGrowthApplication(spec.num_columns, uniform_growth=0.0)
    return app, estimate_parameters(
        app, spec, num_overloading=0, uniform_rate=0.0, overload_rate=0.0
    )


@pytest.fixture
def broken_scenario():
    register_scenario("test-broken", "always-raising builder")(_broken_builder)
    try:
        yield "test-broken"
    finally:
        unregister("test-broken")


class TestChaosCompletion:
    def test_crashy_campaign_is_bit_identical_to_fault_free(self, tmp_path):
        baseline = run_campaign(SPEC, out_path=tmp_path / "baseline.jsonl")
        chaos = ChaosConfig(crash=0.3, error=0.2, seed=7)
        chaotic = run_campaign(
            SPEC,
            jobs=2,
            out_path=tmp_path / "chaotic.jsonl",
            retry=FAST_RETRY,
            quarantine=tmp_path / "chaotic.quarantine.jsonl",
            chaos=chaos,
            obs=ObsConfig(metrics=True),
        )
        assert chaotic.executed == SPEC.num_cells
        assert chaotic.quarantined == ()
        assert chaotic.clean
        assert stable(chaotic.rows) == stable(baseline.rows)
        # The injector really fired: the crash rate over 8 cells at 30%
        # makes at least one fault overwhelmingly likely, and determinism
        # makes it certain for this (seed, grid) pair.
        faults = sum(
            count
            for name, count in chaotic.metrics.snapshot()["counters"].items()
            if name.startswith("campaign/faults/")
        )
        assert faults > 0
        assert_no_orphans()

    def test_fault_metrics_and_pool_stats_recorded(self, tmp_path):
        chaos = ChaosConfig(crash=0.5, seed=11, max_faults_per_cell=1)
        run = run_campaign(
            SPEC,
            jobs=2,
            out_path=tmp_path / "out.jsonl",
            retry=FAST_RETRY,
            quarantine=tmp_path / "out.quarantine.jsonl",
            chaos=chaos,
            obs=ObsConfig(metrics=True),
        )
        counters = run.metrics.snapshot()["counters"]
        assert counters.get("campaign/faults/crash", 0) > 0
        assert counters.get("campaign/pool/crashes", 0) > 0
        assert counters.get("campaign/pool/restarts", 0) > 0


class TestPoisonQuarantine:
    def test_poison_cells_quarantined_campaign_continues(self, tmp_path):
        out = tmp_path / "out.jsonl"
        sidecar = tmp_path / "out.quarantine.jsonl"
        chaos = ChaosConfig(poison=("bursty|ulba",), seed=1)
        run = run_campaign(
            SPEC,
            jobs=2,
            out_path=out,
            retry=FAST_RETRY,
            quarantine=sidecar,
            chaos=chaos,
        )
        poisoned = {c.cell_id for c in SPEC.cells() if "bursty|ulba" in c.cell_id}
        assert set(run.quarantined) == poisoned
        assert len(poisoned) == SPEC.num_seeds
        assert not run.clean
        # Every healthy cell completed and none of the poisoned leaked a row.
        row_ids = {row["cell_id"] for row in run.rows}
        assert row_ids == {c.cell_id for c in SPEC.cells()} - poisoned
        # The sidecar is schema-valid and each entry carries a replayable
        # RunConfig plus the worker-side error context.
        assert validate_quarantine(sidecar) == []
        entries = QuarantineLog(sidecar).load()
        assert set(entries) == poisoned
        for entry in entries.values():
            assert entry.error_type == "ChaosInjectedError"
            assert "poison" in entry.message
            assert entry.run_config["scenario"]["name"] == "bursty"
            assert entry.env["python"]
        assert_no_orphans()

    def test_resume_skips_quarantined_until_retry_flag(self, tmp_path):
        out = tmp_path / "out.jsonl"
        sidecar = tmp_path / "out.quarantine.jsonl"
        chaos = ChaosConfig(poison=("bursty|ulba",), seed=1)
        first = run_campaign(
            SPEC, jobs=2, out_path=out, retry=FAST_RETRY,
            quarantine=sidecar, chaos=chaos,
        )
        assert len(first.quarantined) == 2

        # Plain resume: quarantined cells are skipped, not retried.
        resumed = run_campaign(SPEC, out_path=out, quarantine=sidecar)
        assert resumed.executed == 0
        assert resumed.skipped_quarantined == 2
        assert resumed.quarantined == ()
        assert not resumed.clean

        # --retry-quarantined without the poison: the cells now succeed and
        # the sidecar marks them resolved.
        retried = run_campaign(
            SPEC, out_path=out, quarantine=sidecar, retry_quarantined=True
        )
        assert retried.executed == 2
        assert retried.skipped == SPEC.num_cells - 2
        assert retried.clean
        assert QuarantineLog(sidecar).load() == {}
        # The final log now matches a fault-free campaign bit for bit.
        clean = run_campaign(SPEC, out_path=tmp_path / "clean.jsonl")
        assert stable(load_results(out)) == stable(clean.rows)

    def test_serial_quarantine_path(self, tmp_path, broken_scenario):
        # jobs=1 is a supervised pool of one worker: it must split, isolate
        # and quarantine exactly like a multi-worker pool, down to the
        # quarantined ids and the healthy rows.
        spec = CampaignSpec(
            scenarios=(broken_scenario, "synthetic-hotspot"),
            policies=(PolicySpec("standard"),),
            num_seeds=2,
            num_pes=8,
            columns_per_pe=16,
            rows=16,
            iterations=6,
        )
        runs = {}
        for jobs in (1, 2):
            sidecar = tmp_path / f"q{jobs}.jsonl"
            run = run_campaign(
                spec,
                jobs=jobs,
                out_path=tmp_path / f"out{jobs}.jsonl",
                quarantine=sidecar,
            )
            assert len(run.quarantined) == 2
            assert all(broken_scenario in cid for cid in run.quarantined)
            assert len(run.rows) == 2  # the healthy scenario completed
            assert validate_quarantine(sidecar) == []
            entries = QuarantineLog(sidecar).load()
            assert all(
                "broken scenario builder" in e.message for e in entries.values()
            )
            runs[jobs] = run
        assert sorted(runs[1].quarantined) == sorted(runs[2].quarantined)
        assert stable(runs[1].rows) == stable(runs[2].rows)
        assert_no_orphans()


class TestFailFastCleanup:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_pool_failure_surfaces_real_error_and_no_orphans(
        self, tmp_path, broken_scenario, jobs
    ):
        # The bugfix pin: a worker raising must surface the worker's real
        # exception as a structured CellError (not a pool bookkeeping
        # error, nor the bare exception) and the cleanup path must
        # terminate and join every worker process -- at the default jobs=1
        # as well as with several workers.
        spec = CampaignSpec(
            scenarios=(broken_scenario, "synthetic-hotspot"),
            policies=(PolicySpec("standard"), PolicySpec("ulba")),
            num_seeds=2,
            num_pes=8,
            columns_per_pe=16,
            rows=16,
            iterations=6,
        )
        with pytest.raises(CellError) as excinfo:
            run_campaign(
                spec,
                jobs=jobs,
                out_path=tmp_path / "out.jsonl",
                retry=FAST_RETRY,
            )
        assert "broken scenario builder" in str(excinfo.value)
        assert excinfo.value.error_type == "RuntimeError"
        assert "broken scenario builder" in excinfo.value.worker_traceback
        assert_no_orphans()

    def test_consumer_error_in_on_cell_done_leaves_no_orphans(self, tmp_path):
        class Interrupt(RuntimeError):
            pass

        def explode(row):
            raise Interrupt("consumer stopped")

        with pytest.raises(Interrupt):
            run_campaign(
                SPEC,
                jobs=2,
                out_path=tmp_path / "out.jsonl",
                on_cell_done=explode,
                # Chaos slow keeps workers busy so some are mid-task when
                # the consumer dies -- the orphan-prone window.
                chaos=ChaosConfig(slow=1.0, slow_seconds=0.2, seed=5),
                quarantine=tmp_path / "q.jsonl",
            )
        assert_no_orphans()


class TestCliExitCodes:
    def test_clean_campaign_exits_zero(self, tmp_path, capsys, monkeypatch):
        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        code = main(
            [
                "campaign", "--scale", "smoke", "--filter", "synthetic-hotspot",
                "--out", str(tmp_path / "out.jsonl"),
            ]
        )
        assert code == 0
        assert "QUARANTINED" not in capsys.readouterr().out

    def test_quarantined_campaign_exits_three(self, tmp_path, capsys, monkeypatch):
        from repro.cli import EXIT_QUARANTINED, main

        monkeypatch.chdir(tmp_path)
        out = tmp_path / "out.jsonl"
        code = main(
            [
                "campaign", "--scale", "smoke", "--filter", "synthetic-hotspot",
                "--jobs", "2", "--out", str(out),
                "--chaos-poison", "synthetic-hotspot|ulba",
            ]
        )
        assert code == EXIT_QUARANTINED
        captured = capsys.readouterr()
        assert "QUARANTINED: 2 cell(s)" in captured.out
        # The default sidecar lives next to the log and validates.
        sidecar = out.with_suffix(".quarantine.jsonl")
        assert sidecar.exists()
        assert validate_quarantine(sidecar) == []
        # Resume without the poison still flags the skipped quarantined
        # cells; --retry-quarantined heals and exits clean.
        assert main(["campaign", "--scale", "smoke", "--filter",
                     "synthetic-hotspot", "--out", str(out)]) == EXIT_QUARANTINED
        capsys.readouterr()
        assert main(["campaign", "--scale", "smoke", "--filter",
                     "synthetic-hotspot", "--out", str(out),
                     "--retry-quarantined"]) == 0
        assert QuarantineLog(sidecar).load() == {}

    def test_bad_chaos_spec_exits_two(self, tmp_path, capsys, monkeypatch):
        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        code = main(
            ["campaign", "--scale", "smoke", "--chaos", "explode=0.5",
             "--out", str(tmp_path / "out.jsonl")]
        )
        assert code == 2
        assert "unknown chaos key" in capsys.readouterr().err

    def test_rows_parse_and_resume_after_chaos(self, tmp_path, monkeypatch, capsys):
        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        out = tmp_path / "out.jsonl"
        code = main(
            ["campaign", "--scale", "smoke", "--filter", "bursty",
             "--jobs", "2", "--out", str(out),
             "--chaos", "crash=0.3,seed=2", "--max-retries", "3"]
        )
        assert code == 0
        with out.open(encoding="utf-8") as handle:
            rows = [json.loads(line) for line in handle]
        assert len(rows) == 4  # bursty x {standard, ulba} x 2 seeds
        capsys.readouterr()
        # Fault-free resume touches nothing.
        assert main(["campaign", "--scale", "smoke", "--filter", "bursty",
                     "--out", str(out)]) == 0
        assert "0 executed, 4 resumed" in capsys.readouterr().out
