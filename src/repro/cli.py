"""Command-line interface of the reproduction.

``python -m repro <command>`` regenerates the paper's figures, the ablation
studies and scenario campaigns without writing any Python:

========================  ====================================================
``fig2``                  sigma_plus vs. simulated annealing (Figure 2)
``fig3``                  ULBA gain vs. % overloading PEs (Figure 3)
``fig4``                  erosion application run times / utilization (Figure 4)
``fig5``                  alpha sensitivity on the erosion application (Figure 5)
``ablations``             trigger / dissemination / threshold / alpha-policy
                          ablations of the reproduction's design choices
``all``                   everything above, at reduced scale
``campaign``              scenario grid x policy grid x seeds on the scenario
                          catalog, in parallel, with JSONL resume
``run``                   one declarative scenario x policy run through the
                          ``repro.api`` Session facade (JSON config in/out,
                          streamed progress events)
``lint``                  invariant-enforcing static analysis over the
                          codebase (determinism, spawn-safety, hot-loop
                          purity; see ``docs/static-analysis.md``)
========================  ====================================================

Each command accepts ``--scale`` to trade fidelity for speed: ``smoke`` (a
few seconds, structural check), ``default`` (the scale used by the benchmark
harness) and ``paper`` (closest to the paper's sample sizes; minutes).

The campaign command additionally accepts ``--jobs N`` (worker processes),
``--out FILE`` (JSONL result log; a rerun with the same file resumes and
skips completed cells), ``--filter SUBSTR`` (run only matching cells) and
``--list`` (print the scenario catalog and exit).

Campaign execution is fault-tolerant (:mod:`repro.resilience`): worker
crashes and hangs are detected, retried (``--max-retries``, under a
``--task-timeout`` deadline) and, when a cell keeps failing, quarantined to
a ``*.quarantine.jsonl`` sidecar (``--quarantine``) while the campaign
continues; ``--retry-quarantined`` re-executes such cells.  A
``--chaos``/``--chaos-poison`` fault injector exercises all of this
deterministically.  Exit codes distinguish the outcomes: ``0`` clean,
``3`` completed but with quarantined (or quarantine-skipped) cells,
``130`` interrupted by SIGINT/SIGTERM (first signal drains in-flight work
and persists everything; a second one hard-kills).
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from pathlib import Path
from typing import Callable, Dict, Optional, Sequence, Tuple

from repro.api import (
    ClusterConfig,
    EventBus,
    ObsConfig,
    PolicyConfig,
    RunConfig,
    RunnerConfig,
    ScenarioConfig,
    Session,
    TopologyConfig,
)
from repro.campaign import campaign_for_scale, format_campaign_report, run_campaign
from repro.obs import CampaignProgress
from repro.resilience import RetryPolicy, parse_chaos
from repro.utils.io import atomic_write_text
from repro.experiments.common import format_table
from repro.experiments.ablations import (
    run_alpha_policy_comparison,
    run_dissemination_ablation,
    run_threshold_ablation,
    run_trigger_ablation,
)
from repro.experiments.fig2_upperbound import Fig2Config, run_fig2
from repro.experiments.fig3_gain_vs_overloading import Fig3Config, run_fig3
from repro.experiments.fig4_erosion import Fig4Config, run_fig4
from repro.experiments.fig5_alpha_tuning import Fig5Config, run_fig5
from repro.scenarios import available_scenarios
from repro.scenarios.erosion import ErosionScenario

__all__ = ["EXIT_INTERRUPTED", "EXIT_QUARANTINED", "main", "build_parser", "SCALES"]

#: Recognised values of the ``--scale`` option.
SCALES = ("smoke", "default", "paper")

#: Exit code of a campaign that completed but quarantined (or skipped
#: previously quarantined) cells -- distinguishable from clean success.
EXIT_QUARANTINED = 3

#: Exit code of a campaign drained by SIGINT/SIGTERM (mirrors the shell's
#: 128+SIGINT convention).
EXIT_INTERRUPTED = 130


# ----------------------------------------------------------------------
# Per-scale experiment configurations.
# ----------------------------------------------------------------------
def _fig2_config(scale: str, seed: int) -> Fig2Config:
    if scale == "smoke":
        return Fig2Config(num_instances=10, annealing_steps=500, seed=seed)
    if scale == "paper":
        return Fig2Config(num_instances=1000, annealing_steps=4000, seed=seed)
    return Fig2Config(num_instances=60, annealing_steps=2000, seed=seed)


def _fig3_config(scale: str, seed: int) -> Fig3Config:
    if scale == "smoke":
        return Fig3Config(
            fractions=(0.01, 0.065, 0.2), instances_per_fraction=20, num_alphas=15, seed=seed
        )
    if scale == "paper":
        return Fig3Config(instances_per_fraction=1000, num_alphas=100, seed=seed)
    return Fig3Config(instances_per_fraction=100, num_alphas=25, seed=seed)


def _fig4_config(scale: str, seed: int) -> Fig4Config:
    if scale == "smoke":
        return Fig4Config(
            pe_counts=(16,),
            strong_rock_counts=(1,),
            iterations=40,
            columns_per_pe=48,
            rows=48,
            usage_case=(16, 1),
            seed=seed,
        )
    if scale == "paper":
        return Fig4Config(
            pe_counts=(32, 64, 128),
            strong_rock_counts=(1, 2, 3),
            iterations=160,
            columns_per_pe=128,
            rows=128,
            repetitions=5,
            seed=seed,
        )
    return Fig4Config(repetitions=3, seed=seed)


def _fig5_config(scale: str, seed: int) -> Fig5Config:
    if scale == "smoke":
        return Fig5Config(
            pe_counts=(16,), alphas=(0.2, 0.4), iterations=40, columns_per_pe=48, rows=48, seed=seed
        )
    if scale == "paper":
        return Fig5Config(
            pe_counts=(32, 64, 128), iterations=160, columns_per_pe=128, rows=128, seed=seed
        )
    return Fig5Config(seed=seed)


def _ablation_scenario(scale: str, seed: int) -> ErosionScenario:
    if scale == "smoke":
        return ErosionScenario(
            num_pes=16, iterations=40, columns_per_pe=48, rows=48, seed=seed
        )
    if scale == "paper":
        return ErosionScenario(
            num_pes=64, iterations=160, columns_per_pe=128, rows=128, seed=seed
        )
    return ErosionScenario(seed=seed)


# ----------------------------------------------------------------------
# Commands.
# ----------------------------------------------------------------------
def _cmd_fig2(scale: str, seed: int) -> str:
    return run_fig2(_fig2_config(scale, seed)).format_report()


def _cmd_fig3(scale: str, seed: int) -> str:
    return run_fig3(_fig3_config(scale, seed)).format_report()


def _cmd_fig4(scale: str, seed: int) -> str:
    return run_fig4(_fig4_config(scale, seed)).format_report(include_usage=True)


def _cmd_fig5(scale: str, seed: int) -> str:
    return run_fig5(_fig5_config(scale, seed)).format_report()


def _cmd_ablations(scale: str, seed: int) -> str:
    scenario = _ablation_scenario(scale, seed)
    reports = [
        run_trigger_ablation(scenario).format_report(),
        run_dissemination_ablation(scenario).format_report(),
        run_threshold_ablation(scenario).format_report(),
        run_alpha_policy_comparison(scenario).format_report(),
    ]
    return "\n\n".join(reports)


def _cmd_all(scale: str, seed: int) -> str:
    # "all" always runs at the requested scale but defaults to smoke-friendly
    # sizes through the per-command configs.
    sections = [
        ("Figure 2", _cmd_fig2(scale, seed)),
        ("Figure 3", _cmd_fig3(scale, seed)),
        ("Figure 4", _cmd_fig4(scale, seed)),
        ("Figure 5", _cmd_fig5(scale, seed)),
        ("Ablations", _cmd_ablations(scale, seed)),
    ]
    banner = "=" * 72
    parts = []
    for title, body in sections:
        parts.append(f"{banner}\n{title}\n{banner}\n{body}")
    return "\n\n".join(parts)


COMMANDS: Dict[str, Callable[[str, int], str]] = {
    "fig2": _cmd_fig2,
    "fig3": _cmd_fig3,
    "fig4": _cmd_fig4,
    "fig5": _cmd_fig5,
    "ablations": _cmd_ablations,
    "all": _cmd_all,
}

#: Plain-text command summaries; ``%`` is escaped only where argparse
#: interpolates (the ``help=`` strings), not in ``description=``.
_COMMAND_HELP = {
    "fig2": "sigma_plus vs. simulated annealing (Figure 2)",
    "fig3": "ULBA gain vs. % overloading PEs (Figure 3)",
    "fig4": "erosion run times / utilization (Figure 4)",
    "fig5": "alpha sensitivity on the erosion application (Figure 5)",
    "ablations": "trigger / dissemination / threshold / alpha-policy ablations",
    "all": "every figure and ablation in one report",
}


def _list_scenarios() -> str:
    """The scenario catalog as printed by ``repro campaign --list``."""
    lines = ["Registered scenarios (usable in campaign specs and --filter):", ""]
    for scenario in available_scenarios():
        lines.append(f"  {scenario.name:20s} {scenario.description}")
    return "\n".join(lines)


def _obs_config(args: argparse.Namespace) -> Optional[ObsConfig]:
    """The ObsConfig implied by --profile/--metrics-out/--trace-out, or None."""
    profile = bool(getattr(args, "profile", False))
    metrics = getattr(args, "metrics_out", None) is not None
    trace = getattr(args, "trace_out", None) is not None
    if not (profile or metrics or trace):
        return None
    return ObsConfig(profile=profile, metrics=metrics, trace=trace)


def _emit_obs_outputs(
    args: argparse.Namespace,
    *,
    profile: Optional[object] = None,
    metrics: Optional[object] = None,
    trace: Optional[object] = None,
) -> None:
    """Print the stage table and write the metrics/trace files when asked."""
    if getattr(args, "profile", False) and profile is not None:
        print("\nHot-loop stage profile:\n" + profile.stage_table(), file=sys.stderr)
    metrics_out = getattr(args, "metrics_out", None)
    if metrics_out is not None and metrics is not None:
        # Atomic replace: an interrupted run leaves either the previous
        # snapshot or the new one, never a torn file.
        path = atomic_write_text(metrics_out, metrics.to_json() + "\n")
        print(f"metrics written to {path}", file=sys.stderr)
    trace_out = getattr(args, "trace_out", None)
    if trace_out is not None and trace is not None:
        print(f"trace written to {trace.write(trace_out)}", file=sys.stderr)


def _cmd_campaign(args: argparse.Namespace) -> Tuple[str, int]:
    """Run (or list) a campaign; returns the report and the exit code."""
    if args.list:
        return _list_scenarios(), 0
    spec = campaign_for_scale(args.scale, args.seed)
    out_path = args.out if args.out is not None else f"campaign-{spec.name}.jsonl"
    # The quarantine sidecar is always on for the CLI (a grid campaign must
    # never lose thousands of cells to one poisoned one); it defaults to
    # living next to the result log.
    quarantine_path = (
        Path(args.quarantine)
        if args.quarantine is not None
        else Path(out_path).with_suffix(".quarantine.jsonl")
    )
    chaos = None
    if args.chaos is not None or args.chaos_poison:
        try:
            chaos = parse_chaos(
                args.chaos or "", poison=tuple(args.chaos_poison or ())
            )
        except ValueError as exc:
            print(f"repro campaign: error: {exc}", file=sys.stderr)
            return "", 2
    progress = {"done": 0}

    def _echo(row):
        progress["done"] += 1
        print(
            f"[{progress['done']}] {row['cell_id']}: "
            f"time={row['total_time']:.4g}s lb_calls={row['num_lb_calls']}",
            file=sys.stderr,
        )

    bus: Optional[EventBus] = None
    live: Optional[CampaignProgress] = None
    if args.progress:
        # The live line replaces the one-print-per-cell echo; it renders
        # only on a TTY (piped logs stay clean) and the summary prints
        # either way.
        bus = EventBus()
        live = CampaignProgress(
            total_cells=len(spec.cells(name_filter=args.filter)), stream=sys.stderr
        )
        bus.on("campaign_cell", live.update)
    run = run_campaign(
        spec,
        jobs=args.jobs,
        out_path=out_path,
        name_filter=args.filter,
        on_cell_done=None if args.progress else _echo,
        mp_start_method=args.mp_start_method,
        events=bus,
        obs=_obs_config(args),
        retry=RetryPolicy(max_retries=args.max_retries),
        task_timeout=args.task_timeout,
        quarantine=quarantine_path,
        retry_quarantined=args.retry_quarantined,
        chaos=chaos,
    )
    if live is not None:
        live.finish()
    _emit_obs_outputs(
        args, profile=run.profile, metrics=run.metrics, trace=run.trace
    )
    header = (
        f"Campaign '{spec.name}': {run.num_cells} cells "
        f"({len(spec.scenarios)} scenarios x {len(spec.policies)} policies "
        f"x {spec.num_seeds} seeds{', filtered' if args.filter else ''}), "
        f"{run.executed} executed, {run.skipped} resumed from {run.out_path}"
    )
    code = 0
    if run.quarantined or run.skipped_quarantined:
        quarantined_now = ", ".join(run.quarantined) or "none new"
        header += (
            f"\nQUARANTINED: {len(run.quarantined)} cell(s) this run "
            f"({quarantined_now}); {run.skipped_quarantined} previously "
            f"quarantined cell(s) skipped -- see {quarantine_path} "
            f"(re-run with --retry-quarantined to retry them)"
        )
        code = EXIT_QUARANTINED
    if run.interrupted:
        header += (
            "\nINTERRUPTED: in-flight work drained and persisted; rerun "
            "with the same --out to resume"
        )
        code = EXIT_INTERRUPTED
    if not run.rows:
        return header + "\n(no cells matched)", code
    return header + "\n\n" + format_campaign_report(run.rows), code


def _cmd_run(args: argparse.Namespace) -> str:
    """Run one declarative session according to the parsed CLI arguments."""
    if args.config:
        cfg = RunConfig.from_json(Path(args.config).read_text(encoding="utf-8"))
    else:
        cfg = RunConfig(
            cluster=ClusterConfig(num_pes=args.pes),
            topology=TopologyConfig(
                use_gossip=args.gossip != "instant",
                gossip_mode="sparse" if args.gossip == "sparse" else "dense",
                fanout=args.fanout,
                push_topology=args.push_topology,
                view_size=args.view_size,
            ),
            policy=PolicyConfig.parse(args.policy),
            scenario=ScenarioConfig(
                name=args.scenario,
                columns_per_pe=args.columns_per_pe,
                rows=args.rows,
                iterations=args.iterations,
                seed=args.seed,
            ),
            runner=RunnerConfig(
                replicas=args.replicas,
                memory_budget_mb=args.memory_budget_mb,
            ),
        )
    # Observability flags graft onto the config even when --config is
    # authoritative: they change what is recorded, never what is simulated.
    obs = _obs_config(args)
    if obs is not None:
        cfg = dataclasses.replace(cfg, obs=obs)
    if args.dump_config:
        return cfg.to_json(indent=2)
    if cfg.runner.replicas > 1:
        return _run_batch(cfg, args, events=args.events)
    session = Session.from_config(cfg)
    if args.events:
        session.on(
            "phase", lambda e: print(f"[phase] {e.name}", file=sys.stderr)
        )
        session.on(
            "lb_step",
            lambda e: print(
                f"[lb] iteration {e.iteration}: cost={e.report.cost:.4g}s "
                f"migrated={e.report.migrated_load:.4g}",
                file=sys.stderr,
            ),
        )
    result = session.run()
    _emit_obs_outputs(
        args,
        profile=result.run.profile,
        metrics=session.metrics,
        trace=session.trace_writer,
    )
    row = {
        "scenario": cfg.scenario.name,
        "policy": cfg.policy.label,
        "PEs": cfg.cluster.num_pes,
        "iterations": result.iterations,
        "total time [s]": round(result.total_time, 6),
        "LB calls": result.num_lb_calls,
        "mean utilization": f"{result.mean_utilization * 100.0:.2f}%",
    }
    return format_table([row], title="Session run (repro.api)")


def _run_batch(
    cfg: RunConfig, args: argparse.Namespace, *, events: bool = False
) -> str:
    """Execute a replica-batched run and print per-replica + aggregate rows."""
    session = Session.from_config(cfg)
    if events:
        # Batched runs stream phase events only: per-iteration/LB events of
        # individual replicas are not emitted by the vectorized pass.
        session.on("phase", lambda e: print(f"[phase] {e.name}", file=sys.stderr))
    batch = session.run_batch()
    _emit_obs_outputs(
        args,
        profile=batch.profile,
        metrics=session.metrics,
        trace=session.trace_writer,
    )
    rows = []
    for seed, result in zip(batch.seeds, batch.replicas):
        rows.append(
            {
                "replica (seed)": seed,
                "total time [s]": round(result.total_time, 6),
                "LB calls": result.num_lb_calls,
                "mean utilization": f"{result.mean_utilization * 100.0:.2f}%",
            }
        )
    agg = batch.aggregate()
    rows.append(
        {
            "replica (seed)": "mean +/- CI95",
            "total time [s]": f"{agg['total_time']:.6g} +/- {agg['total_time_ci']:.3g}",
            "LB calls": f"{agg['lb_calls']:.4g} +/- {agg['lb_calls_ci']:.3g}",
            "mean utilization": (
                f"{agg['mean_utilization'] * 100.0:.2f}% "
                f"+/- {agg['mean_utilization_ci'] * 100.0:.2f}%"
            ),
        }
    )
    title = (
        f"Batched session run: {cfg.scenario.name} x {cfg.policy.label}, "
        f"{batch.num_replicas} replicas (repro.batch)"
    )
    return format_table(rows, title=title)


def _positive_int(text: str) -> int:
    """argparse type for options requiring an integer >= 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _non_negative_int(text: str) -> int:
    """argparse type for options requiring an integer >= 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _positive_seconds(text: str) -> float:
    """argparse type for a duration: a finite number of seconds > 0."""
    value = float(text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be a finite number > 0, got {text}")
    return value


def _add_common_options(
    parser: argparse.ArgumentParser,
    *,
    suppress_defaults: bool = False,
    include_scale: bool = True,
) -> None:
    """Attach the ``--scale`` / ``--seed`` options every command shares.

    The options are declared both on the top-level parser (with real
    defaults, preserving the historical ``repro --scale smoke fig2`` order)
    and on every subparser (with suppressed defaults, so a value given
    after the command wins without clobbering one given before it).  The
    ``run`` subcommand sizes itself through its own flags / the config file
    and therefore opts out of ``--scale``.
    """
    if include_scale:
        parser.add_argument(
            "--scale",
            choices=SCALES,
            default=argparse.SUPPRESS if suppress_defaults else "default",
            help="experiment scale: smoke (seconds), default (benchmark scale), "
            "paper (closest to the paper's sample sizes)",
        )
    parser.add_argument(
        "--seed",
        type=int,
        default=argparse.SUPPRESS if suppress_defaults else 0,
        help="master seed",
    )


def _add_obs_options(parser: argparse.ArgumentParser) -> None:
    """Attach the observability flags shared by ``run`` and ``campaign``."""
    parser.add_argument(
        "--profile",
        action="store_true",
        help="time the named hot-loop stages and print the stage table "
        "(wall totals, shares, counts) to stderr after the run",
    )
    parser.add_argument(
        "--metrics-out",
        default=None,
        metavar="FILE",
        help="write the metrics registry snapshot (counters / gauges / "
        "histograms) as JSON to FILE",
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        metavar="FILE",
        help="write a Chrome trace-event JSON timeline to FILE (open in "
        "Perfetto or chrome://tracing)",
    )


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the figures of 'On the Benefits of Anticipating "
        "Load Imbalance for Performance Optimization of Parallel Applications' "
        "(Boulmier et al., CLUSTER 2019), or run scenario campaigns on the "
        "reproduction's workload catalog.",
    )
    _add_common_options(parser)
    subparsers = parser.add_subparsers(
        dest="command", required=True, metavar="command"
    )
    for name in sorted(COMMANDS):
        sub = subparsers.add_parser(
            name,
            help=_COMMAND_HELP[name].replace("%", "%%"),
            description=_COMMAND_HELP[name],
        )
        _add_common_options(sub, suppress_defaults=True)
    campaign = subparsers.add_parser(
        "campaign",
        help="scenario grid x policy grid x seeds, in parallel, with JSONL resume",
        description="Run a campaign over the scenario catalog: every cell of "
        "the (scenario x policy x seed) grid is executed on the virtual "
        "cluster and appended to a JSONL log; rerunning with the same --out "
        "resumes, skipping completed cells.",
    )
    _add_common_options(campaign, suppress_defaults=True)
    campaign.add_argument(
        "--jobs",
        type=_positive_int,
        default=1,
        help="supervised worker processes executing seed-batches in "
        "parallel; every campaign runs in worker processes (default: 1)",
    )
    campaign.add_argument(
        "--out",
        default=None,
        help="JSONL result log, also the resume state "
        "(default: campaign-<scale>.jsonl in the working directory)",
    )
    campaign.add_argument(
        "--filter",
        default=None,
        help="only run cells whose id contains this substring "
        "(e.g. a scenario name or policy label)",
    )
    campaign.add_argument(
        "--list",
        action="store_true",
        help="print the registered scenario catalog and exit",
    )
    campaign.add_argument(
        "--mp-start-method",
        choices=("fork", "spawn", "forkserver"),
        default=None,
        help="multiprocessing start method of the worker pool (default: fork "
        "where available; user-registered scenarios are shipped to the "
        "workers either way)",
    )
    campaign.add_argument(
        "--progress",
        action="store_true",
        help="show one live status line (cells/s, ETA, per-worker occupancy) "
        "instead of printing every completed cell (renders on TTYs only)",
    )
    campaign.add_argument(
        "--max-retries",
        type=_non_negative_int,
        default=2,
        metavar="N",
        help="re-dispatches of a seed-batch lost to a worker crash or "
        "timeout before it is split into single cells (exponential backoff "
        "with full jitter between attempts; default: %(default)s)",
    )
    campaign.add_argument(
        "--task-timeout",
        type=_positive_seconds,
        default=None,
        metavar="SECONDS",
        help="deadline per seed-batch; a batch running longer has its "
        "worker killed and counts as a retryable timeout (default: none)",
    )
    campaign.add_argument(
        "--quarantine",
        default=None,
        metavar="FILE",
        help="quarantine sidecar recording cells that keep failing (with "
        "the error, worker traceback and exact replay config) while the "
        "campaign continues (default: <out>.quarantine.jsonl); exit code "
        f"{EXIT_QUARANTINED} flags a run with quarantined cells",
    )
    campaign.add_argument(
        "--retry-quarantined",
        action="store_true",
        help="re-execute previously quarantined cells instead of skipping "
        "them; a cell that now succeeds is marked resolved in the sidecar",
    )
    campaign.add_argument(
        "--chaos",
        default=None,
        metavar="SPEC",
        help="deterministic fault injection for testing the supervisor: "
        "comma-separated rates 'crash=0.2,hang=0.1,raise=0.1,slow=0.3' "
        "plus knobs seed=/hang_seconds=/slow_seconds=/max_faults= "
        "(faults are seeded per cell and capped, so the campaign still "
        "completes; pair hang rates with --task-timeout)",
    )
    campaign.add_argument(
        "--chaos-poison",
        action="append",
        default=None,
        metavar="SUBSTR",
        help="cell-id substring that fails on every attempt under --chaos "
        "(repeatable); such cells must end up quarantined, everything else "
        "must complete",
    )
    _add_obs_options(campaign)
    run_parser = subparsers.add_parser(
        "run",
        help="one declarative scenario x policy run via the repro.api Session facade",
        description="Execute a single run through repro.api: build (or load "
        "with --config) a serializable RunConfig, wire a Session, optionally "
        "stream progress events, and print the trace summary.  --dump-config "
        "prints the resolved config JSON instead of running it.",
    )
    # Sizing defaults come straight from the config dataclasses so the CLI
    # can never drift from what a bare RunConfig() runs.
    scenario_defaults = ScenarioConfig()
    cluster_defaults = ClusterConfig()
    _add_common_options(run_parser, suppress_defaults=True, include_scale=False)
    run_parser.add_argument(
        "--config",
        default=None,
        metavar="FILE",
        help="JSON RunConfig file to execute; the file is authoritative and "
        "every other run flag (--scenario/--policy/--pes/--seed/--replicas/...) "
        "is ignored (the file's runner.replicas decides batching)",
    )
    run_parser.add_argument(
        "--scenario",
        default=scenario_defaults.name,
        help="catalog scenario name (see 'campaign --list'; default: %(default)s)",
    )
    run_parser.add_argument(
        "--policy",
        default="ulba",
        help="policy pair: standard | ulba[:alpha] | ulba-dynamic[:alpha] "
        "(default: %(default)s)",
    )
    run_parser.add_argument(
        "--pes",
        type=_positive_int,
        default=cluster_defaults.num_pes,
        help="number of PEs (default: %(default)s)",
    )
    run_parser.add_argument(
        "--columns-per-pe",
        type=_positive_int,
        default=scenario_defaults.columns_per_pe,
        help="domain columns per PE (default: %(default)s)",
    )
    run_parser.add_argument(
        "--rows",
        type=_positive_int,
        default=scenario_defaults.rows,
        help="domain rows (default: %(default)s)",
    )
    run_parser.add_argument(
        "--iterations",
        type=_positive_int,
        default=scenario_defaults.iterations,
        help="application iterations (default: %(default)s)",
    )
    run_parser.add_argument(
        "--replicas",
        type=_positive_int,
        default=RunnerConfig().replicas,
        help="seeded replicas executed in one vectorized batch; replica i "
        "runs with seed+i and the report adds mean +/- CI rows "
        "(default: %(default)s)",
    )
    topology_defaults = TopologyConfig()
    run_parser.add_argument(
        "--gossip",
        choices=("dense", "sparse", "instant"),
        default="dense",
        help="WIR dissemination: dense gossip board ((P, P) views, the "
        "paper's default), sparse gossip board (memory-bounded views for "
        "large P), or instant allgather-like dissemination "
        "(default: %(default)s)",
    )
    run_parser.add_argument(
        "--fanout",
        type=_positive_int,
        default=topology_defaults.fanout,
        help="peers each rank pushes its view to per gossip round "
        "(default: %(default)s)",
    )
    run_parser.add_argument(
        "--push-topology",
        choices=("random", "ring", "hypercube"),
        default=topology_defaults.push_topology,
        help="gossip push topology (default: %(default)s)",
    )
    run_parser.add_argument(
        "--view-size",
        type=_positive_int,
        default=topology_defaults.view_size,
        metavar="M",
        help="sparse gossip only: max WIR entries each rank's view retains "
        "(>= 2; default: unbounded)",
    )
    run_parser.add_argument(
        "--memory-budget-mb",
        type=float,
        default=RunnerConfig().memory_budget_mb,
        metavar="MB",
        help="gossip-board memory budget of a batched run; a batch that "
        "would exceed it is split into sequential bit-identical sub-batches "
        "(default: unbounded)",
    )
    run_parser.add_argument(
        "--events",
        action="store_true",
        help="stream phase / LB-step events to stderr while running",
    )
    run_parser.add_argument(
        "--dump-config",
        action="store_true",
        help="print the resolved RunConfig JSON and exit without running",
    )
    _add_obs_options(run_parser)
    lint_parser = subparsers.add_parser(
        "lint",
        help="invariant-enforcing static analysis (determinism, spawn-safety, "
        "hot-loop purity, API hygiene)",
        description="Run the repro.analysis AST linter over Python sources. "
        "With no paths, lints the installed repro package. Exit codes: 0 "
        "clean, 1 unsuppressed findings, 2 usage error.",
    )
    lint_parser.add_argument(
        "paths",
        nargs="*",
        metavar="PATH",
        help="files or directories to lint (default: the repro package)",
    )
    lint_parser.add_argument(
        "--format",
        choices=("text", "sarif"),
        default="text",
        help="findings output format (default: %(default)s)",
    )
    lint_parser.add_argument(
        "--rules",
        default=None,
        metavar="ID[,ID...]",
        help="comma-separated rule ids to run (default: every registered rule)",
    )
    lint_parser.add_argument(
        "--output",
        default=None,
        metavar="FILE",
        help="write the report to FILE instead of stdout",
    )
    lint_parser.add_argument(
        "--show-suppressed",
        action="store_true",
        help="include suppressed findings in text output",
    )
    lint_parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog (id, name, rationale) and exit",
    )
    return parser


def _cmd_lint(args: argparse.Namespace) -> int:
    """Execute ``repro lint`` (import deferred: linting is a dev-time path)."""
    from repro import analysis

    if args.list_rules:
        for rule in analysis.all_rules():
            print(f"{rule.rule_id}  {rule.name}")
            print(f"    {rule.rationale}")
        return 0
    try:
        selected = (
            analysis.get_rules(
                [rule_id.strip() for rule_id in args.rules.split(",") if rule_id.strip()]
            )
            if args.rules is not None
            else None
        )
    except KeyError as exc:
        print(f"repro lint: error: {exc.args[0]}", file=sys.stderr)
        return 2
    paths = args.paths or [str(Path(__file__).resolve().parent)]
    try:
        findings = analysis.lint_paths(paths, rules=selected)
    except FileNotFoundError as exc:
        print(f"repro lint: error: {exc}", file=sys.stderr)
        return 2
    report = analysis.render(
        findings, args.format, show_suppressed=args.show_suppressed
    )
    if args.output is not None:
        try:
            Path(args.output).write_text(report + "\n", encoding="utf-8")
        except OSError as exc:
            print(f"repro lint: error: cannot write report: {exc}", file=sys.stderr)
            return 2
    else:
        print(report)
    return 1 if analysis.summarize(findings)["errors"] else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point used by ``python -m repro`` and the ``repro`` console script."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "campaign":
        try:
            report, code = _cmd_campaign(args)
        except KeyboardInterrupt:
            # Second signal (or a plain Ctrl-C outside the drain window):
            # workers are already torn down; exit like a shell would.
            print("repro campaign: interrupted (hard kill)", file=sys.stderr)
            return EXIT_INTERRUPTED
        if report:
            print(report)
        return code
    elif args.command == "lint":
        return _cmd_lint(args)
    elif args.command == "run":
        try:
            report = _cmd_run(args)
        except (KeyError, TypeError, ValueError, OSError) as exc:
            # Bad user input (unknown scenario/policy, invalid params,
            # unreadable or malformed --config, wrong-typed config values)
            # gets a clean one-line error like every argparse rejection,
            # not a traceback.
            detail = exc.args[0] if exc.args else exc
            print(f"repro run: error: {detail}", file=sys.stderr)
            return 2
    else:
        report = COMMANDS[args.command](args.scale, args.seed)
    print(report)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
