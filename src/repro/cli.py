"""Command-line interface for running Corona experiments.

Usage::

    python -m repro table2   [--channels N] [--subscriptions N] [--nodes N]
    python -m repro simulate --scheme lite [--channels N] [--hours H] ...
    python -m repro deploy   [--nodes N] [--channels N] [--hours H]
    python -m repro scenario list
    python -m repro scenario run <name> [--seed N] [--variant V] [--json]
                                        [--trace spans.jsonl]
    python -m repro sweep list
    python -m repro sweep run <name> [-j N] [--json] [--out DIR]
                                     [--timeout S] [--retries K]
                                     [--trace spans.jsonl] [--resume]
    python -m repro report <name> [--seed N] [--variant V]
                                  [--format terminal|md|json]
                                  [--out report.md] [--timings] [-j N]
    python -m repro trace export spans.jsonl -o trace.json [--clock sim]

``table2`` reproduces the paper's summary table across all schemes;
``simulate`` runs one scheme through the macro simulator and prints
the Figure 3/4 series; ``deploy`` runs the full-protocol deployment
experiment (Figures 9–10); ``scenario`` drives the declarative
orchestration subsystem (:mod:`repro.scenarios`) — fault-injection
timelines over the full protocol stack; ``sweep`` fans a registered
grid of scenario runs across worker processes
(:mod:`repro.sweeps` — serial and parallel runs emit byte-identical
per-variant JSON).  ``report`` runs a scenario (or a sweep grid) with
the run-introspection plane attached — per-round timeline sampling +
update-freshness provenance — and renders one report document
(terminal, markdown or JSON; deterministic unless ``--timings`` adds
wall clocks).  ``trace export`` converts a
``--trace`` span log to Chrome-trace JSON (load it in Perfetto or
``chrome://tracing``).  Global ``-v``/``-vv`` raise log verbosity,
``-q`` silences warnings.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from repro.analysis.stats import rank_correlation, steady_state_mean
from repro.analysis.tables import format_series, format_table
from repro.core.config import SCHEME_NAMES, CoronaConfig
from repro.obs import Observability, export_chrome_trace, setup_logging
from repro.obs.trace import read_spans
from repro.scenarios import (
    ScenarioRunner,
    ScenarioSpecError,
    get_scenario,
    list_scenarios,
)
from repro.scenarios.registry import UnknownScenarioError
from repro.simulation.deployment import DeploymentSimulator
from repro.simulation.macro import MacroSimulator, run_legacy
from repro.sweeps import (
    JOURNAL_NAME,
    JournalError,
    SweepJournal,
    UnknownSweepError,
    get_sweep,
    list_sweeps,
    run_sweep,
    write_variant_file,
)
from repro.workload.trace import generate_trace


def _add_workload_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--channels", type=int, default=2000)
    parser.add_argument("--subscriptions", type=int, default=100_000)
    parser.add_argument("--nodes", type=int, default=128)
    parser.add_argument("--hours", type=float, default=6.0)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--tau", type=float, default=1800.0,
                        help="polling interval in seconds")


def cmd_table2(args: argparse.Namespace) -> int:
    trace = generate_trace(
        n_channels=args.channels,
        n_subscriptions=args.subscriptions,
        seed=args.seed,
    )
    rows = [["Legacy-RSS", 900.0 * args.tau / 1800.0, float(trace.subscribers.mean()), "-"]]
    for scheme in SCHEME_NAMES:
        config = CoronaConfig(scheme=scheme, polling_interval=args.tau)
        result = MacroSimulator(
            trace, config, n_nodes=args.nodes, seed=args.seed,
            horizon=args.hours * 3600.0,
        ).run()
        latency = args.tau / 2.0 / np.maximum(1, result.final_pollers)
        rows.append(
            [
                f"Corona-{scheme.title()}",
                result.analytic_weighted_delay,
                steady_state_mean(result.polls_per_min, 0.34)
                * (args.tau / 60.0)
                / args.channels,
                f"{rank_correlation(trace.update_intervals, latency):+.2f}",
            ]
        )
    print(
        format_table(
            ["Scheme", "Avg detection (s)", f"Polls/{args.tau / 60:.0f}min/channel",
             "latency~interval corr"],
            rows,
            title="Table 2 — performance summary",
        )
    )
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    trace = generate_trace(
        n_channels=args.channels,
        n_subscriptions=args.subscriptions,
        seed=args.seed,
    )
    config = CoronaConfig(
        scheme=args.scheme,
        polling_interval=args.tau,
        latency_target=args.target,
    )
    result = MacroSimulator(
        trace, config, n_nodes=args.nodes, seed=args.seed,
        horizon=args.hours * 3600.0,
    ).run()
    legacy = run_legacy(
        trace, config, horizon=args.hours * 3600.0, seed=args.seed
    )
    print(
        format_series(
            result.bucket_times,
            {
                "legacy load": legacy.polls_per_min,
                "corona load": result.polls_per_min,
                "legacy delay": legacy.analytic_series,
                "corona delay": result.analytic_series,
            },
        )
    )
    print(
        f"\nscheme={args.scheme}  weighted delay: "
        f"{result.analytic_weighted_delay:.1f}s  "
        f"polls/ch/tau: {result.polls_per_channel_per_tau:.2f}  "
        f"orphans: {result.orphan_count}"
    )
    return 0


def cmd_deploy(args: argparse.Namespace) -> int:
    trace = generate_trace(
        n_channels=args.channels,
        n_subscriptions=args.subscriptions,
        seed=args.seed,
        subscription_window=3600.0,
    )
    config = CoronaConfig(
        polling_interval=args.tau,
        maintenance_interval=args.tau,
        base=args.base,
    )
    simulator = DeploymentSimulator(
        trace, config, n_nodes=args.nodes, seed=args.seed,
        horizon=args.hours * 3600.0,
    )
    result = simulator.run()
    print(
        format_series(
            result.bucket_times,
            {"corona polls/min": result.corona_polls_per_min},
        )
    )
    steady = steady_state_mean(result.detection_times, 0.5)
    steady_text = "n/a" if math.isnan(steady) else f"{steady:.1f}s"
    print(
        f"\ndetections: {result.detections}   steady detection: "
        f"{steady_text} (legacy {result.legacy_detection_time:.0f}s)   "
        f"corona load: {steady_state_mean(result.corona_polls_per_min, 0.4):.0f}"
        f"/min (legacy {result.legacy_polls_per_min:.0f}/min)"
    )
    return 0


def cmd_scenario_list(args: argparse.Namespace) -> int:
    rows = []
    for spec in list_scenarios():
        variants = ", ".join(spec.variant_labels()) or "-"
        rows.append(
            [spec.name, spec.n_nodes, spec.workload.n_channels,
             len(spec.events), variants, spec.description]
        )
    print(
        format_table(
            ["scenario", "nodes", "channels", "events", "variants",
             "description"],
            rows,
            title="Built-in scenarios (repro scenario run <name>)",
        )
    )
    return 0


def cmd_scenario_run(args: argparse.Namespace) -> int:
    sink = None
    try:
        spec = get_scenario(args.name)
        obs = None
        if args.trace is not None:
            sink = open(args.trace, "w", encoding="utf-8")
            obs = Observability.on(sink=sink)
        runner = ScenarioRunner(
            spec,
            seed=args.seed,
            obs=obs,
            check_invariants=args.check_invariants,
        )
        if args.variant is not None:
            results = {args.variant: runner.run(args.variant)}
        else:
            results = runner.run_all()
    except (UnknownScenarioError, ScenarioSpecError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    finally:
        if sink is not None:
            sink.close()
    if args.check_invariants:
        # Report on stderr so --json stdout stays byte-identical to a
        # monitors-off run; the exit code is unchanged (report-only).
        total = sum(len(m.violations) for m in results.values())
        print(
            f"invariants: {total} violation(s) across "
            f"{len(results)} variant run(s)",
            file=sys.stderr,
        )
        for label, metrics in results.items():
            for entry in metrics.violations:
                print(
                    f"  [{label}] {entry['invariant']} at "
                    f"t={entry['at']:.0f}: {entry['detail']}",
                    file=sys.stderr,
                )
    if args.json:
        payload = {
            label: metrics.to_dict() for label, metrics in results.items()
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    for index, metrics in enumerate(results.values()):
        if index:
            print()
        print(metrics.summary())
    if len(results) > 1:
        # One table across variants — e.g. scheme-fault-sweep's
        # per-scheme comparison under the identical fault timeline.
        print()
        print(_variant_table(results))
    return 0


def _variant_table(results: dict) -> str:
    """Side-by-side key metrics for a multi-variant run."""
    rows = []
    for label, m in results.items():
        delay = (
            f"{m.mean_detection_delay:.1f}"
            if not math.isnan(m.mean_detection_delay)
            else "n/a"
        )
        rows.append(
            [
                label,
                m.detections,
                delay,
                f"{m.mean_polls_per_min:.1f}",
                m.messages_dropped,
                m.retransmissions,
                m.repair_diffs,
                m.manager_failovers,
            ]
        )
    first = next(iter(results.values()))
    return format_table(
        ["variant", "detections", "delay (s)", "polls/min", "dropped",
         "retransmits", "repairs", "failovers"],
        rows,
        title=f"{first.scenario} — variant comparison",
    )


def cmd_sweep_list(args: argparse.Namespace) -> int:
    rows = []
    for spec in list_sweeps():
        rows.append(
            [
                spec.name,
                len(spec.tasks()),
                ", ".join(spec.scenario_names()),
                ", ".join(str(seed) for seed in spec.seeds),
                spec.description,
            ]
        )
    print(
        format_table(
            ["sweep", "tasks", "scenarios", "seeds", "description"],
            rows,
            title="Built-in sweeps (repro sweep run <name> -j N)",
        )
    )
    return 0


def cmd_sweep_run(args: argparse.Namespace) -> int:
    sink = None
    journal = None
    try:
        spec = get_sweep(args.name)
    except UnknownSweepError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.resume and args.out is None:
        print(
            "error: --resume needs --out DIR (the journal lives there)",
            file=sys.stderr,
        )
        return 2
    jobs = args.jobs or os.cpu_count() or 1
    completed = None
    on_result = None
    try:
        if args.out is not None:
            # Journal every terminal result as it lands (and write its
            # per-variant file incrementally), so a killed sweep can be
            # resumed with --resume without redoing finished tasks.
            root = Path(args.out)
            root.mkdir(parents=True, exist_ok=True)
            journal_path = root / JOURNAL_NAME
            if args.resume and journal_path.exists():
                journal, state = SweepJournal.resume(
                    journal_path, spec.name, args.check_invariants
                )
                completed = state.results
                if completed:
                    print(
                        f"resuming {spec.name}: {len(completed)} "
                        "journaled task(s) skipped",
                        file=sys.stderr,
                    )
            else:
                journal = SweepJournal.create(
                    journal_path, spec.name, args.check_invariants
                )

            def on_result(result):
                journal.append(result)
                write_variant_file(root, result)

        obs = None
        if args.trace is not None:
            sink = open(args.trace, "w", encoding="utf-8")
            obs = Observability.on(sink=sink)
        run = run_sweep(
            spec,
            jobs=jobs,
            timeout=args.timeout,
            retries=args.retries,
            obs=obs,
            check_invariants=args.check_invariants,
            completed=completed,
            on_result=on_result,
        )
    except JournalError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except RuntimeError as error:
        # The farm's poisoned-environment bail-out (respawn cap).
        print(f"error: {error}", file=sys.stderr)
        return 2
    finally:
        if journal is not None:
            journal.close()
        if sink is not None:
            sink.close()
    if args.out is not None:
        written = run.write_artifacts(args.out)
        if args.check_invariants:
            report_path = Path(args.out) / "violations.json"
            report_path.write_text(
                json.dumps(run.violation_report(), indent=2,
                           sort_keys=True) + "\n"
            )
            written.append(report_path)
        if not args.json:
            print(f"wrote {len(written)} artifact(s) under {args.out}")
    if args.check_invariants:
        report = run.violation_report()
        print(
            f"invariants: {report['total_violations']} violation(s) "
            f"across {report['monitored_tasks']} monitored task(s)",
            file=sys.stderr,
        )
    if args.json:
        print(json.dumps(run.merged(), indent=2, sort_keys=True))
    else:
        print(run.comparison_table())
        for result in run.failed:
            print(
                f"FAILED {result.task.key} after {result.attempts} "
                f"attempt(s): {result.error}",
                file=sys.stderr,
            )
    return 1 if run.failed else 0


def _infer_report_format(args: argparse.Namespace) -> str:
    if args.format is not None:
        return args.format
    if args.out is not None:
        if args.out.endswith(".json"):
            return "json"
        if args.out.endswith(".md"):
            return "md"
    return "terminal"


def _emit_report(rendered: str, out: str | None) -> None:
    if out is None:
        print(rendered, end="")
        return
    target = Path(out)
    if target.parent != Path(""):
        target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(rendered, encoding="utf-8")
    print(f"wrote report to {out}")


def cmd_report(args: argparse.Namespace) -> int:
    """Run a scenario or sweep under introspection; render a report.

    The report document is fully deterministic (same name + seed ⇒
    byte-identical output) unless ``--timings`` adds the span-derived
    wall-clock section.
    """
    from repro.obs.report import (
        build_scenario_report,
        render_report_markdown,
        render_report_terminal,
        render_sweep_report_markdown,
        render_sweep_report_terminal,
    )

    spec = None
    sweep_spec = None
    try:
        spec = get_scenario(args.name)
    except UnknownScenarioError:
        try:
            sweep_spec = get_sweep(args.name)
        except UnknownSweepError:
            print(
                f"error: {args.name!r} is neither a registered scenario "
                "nor a registered sweep",
                file=sys.stderr,
            )
            return 2
    fmt = _infer_report_format(args)

    if sweep_spec is not None:
        jobs = args.jobs or os.cpu_count() or 1
        try:
            run = run_sweep(
                sweep_spec,
                jobs=jobs,
                collect_report=True,
                check_invariants=args.check_invariants,
            )
        except RuntimeError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        document = run.run_report()
        if fmt == "json":
            rendered = (
                json.dumps(document, indent=2, sort_keys=True) + "\n"
            )
        elif fmt == "md":
            rendered = render_sweep_report_markdown(document)
        else:
            rendered = render_sweep_report_terminal(document)
        _emit_report(rendered, args.out)
        return 1 if run.failed else 0

    try:
        labels = (
            [args.variant]
            if args.variant is not None
            else (spec.variant_labels() or [None])
        )
        reports: dict[str, dict] = {}
        for label in labels:
            # A fresh introspection plane per variant: timelines and
            # freshness percentiles never mix across variants.
            obs = Observability.introspected(
                seed=args.seed, trace=args.timings
            )
            runner = ScenarioRunner(
                spec,
                seed=args.seed,
                obs=obs,
                check_invariants=args.check_invariants,
            )
            metrics = runner.run(label)
            reports[metrics.variant] = build_scenario_report(
                metrics.to_dict(),
                timeline=obs.timeline,
                provenance=obs.provenance,
                violations=metrics.violations,
                registry=obs.registry if args.timings else None,
            )
    except (UnknownScenarioError, ScenarioSpecError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if fmt == "json":
        payload = (
            next(iter(reports.values())) if len(reports) == 1 else reports
        )
        rendered = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    elif fmt == "md":
        rendered = "\n".join(
            render_report_markdown(report) for report in reports.values()
        )
    else:
        rendered = "\n".join(
            render_report_terminal(report) for report in reports.values()
        )
    _emit_report(rendered, args.out)
    return 0


def cmd_trace_export(args: argparse.Namespace) -> int:
    """Convert a ``--trace`` JSONL span log to Chrome-trace JSON."""
    try:
        with open(args.input, encoding="utf-8") as handle:
            records = read_spans(handle)
    except (OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    document = export_chrome_trace(
        records,
        clock=args.clock,
        process_name=f"repro ({args.clock} clock)",
    )
    rendered = json.dumps(document, indent=None, separators=(",", ":"))
    if args.output is None:
        print(rendered)
    else:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(rendered)
        print(
            f"wrote {len(document['traceEvents'])} events to "
            f"{args.output} ({args.clock} clock)"
        )
    return 0


def _positive_seconds(text: str) -> float:
    """``--timeout``: a wall-clock budget must be a positive number."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not value > 0:
        raise argparse.ArgumentTypeError(
            f"must be a positive number of seconds, got {text!r}"
        )
    return value


def _non_negative_count(text: str) -> int:
    """``--retries`` and ``-j/--jobs``: a count must be a whole number
    >= 0 (``-j 0`` means one worker per CPU)."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(
            f"must be a whole number >= 0, got {text!r}"
        )
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Corona (NSDI 2006) reproduction experiments",
    )
    parser.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="raise log verbosity (-v info, -vv debug)",
    )
    parser.add_argument(
        "-q", "--quiet", action="store_true",
        help="log errors only",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    table2 = commands.add_parser("table2", help="all schemes, Table 2 style")
    _add_workload_args(table2)
    table2.set_defaults(func=cmd_table2)

    simulate = commands.add_parser("simulate", help="one scheme, Fig 3/4 series")
    _add_workload_args(simulate)
    simulate.add_argument("--scheme", choices=SCHEME_NAMES, default="lite")
    simulate.add_argument("--target", type=float, default=30.0,
                          help="Corona-Fast latency target (s)")
    simulate.set_defaults(func=cmd_simulate)

    deploy = commands.add_parser("deploy", help="full-protocol deployment")
    _add_workload_args(deploy)
    deploy.set_defaults(
        func=cmd_deploy, channels=150, subscriptions=1500, nodes=24,
        hours=2.0,
    )
    deploy.add_argument("--base", type=int, default=4)
    deploy.set_defaults(func=cmd_deploy)

    scenario = commands.add_parser(
        "scenario", help="declarative scenario & fault-injection runner"
    )
    scenario_commands = scenario.add_subparsers(
        dest="scenario_command", required=True
    )
    scenario_list = scenario_commands.add_parser(
        "list", help="show the registered scenarios"
    )
    scenario_list.set_defaults(func=cmd_scenario_list)
    scenario_run = scenario_commands.add_parser(
        "run", help="run one scenario (all its variants by default)"
    )
    scenario_run.add_argument("name", help="registered scenario name")
    scenario_run.add_argument("--seed", type=int, default=0)
    scenario_run.add_argument(
        "--variant", default=None, help="run only this variant"
    )
    scenario_run.add_argument(
        "--json", action="store_true",
        help="emit machine-readable metrics instead of the summary",
    )
    scenario_run.add_argument(
        "--trace", default=None, metavar="PATH",
        help="write phase/event spans to PATH as JSON-lines "
             "(convert with 'repro trace export')",
    )
    scenario_run.add_argument(
        "--check-invariants", action="store_true",
        help="attach read-only invariant monitors (population, "
             "routing, staleness…); violations go to stderr, metrics "
             "stay byte-identical",
    )
    scenario_run.set_defaults(func=cmd_scenario_run)

    sweep = commands.add_parser(
        "sweep",
        help="parallel sweep farm (grids of scenario runs)",
    )
    sweep_commands = sweep.add_subparsers(
        dest="sweep_command", required=True
    )
    sweep_list = sweep_commands.add_parser(
        "list", help="show the registered sweeps"
    )
    sweep_list.set_defaults(func=cmd_sweep_list)
    sweep_run = sweep_commands.add_parser(
        "run",
        help="run one sweep's grid across worker processes",
    )
    sweep_run.add_argument("name", help="registered sweep name")
    sweep_run.add_argument(
        "-j", "--jobs", type=_non_negative_count, default=0,
        help="worker processes (default 0 = one per CPU; 1 = "
             "serial in-process — byte-identical output either "
             "way)",
    )
    sweep_run.add_argument(
        "--timeout", type=_positive_seconds, default=None, metavar="S",
        help="per-task wall-clock budget in seconds (parallel "
             "mode; an over-budget worker is killed and the task "
             "retried)",
    )
    sweep_run.add_argument(
        "--retries", type=_non_negative_count, default=1, metavar="K",
        help="extra attempts per failed/timed-out task (default 1)",
    )
    sweep_run.add_argument(
        "--json", action="store_true",
        help="emit the merged comparison artifact instead of the "
             "table",
    )
    sweep_run.add_argument(
        "--out", default=None, metavar="DIR",
        help="write sweep.json, summary.txt, per-variant JSON and "
             "the resume journal under DIR",
    )
    sweep_run.add_argument(
        "--trace", default=None, metavar="PATH",
        help="write farm-level sweep.run/sweep.task spans to PATH "
             "as JSON-lines (convert with 'repro trace export')",
    )
    sweep_run.add_argument(
        "--check-invariants", action="store_true",
        help="run every task with read-only invariant monitors; "
             "writes violations.json under --out DIR",
    )
    sweep_run.add_argument(
        "--resume", action="store_true",
        help="skip tasks already journaled under --out DIR "
             "(crash-resumable: artifacts end up byte-identical to an "
             "uninterrupted run)",
    )
    sweep_run.set_defaults(func=cmd_sweep_run)

    report = commands.add_parser(
        "report",
        help="run a scenario or sweep with the introspection plane "
             "and render a run report",
    )
    report.add_argument(
        "name", help="registered scenario or sweep name"
    )
    report.add_argument(
        "--seed", type=int, default=0,
        help="scenario reports: run seed (sweeps use their own grid)",
    )
    report.add_argument(
        "--variant", default=None,
        help="scenario reports: only this variant",
    )
    report.add_argument(
        "--format", choices=("terminal", "md", "json"), default=None,
        help="output format (default: inferred from the --out suffix, "
             "else terminal)",
    )
    report.add_argument(
        "--out", default=None, metavar="PATH",
        help="write the report to PATH (.json/.md also infer --format)",
    )
    report.add_argument(
        "-j", "--jobs", type=_non_negative_count, default=0,
        help="worker processes for sweep reports "
             "(default 0 = one per CPU)",
    )
    report.add_argument(
        "--timings", action="store_true",
        help="trace phases and include span-derived wall-clock "
             "timings (nondeterministic; default reports are "
             "byte-stable across invocations)",
    )
    report.add_argument(
        "--check-invariants", action="store_true",
        help="attach read-only invariant monitors; violations appear "
             "in the report",
    )
    report.set_defaults(func=cmd_report)

    trace = commands.add_parser(
        "trace", help="span-trace tooling (export to Chrome trace)"
    )
    trace_commands = trace.add_subparsers(
        dest="trace_command", required=True
    )
    trace_export = trace_commands.add_parser(
        "export",
        help="convert a --trace JSONL log to Chrome-trace JSON "
             "(Perfetto / chrome://tracing)",
    )
    trace_export.add_argument("input", help="span JSONL from --trace")
    trace_export.add_argument(
        "-o", "--output", default=None,
        help="output path (default: stdout)",
    )
    trace_export.add_argument(
        "--clock", choices=("wall", "sim"), default="wall",
        help="timeline to lay spans out on (default: wall)",
    )
    trace_export.set_defaults(func=cmd_trace_export)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    setup_logging(-1 if args.quiet else args.verbose)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
