"""One rep: a whole user-visible run in a fresh interpreter.

import -> build -> simulate -> serialize, exactly what one CLI
invocation does, with five ``time.monotonic`` stamps (CLOCK_MONOTONIC
is shared with the parent, which stamps the spawn).  stdout carries
the run's gated JSON and nothing else; the stamps, counts and peak
RSS go to stderr as one marked line.

Modes: ``timed`` (the only hook is a one-shot stamp on the first
``EventEngine.run_until``), ``traced`` (the layer wrappers of
layers.py are installed after import), ``verify`` (invariant monitors
plus the introspection plane, under another PYTHONHASHSEED), ``warm``
(import only — fills ``__pycache__`` so rep 1 is not a compile run).
"""

import time

T_START = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import workloads  # noqa: E402  (no repro import: costs nothing)

MARK = "E2E-REP "

#: Registry series every rep reports (a series the run never
#: registered reads 0); ``detections`` is added from the run's result.
REGISTRY_COUNTS = (
    "polls",
    "diff_messages",
    "maintenance_messages",
    "work_summaries_rebuilt",
    "work_cluster_merges",
    "solver_work_problems_solved",
    "solver_work_memo_hits",
    "solver_work_shared_hits",
    "messages_dropped",
    "retransmissions",
    "queue_drops",
    "polls_shed",
    "failed_polls",
    "repair_diffs",
)


def _stamp_run_until(stamps: dict) -> None:
    """Stamp entry to and exit from the run's first ``run_until``."""
    from repro.simulation.engine import EventEngine

    inner = EventEngine.run_until

    def run_until(self, horizon):
        if "ready" in stamps:
            return inner(self, horizon)
        stamps["ready"] = time.monotonic()
        try:
            return inner(self, horizon)
        finally:
            stamps["simulated"] = time.monotonic()

    EventEngine.run_until = run_until


def _registry_counts(registries) -> dict:
    counts = dict.fromkeys(REGISTRY_COUNTS, 0)
    for registry in registries:
        for name in REGISTRY_COUNTS:
            metric = registry.get(name)
            if metric is not None:
                counts[name] += metric.collect()
    return counts


def run_scenario(args, stamps: dict, report: dict) -> str:
    from repro.obs import Observability
    from repro.scenarios import ScenarioRunner

    spec = workloads.scenario_spec(args.workload, args.seed, args.smoke)
    verify = args.mode == "verify"
    obs = (
        Observability.introspected(args.seed) if verify
        else Observability.off()
    )
    _stamp_run_until(stamps)
    metrics = ScenarioRunner(
        spec, seed=0, obs=obs, check_invariants=verify
    ).run()
    stamps["ran"] = time.monotonic()
    report["sim_seconds"] = spec.horizon
    report["counts"] = _registry_counts([obs.registry])
    report["counts"]["detections"] = metrics.detections
    polls_ratio = metrics.mean_polls_per_min / metrics.legacy_polls_per_min
    report["simulated"] = {
        "detect_delay_sim_s": metrics.mean_detection_delay,
        "poll_load_ratio": polls_ratio,
    }
    if verify:
        freshness = obs.provenance.histograms["freshness"]
        report["violations"] = len(metrics.violations)
        report["simulated"]["detect_delay_p90_sim_s"] = freshness.quantile(0.9)
        report["p90_samples"] = freshness.count
    return json.dumps({"base": metrics.to_dict()}, indent=2, sort_keys=True)


def run_macro(args, stamps: dict, report: dict) -> str:
    import numpy as np
    from repro.analysis.stats import rank_correlation, steady_state_mean
    from repro.core.config import SCHEME_NAMES, CoronaConfig
    from repro.obs import Observability
    from repro.simulation.macro import MacroSimulator
    from repro.workload import trace as trace_module

    p = workloads.macro_params(args.seed, args.smoke)
    tau = p["tau"]
    # Looked up on the module so a traced rep times it.
    trace = trace_module.generate_trace(
        n_channels=p["n_channels"],
        n_subscriptions=p["n_subscriptions"],
        seed=p["seed"],
        url_prefix=p["url_prefix"],
    )
    registries = []
    simulators = []
    for scheme in SCHEME_NAMES:
        obs = Observability.off()
        registries.append(obs.registry)
        simulators.append(
            MacroSimulator(
                trace,
                CoronaConfig(scheme=scheme, polling_interval=tau),
                n_nodes=p["n_nodes"],
                seed=p["seed"],
                horizon=p["horizon"],
                obs=obs,
            )
        )
    stamps["ready"] = time.monotonic()
    results = [simulator.run() for simulator in simulators]
    stamps["simulated"] = stamps["ran"] = time.monotonic()

    legacy_delay = tau / 2.0
    legacy_load = float(trace.subscribers.mean())
    rows = [{"scheme": "legacy", "delay": legacy_delay, "load": legacy_load}]
    for scheme, result in zip(SCHEME_NAMES, results):
        expected = tau / 2.0 / np.maximum(1, result.final_pollers)
        rows.append(
            {
                "scheme": scheme,
                "delay": result.analytic_weighted_delay,
                "load": steady_state_mean(result.polls_per_min, 0.34)
                * (tau / 60.0)
                / p["n_channels"],
                "corr": rank_correlation(trace.update_intervals, expected),
            }
        )
    lite = rows[1 + SCHEME_NAMES.index("lite")]
    lite_result = results[SCHEME_NAMES.index("lite")]
    # Subscription-weighted p90 of Lite's expected per-channel delay:
    # nine subscriptions in ten wait less than this for an update.
    expected = tau / 2.0 / np.maximum(1, lite_result.final_pollers)
    order = np.argsort(expected)
    cumulative = np.cumsum(trace.subscribers[order])
    p90_index = int(np.searchsorted(cumulative, 0.9 * cumulative[-1]))
    report["sim_seconds"] = p["horizon"] * len(SCHEME_NAMES)
    report["counts"] = _registry_counts(registries)
    report["counts"]["detections"] = 0
    report["simulated"] = {
        "detect_delay_sim_s": lite["delay"],
        "detect_delay_p90_sim_s": float(expected[order][p90_index]),
        "poll_load_ratio": lite["load"] / legacy_load,
    }
    report["p90_samples"] = int(cumulative[-1])
    report["violations"] = 0
    # Table 2's shape: Lite detects >5x faster at the legacy load.
    report["table2_shape"] = bool(
        lite["delay"] < legacy_delay / 5.0
        and abs(lite["load"] / legacy_load - 1.0) <= 0.05
    )
    return json.dumps({"table2": rows}, indent=2, sort_keys=True)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--mode", choices=("timed", "traced", "verify", "warm"),
        default="timed",
    )
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--spans", help="traced mode: span dump path")
    args = parser.parse_args()

    import repro.cli  # noqa: F401  (what `python -m repro` pays)

    stamps = {"start": T_START, "imported": time.monotonic()}
    if args.mode == "warm":
        import layers  # noqa: F401  (compiled now, not in a timed rep)

        return 0
    recorder = None
    if args.mode == "traced":
        import layers

        recorder = layers.Recorder()
        layers.install(recorder)
    report: dict = {}
    kind = workloads.KINDS[args.workload]
    run = run_scenario if kind == "scenario" else run_macro
    payload = run(args, stamps, report)
    sys.stdout.write(payload + "\n")
    sys.stdout.flush()
    stamps["serialized"] = time.monotonic()

    import numpy

    report["stamps"] = stamps
    report["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    report["numpy"] = numpy.__version__
    if recorder is not None:
        recorder.add("cli.import", stamps["start"], stamps["imported"])
        recorder.add("cli.serialize", stamps["ran"], stamps["serialized"])
        dump_start = time.monotonic()
        with open(args.spans, "w", encoding="utf-8") as handle:
            json.dump(recorder.to_dict(f"{args.workload}-seed{args.seed}"),
                      handle)
        report["dump_seconds"] = time.monotonic() - dump_start
    sys.stderr.write(MARK + json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
