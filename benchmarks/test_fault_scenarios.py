"""Fault-scenario cost: what the fault plane adds to a scenario run.

Times ``lossy-overlay`` (the CI-gated 5%-loss built-in) and records
``partition-heal``'s fault counters, so the cost of routing every hop
through the fault plane — and of the retransmit/repair machinery
reacting to it — is reported in ``BENCH_fault_scenarios_ci.json``.
Timings are report-only, like every benchmark here; the functional
gates are the `> 0` fault-counter asserts below plus the exact-match
CI baselines (and the fault-*off* overhead is covered by the
``steady-state`` baseline and the e2e ``steady-poll`` workload, since
an inactive plane is a constant-return hook on the same code path).
"""

from benchmarks.conftest import write_artifact
from repro.scenarios.registry import get_scenario
from repro.scenarios.runner import ScenarioRunner


def run_scenario(name: str, variant: str | None = None):
    runner = ScenarioRunner(get_scenario(name), seed=0)
    return runner.run(variant)


def test_fault_scenarios_timing(benchmark):
    """One timed lossy-overlay run + recorded fault-path metrics."""
    metrics = benchmark.pedantic(
        lambda: run_scenario("lossy-overlay"), rounds=2, iterations=1
    )
    lossy_seconds = benchmark.stats.stats.min
    partition = run_scenario("partition-heal")
    lines = [
        "Fault-scenario runs (seed 0)",
        f"  lossy-overlay   : {lossy_seconds * 1000:8.1f} ms  "
        f"({metrics.messages_dropped} dropped, "
        f"{metrics.retransmissions} retransmits, "
        f"{metrics.repair_diffs} repairs)",
        f"  partition-heal  : {partition.messages_dropped} dropped, "
        f"{partition.failed_polls} failed polls, "
        f"{partition.manager_failovers} failovers",
    ]
    write_artifact(
        "fault_scenarios_ci.txt",
        "\n".join(lines),
        data={
            "lossy_overlay_seconds": lossy_seconds,
            "lossy_overlay": {
                "messages_dropped": metrics.messages_dropped,
                "retransmissions": metrics.retransmissions,
                "repair_diffs": metrics.repair_diffs,
                "detections": metrics.detections,
                "mean_detection_delay": metrics.mean_detection_delay,
            },
            "partition_heal": {
                "messages_dropped": partition.messages_dropped,
                "failed_polls": partition.failed_polls,
                "manager_failovers": partition.manager_failovers,
                "detections": partition.detections,
            },
        },
    )
    # The faults did real, visible work.
    assert metrics.messages_dropped > 0
    assert metrics.retransmissions > 0
    assert partition.manager_failovers >= 1
