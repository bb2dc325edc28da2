"""Ablation — tradeoff-cluster bin count (DESIGN.md §5.2).

The paper fixes TradeoffBins = 16 (§4).  Fewer bins mean less
aggregation state but coarser knowledge of remote channels; this
ablation sweeps the bin count and reports how close the decentralized
steady state gets to the load budget and to the centralized optimum's
latency.
"""

import pytest

from benchmarks.conftest import write_artifact
from repro.analysis.tables import format_table
from repro.core.config import CoronaConfig
from repro.simulation.macro import MacroSimulator
from repro.workload.trace import generate_trace

BIN_COUNTS = (2, 8, 16, 64)


@pytest.fixture(scope="module")
def ablation_trace(scale):
    return generate_trace(
        n_channels=min(scale.n_channels, 2000),
        n_subscriptions=min(scale.n_subscriptions, 100_000),
        seed=5,
    )


def run_with_bins(trace, bins: int, n_nodes: int):
    config = CoronaConfig(scheme="lite", tradeoff_bins=bins)
    simulator = MacroSimulator(
        trace, config, n_nodes=n_nodes, seed=7,
        horizon=4 * 3600.0, bucket_width=1800.0,
    )
    return simulator.run()


def test_ablation_tradeoff_bins(benchmark, ablation_trace, scale):
    n_nodes = min(scale.n_nodes, 128)

    def sweep():
        return {
            bins: run_with_bins(ablation_trace, bins, n_nodes)
            for bins in BIN_COUNTS
        }

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    budget = float(ablation_trace.subscribers.sum())

    rows = []
    for bins, result in results.items():
        utilization = result.final_pollers.sum() / budget
        rows.append(
            [bins, result.analytic_weighted_delay, f"{utilization:.3f}"]
        )
    artifact = format_table(
        ["bins", "weighted delay (s)", "budget utilization"],
        rows,
        title="Cluster-bin ablation (Corona-Lite)",
    )
    write_artifact(f"ablation_bins_{scale.name}.txt", artifact)

    # Every bin count keeps the realized load at or under budget...
    for result in results.values():
        assert result.final_pollers.sum() <= budget * 1.05

    # ...but richer summaries buy better latency: the paper's 16 bins
    # must not lose to the 2-bin degenerate summary.
    assert (
        results[16].analytic_weighted_delay
        <= results[2].analytic_weighted_delay * 1.02
    )

    # Diminishing returns: 64 bins adds little over 16.
    assert results[64].analytic_weighted_delay == pytest.approx(
        results[16].analytic_weighted_delay, rel=0.25
    )
