"""Microbenchmarks for the hot protocol kernels.

Not figures from the paper — these guard the constants the system-level
numbers depend on: routing throughput, wedge-flood planning, the
difference-engine path a node runs on every poll, and one decentralized
control round.
"""

import pytest

from repro.core.config import CoronaConfig
from repro.diffengine.differ import diff_lines
from repro.diffengine.extractor import extract_core_lines
from repro.feeds.generator import FeedGenerator
from repro.honeycomb.clusters import (
    ChannelFactors,
    ClusterSummary,
)
from repro.honeycomb.problem import ChannelTradeoff, TradeoffProblem
from repro.honeycomb.solver import HoneycombSolver
from repro.overlay.dag import dissemination_tree
from repro.overlay.hashing import channel_id
from repro.overlay.network import OverlayNetwork
from repro.simulation.macro import MacroSimulator
from repro.workload.trace import generate_trace


@pytest.fixture(scope="module")
def overlay():
    return OverlayNetwork.build(256, base=16)


def test_micro_route(benchmark, overlay):
    cids = [channel_id(f"http://r{i}.example/") for i in range(64)]
    starts = overlay.node_ids()[:64]

    def route_batch():
        hops = 0
        for start, cid in zip(starts, cids):
            hops += len(overlay.route(start, cid))
        return hops

    hops = benchmark(route_batch)
    assert hops >= 64


def test_micro_wedge_flood_plan(benchmark, overlay):
    tables = overlay.routing_tables()
    cid = channel_id("http://flood.example/")
    anchor = overlay.anchor_of(cid)

    plan = benchmark(
        lambda: dissemination_tree(anchor, tables, cid, 0, overlay.base)
    )
    assert len(plan) == len(overlay) - 1


def test_micro_poll_path(benchmark):
    """extract + diff on a realistic feed: the per-poll CPU cost."""
    generator = FeedGenerator(url="http://k.example/rss", seed=1)
    old_doc = generator.render(0.0)
    generator.publish_update(10.0)
    new_doc = generator.render(10.0)

    def poll_path():
        old_lines = extract_core_lines(old_doc)
        new_lines = extract_core_lines(new_doc)
        return diff_lines(old_lines, new_lines, 1, 2)

    delta = benchmark(poll_path)
    assert not delta.is_empty


def _populate_summaries(count: int = 17) -> list:
    """``count`` summaries shaped like one node's aggregation inputs."""
    summaries = []
    for rank in range(count):
        summary = ClusterSummary(bins=16)
        for member in range(24):
            summary.add_channel(
                ChannelFactors(
                    subscribers=1.0 + (rank * 31 + member) % 50,
                    size=200.0 + member * 37,
                    update_interval=60.0 * (1 + member % 9),
                ),
                orphan=member % 11 == 0,
                ratio=float(1 + (rank + member) % 13),
            )
        summaries.append(summary)
    return summaries


def _merge_kernel(summaries) -> float:
    """Fold all summaries into one (the aggregation merge hot loop)."""
    target = summaries[0].copy()
    for summary in summaries[1:]:
        target.merge(summary)
    return target.total_channels()


def _round_kernel(summaries, fanout: int = 16, radii: int = 3) -> int:
    """The inner shape of one node's run_round: per radius, copy the
    inner summary and merge one contribution per routing contact."""
    folded = 0
    for radius in range(radii):
        combined = summaries[radius].copy()
        for contact in range(fanout):
            combined.merge(summaries[(radius + contact) % len(summaries)])
            folded += 1
    return folded


def test_micro_summary_merge_flat(benchmark):
    """Flat-array ClusterSummary merge (the production representation)."""
    summaries = _populate_summaries()
    total = benchmark(lambda: _merge_kernel(summaries))
    assert total == 17 * 24 - sum(1 for m in range(24) if m % 11 == 0) * 17


def test_micro_round_kernel_flat(benchmark):
    """run_round's copy+merge inner loop on flat arrays."""
    summaries = _populate_summaries()
    folded = benchmark(lambda: _round_kernel(summaries))
    assert folded == 48


def _solver_problems(count: int = 64) -> list:
    """``count`` manager-shaped instances: 17 weighted ratio-bin
    clusters over 5 levels, budgets spanning slack to tight."""
    problems = []
    for rank in range(count):
        levels = tuple(range(5))
        channels = [
            ChannelTradeoff(
                key=bin_key,
                levels=levels,
                f=tuple(
                    (1.0 + (rank + bin_key) % 13) * 4.0**level
                    for level in levels
                ),
                g=tuple(
                    (1.0 + bin_key % 7) * 400.0 / 4.0**level
                    for level in levels
                ),
                weight=1 + (rank * 31 + bin_key * 7) % 120,
            )
            for bin_key in range(17)
        ]
        total = sum(ch.weight * ch.g[0] for ch in channels)
        problems.append(
            TradeoffProblem(
                channels=channels, target=total / (2 + rank % 9)
            )
        )
    return problems


def _solve_batch(solver, problems) -> float:
    cost = 0.0
    for problem in problems:
        cost += solver.solve(problem).cost
    return cost


def test_micro_solver(benchmark):
    """The bracketing kernel on manager-shaped instances (memo off)."""
    problems = _solver_problems()
    solver = HoneycombSolver(memo_solve=False)
    cost = benchmark(lambda: _solve_batch(solver, problems))
    assert cost > 0


def test_micro_control_round(benchmark):
    """One full decentralized optimization round at moderate scale."""
    trace = generate_trace(n_channels=1000, n_subscriptions=50_000, seed=11)
    simulator = MacroSimulator(
        trace, CoronaConfig(scheme="lite"), n_nodes=128, seed=3
    )
    benchmark.pedantic(
        simulator._run_control_round, rounds=3, iterations=1
    )
    assert simulator.levels.min() >= 0
