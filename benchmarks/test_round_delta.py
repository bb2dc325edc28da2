"""Steady-state aggregation rounds: delta-driven vs the eager sweep.

The eager reference (``load_local`` + ``_run_round_eager``, restored by
:func:`tests.reference_paths.eager_rounds`) reloads every node's local
summary and recomputes every radius for every node each round —
O(N · rows · base) summary merges forever, even when nothing changed.
Delta rounds push a pending mark to the radii that read a changed
summary and rebuild only those, so a converged
steady-state round does no summary work at all.  This bench replays
the aggregation phase exactly as
:meth:`DecentralizedAggregator.run_phase` drives it (dirty-local load
+ two rounds) on a converged 1024-node population and gates on the ≥5x
PR acceptance floor (measured locally at several orders of magnitude);
the 4096-node probe extends the scale sweep and adds a cold
convergence — every radius of every node built from nothing, the case
where a round's cost is its rebuilds — recorded, not gated.  Results
land in ``BENCH_round_delta_1024.json`` / ``_4096.json`` so the
trajectory is tracked across PRs.
"""

import time

from benchmarks.conftest import write_artifact

from repro.honeycomb.aggregation import DecentralizedAggregator
from repro.honeycomb.clusters import ChannelFactors, ClusterSummary
from repro.overlay.network import OverlayNetwork
from tests.reference_paths import eager_rounds

N_NODES = 1024
PROBE_NODES = 4096
#: The PR acceptance floor; a converged delta round short-circuits to
#: O(1), so the measured ratio is far above this.
MIN_SPEEDUP = 5.0


def synthetic_channels(node_id):
    """Deterministic per-node local summary (some nodes own none)."""
    summary = ClusterSummary(bins=16)
    value = node_id.value
    if value % 3:
        summary.add_channel(
            ChannelFactors(
                subscribers=1 + value % 13,
                size=100.0 + value % 900,
                update_interval=60.0 * (1 + value % 7),
            ),
            orphan=value % 5 == 0,
            ratio=float(1 + value % 11),
        )
    return summary


def build_converged(n_nodes: int) -> DecentralizedAggregator:
    overlay = OverlayNetwork.build(
        n_nodes, base=16, leaf_size=4, address_prefix="delta"
    )
    aggregator = DecentralizedAggregator.for_overlay(overlay, bins=16)
    aggregator.load_local(synthetic_channels)
    aggregator.run_to_convergence()
    return aggregator


def steady_state_phase(aggregator: DecentralizedAggregator) -> None:
    """One maintenance round's aggregation phase, as the system runs it."""
    aggregator.run_phase(synthetic_channels)


def timed_phases(aggregator, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        steady_state_phase(aggregator)
        best = min(best, time.perf_counter() - start)
    return best


def test_steady_state_round_speedup_1024(benchmark):
    """Delta rounds must beat the eager sweep ≥5x once converged."""
    with eager_rounds():
        eager = build_converged(N_NODES)
    delta = build_converged(N_NODES)
    # Equal starting points, bit for bit — the speedup compares the
    # same computation, not different answers.
    assert delta.states == eager.states
    with eager_rounds():
        eager_seconds = timed_phases(eager, repeats=2)

    benchmark.pedantic(
        lambda: steady_state_phase(delta), rounds=5, iterations=1
    )
    delta_seconds = benchmark.stats.stats.min
    speedup = eager_seconds / delta_seconds
    # Steady state means steady: the timed phases changed no values in
    # either mode, so the states still agree afterwards.
    assert delta.states == eager.states
    assert delta.work.as_dict() == eager.work.as_dict()
    lines = [
        f"Steady-state aggregation phase at {N_NODES} nodes "
        "(dirty-local load + two rounds)",
        f"  eager sweep : {eager_seconds * 1000:10.2f} ms",
        f"  delta round : {delta_seconds * 1000:10.4f} ms",
        f"  speedup     : {speedup:10.0f} x  (floor {MIN_SPEEDUP:.0f}x)",
    ]
    write_artifact(
        "round_delta_1024.txt",
        "\n".join(lines),
        data={
            "n_nodes": N_NODES,
            "rows": delta.rows,
            "eager_seconds": eager_seconds,
            "delta_seconds": delta_seconds,
            "speedup": speedup,
            "min_speedup": MIN_SPEEDUP,
            "work": delta.work.as_dict(),
        },
    )
    assert speedup >= MIN_SPEEDUP, (
        f"delta rounds only {speedup:.1f}x faster than the eager sweep "
        f"(floor {MIN_SPEEDUP}x): {eager_seconds:.4f}s vs "
        f"{delta_seconds:.4f}s"
    )


def test_steady_state_probe_4096(benchmark):
    """The scale-sweep probe: cold convergence, then converged delta
    phases, at 4096 nodes.

    Recorded (BENCH_round_delta_4096.json), not gated — the point is
    that a round costs its rebuilds (the cold rows) and the phase stays
    O(change) (the converged row) as N quadruples past the paper's
    1024-node evaluation scale.
    """
    overlay = OverlayNetwork.build(
        PROBE_NODES, base=16, leaf_size=4, address_prefix="delta"
    )
    aggregator = DecentralizedAggregator.for_overlay(overlay, bins=16)
    aggregator.load_local(synthetic_channels)
    start = time.perf_counter()
    cold_rounds = aggregator.run_to_convergence()
    cold_seconds = time.perf_counter() - start
    cold_rebuilt = aggregator.work.summaries_rebuilt
    benchmark.pedantic(
        lambda: steady_state_phase(aggregator), rounds=3, iterations=1
    )
    phase_seconds = benchmark.stats.stats.min
    assert all(
        state.horizon() == 0 for state in aggregator.states.values()
    )
    write_artifact(
        "round_delta_4096.txt",
        "\n".join(
            [
                f"Delta aggregation at {PROBE_NODES} nodes",
                f"  cold convergence : {cold_seconds * 1000:10.2f} ms "
                f"over {cold_rounds} rounds, "
                f"{cold_rebuilt} summaries rebuilt",
                f"  converged phase  : {phase_seconds * 1000:10.4f} ms",
            ]
        ),
        data={
            "n_nodes": PROBE_NODES,
            "rows": aggregator.rows,
            "cold_seconds": cold_seconds,
            "cold_rounds": cold_rounds,
            "cold_summaries_rebuilt": cold_rebuilt,
            "delta_seconds": phase_seconds,
            "work": aggregator.work.as_dict(),
        },
    )


def test_churn_wave_reconverges_incrementally(benchmark):
    """After a churn splice, delta rounds only pay for the dirty region.

    Times ``rows`` delta rounds absorbing a 16-node crash + 16-node
    join wave at 1024 nodes — the reconvergence cost the §3.3
    one-digit-per-round propagation actually requires, which stays far
    below one eager round.
    """
    overlay = OverlayNetwork.build(
        N_NODES, base=16, leaf_size=4, address_prefix="wave"
    )
    aggregator = DecentralizedAggregator.for_overlay(overlay, bins=16)
    aggregator.load_local(synthetic_channels)
    aggregator.run_to_convergence()
    state = {"minted": 0}

    def churn_and_reconverge():
        victims = overlay.node_ids()[: 16]
        overlay.remove_nodes(victims)
        aggregator.remove_nodes(victims, rows=overlay.aggregation_rows())
        joined = []
        for _ in range(16):
            state["minted"] += 1
            joined.append(
                overlay.add_node(f"wave-join-{state['minted']}").node_id
            )
        aggregator.add_nodes(joined, rows=overlay.aggregation_rows())
        for _ in range(aggregator.rows + 1):
            steady_state_phase(aggregator)

    benchmark.pedantic(churn_and_reconverge, rounds=3, iterations=1)
    assert set(aggregator.states) == set(overlay.node_ids())
