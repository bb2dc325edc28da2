"""Steady-state optimization phase: memoized solving vs eager re-solve.

The eager reference (``CoronaNode.solve_levels`` with no shared cache
over ``HoneycombSolver.bracket``, restored by
:func:`tests.reference_paths.eager_solves`) rebuilds and re-solves
every manager's Honeycomb instance every maintenance round —
O(managers) hull constructions, move sorts and bracket searches
forever, even when nothing changed.  The memoized phase is
delta-driven: a manager
whose remote summary and own contribution did not move skips its solve
behind one fingerprint comparison, managers whose combined instances
collide share one solution per round, and the solver's input-hash memo
absorbs revisited instances — so a converged cloud's phase
short-circuits to O(managers) hash checks, mirroring what delta
rounds did for the aggregation phase.

This bench replays the optimization phase exactly as
:meth:`MacroSimulator._run_control_round` drives it on a converged
1024-node population (the paper's evaluation scale) and gates on the
≥5x PR acceptance floor; desired levels are asserted bit-identical
between the modes first, so the speedup compares the same computation.
The 4096-node probe extends the scale sweep and is recorded, not
gated.  Results land in ``BENCH_solve_memo_{1024,4096}.json`` so the
trajectory is tracked across PRs.
"""

import time

from benchmarks.conftest import write_artifact
from repro.core.config import CoronaConfig
from repro.simulation.macro import MacroSimulator
from repro.workload.trace import generate_trace
from tests.reference_paths import eager_solves

N_NODES = 1024
PROBE_NODES = 4096
N_CHANNELS = 2000
N_SUBSCRIPTIONS = 50_000
#: The PR acceptance floor; a converged phase short-circuits to hash
#: checks, so the measured ratio sits far above this.
MIN_SPEEDUP = 5.0


def build_converged(n_nodes: int) -> MacroSimulator:
    trace = generate_trace(
        n_channels=N_CHANNELS, n_subscriptions=N_SUBSCRIPTIONS, seed=5
    )
    simulator = MacroSimulator(
        trace,
        CoronaConfig(scheme="lite"),
        n_nodes=n_nodes,
        seed=7,
    )
    # Let aggregation horizons widen and levels walk to their targets;
    # afterwards rounds are steady state (nothing moves).
    for _ in range(10):
        simulator._run_control_round()
    return simulator


def optimization_phase(simulator: MacroSimulator) -> None:
    """The phase exactly as ``_run_control_round`` executes it."""
    solve_cache: dict = {}
    for node_id, node in simulator.nodes.items():
        remote = simulator.aggregator.states[node_id].best_remote()
        node.run_optimization(
            remote, simulator.n_nodes, solve_cache=solve_cache
        )


def timed_phases(simulator: MacroSimulator, repeats: int = 2) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        optimization_phase(simulator)
        best = min(best, time.perf_counter() - start)
    return best


def test_steady_state_solve_speedup_1024(benchmark):
    """Memoized optimization must beat eager re-solve ≥5x once converged."""
    with eager_solves():
        eager = build_converged(N_NODES)
    memo = build_converged(N_NODES)
    # Same computation, bit for bit: identical desired levels on every
    # manager and identical realized channel levels.
    assert (memo.levels == eager.levels).all()
    for node_id, node in memo.nodes.items():
        assert node.controller.desired == (
            eager.nodes[node_id].controller.desired
        )
    with eager_solves():
        eager_seconds = timed_phases(eager)

    benchmark.pedantic(
        lambda: optimization_phase(memo), rounds=5, iterations=1
    )
    memo_seconds = benchmark.stats.stats.min
    speedup = eager_seconds / memo_seconds
    # Steady state stayed steady: the timed phases moved nothing.
    assert (memo.levels == eager.levels).all()
    lines = [
        f"Steady-state optimization phase at {N_NODES} nodes "
        f"({len(memo.nodes)} managers, {N_CHANNELS} channels)",
        f"  eager re-solve : {eager_seconds * 1000:10.2f} ms",
        f"  memoized phase : {memo_seconds * 1000:10.4f} ms",
        f"  speedup        : {speedup:10.1f} x  (floor {MIN_SPEEDUP:.0f}x)",
        f"  solver work    : {memo.solver_work.as_dict()}",
    ]
    write_artifact(
        "solve_memo_1024.txt",
        "\n".join(lines),
        data={
            "n_nodes": N_NODES,
            "n_channels": N_CHANNELS,
            "managers": len(memo.nodes),
            "eager_seconds": eager_seconds,
            "memo_seconds": memo_seconds,
            "speedup": speedup,
            "min_speedup": MIN_SPEEDUP,
            "solver_work": memo.solver_work.as_dict(),
            "solver_work_eager": eager.solver_work.as_dict(),
        },
    )
    assert speedup >= MIN_SPEEDUP, (
        f"memoized optimization only {speedup:.1f}x faster than eager "
        f"re-solve (floor {MIN_SPEEDUP}x): {eager_seconds:.4f}s vs "
        f"{memo_seconds:.4f}s"
    )


def test_steady_state_solve_probe_4096(benchmark):
    """The scale-sweep probe: converged memoized phases at 4096 nodes.

    Recorded (BENCH_solve_memo_4096.json), not gated — the point is
    that the phase stays O(managers) hash checks as N quadruples past
    the paper's evaluation scale.
    """
    simulator = build_converged(PROBE_NODES)
    benchmark.pedantic(
        lambda: optimization_phase(simulator), rounds=3, iterations=1
    )
    phase_seconds = benchmark.stats.stats.min
    write_artifact(
        "solve_memo_4096.txt",
        f"Steady-state memoized optimization phase at {PROBE_NODES} "
        f"nodes ({len(simulator.nodes)} managers): "
        f"{phase_seconds * 1000:.4f} ms",
        data={
            "n_nodes": PROBE_NODES,
            "n_channels": N_CHANNELS,
            "managers": len(simulator.nodes),
            "memo_seconds": phase_seconds,
            "solver_work": simulator.solver_work.as_dict(),
        },
    )
