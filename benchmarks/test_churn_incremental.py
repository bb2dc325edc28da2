"""Churn at scale: the cost of the incremental churn path.

Replays the heavy-churn scenario's membership timeline (15 one-minute
crash+join ticks followed by a 6-manager simultaneous failure) on a
512-node cloud.  Churn touches only the affected prefix regions, so
the replay's wall clock is recorded in ``BENCH_churn_scale_512.json``
and ``BENCH_timings_*.json``, where the drift gate tracks it across
changes.
"""

import random

from benchmarks.conftest import write_artifact

from repro.core.config import CoronaConfig
from repro.core.system import CoronaSystem
from repro.simulation.webserver import WebServerFarm

N_NODES = 512
N_CHANNELS = 24
SUBSCRIBERS_PER_CHANNEL = 20


def build_system() -> tuple[CoronaSystem, WebServerFarm]:
    config = CoronaConfig(
        polling_interval=300.0,
        maintenance_interval=600.0,
        base=4,
        scheme="lite",
    )
    farm = WebServerFarm(seed=1)
    system = CoronaSystem(n_nodes=N_NODES, config=config, fetcher=farm, seed=0)
    client = 0
    for rank in range(N_CHANNELS):
        url = f"http://churn{rank}.example/rss"
        farm.host(url, update_interval=120.0, target_bytes=600)
        for _ in range(SUBSCRIBERS_PER_CHANNEL):
            system.subscribe(url, f"client-{client}", now=0.0)
            client += 1
    return system, farm


def replay_heavy_churn_timeline(system: CoronaSystem) -> None:
    """The heavy-churn membership events."""
    rng = random.Random(42)
    now = 900.0
    for _tick in range(15):
        now += 60.0
        system.crash_nodes(1, now=now, rng=rng)
        system.join_nodes(1, now=now)
    system.crash_nodes(6, now=now, rng=rng, target="managers")


def test_heavy_churn_512_speedup(benchmark):
    """Time the heavy-churn replay at 512 nodes (best of three)."""
    state: dict[str, CoronaSystem] = {}

    def setup():
        system, _farm = build_system()
        state["system"] = system
        return (), {}

    benchmark.pedantic(
        lambda: replay_heavy_churn_timeline(state["system"]),
        setup=setup,
        rounds=3,
        iterations=1,
    )
    incremental_seconds = benchmark.stats.stats.min
    lines = [
        "Churn-path wall clock, heavy-churn timeline at "
        f"{N_NODES} nodes / {N_CHANNELS} channels",
        f"  incremental path : {incremental_seconds * 1000:8.1f} ms",
    ]
    write_artifact(
        "churn_scale_512.txt",
        "\n".join(lines),
        data={
            "n_nodes": N_NODES,
            "n_channels": N_CHANNELS,
            "incremental_seconds": incremental_seconds,
        },
    )


def test_churn_equivalence_at_scale(benchmark):
    """End state sanity at 512 nodes: state intact, aggregator in sync.

    (The bit-for-bit equivalence of the churned aggregator with a fresh
    rebuild is asserted by tests/honeycomb/test_churn_equivalence.py;
    this bench keeps the scale path honest while timing a maintenance
    round after heavy churn.)
    """
    system, _farm = build_system()
    replay_heavy_churn_timeline(system)
    benchmark.pedantic(
        lambda: system.run_maintenance_round(2000.0), rounds=2, iterations=1
    )
    registered = sum(
        system.nodes[manager].registry.count(url)
        for url, manager in system.managers.items()
    )
    assert registered == N_CHANNELS * SUBSCRIBERS_PER_CHANNEL
    assert set(system.aggregator.states) == set(system.nodes)
    assert system.aggregator.rows == system.overlay.aggregation_rows()
