"""Shared fixtures: small, fast instances of every subsystem."""

from __future__ import annotations

import pytest

from repro.core.config import CoronaConfig
from repro.core.system import CoronaSystem
from repro.overlay.network import OverlayNetwork
from repro.simulation.webserver import WebServerFarm
from repro.workload.trace import generate_trace


@pytest.fixture(scope="session")
def small_overlay() -> OverlayNetwork:
    """A 64-node base-4 overlay (base 4 keeps wedge levels meaningful
    at small N; the structure is identical to base 16 at scale)."""
    return OverlayNetwork.build(64, base=4)


@pytest.fixture(scope="session")
def hexa_overlay() -> OverlayNetwork:
    """A 96-node base-16 overlay (the paper's base)."""
    return OverlayNetwork.build(96, base=16)


@pytest.fixture()
def fast_config() -> CoronaConfig:
    """Short intervals so tests simulate minutes, not hours."""
    return CoronaConfig(
        polling_interval=60.0,
        maintenance_interval=120.0,
        base=4,
        scheme="lite",
    )


@pytest.fixture()
def small_farm() -> WebServerFarm:
    """Ten synthetic feeds with varied update intervals."""
    farm = WebServerFarm(seed=21)
    for index in range(10):
        farm.host(
            f"http://feed{index}.example/rss",
            update_interval=90.0 + 30.0 * index,
            target_bytes=2000,
        )
    return farm


@pytest.fixture()
def small_system(fast_config, small_farm) -> CoronaSystem:
    """A 32-node Corona cloud over the small farm, with subscriptions."""
    system = CoronaSystem(
        n_nodes=32, config=fast_config, fetcher=small_farm, seed=31
    )
    client = 0
    for rank in range(10):
        url = f"http://feed{rank}.example/rss"
        for _ in range(max(1, 24 // (rank + 1))):
            system.subscribe(url, f"client-{client}", now=0.0)
            client += 1
    return system


@pytest.fixture(scope="session")
def tiny_trace():
    """A small survey-parameterized workload."""
    return generate_trace(n_channels=200, n_subscriptions=5000, seed=41)
