"""Shared fixtures: a tiny scenario that runs in well under a second."""

from __future__ import annotations

import pytest

from repro.scenarios import ScenarioSpec, WorkloadSpec

TINY_WORKLOAD = WorkloadSpec(
    n_channels=6,
    n_subscriptions=60,
    update_interval_scale=0.005,
)

TINY_CONFIG = {
    "polling_interval": 120.0,
    "maintenance_interval": 240.0,
    "base": 4,
    "scheme": "lite",
}


def tiny_spec(**overrides) -> ScenarioSpec:
    """A minimal valid spec; keyword overrides replace top-level fields."""
    fields = {
        "name": "tiny",
        "description": "test fixture",
        "n_nodes": 8,
        "horizon": 900.0,
        "poll_tick": 30.0,
        "bucket_width": 300.0,
        "config": TINY_CONFIG,
        "workload": TINY_WORKLOAD,
    }
    fields.update(overrides)
    return ScenarioSpec(**fields)


@pytest.fixture()
def base_spec() -> ScenarioSpec:
    return tiny_spec()
