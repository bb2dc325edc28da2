"""Unit tests for the per-round timeline sampler (repro.obs.timeline).

The sampler's three contract points (module doc): read-only, bounded
via stride-doubling decimation, and deterministic.  The latch leg —
sampler-on runs byte-identical to sampler-off for every gated metric —
lives in ``test_obs_equivalence.py``; this file pins the ring
mechanics on a registry it drives by hand.
"""

from __future__ import annotations

import json

import pytest

from repro.obs import timeline
from repro.obs.metrics import MetricsRegistry
from repro.obs.timeline import TimelineSampler

#: The shipped ring size, read before the fixture below patches it.
SHIPPED_CAPACITY = timeline.CAPACITY


@pytest.fixture(autouse=True)
def capacity(monkeypatch):
    """A ring of 8; tests that need another size call the setter."""

    def resize(size: int) -> None:
        monkeypatch.setattr(timeline, "CAPACITY", size)

    resize(8)
    return resize


def _series(sampler: TimelineSampler, name: str) -> list[float]:
    """One metric's cumulative column ([] if never sampled)."""
    column = sampler.to_dict()["series"].get(name)
    return column["cumulative"] if column else []


def _registry_with_counter(name: str = "polls"):
    registry = MetricsRegistry()
    counter = registry.counter(name)
    return registry, counter


class TestSampling:
    def test_cumulative_and_delta_columns(self):
        registry, polls = _registry_with_counter()
        sampler = TimelineSampler(registry)
        for round_no in range(1, 5):
            polls.inc(round_no)  # 1, 3, 6, 10 cumulative
            sampler.sample(now=float(round_no))
        assert _series(sampler, "polls") == [1.0, 3.0, 6.0, 10.0]
        assert sampler.deltas("polls") == [1.0, 2.0, 3.0, 4.0]
        assert sampler.times == [1.0, 2.0, 3.0, 4.0]

    def test_labeled_metrics_are_skipped(self):
        registry = MetricsRegistry()
        labeled = registry.counter("msgs", labelnames=("kind",))
        labeled.labels(kind="diff").inc()
        sampler = TimelineSampler(registry)
        sampler.sample(now=0.0)
        assert _series(sampler, "msgs") == []

    def test_late_series_zero_backfilled(self):
        registry, polls = _registry_with_counter()
        sampler = TimelineSampler(registry)
        polls.inc()
        sampler.sample(now=0.0)
        late = registry.counter("drops")
        late.inc(5)
        sampler.sample(now=1.0)
        assert _series(sampler, "drops") == [0.0, 5.0]
        assert sampler.deltas("drops") == [0.0, 5.0]


class TestDecimation:
    def test_shipped_capacity_decimates_cleanly(self, capacity):
        """Halving the ring keeps it uniform only at an even size >= 4."""
        assert SHIPPED_CAPACITY >= 4 and SHIPPED_CAPACITY % 2 == 0
        capacity(SHIPPED_CAPACITY)
        registry, polls = _registry_with_counter()
        sampler = TimelineSampler(registry)
        for round_no in range(4 * SHIPPED_CAPACITY):
            polls.inc()
            sampler.sample(now=float(round_no))
        assert sampler.capacity == SHIPPED_CAPACITY
        assert len(sampler.times) < SHIPPED_CAPACITY
        assert sampler.stride > 1
        gaps = {b - a for a, b in zip(sampler.times, sampler.times[1:])}
        assert gaps == {float(sampler.stride)}

    def test_ring_stays_bounded_and_stride_doubles(self, capacity):
        capacity(4)
        registry, polls = _registry_with_counter()
        sampler = TimelineSampler(registry)
        for round_no in range(16):
            polls.inc()
            sampler.sample(now=float(round_no))
        assert sampler.rounds == 16
        assert len(sampler.times) < sampler.capacity
        assert sampler.stride == 8

    def test_retained_points_stay_on_the_doubled_grid(self, capacity):
        capacity(4)
        registry, polls = _registry_with_counter()
        sampler = TimelineSampler(registry)
        for round_no in range(32):
            polls.inc()
            sampler.sample(now=float(round_no))
        gaps = {
            later - earlier
            for earlier, later in zip(sampler.times, sampler.times[1:])
        }
        assert len(gaps) == 1  # uniform spacing survives decimation
        assert gaps == {float(sampler.stride)}

    def test_decimation_loses_resolution_never_mass(self, capacity):
        capacity(4)
        registry, polls = _registry_with_counter()
        sampler = TimelineSampler(registry)
        total = 0
        for round_no in range(64):
            polls.inc(round_no % 3)
            total += round_no % 3
            sampler.sample(now=float(round_no))
        # Cumulative columns: the last retained sample plus the deltas
        # it implies still account for every increment ever offered up
        # to that retained point.
        column = _series(sampler, "polls")
        assert column == sorted(column)  # cumulative stays monotone
        assert sum(sampler.deltas("polls")) == column[-1]


class TestDeterminism:
    def _drive(self):
        registry, polls = _registry_with_counter()
        drops = registry.counter("drops")
        sampler = TimelineSampler(registry)
        for round_no in range(40):
            polls.inc(2)
            if round_no % 7 == 0:
                drops.inc()
            sampler.sample(now=float(round_no) * 0.5)
        return sampler.to_dict()

    def test_same_drive_same_bytes(self):
        first = json.dumps(self._drive(), sort_keys=True)
        second = json.dumps(self._drive(), sort_keys=True)
        assert first == second

    def test_to_dict_shape(self):
        snapshot = self._drive()
        assert set(snapshot) == {
            "rounds", "stride", "capacity", "times", "series",
        }
        assert set(snapshot["series"]) == {"drops", "polls"}
        for column in snapshot["series"].values():
            assert len(column["cumulative"]) == len(snapshot["times"])
            assert len(column["deltas"]) == len(snapshot["times"])
