"""Unit tests for update-lifecycle provenance (repro.obs.provenance).

The tracker is a pure reduction of values the runner already computed:
seeded exemplar reservoir, capped raw samples, exact percentiles under
the cap.  The latch leg — tracker-on byte-identical to tracker-off —
lives in ``test_obs_equivalence.py``.
"""

from __future__ import annotations

import json

from repro.obs import provenance
from repro.obs.provenance import (
    COMPONENTS,
    ProvenanceTracker,
)


def _feed(tracker: ProvenanceTracker, count: int) -> None:
    for index in range(count):
        tracker.record(
            url=f"http://feed/{index % 5}",
            version=index,
            published_at=float(index),
            detected_at=float(index) + 3.0,
            staleness=3.0 + index % 7,
            path_delay=0.5 * (index % 4),
            delivery=1.0 + 0.1 * (index % 10),
            subscribers=1 + index % 3,
            detector=f"{index % 16:x}" * 10,
            fanout=index % 4,
        )


class TestRecording:
    def test_freshness_is_component_sum(self):
        tracker = ProvenanceTracker(seed=0)
        tracker.record(
            url="u", version=1, published_at=0.0, detected_at=5.0,
            staleness=5.0, path_delay=2.0, delivery=1.5,
            subscribers=2, detector=None, fanout=3,
        )
        record = tracker.records[0]
        assert record.freshness == 8.5
        assert tracker.histograms["freshness"].sum == 8.5
        assert tracker.to_dict()["detections"] == 1

    def test_reservoir_bounded_by_record_cap(self, monkeypatch):
        monkeypatch.setattr(provenance, "RECORD_CAP", 16)
        tracker = ProvenanceTracker(seed=0)
        _feed(tracker, 200)
        assert tracker.to_dict()["detections"] == 200
        assert len(tracker.records) == 16

    def test_reservoir_deterministic_per_seed(self, monkeypatch):
        monkeypatch.setattr(provenance, "RECORD_CAP", 8)

        def exemplars(seed):
            tracker = ProvenanceTracker(seed=seed)
            _feed(tracker, 100)
            return [record.to_dict() for record in tracker.records]

        assert exemplars(0) == exemplars(0)
        assert exemplars(0) != exemplars(1)

    def test_percentiles_cover_every_component(self):
        tracker = ProvenanceTracker(seed=0)
        _feed(tracker, 50)
        percentiles = tracker.percentiles()
        assert tuple(percentiles) == COMPONENTS
        for stats in percentiles.values():
            assert stats["count"] == 50
            assert stats["p50"] is not None
            assert stats["p50"] <= stats["p95"] <= stats["p99"]
            assert stats["p99"] <= stats["max"]

    def test_empty_tracker_percentiles_are_none(self):
        stats = ProvenanceTracker(seed=0).percentiles()["freshness"]
        assert stats["count"] == 0
        assert stats["p50"] is None and stats["max"] is None

    def test_to_dict_json_safe_and_stable(self, monkeypatch):
        monkeypatch.setattr(provenance, "RECORD_CAP", 8)

        def snapshot():
            tracker = ProvenanceTracker(seed=3)
            _feed(tracker, 40)
            return json.dumps(tracker.to_dict(), sort_keys=True)

        first, second = snapshot(), snapshot()
        assert first == second
        payload = json.loads(first)
        assert payload["detections"] == 40
        assert len(payload["exemplars"]) == 8
        assert set(payload["histograms"]) == set(COMPONENTS)
