"""Version clocks, dedup, and content state."""

from repro.core.update import ContentState, UpdateRecord, VersionClock


class TestVersionClock:
    def test_timestamps_advance(self):
        clock = VersionClock()
        assert clock.observe_timestamp(100)
        assert clock.current == 100
        assert clock.observe_timestamp(200)
        assert not clock.observe_timestamp(200)  # replay
        assert not clock.observe_timestamp(150)  # stale

    def test_assigned_versions_monotone(self):
        clock = VersionClock()
        versions = [clock.assign_next() for _ in range(5)]
        assert versions == sorted(versions)
        assert len(set(versions)) == 5

    def test_assignment_after_timestamps(self):
        clock = VersionClock()
        clock.observe_timestamp(50)
        assert clock.assign_next() > 50

    def test_redundancy_check(self):
        """Concurrent detections: the second diff claims an old base
        and is dropped (§3.4's dedup at the primary owner)."""
        clock = VersionClock()
        clock.assign_next()  # version 1
        clock.assign_next()  # version 2
        assert clock.is_redundant(base_version=1)
        assert not clock.is_redundant(base_version=2)


class TestContentState:
    def test_replace_installs_version_and_lines(self):
        state = ContentState()
        state.replace(3, ("hello", "world"))
        assert state.version == 3
        assert state.lines == ("hello", "world")

    def test_initial_state_empty(self):
        state = ContentState()
        assert state.version == 0
        assert state.lines == ()


class TestUpdateRecord:
    def test_detection_delay(self):
        record = UpdateRecord(
            url="http://x/",
            version=2,
            base_version=1,
            diff_lines=17,
            diff_bytes=500,
            detected_at=150.0,
            published_at=100.0,
        )
        assert record.detection_delay == 50.0

    def test_delay_unknown_without_publish_time(self):
        record = UpdateRecord(
            url="http://x/",
            version=2,
            base_version=1,
            diff_lines=1,
            diff_bytes=10,
            detected_at=5.0,
        )
        assert record.detection_delay is None

    def test_delay_clamped_non_negative(self):
        record = UpdateRecord(
            url="http://x/",
            version=2,
            base_version=1,
            diff_lines=1,
            diff_bytes=10,
            detected_at=5.0,
            published_at=10.0,
        )
        assert record.detection_delay == 0.0
