"""Version clocks, dedup, and content state."""

from repro.core.update import ContentState, VersionClock


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

    def test_fresh_clock_drops_timestamp_zero(self):
        clock = VersionClock()
        assert not clock.observe_timestamp(0)
        assert clock.current == 0

    def test_assigned_version_makes_older_timestamps_redundant(self):
        clock = VersionClock()
        version = clock.assign_next()
        assert not clock.observe_timestamp(version)
        assert clock.observe_timestamp(version + 1)
        assert clock.current == version + 1

    def test_assignment_never_reuses_a_version(self):
        clock = VersionClock()
        first = clock.assign_next()
        clock.observe_timestamp(first + 10)
        second = clock.assign_next()
        assert second == first + 11


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
