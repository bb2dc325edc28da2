"""The discrete-event core: ordering, ties, repeating series."""

import pytest

from repro.simulation.engine import EventEngine


class TestOrdering:
    def test_events_fire_in_time_order(self):
        engine = EventEngine()
        fired = []
        engine.schedule(3.0, lambda now: fired.append(("c", now)))
        engine.schedule(1.0, lambda now: fired.append(("a", now)))
        engine.schedule(2.0, lambda now: fired.append(("b", now)))
        engine.run_until(10.0)
        assert fired == [("a", 1.0), ("b", 2.0), ("c", 3.0)]

    def test_same_time_fifo(self):
        engine = EventEngine()
        fired = []
        for label in "abcde":
            engine.schedule(5.0, lambda now, l=label: fired.append(l))
        engine.run_until(5.0)
        assert fired == list("abcde")

    def test_run_until_is_inclusive(self):
        engine = EventEngine()
        fired = []
        engine.schedule(5.0, lambda now: fired.append(now))
        engine.run_until(5.0)
        assert fired == [5.0]
        assert engine.now == 5.0

    def test_clock_advances_even_without_events(self):
        engine = EventEngine()
        engine.run_until(42.0)
        assert engine.now == 42.0

    def test_past_scheduling_rejected(self):
        engine = EventEngine()
        engine.run_until(10.0)
        with pytest.raises(ValueError):
            engine.schedule(5.0, lambda now: None)

    def test_scheduling_at_now_allowed(self):
        engine = EventEngine()
        engine.run_until(10.0)
        fired = []
        engine.schedule(10.0, fired.append)
        engine.run_until(10.0)
        assert fired == [10.0]

    def test_callback_sees_its_own_time_on_the_clock(self):
        engine = EventEngine()
        seen = []
        for when in (2.0, 7.0):
            engine.schedule(when, lambda now: seen.append((now, engine.now)))
        engine.run_until(9.0)
        assert seen == [(2.0, 2.0), (7.0, 7.0)]

    def test_events_past_horizon_wait_for_a_later_run(self):
        engine = EventEngine()
        fired = []
        engine.schedule(5.0, fired.append)
        engine.schedule(15.0, fired.append)
        engine.run_until(10.0)
        assert fired == [5.0]
        engine.run_until(20.0)
        assert fired == [5.0, 15.0]

    def test_earlier_horizon_never_rewinds_the_clock(self):
        engine = EventEngine()
        engine.run_until(10.0)
        engine.run_until(5.0)
        assert engine.now == 10.0


class TestCounts:
    def test_run_until_returns_events_executed(self):
        engine = EventEngine()
        for when in (1.0, 2.0, 3.0, 30.0):
            engine.schedule(when, lambda now: None)
        assert engine.run_until(10.0) == 3
        assert engine.run_until(10.0) == 0

    def test_executed_accumulates_across_runs(self):
        engine = EventEngine()
        for when in (1.0, 2.0, 3.0):
            engine.schedule(when, lambda now: None)
        engine.run_until(1.5)
        engine.run_until(5.0)
        assert engine.executed == 3


class TestCascades:
    def test_events_scheduling_events(self):
        engine = EventEngine()
        fired = []

        def recurring(now: float) -> None:
            fired.append(now)
            if now < 5.0:
                engine.schedule(now + 1.0, recurring)

        engine.schedule(1.0, recurring)
        engine.run_until(100.0)
        assert fired == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_same_time_cascade_runs_after_queued_peers(self):
        """An event scheduled for ``now`` from a callback joins the back
        of the same-time queue and still runs in this pass."""
        engine = EventEngine()
        fired = []

        def first(now: float) -> None:
            fired.append("first")
            engine.schedule(now, lambda now: fired.append("spawned"))

        engine.schedule(1.0, first)
        engine.schedule(1.0, lambda now: fired.append("second"))
        assert engine.run_until(1.0) == 3
        assert fired == ["first", "second", "spawned"]


class TestScheduleEvery:
    def test_fires_at_start_and_each_interval_until_bound(self):
        engine = EventEngine()
        fired = []
        engine.schedule_every(50.0, 100.0, fired.append, until=300.0)
        engine.run_until(1000.0)
        # until is inclusive of the last occurrence at 250 + 100 > 300
        assert fired == [50.0, 150.0, 250.0]

    def test_unbounded_repeats_to_horizon(self):
        engine = EventEngine()
        fired = []
        engine.schedule_every(10.0, 10.0, fired.append)
        engine.run_until(45.0)
        assert fired == [10.0, 20.0, 30.0, 40.0]
        engine.run_until(65.0)
        assert fired[-1] == 60.0

    def test_start_past_until_never_fires(self):
        engine = EventEngine()
        fired = []
        engine.schedule_every(400.0, 100.0, fired.append, until=300.0)
        assert engine.run_until(1000.0) == 0
        assert fired == []

    def test_until_equal_to_start_fires_once(self):
        engine = EventEngine()
        fired = []
        engine.schedule_every(100.0, 50.0, fired.append, until=100.0)
        engine.run_until(1000.0)
        assert fired == [100.0]

    def test_validation(self):
        engine = EventEngine()
        with pytest.raises(ValueError):
            engine.schedule_every(0.0, 0.0, lambda now: None)
