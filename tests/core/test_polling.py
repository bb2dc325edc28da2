"""Cooperative polling schedules: stagger, periodicity, membership."""

import random

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.core.polling import PollScheduler


def scheduler(seed=1, interval=600.0) -> PollScheduler:
    return PollScheduler(interval=interval, seed=seed)


class TestStagger:
    def test_first_poll_within_one_interval(self):
        sched = scheduler()
        task = sched.start("http://a/", level=1, now=100.0)
        assert 100.0 <= task.next_poll <= 700.0

    def test_stagger_spreads_uniformly(self):
        """Many nodes starting the same channel spread their polls over
        the interval (§3.3) — check rough uniformity of phases."""
        phases = []
        for seed in range(200):
            task = scheduler(seed=seed).start("http://a/", 1, now=0.0)
            phases.append(task.next_poll / 600.0)
        mean = sum(phases) / len(phases)
        assert 0.4 < mean < 0.6
        assert min(phases) < 0.1
        assert max(phases) > 0.9

    def test_restart_preserves_phase(self):
        """Re-announcing a level must not reshuffle the wedge's
        established stagger."""
        sched = scheduler()
        task = sched.start("http://a/", 1, now=0.0)
        first_due = task.next_poll
        sched.start("http://a/", 2, now=50.0)
        assert sched.tasks["http://a/"].next_poll == first_due
        assert sched.tasks["http://a/"].level == 2


class TestPeriodicity:
    def test_advance_steps_one_interval(self):
        sched = scheduler()
        task = sched.start("http://a/", 1, now=0.0)
        due = task.next_poll
        task.advance()
        assert task.next_poll == due + 600.0


class TestCalendar:
    """Every new task is booked once on the calendar, as ``(next_poll,
    rank, seq, owner, task)``; restarts book nothing, stops unbook
    nothing (removal is lazy)."""

    def test_new_tasks_are_booked_in_start_order(self):
        owner = object()
        calendar = []
        sched = PollScheduler(
            interval=600.0, seed=1, calendar=calendar, rank=7, owner=owner
        )
        a = sched.start("http://a/", 1, now=0.0)
        b = sched.start("http://b/", 1, now=0.0)
        assert sorted(calendar) == sorted(
            [(a.next_poll, 7, 0, owner, a), (b.next_poll, 7, 1, owner, b)]
        )

    def test_head_is_the_earliest_poll(self):
        sched = scheduler()
        assert sched.calendar == []
        for name in "abcde":
            sched.start(f"http://{name}/", 1, now=0.0)
        assert sched.calendar[0][0] == min(
            task.next_poll for task in sched.tasks.values()
        )
        due = [entry[4] for entry in sched.calendar if entry[0] <= 700.0]
        assert len(due) == 5
        assert not [entry for entry in sched.calendar if entry[0] <= -1.0]

    def test_restart_books_nothing_and_stop_unbooks_nothing(self):
        sched = scheduler()
        task = sched.start("http://a/", 1, now=0.0)
        sched.start("http://a/", 3, now=10.0)
        assert len(sched.calendar) == 1
        sched.stop("http://a/")
        assert [entry[4] for entry in sched.calendar] == [task]
        again = sched.start("http://a/", 1, now=20.0)
        # A new task takes the next seq: dict order and seq order agree.
        assert sorted(entry[2] for entry in sched.calendar) == [0, 1]
        assert [e[2] for e in sched.calendar if e[4] is again] == [1]

    def test_schedulers_can_share_one_calendar(self):
        calendar = []
        first = PollScheduler(interval=600.0, calendar=calendar, rank=0)
        second = PollScheduler(interval=600.0, calendar=calendar, rank=1)
        first.start("http://a/", 1, now=0.0)
        second.start("http://a/", 1, now=0.0)
        assert sorted(entry[1] for entry in calendar) == [0, 1]


class TestMembership:
    def test_stop(self):
        sched = scheduler()
        sched.start("http://a/", 1, now=0.0)
        assert sched.stop("http://a/")
        assert not sched.stop("http://a/")
        assert not sched.is_polling("http://a/")

    def test_polls_per_interval(self):
        sched = scheduler()
        for index in range(5):
            sched.start(f"http://{index}/", 1, now=0.0)
        assert sched.polls_per_interval() == 5


class TestLazyGenerator:
    """The scheduler is handed a seed and builds ``random.Random(seed)``
    on the first draw — same staggers, no generator on idle nodes."""

    @given(
        seed=st.integers(min_value=0, max_value=2**40),
        calls=st.lists(
            st.tuples(
                st.sampled_from("abcdef"),
                st.booleans(),
                st.floats(min_value=0.0, max_value=1e6),
            ),
            max_size=30,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_draws_the_staggers_of_a_generator_built_up_front(
        self, seed, calls
    ):
        """Over any sequence of start/stop calls: one draw per *new*
        task, none for a restart, all from ``random.Random(seed)``."""
        sched = PollScheduler(interval=600.0, seed=seed)
        reference = random.Random(seed)
        for name, stop_first, now in calls:
            url = f"http://{name}/"
            if stop_first:
                sched.stop(url)
            known = sched.is_polling(url)
            before = sched.tasks[url].next_poll if known else None
            task = sched.start(url, level=1, now=now)
            if known:
                assert task.next_poll == before
            else:
                assert task.next_poll == now + reference.uniform(0.0, 600.0)

    def test_idle_scheduler_holds_no_generator(self):
        sched = scheduler()
        assert sched._rng is None
        sched.stop("http://a/")
        assert sched.calendar == [] and sched.tasks == {}
        assert sched._rng is None
        sched.start("http://a/", 1, now=0.0)
        assert sched._rng is not None

    def test_default_seed_draws_from_random_zero(self):
        task = PollScheduler(interval=600.0).start("http://a/", 1, now=0.0)
        assert task.next_poll == random.Random(0).uniform(0.0, 600.0)
