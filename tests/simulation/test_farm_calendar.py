"""The farm's update calendar against the scan it replaced.

``WebServerFarm.advance_to`` pops the channels whose update fell due.
The oracle is the loop the farm used to run: every hosted channel in
hosting order, publishing while ``next_update <= now``.  Under random
host / flash_crowd / advance_to / fetch, both publish the same
(channel, time) sequence and leave the farm's generator in the same
state; the calendar never holds two live entries for one channel.
"""

from __future__ import annotations

from unittest import mock

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.feeds.generator import FeedGenerator
from repro.simulation.webserver import WebServerFarm


class ScanFarm(WebServerFarm):
    """The farm with the pre-calendar advance: a scan of every channel."""

    def advance_to(self, now: float) -> int:
        if now < self._now:
            raise ValueError("time cannot move backwards")
        fired = 0
        for hosted in self.channels.values():
            while hosted.next_update <= now:
                publish_time = hosted.next_update
                hosted.generator.publish_update(publish_time)
                hosted.last_published = publish_time
                hosted.next_update = publish_time + self._jittered(
                    hosted.update_interval
                )
                fired += 1
        self._now = now
        self.total_updates += fired
        return fired


OPS = st.one_of(
    st.tuples(st.just("host"), st.floats(5.0, 400.0)),
    st.tuples(st.just("flash"), st.integers(0, 63),
              st.sampled_from([0.25, 0.5, 2.0, 4.0, 16.0])),
    st.tuples(st.just("advance"), st.floats(0.0, 300.0)),
    st.tuples(st.just("fetch"), st.integers(0, 63), st.floats(0.0, 60.0)),
)


def replay(farm: WebServerFarm, ops) -> tuple[list, list]:
    """Apply ``ops``; the publications made and a state trail."""
    published: list[tuple[str, float]] = []
    real = FeedGenerator.publish_update

    def publish_update(generator, when):
        published.append((generator.url, when))
        return real(generator, when)

    trail = []
    now = 0.0
    with mock.patch.object(FeedGenerator, "publish_update", publish_update):
        for op in ops:
            urls = list(farm.channels)
            kind = op[0]
            if kind == "host":
                farm.host(
                    f"http://c{len(urls)}.example/rss", op[1],
                    target_bytes=800,
                )
            elif kind == "flash" and urls:
                farm.flash_crowd(urls[op[1] % len(urls)], op[2], now)
            elif kind == "advance":
                now += op[1]
                farm.advance_to(now)
            elif kind == "fetch" and urls:
                now += op[2]
                farm.fetch(urls[op[1] % len(urls)], now, source="n")
            trail.append(
                (
                    farm.rng.getstate(),
                    farm.total_updates,
                    [
                        (h.next_update, h.last_published, h.update_interval)
                        for h in farm.channels.values()
                    ],
                )
            )
            if isinstance(farm, ScanFarm):
                continue
            live = [
                entry for entry in farm._calendar
                if farm._booked[entry[2].url] is entry
            ]
            assert sorted(e[2].url for e in live) == sorted(farm.channels)
            assert all(entry[0] == entry[2].next_update for entry in live)
    return published, trail


@given(seed=st.integers(0, 2**16), ops=st.lists(OPS, max_size=40))
@settings(max_examples=60, deadline=None)
def test_calendar_publishes_what_the_scan_would(seed, ops):
    assert replay(WebServerFarm(seed=seed), ops) == replay(
        ScanFarm(seed=seed), ops
    )


def test_advance_with_nothing_due_pops_nothing():
    farm = WebServerFarm(seed=1)
    for index in range(50):
        farm.host(f"http://c{index}.example/rss", 1000.0 + index)
    farm.advance_to(5000.0)
    with mock.patch(
        "repro.simulation.webserver.heappop"
    ) as popped:
        farm.advance_to(farm._calendar[0][0] - 1e-6)
        farm.fetch("http://c0.example/rss", farm._now)
    assert popped.call_count == 0


def test_flash_crowd_that_defers_books_nothing():
    farm = WebServerFarm(seed=2)
    farm.host("http://a.example/rss", 100.0)
    before = list(farm._calendar)
    # A deceleration can only push the next update later: min() keeps
    # the booked time and the calendar is untouched.
    farm.flash_crowd("http://a.example/rss", 0.01, 0.0)
    assert farm._calendar == before


def test_replaced_entries_are_dropped_when_popped():
    farm = WebServerFarm(seed=3)
    for index in range(4):
        farm.host(f"http://c{index}.example/rss", 100.0)
    farm.flash_crowd("http://c0.example/rss", 50.0, 0.0)
    assert len(farm._calendar) == len(farm.channels) + 1
    farm.advance_to(150.0)
    assert len(farm._calendar) == len(farm.channels)
