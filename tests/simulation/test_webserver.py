"""Simulated content servers: update processes, fetches, rate limits."""

import pytest

from repro.diffengine.extractor import extract_core_lines
from repro.simulation import webserver
from repro.simulation.webserver import WebServerFarm


@pytest.fixture()
def timestamps(monkeypatch):
    """Set the share of servers that send modification timestamps."""
    return lambda fraction: monkeypatch.setattr(
        webserver, "TIMESTAMP_FRACTION", fraction
    )


@pytest.fixture()
def farm() -> WebServerFarm:
    f = WebServerFarm(seed=9)
    f.host("http://a.example/rss", update_interval=100.0)
    f.host("http://b.example/rss", update_interval=10_000.0)
    return f


class TestHosting:
    def test_host_idempotent(self, farm):
        first = farm.channels["http://a.example/rss"]
        again = farm.host("http://a.example/rss", update_interval=1.0)
        assert first is again

    def test_fetch_unknown_raises(self, farm):
        with pytest.raises(KeyError):
            farm.fetch("http://nowhere/", 0.0)

    def test_invalid_interval(self, farm):
        with pytest.raises(ValueError):
            farm.host("http://c/", update_interval=0.0)

    def test_shipped_timestamp_share(self):
        """About ``TIMESTAMP_FRACTION`` of servers send timestamps."""
        assert webserver.TIMESTAMP_FRACTION == 0.8
        farm = WebServerFarm(seed=4)
        hosted = [
            farm.host(f"http://s{i}.example/rss", update_interval=600.0)
            for i in range(1000)
        ]
        share = sum(h.has_timestamps for h in hosted) / len(hosted)
        assert abs(share - 0.8) < 0.05  # 4 standard errors


class TestUpdateProcess:
    def test_updates_fire_at_interval_rate(self, farm):
        fired = farm.advance_to(1000.0)
        # ~10 updates on the fast channel, likely 0 on the slow one.
        assert 4 <= fired <= 20

    def test_time_cannot_reverse(self, farm):
        farm.advance_to(100.0)
        with pytest.raises(ValueError):
            farm.advance_to(50.0)

    def test_content_changes_after_update(self, farm):
        url = "http://a.example/rss"
        before = extract_core_lines(farm.fetch(url, 0.0).document)
        farm.advance_to(1000.0)
        after = extract_core_lines(farm.fetch(url, 1000.0).document)
        assert before != after

    def test_published_at_tracked(self, farm):
        url = "http://a.example/rss"
        assert farm.published_at(url) is None  # nothing published yet
        farm.advance_to(1000.0)
        published = farm.published_at(url)
        assert published is not None
        assert 0 <= published <= 1000.0


class TestFetch:
    def test_fetch_result_fields(self, farm):
        result = farm.fetch("http://a.example/rss", 5.0)
        assert result.url == "http://a.example/rss"
        assert result.size == len(result.document.encode("utf-8"))

    def test_version_token_monotone_when_supported(self, timestamps):
        timestamps(1.0)
        farm = WebServerFarm(seed=1)
        farm.host("http://t.example/rss", update_interval=50.0)
        versions = []
        for now in (0.0, 200.0, 400.0):
            farm.advance_to(now)
            versions.append(farm.fetch("http://t.example/rss", now).server_version)
        assert versions == sorted(versions)
        assert versions[-1] > versions[0]

    def test_no_timestamps_mode(self, timestamps):
        timestamps(0.0)
        farm = WebServerFarm(seed=1)
        farm.host("http://n.example/rss", update_interval=50.0)
        assert farm.fetch("http://n.example/rss", 0.0).server_version == 0

    def test_poll_accounting(self, farm):
        for _ in range(3):
            farm.fetch("http://a.example/rss", 0.0)
        assert farm.poll_counts()["http://a.example/rss"] == 3
        assert farm.total_polls == 3


class TestConditionalGet:
    URL = "http://t.example/rss"

    @pytest.fixture(autouse=True)
    def all_timestamped(self, timestamps):
        timestamps(1.0)

    def _farm(self, update_interval=50.0, **kwargs) -> WebServerFarm:
        farm = WebServerFarm(seed=1, **kwargs)
        farm.host(self.URL, update_interval=update_interval)
        return farm

    def test_same_version_sends_no_body(self):
        farm = self._farm()
        farm.advance_to(200.0)
        full = farm.fetch(self.URL, 200.0)
        assert full.published_at is not None
        for held in (full.server_version, full.server_version + 3):
            reply = farm.fetch(self.URL, 200.0, have_version=held)
            assert reply.document is None
            assert reply.size == 0
            assert reply.server_version == full.server_version
            assert reply.published_at == full.published_at
        hosted = farm.channels[self.URL]
        assert hosted.polls_served == farm.total_polls == 3

    def test_newer_content_or_no_version_held_sends_the_body(self):
        farm = self._farm()
        first = farm.fetch(self.URL, 0.0)
        farm.advance_to(200.0)
        newer = farm.fetch(self.URL, 200.0, have_version=first.server_version)
        assert newer.server_version > first.server_version
        for reply in (newer, farm.fetch(self.URL, 200.0, have_version=0)):
            assert reply.size == len(reply.document.encode("utf-8")) > 0

    def test_timestampless_channel_never_answers_not_modified(
        self, timestamps
    ):
        timestamps(0.0)
        farm = self._farm()
        for held in (0, 1, 99):
            reply = farm.fetch(self.URL, 0.0, have_version=held)
            assert reply.server_version == 0
            assert reply.document is not None

    def test_bodiless_replies_leave_later_documents_unchanged(self):
        """A not-modified reply makes the same draws as a full one."""
        asked, never = self._farm(), self._farm()
        for now in (0.0, 40.0, 90.0, 160.0, 300.0):
            sent = asked.fetch(self.URL, now)
            unsent = never.fetch(self.URL, now, have_version=10**9)
            assert unsent.document is None
            assert unsent.server_version == sent.server_version
        assert (
            never.fetch(self.URL, 400.0).document
            == asked.fetch(self.URL, 400.0).document
        )

    def test_banned_source_is_answered_from_the_last_served_snapshot(self):
        """...with not-modified when it holds that version, else with
        the bytes the last served poll produced — or would have, had
        it been asked for a body."""
        # Updates every 14-26 s, so content moves between any two of
        # the polls below; sources may poll once a minute.
        reference = self._farm(update_interval=20.0, rate_limit_spacing=60.0)
        farm = self._farm(update_interval=20.0, rate_limit_spacing=60.0)
        for f in (reference, farm):
            f.fetch(self.URL, 200.0, source="ip1")
        served = reference.fetch(self.URL, 230.0, source="ip2")
        assert served.published_at is not None
        unsent = farm.fetch(
            self.URL, 230.0, source="ip2", have_version=served.server_version
        )
        assert unsent.document is None
        replay = farm.fetch(self.URL, 259.0, source="ip1")  # banned
        hosted = farm.channels[self.URL]
        assert hosted.generator.version > served.server_version
        assert replay.document == served.document
        assert replay.size == served.size
        assert replay.server_version == served.server_version
        assert replay.published_at == served.published_at
        again = farm.fetch(
            self.URL, 259.5, source="ip1", have_version=served.server_version
        )  # banned, and holds the snapshot's version
        assert again.document is None
        assert again.server_version == served.server_version
        assert hosted.rate_limited == 2
        assert hosted.polls_served == 4


class TestRateLimitAndFlashCrowd:
    def test_rate_limiter_spacing(self):
        farm = WebServerFarm(seed=2, rate_limit_spacing=60.0)
        farm.host("http://r.example/rss", update_interval=1000.0)
        farm.fetch("http://r.example/rss", 0.0, source="ip1")
        farm.fetch("http://r.example/rss", 10.0, source="ip1")  # banned
        farm.fetch("http://r.example/rss", 10.0, source="ip2")  # other IP ok
        farm.fetch("http://r.example/rss", 70.0, source="ip1")  # spaced ok
        assert farm.channels["http://r.example/rss"].rate_limited == 1

    def test_refused_poll_served_stale_snapshot(self):
        """Over-cap polls are answered with the previous snapshot —
        the refusal surfaces as staleness, never as an error."""
        farm = WebServerFarm(seed=2, rate_limit_spacing=60.0)
        url = "http://r.example/rss"
        farm.host(url, update_interval=30.0)
        first = farm.fetch(url, 0.0, source="ip1")
        farm.advance_to(100.0)  # content moved on
        refused = farm.fetch(url, 100.0, source="ip1")  # within spacing?
        # 100 - 0 >= 60: allowed.  Poll again quickly to get refused.
        allowed = refused
        assert allowed.document != first.document
        banned = farm.fetch(url, 110.0, source="ip1")
        assert farm.channels[url].rate_limited == 1
        # The banned response replays the last served snapshot exactly.
        assert banned.document == allowed.document
        assert banned.server_version == allowed.server_version
        fresh_other = farm.fetch(url, 110.0, source="ip2")
        assert fresh_other.document == allowed.document or True
        # Once the spacing elapses, the source sees fresh content again.
        farm.advance_to(300.0)
        recovered = farm.fetch(url, 300.0, source="ip1")
        assert recovered.document != banned.document

    def test_refused_polls_still_counted(self):
        farm = WebServerFarm(seed=2, rate_limit_spacing=60.0)
        url = "http://r.example/rss"
        farm.host(url, update_interval=1000.0)
        farm.fetch(url, 0.0, source="ip1")
        farm.fetch(url, 1.0, source="ip1")  # banned, still a poll
        assert farm.total_polls == 2
        assert farm.channels[url].polls_served == 2
        assert farm.channels[url].rate_limited == 1

    def test_flash_crowd_accelerates_updates(self, farm):
        url = "http://b.example/rss"  # slow channel
        farm.flash_crowd(url, factor=100.0, now=0.0)
        fired_before = farm.channels[url].generator.version
        farm.advance_to(2000.0)
        assert farm.channels[url].generator.version > fired_before

    def test_flash_crowd_validation(self, farm):
        with pytest.raises(KeyError):
            farm.flash_crowd("http://nowhere/", 2.0, 0.0)
        with pytest.raises(ValueError):
            farm.flash_crowd("http://a.example/rss", 0.0, 0.0)

    def test_flash_crowd_inverse_restores_interval(self, farm):
        """Timed bursts undo themselves by the inverse factor."""
        url = "http://b.example/rss"
        base = farm.channels[url].update_interval
        farm.flash_crowd(url, factor=8.0, now=0.0)
        assert farm.channels[url].update_interval == pytest.approx(base / 8)
        farm.flash_crowd(url, factor=1.0 / 8.0, now=100.0)
        assert farm.channels[url].update_interval == pytest.approx(base)

    def test_flash_crowd_factors_compound(self, farm):
        url = "http://b.example/rss"
        base = farm.channels[url].update_interval
        farm.flash_crowd(url, factor=4.0, now=0.0)
        farm.flash_crowd(url, factor=8.0, now=0.0)
        farm.flash_crowd(url, factor=1.0 / 8.0, now=100.0)  # burst ends
        # the 4x (sticky crowd) survives the 8x burst's end
        assert farm.channels[url].update_interval == pytest.approx(base / 4)
