"""CoronaNode protocol behaviour: polling, diffing, dedup, notify."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import CoronaConfig
from repro.core.maintenance import DiffMsg
from repro.core.node import CoronaNode, FetchResult
from repro.core.objectives import binning_ratio
from repro.diffengine.delta import DeltaError, apply_diff
from repro.diffengine.differ import diff_lines
from repro.diffengine.extractor import CoreContentExtractor
from repro.honeycomb.clusters import ClusterSummary
from repro.overlay.hashing import node_id_for_address


def make_node(scheme="lite", notifier=None) -> CoronaNode:
    config = CoronaConfig(
        polling_interval=60.0, maintenance_interval=120.0, base=4,
        scheme=scheme,
    )
    return CoronaNode(
        node_id_for_address("test-node"), config, notifier=notifier
    )


def fetch(url, body, version=0, size=None, published=None) -> FetchResult:
    document = f"<rss><channel><title>T</title>{body}</channel></rss>"
    return FetchResult(
        url=url,
        document=document,
        size=size or len(document),
        server_version=version,
        published_at=published,
    )


URL = "http://feed.example/rss"


class TestAdoption:
    def test_adopt_starts_polling_at_owner_level(self):
        node = make_node()
        channel = node.adopt_channel(URL, max_level=3, anchor_prefix=3, now=0.0)
        assert channel.level == 3
        assert node.scheduler.is_polling(URL)
        assert node.polling_level(URL) == 3

    def test_adopt_idempotent(self):
        node = make_node()
        first = node.adopt_channel(URL, 3, 3, now=0.0)
        second = node.adopt_channel(URL, 3, 3, now=9.0)
        assert first is second

    def test_orphan_clamped_on_adoption(self):
        node = make_node()
        channel = node.adopt_channel(URL, max_level=3, anchor_prefix=0, now=0.0)
        assert channel.is_orphan()
        assert channel.level == 3


class TestSubscriptions:
    def test_subscriber_count_feeds_stats(self):
        node = make_node()
        node.adopt_channel(URL, 3, 3, now=0.0)
        node.subscribe(URL, "alice", 0.0)
        node.subscribe(URL, "bob", 0.0)
        assert node.managed[URL].stats.subscribers == 2
        node.unsubscribe(URL, "alice")
        assert node.managed[URL].stats.subscribers == 1

    def test_local_summary_bins_by_the_scheme_ratio(self):
        node = make_node()
        node.adopt_channel(URL, 3, 3, now=0.0)
        node.adopt_channel(URL + "2", 3, 0, now=0.0)  # an orphan
        node.subscribe(URL, "alice", 0.0)
        expected = ClusterSummary(bins=node.config.tradeoff_bins)
        for channel in node.managed.values():
            factors = channel.stats.factors()
            expected.add_channel(
                factors,
                orphan=channel.is_orphan(),
                ratio=binning_ratio(node.scheme, node.config, factors),
            )
        summary = node.local_summary()
        assert summary == expected
        assert summary.total_subscribers() == 1
        assert summary.slack.count == 1
        assert summary is not node.local_summary()  # the aggregator keeps it


class TestPollingFlow:
    def test_first_fetch_primes_silently(self):
        node = make_node()
        node.adopt_channel(URL, 3, 3, now=0.0)
        task = node.scheduler.tasks[URL]
        assert node.execute_poll(task, fetch(URL, "<item>one</item>"), 1.0) is None
        assert task.content.lines  # cache primed

    def test_unchanged_content_no_diff(self):
        node = make_node()
        node.adopt_channel(URL, 3, 3, now=0.0)
        task = node.scheduler.tasks[URL]
        node.execute_poll(task, fetch(URL, "<item>one</item>"), 1.0)
        assert node.execute_poll(task, fetch(URL, "<item>one</item>"), 61.0) is None

    def test_changed_content_produces_diff(self):
        node = make_node()
        node.adopt_channel(URL, 3, 3, now=0.0)
        task = node.scheduler.tasks[URL]
        node.execute_poll(task, fetch(URL, "<item>one</item>"), 1.0)
        msg = node.execute_poll(task, fetch(URL, "<item>two</item>"), 61.0)
        assert msg is not None
        assert msg.base_version == 1
        assert not msg.diff.is_empty
        assert msg.needs_version  # no server timestamp supplied

    def test_server_version_respected(self):
        node = make_node()
        node.adopt_channel(URL, 3, 3, now=0.0)
        task = node.scheduler.tasks[URL]
        node.execute_poll(task, fetch(URL, "<item>one</item>", version=10), 1.0)
        # Stale replay: older server version must not produce a diff.
        stale = node.execute_poll(
            task, fetch(URL, "<item>zero</item>", version=9), 61.0
        )
        assert stale is None
        fresh = node.execute_poll(
            task, fetch(URL, "<item>two</item>", version=11), 121.0
        )
        assert fresh is not None
        assert not fresh.needs_version
        assert fresh.version == 11

    def test_volatile_churn_invisible(self):
        """Noise filtered by the difference engine produces no diff."""
        node = make_node()
        node.adopt_channel(URL, 3, 3, now=0.0)
        task = node.scheduler.tasks[URL]
        node.execute_poll(
            task,
            fetch(URL, "<item>one</item><p>Views: 1,234</p>"),
            1.0,
        )
        result = node.execute_poll(
            task,
            fetch(URL, "<item>one</item><p>Views: 9,999</p>"),
            61.0,
        )
        assert result is None

    def test_poll_counter(self):
        node = make_node()
        node.adopt_channel(URL, 3, 3, now=0.0)
        task = node.scheduler.tasks[URL]
        for t in (1.0, 61.0, 121.0):
            node.execute_poll(task, fetch(URL, "<item>one</item>"), t)
        assert node.polls_issued == 3


class SpyExtractor:
    """Counts calls; delegates to a real extractor."""

    def __init__(self):
        self.calls = 0
        self._real = CoreContentExtractor()

    def core_lines(self, document):
        self.calls += 1
        return self._real.core_lines(document)


class TestServerVersions:
    """The conditional GET: a reply whose version the cache already
    holds is not parsed at all — whatever body came with it; every
    other reply is parsed exactly once."""

    def _primed(self, version, body="<item>one</item>"):
        node = make_node()
        node.extractor = spy = SpyExtractor()
        node.adopt_channel(URL, 3, 3, now=0.0)
        task = node.scheduler.tasks[URL]
        node.execute_poll(task, fetch(URL, body, version=version), 1.0)
        spy.calls = 0
        return node, task, spy

    @pytest.mark.parametrize("served", [10, 9, 1])
    @pytest.mark.parametrize(
        "reply",
        [
            # A fetcher that ignored ``have_version``: a full body, and
            # a differing one — a stale replay (a lagging server
            # cache), not an update.
            lambda served: fetch(URL, "<item>two</item>", version=served),
            # What ``WebServerFarm`` sends: no body.
            lambda served: FetchResult(
                url=URL, document=None, size=0, server_version=served
            ),
        ],
        ids=["stale-body", "not-modified"],
    )
    def test_same_or_older_version_is_not_parsed(self, served, reply):
        node, task, spy = self._primed(version=10)
        before = (task.content.version, task.content.lines)
        next_due = task.next_poll
        assert node.execute_poll(task, reply(served), 61.0) is None
        assert spy.calls == 0
        assert (task.content.version, task.content.lines) == before
        assert node.polls_issued == 2
        assert task.next_poll > next_due  # advance() still ran

    @pytest.mark.parametrize("served", [0, 1, 10])
    def test_unprimed_task_is_never_short_circuited(self, served):
        node = make_node()
        node.extractor = spy = SpyExtractor()
        node.adopt_channel(URL, 3, 3, now=0.0)
        task = node.scheduler.tasks[URL]
        assert task.content.version == 0
        first = fetch(URL, "<item>one</item>", version=served)
        assert node.execute_poll(task, first, 1.0) is None
        assert spy.calls == 1
        assert task.content.version == (served or 1) and task.content.lines

    def test_versionless_feed_is_compared_by_content(self):
        node, task, spy = self._primed(0, "<item>one</item><p>Views: 1</p>")
        assert node.execute_poll(
            task, fetch(URL, "<item>one</item><p>Views: 9</p>"), 61.0
        ) is None  # volatile noise: parsed, no diff
        assert spy.calls == 1
        assert node.execute_poll(task, fetch(URL, "<item>two</item>"), 121.0)
        assert spy.calls == 2

    def test_newer_version_is_reported(self):
        node, task, spy = self._primed(version=10)
        msg = node.execute_poll(
            task, fetch(URL, "<item>two</item>", version=11), 61.0
        )
        assert spy.calls == 1
        assert msg is not None and msg.version == 11
        assert task.content.version == 11

    def test_nodes_share_one_default_extractor(self):
        assert make_node().extractor is make_node().extractor


class TestDiffHandling:
    def _detect(self, node, body, now):
        task = node.scheduler.tasks[URL]
        return node.execute_poll(task, fetch(URL, body), now)

    def test_manager_accepts_and_records(self):
        node = make_node()
        node.adopt_channel(URL, 3, 3, now=0.0)
        node.subscribe(URL, "alice", 0.0)
        self._detect(node, "<item>one</item>", 1.0)
        msg = self._detect(node, "<item>two</item>", 61.0)
        event = node.handle_diff(msg, 61.0)
        assert event is not None
        assert event.subscribers == 1
        assert node.managed[URL].stats.updates_seen == 1

    def test_concurrent_detection_deduped(self):
        """Two wedge members detect the same update; the manager
        accepts one diff and drops the redundant one (§3.4)."""
        node = make_node()
        node.adopt_channel(URL, 3, 3, now=0.0)
        self._detect(node, "<item>one</item>", 1.0)
        msg = self._detect(node, "<item>two</item>", 61.0)
        assert node.handle_diff(msg, 61.0) is not None
        assert node.handle_diff(msg, 61.5) is None
        assert node.redundant_diffs == 1

    def test_nonmanager_patches_cache(self):
        manager = make_node()
        member = make_node()
        manager.adopt_channel(URL, 3, 3, now=0.0)
        member.scheduler.start(URL, 3, now=0.0)
        # Both prime from the same content.
        for node in (manager, member):
            task = node.scheduler.tasks[URL]
            node.execute_poll(task, fetch(URL, "<item>one</item>"), 1.0)
        msg = self._detect(manager, "<item>two</item>", 61.0)
        member.handle_diff(msg, 61.2)
        manager_lines = manager.scheduler.tasks[URL].content.lines
        member_lines = member.scheduler.tasks[URL].content.lines
        assert member_lines == manager_lines

    def test_members_with_equal_bases_share_one_patched_tuple(self):
        detector = make_node()
        members = [make_node(), make_node()]
        for node in (detector, *members):
            node.scheduler.start(URL, 3, now=0.0)
            task = node.scheduler.tasks[URL]
            node.execute_poll(task, fetch(URL, "<item>one</item>"), 1.0)
        first, second = (m.scheduler.tasks[URL].content for m in members)
        assert first.lines == second.lines
        assert first.lines is not second.lines  # parsed separately
        msg = self._detect(detector, "<item>two</item>", 61.0)
        for member in members:
            member.handle_diff(msg, 61.2)
        assert first.lines is second.lines
        assert first.lines == detector.scheduler.tasks[URL].content.lines


    def test_notifier_invoked_for_subscribers(self):
        calls = []
        node = make_node(
            notifier=lambda url, subs, diff, now: calls.append(
                (url, frozenset(subs))
            )
        )
        node.adopt_channel(URL, 3, 3, now=0.0)
        node.subscribe(URL, "alice", 0.0)
        node.subscribe(URL, "bob", 0.0)
        self._detect(node, "<item>one</item>", 1.0)
        msg = self._detect(node, "<item>two</item>", 61.0)
        node.handle_diff(msg, 61.0)
        assert calls == [(URL, frozenset({"alice", "bob"}))]

    def test_no_notification_without_subscribers(self):
        calls = []
        node = make_node(
            notifier=lambda url, subs, diff, now: calls.append(url)
        )
        node.adopt_channel(URL, 3, 3, now=0.0)
        self._detect(node, "<item>one</item>", 1.0)
        msg = self._detect(node, "<item>two</item>", 61.0)
        node.handle_diff(msg, 61.0)
        assert calls == []


_BASES = st.lists(st.sampled_from("abcd"), max_size=8).map(tuple)


class TestApplyMemo:
    """``_apply_peer_diff`` patches once per (diff, base) and shares the
    result; every call must still end where a fresh ``apply_diff``
    would."""

    @staticmethod
    def _deliver(node, delta, base):
        """Install ``base`` at version 1, deliver ``delta`` (1 → 2)."""
        task = node.scheduler.tasks[URL]
        task.content.replace(1, base)
        msg = DiffMsg(
            url=URL,
            version=2,
            base_version=1,
            diff=delta,
            content_size=0,
            detected_at=0.0,
        )
        node._apply_peer_diff(msg, delta)
        return task.content.version, task.content.lines

    @given(
        st.lists(st.tuples(_BASES, _BASES), min_size=1, max_size=3),
        st.lists(
            st.tuples(st.integers(0, 2), _BASES), min_size=1, max_size=12
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_memoised_apply_equals_a_fresh_apply(self, pairs, calls):
        diffs = [
            diff_lines(list(old), list(new), 1, 2) for old, new in pairs
        ]
        node = make_node()
        node.scheduler.start(URL, 3, now=0.0)
        for index, base in calls:
            delta = diffs[index % len(diffs)]
            try:
                expected = (2, tuple(apply_diff(list(base), delta)))
            except DeltaError:
                expected = (1, base)  # the cache is left untouched
            assert self._deliver(node, delta, base) == expected

    def test_misfit_base_is_remembered_and_left_untouched(self):
        node = make_node()
        node.scheduler.start(URL, 3, now=0.0)
        delta = diff_lines(["a", "b"], ["a", "c"], 1, 2)
        assert self._deliver(node, delta, ("x", "y")) == (1, ("x", "y"))
        assert self._deliver(node, delta, ("a", "b")) == (2, ("a", "c"))
        assert self._deliver(node, delta, ("x", "y")) == (1, ("x", "y"))
        assert self._deliver(node, delta, ("a", "b")) == (2, ("a", "c"))
        assert len(delta._applied) == 2
        assert delta == diff_lines(["a", "b"], ["a", "c"], 1, 2)


class TestOptimizationIntegration:
    def test_run_optimization_sets_targets(self):
        from repro.honeycomb.clusters import ClusterSummary

        node = make_node()
        for index in range(4):
            url = f"http://c{index}.example/rss"
            node.adopt_channel(url, max_level=3, anchor_prefix=3, now=0.0)
            for client in range(20 * (index + 1)):
                node.subscribe(url, f"client-{index}-{client}", 0.0)
        desired = node.run_optimization(ClusterSummary(), n_nodes=64)
        assert set(desired) == set(node.managed)
        # With only these channels and a legacy-load budget, popular
        # channels get levels no higher than unpopular ones.
        levels = [desired[f"http://c{index}.example/rss"] for index in range(4)]
        assert levels == sorted(levels, reverse=True)

    def test_orphans_stay_at_owner_level(self):
        from repro.honeycomb.clusters import ClusterSummary

        node = make_node()
        node.adopt_channel(URL, max_level=3, anchor_prefix=0, now=0.0)
        node.subscribe(URL, "alice", 0.0)
        desired = node.run_optimization(ClusterSummary(), n_nodes=64)
        assert desired[URL] == 3
