"""System-level churn: failures, state transfer, continued operation."""

import pytest

from repro.core.config import CoronaConfig
from repro.core.dissemination import wedge_recipients
from repro.core.system import CoronaSystem
from repro.overlay.hashing import channel_id, node_id_for_address
from repro.simulation.webserver import WebServerFarm


@pytest.fixture()
def running_system(fast_config, small_farm):
    system = CoronaSystem(
        n_nodes=40, config=fast_config, fetcher=small_farm, seed=51
    )
    client = 0
    for rank in range(10):
        url = f"http://feed{rank}.example/rss"
        for _ in range(12):
            system.subscribe(url, f"client-{client}", now=0.0)
            client += 1
    # Warm up: a couple of maintenance rounds and some polls.
    return system, _drive(system, small_farm, 0.0, steps=20)


def _drive(system, farm, now, steps=40):
    """Poll every 30 s, maintain every fourth step; returns the clock."""
    for step in range(steps):
        now += 30.0
        farm.advance_to(now)
        system.poll_due(now)
        if step % 4 == 3:
            system.run_maintenance_round(now)
    return now


def _managed_by(system, node_id):
    return {url for url, m in system.managers.items() if m == node_id}


class TestFailNode:
    def test_manager_failure_rehomes_channels(self, running_system):
        system, now = running_system
        url = "http://feed0.example/rss"
        manager = system.managers[url]
        count_before = system.nodes[manager].registry.count(url)
        rehomed = system.fail_node(manager, now=now)
        assert rehomed >= 1
        new_manager = system.managers[url]
        assert new_manager != manager
        assert new_manager in system.nodes
        assert system.nodes[new_manager].registry.count(url) == count_before

    def test_nonmanager_failure_is_harmless(self, running_system):
        system, now = running_system
        managers = set(system.managers.values())
        bystander = next(
            node_id
            for node_id in system.overlay.node_ids()
            if node_id not in managers
        )
        rehomed = system.fail_node(bystander, now=now)
        assert rehomed == 0
        assert len(system.nodes) == 39

    def test_system_keeps_detecting_after_failures(
        self, running_system, small_farm
    ):
        system, now = running_system
        before = system.counters.detections
        victims = list(system.overlay.node_ids())[:8]
        for victim in victims:
            system.fail_node(victim, now=now)
        for step in range(40):
            now += 30.0
            small_farm.advance_to(now)
            system.poll_due(now)
            if step % 4 == 3:
                system.run_maintenance_round(now)
        assert system.counters.detections > before

    def test_unknown_node_raises(self, running_system):
        system, _ = running_system
        with pytest.raises(KeyError):
            system.fail_node(node_id_for_address("not-a-member"))

    def test_join_takes_over_matching_channels(self, running_system):
        """A newcomer that becomes a channel's best prefix match adopts
        it with the subscription state intact."""
        system, now = running_system
        total_before = sum(
            node.registry.total_subscriptions()
            for node in system.nodes.values()
        )
        joined = [
            system.add_node(f"late-joiner-{index}", now=now)
            for index in range(8)
        ]
        assert all(node_id in system.nodes for node_id in joined)
        total_after = sum(
            node.registry.total_subscriptions()
            for node in system.nodes.values()
        )
        assert total_after == total_before
        for url, manager in system.managers.items():
            assert system.nodes[manager].managed.get(url) is not None
            # The manager is always the current anchor.
            from repro.overlay.hashing import channel_id

            assert manager == system.overlay.anchor_of(channel_id(url))

    def test_join_then_fail_roundtrip(self, running_system, small_farm):
        system, now = running_system
        newcomer = system.add_node("transient-node", now=now)
        system.fail_node(newcomer, now=now)
        # Still fully operational afterward.
        for step in range(8):
            now += 30.0
            small_farm.advance_to(now)
            system.poll_due(now)
        for url, manager in system.managers.items():
            assert manager in system.nodes

    def test_repeated_failures_converge(self, running_system, small_farm):
        """Half the cloud can die one node at a time; every channel
        always has a live manager with intact subscriptions."""
        system, now = running_system
        total_subs_before = sum(
            node.registry.total_subscriptions()
            for node in system.nodes.values()
        )
        for victim in list(system.overlay.node_ids())[:20]:
            system.fail_node(victim, now=now)
        assert len(system.nodes) == 20
        total_subs_after = sum(
            node.registry.total_subscriptions()
            for node in system.nodes.values()
        )
        assert total_subs_after == total_subs_before
        for url, manager in system.managers.items():
            assert manager in system.nodes
            assert system.nodes[manager].managed.get(url) is not None


class TestChurnEntryPoints:
    def test_join_nodes_mints_unique_addresses(self, running_system):
        system, now = running_system
        before = len(system.nodes)
        first = system.join_nodes(2, now=now)
        second = system.join_nodes(2, now=now)
        assert len(system.nodes) == before + 4
        assert len(set(first) | set(second)) == 4
        assert system.counters.joins == 4

    def test_join_waves_continue_one_address_counter(self, running_system):
        system, now = running_system
        first = system.join_nodes(2, now=now)
        second = system.join_nodes(1, now=now)
        assert first + second == [
            node_id_for_address(f"joiner-{k}") for k in (1, 2, 3)
        ]

    def test_join_nodes_zero_is_a_noop(self, running_system):
        system, now = running_system
        before = set(system.nodes)
        assert system.join_nodes(0, now=now) == []
        assert set(system.nodes) == before
        assert system.counters.joins == 0
        # No address was minted either.
        assert system.join_nodes(1, now=now) == [
            node_id_for_address("joiner-1")
        ]

    def test_join_nodes_rejects_a_negative_count(self, running_system):
        system, now = running_system
        with pytest.raises(ValueError, match="negative"):
            system.join_nodes(-1, now=now)

    def test_crash_nodes_targets_managers(self, running_system):
        system, now = running_system
        managers = system.manager_nodes()
        victims = system.crash_nodes(2, now=now, target="managers")
        assert len(victims) == 2
        assert set(victims) <= managers
        assert system.counters.crashes == 2
        for url, manager in system.managers.items():
            assert manager in system.nodes

    def test_crash_nodes_bystanders_spare_managers(self, running_system):
        system, now = running_system
        managers = system.manager_nodes()
        victims = system.crash_nodes(3, now=now, target="bystanders")
        assert not set(victims) & managers
        assert system.counters.rehomed_channels == 0

    def test_default_victim_selection_reproducible(
        self, fast_config, small_farm
    ):
        def build():
            return CoronaSystem(
                n_nodes=20, config=fast_config, fetcher=small_farm, seed=5
            )

        a, b = build(), build()
        assert a.crash_nodes(3) == b.crash_nodes(3)
        # ...and the second wave too: the default generator is part of
        # the system's deterministic state
        assert a.crash_nodes(3) == b.crash_nodes(3)

    def test_successive_default_waves_advance_generator(
        self, running_system
    ):
        system, now = running_system
        state = system._churn_rng.getstate()
        system.crash_nodes(3, now=now)
        # repeated waves must not re-seed and re-draw the same sample
        assert system._churn_rng.getstate() != state

    def test_crash_nodes_always_leaves_survivor(self, running_system):
        system, now = running_system
        victims = system.crash_nodes(10_000, now=now)
        assert len(system.nodes) == 1
        assert len(victims) == 39

    def test_crash_nodes_validation(self, running_system):
        system, now = running_system
        with pytest.raises(ValueError):
            system.crash_nodes(-1, now=now)
        with pytest.raises(ValueError):
            system.crash_nodes(1, now=now, target="everyone")


def _takeover_address(system, prefix="takeover"):
    """Deterministically find an address whose node would win an anchor.

    Walks minted addresses until one's identifier beats the current
    manager's anchor key for at least one managed channel — the case
    the add_node re-home path must handle.
    """
    for attempt in range(10_000):
        address = f"{prefix}-{attempt}"
        candidate = node_id_for_address(address)
        if candidate in system.nodes:
            continue
        for url in system.managers:
            cid = channel_id(url)
            if system._anchor_key(candidate, cid) > system._anchor_index[url]:
                return address
    raise AssertionError("no takeover address found")


class TestAnchorIndex:
    """Regression tests for the add_node re-home path (anchor index)."""

    def test_join_takeover_transfers_state_exactly_once(
        self, running_system
    ):
        system, now = running_system
        address = _takeover_address(system)
        newcomer_id = node_id_for_address(address)
        expected_moves = {
            url
            for url in system.managers
            if system._anchor_key(newcomer_id, channel_id(url))
            > system._anchor_index[url]
        }
        before = {
            url: (
                system.managers[url],
                system.nodes[system.managers[url]].registry.count(url),
            )
            for url in expected_moves
        }
        joins_before = system.counters.joins
        rehomed_before = system.counters.rehomed_channels
        joined = system.add_node(address, now=now)
        assert joined == newcomer_id
        for url, (old_manager, count) in before.items():
            # Exactly-once transfer: the newcomer holds every
            # subscription, the previous manager none.
            assert system.managers[url] == joined
            assert system.nodes[joined].registry.count(url) == count
            assert system.nodes[old_manager].registry.count(url) == 0
            assert url not in system.nodes[old_manager].managed
        # ...and only the channels the newcomer actually anchors moved.
        for url, manager in system.managers.items():
            if url not in expected_moves:
                assert manager != joined
        assert system.counters.joins == joins_before + 1
        assert (
            system.counters.rehomed_channels
            == rehomed_before + len(expected_moves)
        )

    def test_anchor_index_tracks_every_manager(self, running_system):
        """The index always mirrors managers and their true anchor keys."""
        system, now = running_system
        system.join_nodes(4, now=now)
        system.crash_nodes(4, now=now)
        assert set(system._anchor_index) >= set(system.managers)
        for url, manager in system.managers.items():
            cid = channel_id(url)
            assert system._anchor_index[url] == system._anchor_key(
                manager, cid
            )
            assert manager == system.overlay.anchor_of(cid)


class TestReplicaStandIn:
    """`fail_node` sources orphan state from the dying node's registry.

    In a real deployment the new owner would fetch the subscription
    set from the f surviving ring replicas (§3.3).  The synchronous
    container's registries are replicated-by-construction — every
    would-be replica holds an identical copy — so exporting from the
    dying node is observationally equivalent, and subscriber counts
    must survive any manager-targeted crash wave intact.
    """

    def test_manager_crash_wave_keeps_subscriber_counts(
        self, running_system
    ):
        system, now = running_system
        counts_before = {
            url: system.nodes[manager].registry.count(url)
            for url, manager in system.managers.items()
        }
        total_before = sum(counts_before.values())
        victims = system.crash_nodes(
            len(system.manager_nodes()), now=now, target="managers"
        )
        assert victims  # the wave actually hit managers
        for url, manager in system.managers.items():
            assert manager in system.nodes
            assert (
                system.nodes[manager].registry.count(url)
                == counts_before[url]
            )
        total_after = sum(
            node.registry.total_subscriptions()
            for node in system.nodes.values()
        )
        assert total_after == total_before

    def test_batched_wave_rehomes_channels_once(self, running_system):
        """A wave killing successive anchors transfers each channel once."""
        system, now = running_system
        managed_urls = set(system.managers)
        rehomed_before = system.counters.rehomed_channels
        rehomed = system._fail_wave(
            sorted(system.manager_nodes(), key=lambda n: n.value), now=now
        )
        # Every channel had its manager killed → re-homed exactly once.
        assert rehomed == len(managed_urls)
        assert (
            system.counters.rehomed_channels == rehomed_before + rehomed
        )


class TestTargetPoolsAtScale:
    """crash_nodes pool selection at the churn-scale-sweep population."""

    @pytest.fixture(scope="class")
    def big_system(self, request):
        config = CoronaConfig(
            polling_interval=300.0,
            maintenance_interval=600.0,
            base=4,
            scheme="lite",
        )
        farm = WebServerFarm(seed=77)
        system = CoronaSystem(
            n_nodes=512, config=config, fetcher=farm, seed=77
        )
        client = 0
        for rank in range(64):
            url = f"http://scale{rank}.example/rss"
            farm.host(url, update_interval=300.0, target_bytes=400)
            for _ in range(4):
                system.subscribe(url, f"client-{client}", now=0.0)
                client += 1
        return system

    def test_manager_pool_selection_at_scale(self, big_system):
        managers = big_system.manager_nodes()
        victims = big_system.crash_nodes(16, now=1.0, target="managers")
        assert len(victims) == 16
        assert set(victims) <= managers
        registered = sum(
            big_system.nodes[manager].registry.count(url)
            for url, manager in big_system.managers.items()
        )
        assert registered == 256  # 64 channels x 4 subscribers

    def test_bystander_pool_selection_at_scale(self, big_system):
        managers = big_system.manager_nodes()
        rehomed_before = big_system.counters.rehomed_channels
        victims = big_system.crash_nodes(32, now=2.0, target="bystanders")
        assert len(victims) == 32
        assert not set(victims) & managers
        assert big_system.counters.rehomed_channels == rehomed_before


class TestNotifierSurvivesChurn:
    """Every node is built through ``CoronaSystem._new_node``, so a
    channel re-homed to a joiner or a recovered node keeps telling its
    subscribers about updates."""

    @pytest.fixture()
    def notified_system(self, fast_config, small_farm):
        calls = []
        system = CoronaSystem(
            n_nodes=40,
            config=fast_config,
            fetcher=small_farm,
            seed=51,
            notifier=lambda url, subscribers, diff, now: calls.append(
                (url, frozenset(subscribers))
            ),
        )
        for rank in range(10):
            for index in range(3):
                system.subscribe(
                    f"http://feed{rank}.example/rss", f"c{rank}-{index}"
                )
        return system, calls

    def test_channel_rehomed_to_a_joiner_still_notifies(
        self, notified_system, small_farm
    ):
        system, calls = notified_system
        now = _drive(system, small_farm, 0.0, steps=8)
        joined = system.add_node(_takeover_address(system), now=now)
        taken = _managed_by(system, joined)
        assert taken
        del calls[:]
        _drive(system, small_farm, now)
        assert _managed_by(system, joined) == taken
        notified = {url: clients for url, clients in calls if url in taken}
        assert set(notified) == taken
        for url, clients in notified.items():
            rank = url.removeprefix("http://feed").split(".")[0]
            assert clients == {f"c{rank}-{index}" for index in range(3)}

    def test_channel_rehomed_to_a_recovered_manager_still_notifies(
        self, notified_system, small_farm
    ):
        system, calls = notified_system
        now = _drive(system, small_farm, 0.0, steps=8)
        (victim,) = system.crash_nodes(1, now=now, target="managers")
        assert not _managed_by(system, victim)
        assert system.recover_nodes(1, now=now) == [victim]
        owned = _managed_by(system, victim)
        assert owned
        del calls[:]
        _drive(system, small_farm, now)
        assert owned <= {url for url, _ in calls}

    def test_without_a_notifier_joiners_get_none(self, running_system):
        """The scenario runner's case: nothing to call, before or after
        a join (``ci/baselines`` are recorded this way)."""
        system, now = running_system
        (joined,) = system.join_nodes(1, now=now)
        assert system.nodes[joined].notifier is None


class TestWedgePlanMemo:
    """Flood plans are memoised per overlay epoch: after every kind of
    routing-table write a plan served from the memo is a fresh one."""

    @staticmethod
    def _keys(system):
        """Level-0..2 floods from every manager and a few detectors."""
        roots = list(dict.fromkeys(system.managers.values()))
        roots += system.overlay.node_ids()[:5]
        cids = [channel_id(url) for url in sorted(system.managers)]
        return [
            (root, cid, level)
            for root in roots for cid in cids[:4] for level in range(3)
        ]

    @staticmethod
    def _assert_current(system, keys):
        tables = system.overlay.routing_tables()
        for root, cid, level in keys:
            if root not in system.overlay.nodes:
                continue
            fresh = wedge_recipients(
                root, tables, cid, level, system.config.base
            )
            assert system._wedge_plan(root, cid, level) == fresh
        for (root, cid, level), plan in system._plans.items():
            assert plan == wedge_recipients(
                root, tables, cid, level, system.config.base
            )

    def _prime(self, system):
        keys = self._keys(system)
        self._assert_current(system, keys)
        assert system._plans_epoch == system.overlay.epoch
        return keys, system.overlay.epoch

    def test_cached_plans_follow_joins_crashes_and_forgotten_contacts(
        self, running_system, small_farm
    ):
        system, now = running_system
        assert system._plans  # the warm-up floods went through the memo
        keys, epoch = self._prime(system)

        system.join_nodes(3, now=now)
        assert system.overlay.epoch > epoch
        self._assert_current(system, keys)
        now = _drive(system, small_farm, now, steps=4)

        keys, epoch = self._prime(system)
        system.crash_nodes(3, now=now)
        assert system.overlay.epoch > epoch
        self._assert_current(system, keys)

        # A silent failure leaves stale contacts behind (no repair);
        # the route that stumbles on one forgets it.
        overlay = system.overlay
        start = overlay.nodes[overlay.node_ids()[0]]
        victim = start.leaves.members()[0]
        overlay._drop_from_index(victim)
        keys, epoch = self._prime(system)
        overlay.route(start.node_id, victim)
        assert victim not in start.leaves.members()
        assert overlay.epoch > epoch
        self._assert_current(system, keys)

    def test_a_plan_is_computed_once_per_epoch(self, running_system):
        system, _now = running_system
        key = self._keys(system)[0]
        first = system._wedge_plan(*key)
        assert system._wedge_plan(*key) is first
        system.overlay.epoch += 1
        again = system._wedge_plan(*key)
        assert again is not first and again == first
