"""Protocol failure handling under an active fault plane.

The acceptance contract of the fault subsystem's protocol side: under
sustained loss, per-hop retransmits recover most messages and the
anti-entropy repair pass (piggy-backed on maintenance rounds) brings
every wedge member to the latest content within one maintenance
interval of the last retransmit/repair round; partitions strand
members until they heal; duplicate deliveries are absorbed by the
§3.4 dedup; unresponsive managers fail over through the existing
crash-repair path with subscription state intact.
"""

from repro.core.system import CoronaSystem
from repro.faults import FaultPlane
from repro.simulation.webserver import WebServerFarm

URLS = [f"http://lossy{rank}.example/rss" for rank in range(6)]


def build(fast_config, plane, seed=19, n_nodes=32, update_interval=90.0):
    farm = WebServerFarm(seed=seed)
    for url in URLS:
        farm.host(url, update_interval=update_interval, target_bytes=400)
    system = CoronaSystem(
        n_nodes=n_nodes,
        config=fast_config,
        fetcher=farm,
        seed=seed,
        faults=plane,
    )
    client = 0
    for url in URLS:
        for _ in range(6):
            system.subscribe(url, f"c{client}", now=0.0)
            client += 1
    return system, farm


def drive(system, farm, steps, step_seconds=30.0, start=0.0):
    now = start
    for step in range(steps):
        now += step_seconds
        farm.advance_to(now)
        system.poll_due(now)
        if step % 4 == 3:  # maintenance every 120 s (fast_config)
            system.run_maintenance_round(now)
    return now


def wedge_convergence(system):
    """(stale members, checked members) against manager content."""
    stale = checked = 0
    for url, manager_id in system.managers.items():
        source = system.nodes[manager_id].scheduler.tasks.get(url)
        if source is None or not source.content.lines:
            continue
        for node_id, node in system.nodes.items():
            if node_id == manager_id:
                continue
            task = node.scheduler.tasks.get(url)
            if task is None or not task.content.lines:
                continue
            checked += 1
            if task.content.lines != source.content.lines:
                stale += 1
    return stale, checked


class TestLossyDissemination:
    def test_retransmit_and_repair_converge_under_5pct_loss(
        self, fast_config
    ):
        """The lossy-overlay acceptance criterion, at system level:
        after the last retransmit/repair round every subscribed
        wedge member holds the manager's latest content."""
        plane = FaultPlane(seed=23, loss_rate=0.05)
        system, farm = build(fast_config, plane)
        now = drive(system, farm, steps=40)
        assert plane.counters.messages_dropped > 0
        assert plane.counters.retransmissions > 0
        # Quiesce: one final maintenance round with no new updates
        # published (the repair pass's converging step), then check
        # every wedge cache against its manager.
        system.run_maintenance_round(now + 1.0)
        stale, checked = wedge_convergence(system)
        assert checked > 0
        assert stale == 0

    def test_loss_never_breaks_detection(self, fast_config):
        plane = FaultPlane(seed=23, loss_rate=0.05)
        lossy, lossy_farm = build(fast_config, plane)
        clean, clean_farm = build(fast_config, None)
        drive(lossy, lossy_farm, steps=40)
        drive(clean, clean_farm, steps=40)
        assert lossy.counters.detections > 0
        # Loss costs some detections/freshness but not the protocol:
        # the lossy cloud still detects the large majority of what the
        # clean one does.
        assert lossy.counters.detections >= clean.counters.detections * 0.7

    def test_duplicates_absorbed_by_dedup(self, fast_config):
        plane = FaultPlane(seed=29, duplicate_rate=0.3)
        system, farm = build(fast_config, plane)
        drive(system, farm, steps=32)
        assert plane.counters.messages_duplicated > 0
        # Duplicate diffs surface as redundant at managers, never as
        # double detections: every accepted version is unique.
        for node in system.nodes.values():
            for url, clock in node.clocks.items():
                assert clock.current >= 0  # clocks stayed monotone
        assert system.counters.detections <= farm.total_updates + len(URLS)


class TestPartitionedDissemination:
    def test_partition_strands_members_heal_recovers(self, fast_config):
        plane = FaultPlane(seed=31)
        system, farm = build(fast_config, plane, update_interval=60.0)
        now = drive(system, farm, steps=16)
        # Cut off a third of the cloud (not the managers' majority).
        managers = system.manager_nodes()
        bystanders = [
            node_id for node_id in system.nodes
            if node_id not in managers
        ]
        island = bystanders[: len(system.nodes) // 3]
        plane.partition("cut", members=island)
        now = drive(system, farm, steps=8, start=now)
        dropped_during = plane.counters.messages_dropped
        assert dropped_during > 0
        plane.heal("cut")
        # After the heal, one maintenance interval of repair suffices.
        now = drive(system, farm, steps=4, start=now)
        system.run_maintenance_round(now + 1.0)
        stale, checked = wedge_convergence(system)
        assert checked > 0
        assert stale == 0
        assert plane.counters.repair_diffs > 0

    def test_unresponsive_manager_fails_over_with_state(
        self, fast_config
    ):
        plane = FaultPlane(seed=37, manager_failure_rounds=2)
        system, farm = build(fast_config, plane)
        now = drive(system, farm, steps=8)
        registered_before = sum(
            system.nodes[manager].registry.count(url)
            for url, manager in system.managers.items()
        )
        # Isolate one manager entirely; its floods all die.
        victim = next(iter(system.manager_nodes()))
        victim_urls = list(system.nodes[victim].managed)
        plane.partition("blast", members=[victim])
        for round_index in range(4):
            now += 120.0
            farm.advance_to(now)
            system.run_maintenance_round(now)
            if victim not in system.nodes:
                break
        assert victim not in system.nodes  # declared dead
        assert plane.counters.manager_failovers >= 1
        # Its channels re-homed with subscriptions intact (§3.3).
        for url in victim_urls:
            new_manager = system.managers[url]
            assert new_manager != victim
            assert new_manager in system.nodes
        registered_after = sum(
            system.nodes[manager].registry.count(url)
            for url, manager in system.managers.items()
        )
        assert registered_after == registered_before

    def test_responsive_managers_never_fail_over(self, fast_config):
        plane = FaultPlane(seed=41, loss_rate=0.05)
        system, farm = build(fast_config, plane)
        drive(system, farm, steps=40)
        # 5% loss with a retry budget: floods keep reaching someone,
        # so the failure detector stays quiet.
        assert plane.counters.manager_failovers == 0


class TestFailedPolls:
    def test_server_isolation_surfaces_as_staleness(self, fast_config):
        plane = FaultPlane(seed=43)
        system, farm = build(fast_config, plane)
        # Let wedges form first, then cut polling bystanders off the
        # servers (managers stay reachable: no failover interference).
        now = drive(system, farm, steps=16)
        managers = system.manager_nodes()
        island = [
            node_id
            for node_id, node in system.nodes.items()
            if node_id not in managers and node.scheduler.tasks
        ][:8]
        assert island
        plane.partition(
            "dark", members=island, isolates_servers=True
        )
        drive(system, farm, steps=16, start=now)
        assert plane.counters.failed_polls > 0
        # Failed polls advance their schedule: no task is overdue by
        # more than one interval, and failure streaks are recorded.
        streaks = [
            task.consecutive_failures
            for node_id in island
            if node_id in system.nodes
            for task in system.nodes[node_id].scheduler.tasks.values()
        ]
        assert streaks and max(streaks) > 0

    def test_poll_failure_streak_resets_on_success(self, fast_config):
        plane = FaultPlane(seed=47)
        system, farm = build(fast_config, plane)
        now = drive(system, farm, steps=16)
        managers = system.manager_nodes()
        island = [
            node_id
            for node_id, node in system.nodes.items()
            if node_id not in managers and node.scheduler.tasks
        ][:8]
        plane.partition(
            "dark", members=island, isolates_servers=True
        )
        now = drive(system, farm, steps=8, start=now)
        plane.heal("dark")
        drive(system, farm, steps=8, start=now)
        for node_id in island:
            if node_id not in system.nodes:
                continue
            for task in system.nodes[node_id].scheduler.tasks.values():
                assert task.consecutive_failures == 0


class TestProtocolLoopCounters:
    def test_lossy_plane_counts_drops_and_retransmits(self):
        from repro.core.config import CoronaConfig
        from repro.simulation.deployment import ProtocolLoop
        from repro.simulation.latency import LatencyModel
        from repro.workload.trace import generate_trace

        trace = generate_trace(
            n_channels=20,
            n_subscriptions=200,
            seed=3,
            subscription_window=600.0,
            update_interval_scale=0.02,
        )
        config = CoronaConfig(
            polling_interval=300.0, maintenance_interval=600.0, base=4
        )
        farm = WebServerFarm(seed=4)
        for index, url in enumerate(trace.urls):
            farm.host(
                url,
                update_interval=float(trace.update_intervals[index]),
                target_bytes=int(trace.content_sizes[index]),
            )
        plane = FaultPlane(seed=9, loss_rate=0.05)
        system = CoronaSystem(
            n_nodes=16, config=config, fetcher=farm, seed=3, faults=plane
        )
        loop = ProtocolLoop(
            system, farm, trace, LatencyModel(seed=3), bucket_width=600.0
        )
        loop.run(horizon=3600.0, poll_tick=60.0)
        assert plane.counters.messages_dropped > 0
        assert plane.counters.retransmissions > 0
        assert loop.detections > 0
