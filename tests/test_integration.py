"""End-to-end integration: the full stack against every subsystem.

One scenario exercises the complete story the paper tells: users
subscribe over IM, the cloud optimizes polling, updates flow as diffs,
the rate-limited gateway notifies subscribers, churn happens, and the
system's accounting stays consistent throughout.
"""

import statistics

import pytest

from repro.core.config import CoronaConfig
from repro.core.system import CoronaSystem
from repro.diffengine.differ import Diff
from repro.im.gateway import ImGateway
from repro.im.messages import Notification
from repro.im.service import SimIMService
from repro.simulation.webserver import WebServerFarm


@pytest.fixture(scope="module")
def full_stack():
    farm = WebServerFarm(seed=33)
    urls = [f"http://integ{i}.example/feed.rss" for i in range(8)]
    for index, url in enumerate(urls):
        farm.host(url, update_interval=120.0 + 60.0 * index)

    service = SimIMService()
    gateway = ImGateway(service=service)

    def notifier(url, subscribers, diff: Diff, now: float) -> None:
        for client in subscribers:
            gateway.notify(
                client,
                Notification(
                    url=url, version=diff.new_version,
                    summary=diff.render(), detected_at=now,
                ),
                now,
            )

    config = CoronaConfig(
        polling_interval=60.0, maintenance_interval=120.0, base=4,
        scheme="lite",
    )
    corona = CoronaSystem(
        n_nodes=48, config=config, fetcher=farm, seed=44, notifier=notifier
    )

    # Users subscribe through the chat interface.
    clients = [f"user-{i}" for i in range(40)]
    for client in clients:
        service.register(client)
        service.connect(client)
    for index, client in enumerate(clients):
        url = urls[index % len(urls)]
        command = gateway.receive_chat(client, f"subscribe {url}")
        assert command is not None
        corona.subscribe(command.url, client, now=0.0)

    # Drive 45 simulated minutes with churn in the middle.
    now = 0.0
    for step in range(90):
        now += 30.0
        farm.advance_to(now)
        corona.poll_due(now)
        gateway.pump(now)
        if step % 4 == 3:
            corona.run_maintenance_round(now)
        if step == 45:
            managers = set(corona.managers.values())
            victim = next(
                node_id for node_id in corona.overlay.node_ids()
                if node_id in managers
            )
            corona.fail_node(victim, now=now)
    gateway.pump(now + 60.0)
    return corona, farm, service, gateway, urls, clients, now


class TestEndToEnd:
    def test_updates_flow_to_users(self, full_stack):
        corona, _farm, service, _gw, _urls, clients, _now = full_stack
        delivered = sum(len(service.inbox(c)) for c in clients)
        assert delivered > 0
        body = next(
            m.body for c in clients for m in service.inbox(c)
        )
        assert body.startswith("[corona] update")

    def test_detection_beats_single_reader(self, full_stack):
        corona, *_rest, = full_stack
        delays = [
            e.detected_at - e.published_at
            for e in corona.detections
            if e.published_at is not None
        ]
        assert delays
        assert statistics.mean(delays) < 60.0  # better than tau/2 + tick

    def test_poll_load_within_budget_envelope(self, full_stack):
        corona = full_stack[0]
        subs = sum(
            node.registry.total_subscriptions()
            for node in corona.nodes.values()
        )
        assert corona.total_poll_tasks() <= subs * 1.6

    def test_every_detection_was_notified(self, full_stack):
        """Conservation: each accepted update with subscribers produced
        at least that many notifications, delivered or still queued."""
        corona, _farm, service, gateway, _urls, clients, _now = full_stack
        expected = sum(
            event.subscribers for event in corona.detections
        )
        delivered = sum(
            message.body.startswith("[corona] update")
            for client in clients
            for message in service.inbox(client)
        )
        queued = sum(len(queue) for queue in gateway._queues.values())
        assert delivered + queued >= expected

    def test_diff_engine_filtered_noise(self, full_stack):
        """Polls vastly outnumber detections: volatile churn (every
        fetch changes bytes) never counts as an update."""
        corona, farm = full_stack[0], full_stack[1]
        assert corona.counters.polls > corona.counters.detections * 3

    def test_churn_left_state_consistent(self, full_stack):
        corona, _farm, _service, _gw, urls, clients, _now = full_stack
        for url in urls:
            manager = corona.managers[url]
            assert manager in corona.nodes
            assert corona.nodes[manager].managed.get(url) is not None
        total = sum(
            node.registry.total_subscriptions()
            for node in corona.nodes.values()
        )
        assert total == len(clients)

    def test_server_side_accounting_matches(self, full_stack):
        corona, farm = full_stack[0], full_stack[1]
        assert farm.total_polls == corona.counters.polls
