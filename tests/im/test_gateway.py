"""The Corona IM gateway: command handling and rate limiting."""

import pytest

from repro.im.gateway import ImGateway
from repro.im.messages import Notification
from repro.im.service import SimIMService


@pytest.fixture()
def gateway(monkeypatch) -> ImGateway:
    monkeypatch.setattr(ImGateway, "rate_limit", 2.0)
    monkeypatch.setattr(ImGateway, "burst", 2.0)
    service = SimIMService()
    gw = ImGateway(service=service)
    service.register("alice")
    service.connect("alice")
    return gw


def note(version: int) -> Notification:
    return Notification(
        url="http://x/f", version=version, summary=f"update {version}",
        detected_at=0.0,
    )


class TestCommands:
    def test_valid_command_returned(self, gateway):
        command = gateway.receive_chat("alice", "subscribe http://x/f")
        assert command is not None
        assert command.action == "subscribe"

    def test_junk_gets_help_reply(self, gateway):
        command = gateway.receive_chat("alice", "wibble wobble")
        assert command is None
        inbox = gateway.service.inbox("alice")
        assert inbox and "commands" in inbox[-1].body

    def test_help_request(self, gateway):
        assert gateway.receive_chat("alice", "help") is None
        assert gateway.service.inbox("alice")


class TestRateLimiting:
    def test_shipped_limit_is_a_burst_of_three_then_five_per_second(self):
        service = SimIMService()
        gateway = ImGateway(service=service)
        service.register("bob")
        service.connect("bob")
        sent = [gateway.notify("bob", note(v), now=0.0) for v in range(6)]
        assert sent == [True] * 3 + [False] * 3
        assert gateway.pump(now=0.4) == 2  # 0.4 s at 5 tokens/s
        assert gateway.pump(now=1.0) == 1  # the queue's last one
        assert len(service.inbox("bob")) == 6

    def test_burst_allowed_then_throttled(self, gateway):
        sent = [gateway.notify("alice", note(v), now=0.0) for v in range(5)]
        assert sent[:2] == [True, True]  # burst capacity
        assert sent[2:] == [False, False, False]
        assert len(gateway.service.inbox("alice")) == 2  # 3 queued

    def test_queue_drains_at_rate(self, gateway):
        for version in range(5):
            gateway.notify("alice", note(version), now=0.0)
        # Token capacity (burst=2) caps how much one pump can release.
        released = gateway.pump(now=1.5)
        assert released == 2
        released = gateway.pump(now=3.0)
        assert released == 1
        assert gateway.pump(now=100.0) == 0  # the queue is empty
        assert len(gateway.service.inbox("alice")) == 5

    def test_ordering_preserved(self, gateway):
        for version in range(5):
            gateway.notify("alice", note(version), now=0.0)
        gateway.pump(now=10.0)
        bodies = [m.body for m in gateway.service.inbox("alice")]
        versions = [int(b.split("v")[1].split(" ")[0]) for b in bodies]
        assert versions == sorted(versions)

    def test_no_bursts_after_queueing_starts(self, gateway):
        """Once a client has a queue, new messages join it rather than
        jumping ahead ('avoids sending updates in bursts', §4)."""
        for version in range(4):
            gateway.notify("alice", note(version), now=0.0)
        assert gateway.notify("alice", note(99), now=100.0) is False
        gateway.pump(now=100.0)
        gateway.pump(now=101.0)
        bodies = [m.body for m in gateway.service.inbox("alice")]
        assert "update 99" in bodies[-1]

    def test_every_notification_is_sent_or_queued(self, gateway):
        for version in range(4):
            gateway.notify("alice", note(version), now=0.0)
        assert len(gateway.service.inbox("alice")) == 2
        assert len(gateway._queues["alice"]) == 2
        gateway.pump(now=30.0)
        assert len(gateway.service.inbox("alice")) == 4
        assert "alice" not in gateway._queues
