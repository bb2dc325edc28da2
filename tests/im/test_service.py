"""Simulated IM service: presence, delivery, offline buffering."""

import pytest

from repro.im.service import SimIMService


@pytest.fixture()
def service() -> SimIMService:
    svc = SimIMService()
    for handle in ("corona", "alice", "bob"):
        svc.register(handle)
    return svc


class TestPresence:
    def test_unknown_handle_rejected(self, service):
        with pytest.raises(KeyError):
            service.connect("mallory")
        with pytest.raises(KeyError):
            service.send("corona", "mallory", "hi")
        with pytest.raises(KeyError):
            service.send("mallory", "alice", "hi")

    def test_empty_handle_rejected(self, service):
        with pytest.raises(ValueError):
            service.register("")


class TestDelivery:
    def test_online_delivery_with_latency(self, service):
        service.connect("corona")
        service.connect("alice")
        message = service.send("corona", "alice", "hello", now=10.0)
        assert message is not None
        assert message.delivered_at == 10.5
        assert service.inbox("alice")[0].body == "hello"

    def test_offline_messages_buffered(self, service):
        service.connect("corona")
        result = service.send("corona", "alice", "while away", now=1.0)
        assert result is None
        assert service.inbox("alice") == []
        delivered = service.connect("alice", now=2.0)
        assert [m.body for m in delivered] == ["while away"]

    def test_buffer_flushed_on_connect(self, service):
        """'the IM system buffers the update and delivers it when the
        subscriber subsequently joins' (§3.5)."""
        service.connect("corona")
        service.send("corona", "alice", "one", now=1.0)
        service.send("corona", "alice", "two", now=2.0)
        delivered = service.connect("alice", now=50.0)
        assert [m.body for m in delivered] == ["one", "two"]
        assert all(m.delivered_at == 50.0 for m in delivered)
        assert service.connect("alice", now=60.0) == []  # flushed once

    def test_log_records_all_deliveries(self, service):
        service.connect("corona")
        service.connect("bob")
        service.send("corona", "bob", "x", now=0.0)
        service.send("corona", "alice", "y", now=0.0)  # buffered
        assert len(service.log) == 1
        service.connect("alice", now=9.0)
        assert len(service.log) == 2

    def test_buffers_are_per_recipient(self, service):
        service.connect("corona")
        service.send("corona", "alice", "for alice", now=1.0)
        service.send("corona", "bob", "for bob", now=2.0)
        delivered = service.connect("bob", now=5.0)
        assert [m.body for m in delivered] == ["for bob"]
        delivered = service.connect("alice", now=6.0)
        assert [m.body for m in delivered] == ["for alice"]
