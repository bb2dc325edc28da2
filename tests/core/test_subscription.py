"""Subscription registry and ownership state transfer."""

import pytest

from repro.core.subscription import SubscriptionRegistry


@pytest.fixture()
def registry() -> SubscriptionRegistry:
    reg = SubscriptionRegistry()
    reg.subscribe("http://a/", "alice")
    reg.subscribe("http://a/", "bob")
    reg.subscribe("http://b/", "alice")
    return reg


class TestBasics:
    def test_subscribe_idempotent(self, registry):
        assert not registry.subscribe("http://a/", "alice")
        assert registry.count("http://a/") == 2

    def test_unsubscribe(self, registry):
        assert registry.unsubscribe("http://a/", "alice")
        assert not registry.unsubscribe("http://a/", "alice")
        assert registry.count("http://a/") == 1

    def test_unsubscribe_unknown_channel(self, registry):
        assert not registry.unsubscribe("http://zzz/", "alice")

    def test_empty_channel_removed(self, registry):
        registry.unsubscribe("http://b/", "alice")
        assert "http://b/" not in registry.export_state()

    def test_empty_client_rejected(self, registry):
        with pytest.raises(ValueError):
            registry.subscribe("http://a/", "")

    def test_counts(self, registry):
        assert registry.total_subscriptions() == 3
        assert set(registry.export_state()) == {"http://a/", "http://b/"}
        assert registry.subscribers("http://a/") == frozenset(
            {"alice", "bob"}
        )


class TestStateTransfer:
    def test_export_import_roundtrip(self, registry):
        state = registry.export_state()
        replica = SubscriptionRegistry()
        replica.import_state(state)
        assert replica.subscribers("http://a/") == registry.subscribers(
            "http://a/"
        )
        assert replica.total_subscriptions() == 3

    def test_export_subset(self, registry):
        state = registry.export_state(["http://a/"])
        assert set(state) == {"http://a/"}

    def test_import_merges(self, registry):
        replica = SubscriptionRegistry()
        replica.subscribe("http://a/", "carol")
        replica.import_state(registry.export_state())
        assert replica.subscribers("http://a/") == frozenset(
            {"alice", "bob", "carol"}
        )

    def test_export_is_a_copy(self, registry):
        """Mutating exported state must not affect the registry —
        otherwise a failed transfer could corrupt the source owner."""
        state = registry.export_state()
        state["http://a/"].add("mallory")
        assert "mallory" not in registry.subscribers("http://a/")

    def test_erase_on_ownership_loss(self, registry):
        registry.erase("http://a/")
        assert registry.count("http://a/") == 0
        assert registry.count("http://b/") == 1
