"""Full workload traces."""

import numpy as np
import pytest

from repro.workload.trace import generate_trace
from tests.workload.conftest import fit_zipf_exponent


class TestGeneration:
    def test_basic_shape(self, tiny_trace):
        assert tiny_trace.n_channels == 200
        assert tiny_trace.total_subscriptions == 5000
        tiny_trace.validate()

    def test_popularity_follows_zipf(self):
        trace = generate_trace(n_channels=2000, n_subscriptions=200_000, seed=3)
        fitted = fit_zipf_exponent(trace.subscribers)
        assert 0.35 < fitted < 0.65

    def test_urls_unique(self, tiny_trace):
        assert len(set(tiny_trace.urls)) == tiny_trace.n_channels

    def test_events_generated_with_window(self):
        trace = generate_trace(
            n_channels=50, n_subscriptions=500, seed=4,
            subscription_window=3600.0,
        )
        assert len(trace.events) == 500
        times = [event[0] for event in trace.events]
        assert times == sorted(times)
        assert 0 <= min(times) and max(times) <= 3600.0
        clients = {event[1] for event in trace.events}
        assert len(clients) == 500  # one subscription per client here

    def test_no_events_without_window(self, tiny_trace):
        assert tiny_trace.events == []

    def test_reproducible(self):
        a = generate_trace(n_channels=30, n_subscriptions=100, seed=9)
        b = generate_trace(n_channels=30, n_subscriptions=100, seed=9)
        assert (a.subscribers == b.subscribers).all()
        assert (a.update_intervals == b.update_intervals).all()

    def test_validation(self):
        with pytest.raises(ValueError):
            generate_trace(n_channels=0, n_subscriptions=10)
        with pytest.raises(ValueError):
            generate_trace(n_channels=10, n_subscriptions=-1)
        with pytest.raises(ValueError):
            generate_trace(10, 10, update_interval_scale=0.0)
        with pytest.raises(ValueError):
            generate_trace(10, 10, content_size_scale=-1.0)

    def test_update_interval_scale(self):
        base = generate_trace(n_channels=50, n_subscriptions=100, seed=2)
        scaled = generate_trace(
            n_channels=50, n_subscriptions=100, seed=2,
            update_interval_scale=0.1,
        )
        assert np.allclose(
            scaled.update_intervals, base.update_intervals * 0.1
        )

    def test_content_size_scale_stays_positive(self):
        scaled = generate_trace(
            n_channels=50, n_subscriptions=100, seed=2,
            content_size_scale=1e-9,
        )
        assert (scaled.content_sizes >= 1.0).all()

    def test_validate_catches_corruption(self, tiny_trace):
        import dataclasses

        broken = dataclasses.replace(
            tiny_trace, update_intervals=tiny_trace.update_intervals[:-1]
        )
        with pytest.raises(ValueError):
            broken.validate()
