"""The wide-area latency model."""

import pytest

from repro.simulation.latency import LatencyModel, UniformLatency


class TestLatencyModel:
    def test_samples_above_floor(self):
        model = LatencyModel(seed=5)
        samples = [model.sample() for _ in range(1000)]
        assert min(samples) >= model.floor

    def test_median_near_target(self):
        model = LatencyModel(seed=6)
        samples = sorted(model.sample() for _ in range(5001))
        median = samples[2500]
        assert 0.04 < median < 0.16  # around the 80 ms target

    def test_path_additive(self):
        model = UniformLatency(delay=0.05)
        assert model.sample_path(4) == pytest.approx(0.2)

    def test_validation(self):
        with pytest.raises(ValueError):
            LatencyModel(floor=0.5, median=0.1)
        with pytest.raises(ValueError):
            LatencyModel().sample_path(-1)
        with pytest.raises(ValueError):
            LatencyModel(scale=0.0)
        with pytest.raises(ValueError):
            LatencyModel().degrade(-2.0)

    def test_degradation_scales_samples(self):
        base = LatencyModel(seed=7)
        degraded = LatencyModel(seed=7)
        degraded.degrade(10.0)
        assert degraded.sample() == pytest.approx(base.sample() * 10.0)

    def test_degradation_composes_and_inverts(self):
        model = LatencyModel(seed=8)
        model.degrade(10.0)
        model.degrade(4.0)
        assert model.scale == pytest.approx(40.0)
        # undoing one event leaves the other active (the scenario
        # runner relies on this for overlapping degradations)
        model.degrade(1.0 / 10.0)
        assert model.scale == pytest.approx(4.0)
        model.restore()
        assert model.scale == 1.0

    def test_token_scoped_restore_composes_overlapping_windows(self):
        """Each degrade() returns a token; restore(token) removes
        exactly that contribution and recomputes from the *true*
        baseline, so overlapping windows end in any order with no
        f * (1/f) float residue left behind."""
        model = LatencyModel(seed=8, scale=2.0)  # non-unit baseline
        first = model.degrade(3.0)
        second = model.degrade(7.0)
        assert model.scale == pytest.approx(42.0)
        model.restore(first)  # windows close out of open order
        assert model.scale == pytest.approx(14.0)
        model.restore(second)
        assert model.scale == 2.0  # exact baseline, not approx

    def test_restore_is_idempotent_per_token(self):
        model = LatencyModel(seed=8)
        token = model.degrade(10.0)
        model.restore(token)
        model.restore(token)  # double-close: no-op
        model.restore(999)  # unknown token: no-op
        assert model.scale == 1.0

    def test_bare_restore_clears_every_window(self):
        model = LatencyModel(seed=8, scale=0.5)
        model.degrade(10.0)
        model.degrade(4.0)
        model.restore()
        assert model.scale == 0.5
