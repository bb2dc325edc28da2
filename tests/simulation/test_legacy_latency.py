"""The wide-area latency model."""

import pytest

from repro.simulation.latency import FLOOR, LatencyModel


class TestLatencyModel:
    def test_samples_above_floor(self):
        model = LatencyModel(seed=5)
        samples = [model.sample() for _ in range(1000)]
        assert min(samples) >= FLOOR

    def test_median_near_target(self):
        model = LatencyModel(seed=6)
        samples = sorted(model.sample() for _ in range(5001))
        median = samples[2500]
        assert 0.04 < median < 0.16  # around the 80 ms target

    def test_validation(self):
        with pytest.raises(ValueError):
            LatencyModel().degrade(-2.0)

    def test_degradation_scales_samples(self):
        base = LatencyModel(seed=7)
        degraded = LatencyModel(seed=7)
        degraded.degrade(10.0)
        assert degraded.sample() == pytest.approx(base.sample() * 10.0)

    def test_degradation_composes_and_inverts(self):
        model = LatencyModel(seed=8)
        tokens = [model.degrade(10.0), model.degrade(4.0)]
        assert model.scale == pytest.approx(40.0)
        # undoing one event leaves the other active (the scenario
        # runner relies on this for overlapping degradations)
        tokens.append(model.degrade(1.0 / 10.0))
        assert model.scale == pytest.approx(4.0)
        for token in tokens:
            model.restore(token)
        assert model.scale == 1.0

    def test_token_scoped_restore_composes_overlapping_windows(self):
        """Each degrade() returns a token; restore(token) removes
        exactly that contribution and recomputes from the unit
        baseline, so overlapping windows end in any order with no
        f * (1/f) float residue left behind."""
        model = LatencyModel(seed=8)
        first = model.degrade(3.0)
        second = model.degrade(7.0)
        assert model.scale == pytest.approx(21.0)
        model.restore(first)  # windows close out of open order
        assert model.scale == pytest.approx(7.0)
        model.restore(second)
        assert model.scale == 1.0  # exact baseline, not approx

    def test_restore_is_idempotent_per_token(self):
        model = LatencyModel(seed=8)
        token = model.degrade(10.0)
        model.restore(token)
        model.restore(token)  # double-close: no-op
        model.restore(999)  # unknown token: no-op
        assert model.scale == 1.0

    def test_tokens_are_never_reused(self):
        """A window opened after another closed gets a fresh token, so
        a late restore of the closed window cannot end the new one."""
        model = LatencyModel(seed=8)
        old = model.degrade(2.0)
        model.restore(old)
        new = model.degrade(3.0)
        assert new != old
        model.restore(old)
        assert model.scale == pytest.approx(3.0)
