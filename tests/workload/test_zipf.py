"""Zipf popularity: masses, subscriber counts, the fitted exponent."""

import numpy as np
import pytest

from repro.workload.zipf import subscription_counts, zipf_popularity
from tests.workload.conftest import fit_zipf_exponent


class TestPopularity:
    def test_normalized(self):
        masses = zipf_popularity(1000, 0.5)
        assert masses.sum() == pytest.approx(1.0)
        assert (masses > 0).all()

    def test_monotone_decreasing(self):
        masses = zipf_popularity(100, 0.5)
        assert (np.diff(masses) <= 0).all()

    def test_exponent_zero_is_uniform(self):
        masses = zipf_popularity(10, 0.0)
        assert np.allclose(masses, 0.1)

    def test_exponent_one_halves_the_second_rank(self):
        masses = zipf_popularity(4, 1.0)
        assert masses[0] / masses[1] == pytest.approx(2.0)
        assert masses[0] / masses[3] == pytest.approx(4.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            zipf_popularity(0)
        with pytest.raises(ValueError):
            zipf_popularity(10, -0.5)


class TestSampling:
    def test_counts_sum_to_subscriptions(self):
        counts = subscription_counts(10000, 300, rng=np.random.default_rng(3))
        assert counts.sum() == 10000


class TestFitting:
    def test_recovers_survey_exponent(self):
        """Generated workloads must reproduce the survey's Zipf(0.5)."""
        counts = subscription_counts(
            1_000_000, 5000, exponent=0.5, rng=np.random.default_rng(4)
        )
        fitted = fit_zipf_exponent(counts)
        assert 0.4 < fitted < 0.6
