"""The survey distributions must reproduce the paper's quoted quantiles."""

import numpy as np
import pytest

from repro.workload.rss_survey import (
    HOUR,
    MIN_INTERVAL,
    WEEK,
    SurveyDistributions,
)


class TestUpdateIntervals:
    def test_quoted_quantiles(self):
        """'about 10% of channels change within an hour, while 50% of
        channels did not change at all during 5 days' (§5)."""
        survey = SurveyDistributions(seed=1)
        intervals = survey.update_intervals(50_000)
        assert (intervals <= HOUR).mean() == pytest.approx(0.10, abs=0.01)
        assert (intervals >= WEEK).mean() == pytest.approx(0.50, abs=0.01)

    def test_range_bounds(self):
        survey = SurveyDistributions(seed=2)
        intervals = survey.update_intervals(10_000)
        assert intervals.min() >= MIN_INTERVAL
        assert intervals.max() <= WEEK

    def test_changing_mass_spread_between_hour_and_five_days(self):
        survey = SurveyDistributions(seed=3)
        intervals = survey.update_intervals(50_000)
        mid = ((intervals > HOUR) & (intervals < WEEK)).mean()
        assert mid == pytest.approx(0.40, abs=0.02)

    def test_reproducible(self):
        a = SurveyDistributions(seed=7).update_intervals(100)
        b = SurveyDistributions(seed=7).update_intervals(100)
        assert (a == b).all()

    def test_validation(self):
        with pytest.raises(ValueError):
            SurveyDistributions().update_intervals(0)


class TestSizes:
    def test_content_sizes_plausible(self):
        survey = SurveyDistributions(seed=4)
        sizes = survey.content_sizes(10_000)
        assert sizes.min() >= 512
        assert sizes.max() <= 512 * 1024
        # Median near the ~8 KiB the survey describes.
        assert 4000 < np.median(sizes) < 16000
