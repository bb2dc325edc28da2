"""The bucketed time series."""

import pytest

from repro.simulation.metrics import TimeSeries


class TestTimeSeries:
    def test_bucketing(self):
        series = TimeSeries(bucket_width=10.0)
        series.add(1.0, 4.0)
        series.add(9.0, 6.0)
        series.add(15.0, 10.0)
        assert list(series.times()) == [5.0, 15.0]
        assert list(series.means()) == [5.0, 10.0]
        assert list(series.sums()) == [10.0, 10.0]

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            TimeSeries(bucket_width=0.0)

    def test_len(self):
        series = TimeSeries(bucket_width=10.0)
        assert len(series) == 0
        series.add(5.0, 1.0)
        assert len(series) == 1
