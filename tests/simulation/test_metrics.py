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

    def test_empty_series_yields_empty_arrays(self):
        series = TimeSeries(bucket_width=5.0)
        assert series.times().size == 0
        assert series.means().size == 0
        assert series.sums().size == 0

    def test_boundary_time_opens_the_next_bucket(self):
        series = TimeSeries(bucket_width=10.0)
        series.add(10.0, 1.0)
        assert list(series.times()) == [15.0]

    def test_buckets_ascend_and_skip_gaps(self):
        """Out-of-order additions come back in time order, and empty
        buckets are absent rather than zero."""
        series = TimeSeries(bucket_width=10.0)
        series.add(45.0, 3.0)
        series.add(5.0, 1.0)
        assert list(series.times()) == [5.0, 45.0]
        assert list(series.sums()) == [1.0, 3.0]
