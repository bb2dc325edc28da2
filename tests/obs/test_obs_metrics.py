"""Unit tests for the typed metrics registry (repro.obs.metrics)."""

from __future__ import annotations

import math

import pytest

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    CounterStruct,
    Histogram,
    MetricsRegistry,
)


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        c = Counter("polls", "total polls")
        assert c.value == 0
        c.inc()
        c.inc(4)
        assert c.value == 5
        assert c.collect() == 5

    def test_negative_increment_rejected(self):
        c = Counter("polls")
        with pytest.raises(ValueError, match="cannot decrease"):
            c.inc(-1)

    def test_labels_fan_out_memoized(self):
        c = Counter("msgs", labelnames=("kind",))
        a = c.labels(kind="diff")
        b = c.labels(kind="maint")
        a.inc(3)
        assert c.labels(kind="diff") is a
        assert a.value == 3 and b.value == 0

    def test_labels_must_match_declared_names(self):
        c = Counter("msgs", labelnames=("kind",))
        with pytest.raises(ValueError, match="expected labels"):
            c.labels(flavor="diff")


class TestHistogram:
    def test_bucketing_is_cumulative_with_inclusive_upper_bounds(self):
        h = Histogram("lat", buckets=(1.0, 10.0, 100.0))
        for value in (0.5, 1.0, 5.0, 10.0, 50.0, 1000.0):
            h.observe(value)
        # <=1: {0.5, 1.0}; (1,10]: {5, 10}; (10,100]: {50}; inf: {1000}
        assert h.bucket_counts == [2, 2, 1, 1]
        assert h.count == 6
        assert h.sum == pytest.approx(1066.5)
        assert h.min == 0.5 and h.max == 1000.0

    def test_boundary_value_lands_in_its_bucket(self):
        h = Histogram("lat", buckets=(1.0, 2.0))
        h.observe(1.0)  # exactly on the first bound: <= is inclusive
        assert h.bucket_counts == [1, 0, 0]

    def test_unsorted_bounds_are_sorted(self):
        h = Histogram("lat", buckets=(100.0, 1.0, 10.0))
        assert h.buckets == (1.0, 10.0, 100.0)

    def test_empty_bounds_rejected(self):
        with pytest.raises(ValueError, match="at least one bucket"):
            Histogram("lat", buckets=())

    def test_collect_shape_and_empty_minmax(self):
        h = Histogram("lat", buckets=(1.0,))
        snap = h.collect()
        assert snap == {
            "buckets": [1.0],
            "counts": [0, 0],
            "sum": 0.0,
            "count": 0,
            "min": None,
            "max": None,
        }
        h.observe(0.25)
        snap = h.collect()
        assert snap["min"] == 0.25 and snap["max"] == 0.25

    def test_labeled_children_share_bucket_bounds(self):
        h = Histogram("lat", labelnames=("phase",), buckets=(1.0, 2.0))
        child = h.labels(phase="repair")
        assert child.buckets == (1.0, 2.0)
        child.observe(1.5)
        assert h.labels(phase="repair").count == 1

    def test_default_buckets_span_micro_to_minutes(self):
        assert DEFAULT_BUCKETS[0] == pytest.approx(1e-6)
        assert DEFAULT_BUCKETS[-1] == pytest.approx(100.0)
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)


class _Work(CounterStruct):
    SERIES = (
        ("alpha", "test_work_alpha", "first test series"),
        ("beta", "test_work_beta", "second test series"),
    )


class TestCounterStruct:
    def test_properties_read_write_cells(self):
        work = _Work()
        work.alpha += 3
        work.beta = 7
        assert work.alpha == 3 and work.beta == 7
        assert work.as_dict() == {"alpha": 3, "beta": 7}

    def test_registration_exposes_series_by_registry_name(self):
        registry = MetricsRegistry()
        work = _Work(registry)
        work.alpha += 2
        assert registry.value("test_work_alpha") == 2
        assert registry.value("test_work_beta") == 0

    def test_reregistration_replaces_previous_series(self):
        registry = MetricsRegistry()
        old = _Work(registry)
        old.alpha += 9
        fresh = _Work(registry)
        assert registry.value("test_work_alpha") == 0
        fresh.alpha += 1
        assert registry.value("test_work_alpha") == 1
        # the replaced struct still works standalone
        assert old.alpha == 9

    def test_equality_compares_values(self):
        a, b = _Work(), _Work()
        assert a == b
        a.alpha += 1
        assert a != b
        assert (a == object()) is False or True  # NotImplemented path

    def test_repr_names_fields(self):
        work = _Work()
        work.alpha = 5
        assert repr(work) == "_Work(alpha=5, beta=0)"


class TestMetricsRegistry:
    def test_constructors_register_and_value_reads(self):
        registry = MetricsRegistry()
        c = registry.counter("polls", "total")
        c.inc(3)
        assert registry.value("polls") == 3
        assert registry.get("polls") is c
        assert registry.get("missing") is None

    def test_names_sorted(self):
        registry = MetricsRegistry()
        registry.counter("zeta")
        registry.counter("alpha")
        assert registry.names() == ["alpha", "zeta"]

    def test_value_of_unknown_name_raises(self):
        with pytest.raises(KeyError):
            MetricsRegistry().value("nope")

    def test_histogram_min_inf_never_leaks_into_collect(self):
        snap = MetricsRegistry().histogram("h", buckets=(1.0,)).collect()
        assert snap["min"] is None and snap["max"] is None
        assert not any(
            isinstance(v, float) and math.isinf(v)
            for v in (snap["sum"],)
        )


class TestHistogramQuantile:
    """quantile(): exact under the sample cap, interpolated past it."""

    def test_empty_returns_none(self):
        h = Histogram("lat", buckets=(1.0, 10.0), sample_cap=8)
        assert h.quantile(0.5) is None
        assert h.quantile(0.0) is None
        assert h.quantile(1.0) is None

    def test_out_of_range_q_rejected(self):
        h = Histogram("lat", buckets=(1.0,))
        for bad in (-0.1, 1.1, 2.0):
            with pytest.raises(ValueError, match="quantile"):
                h.quantile(bad)

    def test_single_sample_is_every_quantile(self):
        h = Histogram("lat", buckets=(1.0, 10.0), sample_cap=8)
        h.observe(3.5)
        for q in (0.0, 0.5, 0.95, 1.0):
            assert h.quantile(q) == 3.5

    def test_all_equal_samples(self):
        h = Histogram("lat", buckets=(1.0, 10.0), sample_cap=16)
        for _ in range(10):
            h.observe(7.0)
        for q in (0.0, 0.5, 0.99, 1.0):
            assert h.quantile(q) == 7.0

    def test_exact_under_cap_nearest_rank(self):
        h = Histogram("lat", buckets=(100.0,), sample_cap=100)
        for value in range(1, 101):  # 1..100
            h.observe(float(value))
        assert h.quantile(0.50) == 50.0
        assert h.quantile(0.95) == 95.0
        assert h.quantile(0.99) == 99.0
        assert h.quantile(1.0) == 100.0
        assert h.quantile(0.0) == 1.0

    def test_exact_path_unaffected_by_observation_order(self):
        a = Histogram("lat", buckets=(100.0,), sample_cap=10)
        b = Histogram("lat", buckets=(100.0,), sample_cap=10)
        values = [5.0, 1.0, 9.0, 3.0, 7.0]
        for value in values:
            a.observe(value)
        for value in reversed(values):
            b.observe(value)
        assert a.quantile(0.5) == b.quantile(0.5) == 5.0

    def test_cap_overflow_falls_back_to_interpolation(self):
        h = Histogram("lat", buckets=(10.0, 20.0, 40.0), sample_cap=4)
        for value in (2.0, 4.0, 12.0, 18.0, 30.0, 38.0):
            h.observe(value)
        assert len(h.samples) == 4 < h.count
        # Interpolated answers stay inside the observed envelope and
        # are monotone in q — the contract reports rely on.
        quantiles = [h.quantile(q) for q in (0.0, 0.25, 0.5, 0.75, 1.0)]
        assert all(2.0 <= value <= 38.0 for value in quantiles)
        assert quantiles == sorted(quantiles)
        assert h.quantile(1.0) == 38.0

    def test_interpolation_lands_inside_the_right_bucket(self):
        h = Histogram("lat", buckets=(10.0, 20.0), sample_cap=0)
        for _ in range(50):
            h.observe(5.0)   # first bucket
        for _ in range(50):
            h.observe(15.0)  # second bucket
        # p25 must come from (min, 10]; p75 from (10, 20].
        assert h.quantile(0.25) <= 10.0
        assert 10.0 <= h.quantile(0.75) <= 20.0

    def test_overflow_bucket_reports_observed_max(self):
        h = Histogram("lat", buckets=(1.0,), sample_cap=0)
        h.observe(500.0)
        h.observe(900.0)
        assert h.quantile(0.99) == 900.0

    def test_zero_cap_never_retains_samples(self):
        h = Histogram("lat", buckets=(1.0,))
        h.observe(0.5)
        assert h.samples == []

    def test_labeled_children_inherit_sample_cap(self):
        h = Histogram("lat", labelnames=("phase",), buckets=(1.0,),
                      sample_cap=3)
        child = h.labels(phase="poll")
        for value in (0.1, 0.2, 0.3, 0.4):
            child.observe(value)
        assert child.sample_cap == 3
        assert len(child.samples) == 3
