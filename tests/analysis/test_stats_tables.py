"""Analysis helpers: statistics and table rendering."""

import numpy as np
import pytest

from repro.analysis.stats import (
    improvement_factor,
    rank_correlation,
    steady_state_mean,
)
from repro.analysis.tables import (
    format_scatter_summary,
    format_series,
    format_table,
)


class TestStats:
    def test_steady_state_mean_takes_tail(self):
        series = np.array([100.0, 100.0, 10.0, 10.0])
        assert steady_state_mean(series, tail_fraction=0.5) == 10.0

    def test_steady_state_ignores_nan(self):
        series = np.array([1.0, np.nan, 3.0, np.nan])
        assert steady_state_mean(series, 0.5) == 3.0

    def test_steady_state_empty(self):
        assert np.isnan(steady_state_mean(np.array([])))

    def test_steady_state_all_nan_tail(self):
        series = np.array([5.0, 5.0, np.nan, np.nan])
        assert np.isnan(steady_state_mean(series, 0.5))

    def test_steady_state_whole_series(self):
        series = np.array([1.0, 2.0, 3.0, 6.0])
        assert steady_state_mean(series, tail_fraction=1.0) == 3.0

    def test_steady_state_validation(self):
        with pytest.raises(ValueError):
            steady_state_mean(np.array([1.0]), tail_fraction=0.0)

    def test_improvement_factor(self):
        assert improvement_factor(900.0, 60.0) == 15.0
        assert improvement_factor(900.0, 0.0) == float("inf")

    def test_rank_correlation_perfect(self):
        x = np.arange(50, dtype=float)
        assert rank_correlation(x, x * 3 + 1) == pytest.approx(1.0)
        assert rank_correlation(x, -x) == pytest.approx(-1.0)

    def test_rank_correlation_handles_nan(self):
        x = np.array([1.0, 2.0, np.nan, 4.0, 5.0])
        y = np.array([2.0, 4.0, 6.0, 8.0, 10.0])
        assert rank_correlation(x, y) == pytest.approx(1.0)

    def test_rank_correlation_ignores_monotone_rescaling(self):
        rng = np.random.default_rng(5)
        x, y = rng.random(40), rng.random(40)
        assert rank_correlation(np.exp(x), y**3) == pytest.approx(
            rank_correlation(x, y)
        )

    def test_rank_correlation_too_few(self):
        assert np.isnan(rank_correlation(np.array([1.0]), np.array([2.0])))


class TestTables:
    def test_format_table_alignment(self):
        text = format_table(
            ["name", "value"],
            [["lite", 54.0], ["legacy", 900.0]],
            title="Table 2",
        )
        lines = text.splitlines()
        assert lines[0] == "Table 2"
        assert "name" in lines[1]
        assert "54.00" in text
        assert "900.00" in text

    def test_nan_rendered_as_dash(self):
        text = format_table(["x"], [[float("nan")]])
        assert "-" in text.splitlines()[-1]

    def test_format_series_hours(self):
        times = np.array([1800.0, 5400.0])
        text = format_series(
            times, {"corona": np.array([10.0, 5.0])}, unit="s"
        )
        assert "0.50" in text
        assert "1.50" in text
        assert "corona (s)" in text

    def test_scatter_summary_bands(self):
        ranks = np.arange(1000)
        values = np.linspace(1, 100, 1000)
        text = format_scatter_summary(
            ranks, {"pollers": values}, n_bands=4
        )
        assert "rank band" in text
        assert len(text.splitlines()) >= 5
