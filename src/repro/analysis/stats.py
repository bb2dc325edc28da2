"""Summary statistics for experiment results."""

from __future__ import annotations

import numpy as np


def steady_state_mean(series: np.ndarray, tail_fraction: float = 0.5) -> float:
    """Mean of the trailing ``tail_fraction`` of a time series.

    The paper's headline numbers (64 s deployment detection time,
    Table 2's averages) describe the converged system, not the ramp-up
    transient; taking the tail of the bucketed series extracts that.
    NaN buckets (no events) are ignored.
    """
    if not 0 < tail_fraction <= 1:
        raise ValueError("tail_fraction must be in (0, 1]")
    values = np.asarray(series, dtype=np.float64)
    if values.size == 0:
        return float("nan")
    start = int(np.floor(values.size * (1 - tail_fraction)))
    tail = values[start:]
    if np.all(np.isnan(tail)):
        return float("nan")
    return float(np.nanmean(tail))


def improvement_factor(baseline: float, measured: float) -> float:
    """How many times better ``measured`` is than ``baseline``.

    The paper speaks in "orders of magnitude improvement"; this is the
    ratio those claims are checked against.
    """
    if measured <= 0:
        return float("inf")
    return baseline / measured


def rank_correlation(a: np.ndarray, b: np.ndarray) -> float:
    """Spearman rank correlation (no scipy dependency needed).

    Used to verify ordering claims: e.g. Corona-Fair's detection times
    should correlate with update intervals (Figure 7's 'better
    distribution').
    """
    x = np.asarray(a, dtype=np.float64)
    y = np.asarray(b, dtype=np.float64)
    mask = ~(np.isnan(x) | np.isnan(y))
    x, y = x[mask], y[mask]
    if x.size < 3:
        return float("nan")
    rx = np.argsort(np.argsort(x)).astype(np.float64)
    ry = np.argsort(np.argsort(y)).astype(np.float64)
    rx -= rx.mean()
    ry -= ry.mean()
    denominator = np.sqrt((rx**2).sum() * (ry**2).sum())
    if denominator == 0:
        return float("nan")
    return float((rx * ry).sum() / denominator)
