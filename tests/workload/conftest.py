"""Shared helper: the Zipf-exponent fit the workload tests measure with."""

import numpy as np


def fit_zipf_exponent(counts) -> float:
    """Least-squares slope of log(count) vs log(rank), zeros excluded."""
    ordered = np.sort(np.asarray(counts, dtype=np.float64))[::-1]
    ordered = ordered[ordered > 0]
    log_rank = np.log(np.arange(1, ordered.size + 1, dtype=np.float64))
    slope, _intercept = np.polyfit(log_rank, np.log(ordered), deg=1)
    return float(-slope)
