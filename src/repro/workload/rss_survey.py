"""The Cornell RSS survey's distributions, reconstructed.

The survey (Liu, Ramasubramanian, Sirer, IMC 2005 — the paper's [19])
polled ~100 000 feeds hourly for 84 hours and 1 000 feeds at 10-minute
granularity for 5 days.  The Corona paper quotes the facts the
evaluation depends on:

* "about 10 % of channels change within an hour, while 50 % of
  channels did not change at all during 5 days of polling" (§5);
  never-changing channels are assigned a **one-week** interval (§5.1);
* the average update is "17 lines of XML and 6.8 % of the content
  size" (§3.4);
* micronews documents are small — a few kilobytes to a few tens of
  kilobytes.

``SurveyDistributions`` realizes a maximum-entropy-style
reconstruction: a log-uniform update-interval distribution anchored at
the two quoted quantiles, a point mass at one week for the unchanged
half, and log-normal content sizes around ~8 KiB.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: One week in seconds — the interval assigned to never-changing feeds.
WEEK = 7 * 24 * 3600.0
HOUR = 3600.0

#: Quantile anchors quoted by the paper: P[u <= 1 h] = 0.10 and
#: P[u = 1 week] = 0.50 (feeds with no observed change in 5 days).
FRACTION_WITHIN_HOUR = 0.10
FRACTION_UNCHANGED = 0.50

#: Bounds of the changing feeds' intervals: the survey's 10-minute
#: resolution and its 5-day observation window.
MIN_INTERVAL = 600.0
MAX_CHANGING_INTERVAL = 5 * 24 * 3600.0


@dataclass
class SurveyDistributions:
    """Samplers for the survey's per-channel factors.

    Update intervals: with probability ``FRACTION_UNCHANGED`` a channel
    never changes (interval = one week); otherwise the interval is
    log-uniform between ``MIN_INTERVAL`` and ``MAX_CHANGING_INTERVAL``,
    with the lower decade weighted so that 10 % of *all* channels fall
    below one hour — matching both quoted quantiles exactly.
    """

    seed: int = 0

    def __post_init__(self) -> None:
        self.rng = np.random.default_rng(self.seed)

    # ------------------------------------------------------------------
    def update_intervals(self, n_channels: int) -> np.ndarray:
        """Draw per-channel update intervals u_i (seconds).

        Construction: 50 % point mass at one week; of the changing
        half, the log-uniform range [min, 1 h] receives 10 % of total
        mass and (1 h, 5 d] the remaining 40 %, reproducing the paper's
        two quantiles.
        """
        if n_channels < 1:
            raise ValueError("need at least one channel")
        u = self.rng.random(n_channels)
        intervals = np.empty(n_channels, dtype=np.float64)

        unchanged = u < FRACTION_UNCHANGED
        intervals[unchanged] = WEEK

        changing = ~unchanged
        # Rescale the remaining uniform mass to [0, 1).
        rescaled = (u[changing] - FRACTION_UNCHANGED) / (1 - FRACTION_UNCHANGED)
        fast_share = FRACTION_WITHIN_HOUR / (1 - FRACTION_UNCHANGED)
        fast = rescaled < fast_share
        # Log-uniform within each band.
        log_min, log_hour = np.log(MIN_INTERVAL), np.log(HOUR)
        log_max = np.log(MAX_CHANGING_INTERVAL)
        fast_pos = rescaled[fast] / fast_share
        slow_pos = (rescaled[~fast] - fast_share) / (1 - fast_share)
        changing_vals = np.empty(rescaled.size, dtype=np.float64)
        changing_vals[fast] = np.exp(log_min + fast_pos * (log_hour - log_min))
        changing_vals[~fast] = np.exp(
            log_hour + slow_pos * (log_max - log_hour)
        )
        intervals[changing] = changing_vals
        return intervals

    def content_sizes(self, n_channels: int) -> np.ndarray:
        """Draw per-channel content sizes s_i (bytes), log-normal ~8 KiB."""
        if n_channels < 1:
            raise ValueError("need at least one channel")
        sizes = self.rng.lognormal(mean=np.log(8192.0), sigma=0.75, size=n_channels)
        return np.clip(sizes, 512.0, 512 * 1024.0)
