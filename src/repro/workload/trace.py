"""Full subscription traces: channels, clients and their bindings.

A trace bundles everything a simulation run consumes: per-channel
factors drawn from the survey distributions, Zipf-distributed
subscriber counts, and (optionally) an explicit client-to-channel
binding with subscription times — the deployment experiment issues its
30 000 subscriptions at a uniform rate over the first hour (§5.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.workload.rss_survey import SurveyDistributions
from repro.workload.zipf import subscription_counts


@dataclass
class SubscriptionTrace:
    """One generated workload.

    Arrays are indexed by channel rank (0 = most popular).  The
    optional event list carries ``(time, client, channel_index)``
    subscription arrivals ordered by time.
    """

    urls: list[str]
    subscribers: np.ndarray  # q_i
    update_intervals: np.ndarray  # u_i seconds
    content_sizes: np.ndarray  # s_i bytes
    events: list[tuple[float, str, int]] = field(default_factory=list)

    @property
    def n_channels(self) -> int:
        return len(self.urls)

    @property
    def total_subscriptions(self) -> int:
        return int(self.subscribers.sum())

    def validate(self) -> None:
        """Internal consistency checks (used by tests)."""
        n = self.n_channels
        if not (
            len(self.subscribers)
            == len(self.update_intervals)
            == len(self.content_sizes)
            == n
        ):
            raise ValueError("trace arrays must align with urls")
        if (self.update_intervals <= 0).any():
            raise ValueError("update intervals must be positive")
        if (self.content_sizes <= 0).any():
            raise ValueError("content sizes must be positive")
        if (self.subscribers < 0).any():
            raise ValueError("subscriber counts cannot be negative")


def generate_trace(
    n_channels: int,
    n_subscriptions: int,
    zipf_exponent: float = 0.5,
    seed: int = 0,
    url_prefix: str = "http://feeds.example.org/channel",
    subscription_window: float = 0.0,
    exact_popularity: bool = False,
    update_interval_scale: float = 1.0,
    content_size_scale: float = 1.0,
    arrival: str = "uniform",
) -> SubscriptionTrace:
    """Generate a survey-parameterized workload.

    Parameters mirror the paper's two setups: the simulations use
    20 000 channels / 1 000 000 subscriptions issued all at once
    (``subscription_window=0``); the deployment uses 3 000 channels /
    30 000 subscriptions spread uniformly over the first hour
    (``subscription_window=3600``).

    ``update_interval_scale`` rescales the survey-drawn update
    intervals (scenarios use <1 to compress hours of feed behaviour
    into minutes of simulated time); ``content_size_scale`` rescales
    the survey-drawn document sizes (smaller feeds make the
    full-protocol diff path proportionally cheaper — scenario CI
    profiles use <1).  ``arrival`` shapes subscription
    times inside the window: ``"uniform"`` (the paper's deployment),
    ``"burst"`` (front-loaded — a flash crowd hitting at once) or
    ``"ramp"`` (back-loaded — interest building over the window).
    """
    if n_channels < 1:
        raise ValueError("need at least one channel")
    if n_subscriptions < 0:
        raise ValueError("subscription count cannot be negative")
    if update_interval_scale <= 0:
        raise ValueError("update_interval_scale must be positive")
    if content_size_scale <= 0:
        raise ValueError("content_size_scale must be positive")
    if arrival not in ("uniform", "burst", "ramp"):
        raise ValueError("arrival must be 'uniform', 'burst' or 'ramp'")
    rng = np.random.default_rng(seed)
    survey = SurveyDistributions(seed=seed + 1)

    urls = [f"{url_prefix}/{index}.rss" for index in range(n_channels)]
    subscribers = subscription_counts(
        n_subscriptions,
        n_channels,
        exponent=zipf_exponent,
        rng=rng,
        exact=exact_popularity,
    )
    trace = SubscriptionTrace(
        urls=urls,
        subscribers=subscribers,
        update_intervals=survey.update_intervals(n_channels)
        * update_interval_scale,
        content_sizes=np.maximum(
            1.0, survey.content_sizes(n_channels) * content_size_scale
        ),
    )
    if subscription_window > 0:
        quantiles = rng.uniform(0.0, 1.0, trace.total_subscriptions)
        if arrival == "burst":
            # i.i.d. shaped draws, deliberately *unsorted*: times are
            # assigned to subscriptions in channel-rank order below, so
            # sorting would hand popular channels the early slice and
            # invert the shape for unpopular ones.
            times = subscription_window * quantiles**2  # mass early
        elif arrival == "ramp":
            times = subscription_window * quantiles**0.5  # mass late
        else:
            # Sorted uniform, kept bit-compatible with the seed
            # experiments.  Note the contiguous assignment below then
            # gives popular channels the earlier arrivals; the overall
            # arrival process (what the deployment experiment
            # measures) is unaffected.
            times = np.sort(subscription_window * quantiles)
        events: list[tuple[float, str, int]] = []
        cursor = 0
        for channel_index, count in enumerate(subscribers):
            for _ in range(int(count)):
                client = f"client-{cursor}"
                events.append((float(times[cursor]), client, channel_index))
                cursor += 1
        events.sort(key=lambda event: event[0])
        trace.events = events
    trace.validate()
    return trace
