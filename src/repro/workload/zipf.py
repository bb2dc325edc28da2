"""Zipf popularity.

Channel popularity in the Cornell workload "closely follows a Zipf
distribution with exponent 0.5" (§5); both the simulations and the
deployment issue subscriptions from that distribution.
"""

from __future__ import annotations

import numpy as np


def zipf_popularity(n_channels: int, exponent: float = 0.5) -> np.ndarray:
    """Normalized popularity masses ``p_k ∝ 1/k^exponent``.

    Index 0 is the most popular channel.
    """
    if n_channels < 1:
        raise ValueError("need at least one channel")
    if exponent < 0:
        raise ValueError("Zipf exponent must be non-negative")
    ranks = np.arange(1, n_channels + 1, dtype=np.float64)
    masses = ranks**-exponent
    return masses / masses.sum()


def subscription_counts(
    n_subscriptions: int,
    n_channels: int,
    exponent: float = 0.5,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Per-channel subscriber counts q_i for a Zipf workload.

    Counts are a multinomial draw, matching how independent clients
    would subscribe.
    """
    probabilities = zipf_popularity(n_channels, exponent)
    generator = rng or np.random.default_rng(0)
    return generator.multinomial(n_subscriptions, probabilities)
