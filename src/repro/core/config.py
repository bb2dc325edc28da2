"""System-wide Corona configuration.

One immutable object carries every parameter the paper names: the
polling and maintenance intervals, the overlay base, the replication
factor, the tradeoff-bin count, and the optimization scheme with its
target.  Defaults follow the paper's implementation section (§4:
base 16, 16 tradeoff bins) and evaluation section (§5.1: 30-minute
polling, one-hour maintenance).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CoronaConfig:
    """Knobs of a Corona deployment.

    Parameters
    ----------
    polling_interval:
        τ, seconds between two polls of the same channel by one node
        (1800 s in the simulations, §5.1).
    maintenance_interval:
        Seconds between maintenance phases — level changes propagate
        one DAG step per phase (3600 s in the simulations).
    base:
        Digit base ``b`` of the structured overlay (16, §4).
    tradeoff_bins:
        Clusters kept per polling level during aggregation (16, §4).
    replicas:
        Owner replication factor ``f`` — subscription state lives on
        the primary owner and its ``f−1`` ring neighbours (§3.3).
    scheme:
        Name of the optimization scheme: ``"lite"``, ``"fast"``,
        ``"fair"``, ``"fair-sqrt"`` or ``"fair-log"``.
    latency_target:
        Corona-Fast's per-subscription average detection-time target
        ``T`` in seconds (30 s in §5.1's experiments).
    load_metric:
        ``"polls"`` charges g_i(l) = wedge polls per τ (Table 2's
        "polls per 30 min per channel"); ``"bandwidth"`` weighs polls
        by content size s_i (Figure 3's kbps view).
    min_update_interval / max_update_interval:
        Clamps for the owner's update-interval estimator; the survey
        caps unchanged feeds at one week (§5.1).
    im_rate_limit:
        Maximum notifications per second sent to one client, mirroring
        the Yahoo rate limit the implementation works around (§4).
    orphan_target_correction:
        Apply the slack-cluster target correction of §4 (subtract the
        fixed cost/latency of orphan channels from the optimization
        budget).  Disabled only by the ablation benchmark: without the
        correction, Corona-Fast's latency budget absorbs the orphans'
        unfixable 900 s and the optimizer overspends chasing an
        unreachable target.
    """

    polling_interval: float = 1800.0
    maintenance_interval: float = 3600.0
    base: int = 16
    tradeoff_bins: int = 16
    replicas: int = 3
    scheme: str = "lite"
    latency_target: float = 30.0
    load_metric: str = "polls"
    min_update_interval: float = 60.0
    max_update_interval: float = 7 * 24 * 3600.0
    im_rate_limit: float = 5.0
    orphan_target_correction: bool = True

    def __post_init__(self) -> None:
        if self.polling_interval <= 0:
            raise ValueError("polling_interval must be positive")
        if self.maintenance_interval <= 0:
            raise ValueError("maintenance_interval must be positive")
        if self.base < 2:
            raise ValueError("overlay base must be >= 2")
        if self.tradeoff_bins < 1:
            raise ValueError("tradeoff_bins must be >= 1")
        if self.replicas < 1:
            raise ValueError("replicas must be >= 1")
        if self.scheme not in SCHEME_NAMES:
            raise ValueError(
                f"unknown scheme {self.scheme!r}; pick one of {SCHEME_NAMES}"
            )
        if self.latency_target <= 0:
            raise ValueError("latency_target must be positive")
        if self.load_metric not in ("polls", "bandwidth"):
            raise ValueError("load_metric must be 'polls' or 'bandwidth'")
        if not 0 < self.min_update_interval <= self.max_update_interval:
            raise ValueError("update-interval clamps are inconsistent")


#: The five optimization schemes of Table 1.
SCHEME_NAMES = ("lite", "fast", "fair", "fair-sqrt", "fair-log")
