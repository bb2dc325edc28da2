"""System-wide Corona configuration.

One immutable object carries the parameters the paper varies: the
polling and maintenance intervals, the overlay base, the tradeoff-bin
count, and the optimization scheme with its target.  Defaults follow
the paper's implementation section (§4: base 16, 16 tradeoff bins)
and evaluation section (§5.1: 30-minute polling, one-hour
maintenance).  What the paper fixes is a module constant.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Owner replication factor ``f`` — subscription state lives on the
#: primary owner and its ``f−1`` ring neighbours (§3.3).
REPLICAS = 3
#: Clamps for the owner's update-interval estimator; the survey caps
#: unchanged feeds at one week (§5.1).
MIN_UPDATE_INTERVAL = 60.0
MAX_UPDATE_INTERVAL = 7 * 24 * 3600.0


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
    scheme:
        Name of the optimization scheme: ``"lite"``, ``"fast"``,
        ``"fair"``, ``"fair-sqrt"`` or ``"fair-log"``.
    latency_target:
        Corona-Fast's per-subscription average detection-time target
        ``T`` in seconds (30 s in §5.1's experiments).
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
    scheme: str = "lite"
    latency_target: float = 30.0
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
        if self.scheme not in SCHEME_NAMES:
            raise ValueError(
                f"unknown scheme {self.scheme!r}; pick one of {SCHEME_NAMES}"
            )
        if self.latency_target <= 0:
            raise ValueError("latency_target must be positive")


#: The five optimization schemes of Table 1.
SCHEME_NAMES = ("lite", "fast", "fair", "fair-sqrt", "fair-log")
