"""The bucketed time series the event-driven experiments collate.

Figures 9 and 10 (and every scenario's load and detection series) are
values binned by experiment time: polls summed per bucket, detection
delays averaged per bucket.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class TimeSeries:
    """Bucketed time series: values accumulated into fixed-width bins."""

    bucket_width: float
    _sums: dict[int, float] = field(default_factory=dict, init=False)
    _counts: dict[int, int] = field(default_factory=dict, init=False)

    def __post_init__(self) -> None:
        if self.bucket_width <= 0:
            raise ValueError("bucket width must be positive")

    def add(self, time: float, value: float) -> None:
        """Accumulate ``value`` into the bucket containing ``time``."""
        bucket = int(time // self.bucket_width)
        self._sums[bucket] = self._sums.get(bucket, 0.0) + value
        self._counts[bucket] = self._counts.get(bucket, 0) + 1

    # ------------------------------------------------------------------
    def times(self) -> np.ndarray:
        """Bucket mid-point times, ascending."""
        buckets = sorted(self._sums)
        return np.array(
            [(b + 0.5) * self.bucket_width for b in buckets], dtype=np.float64
        )

    def means(self) -> np.ndarray:
        """Per-bucket mean value."""
        buckets = sorted(self._sums)
        return np.array(
            [self._sums[b] / self._counts[b] for b in buckets],
            dtype=np.float64,
        )

    def sums(self) -> np.ndarray:
        """Per-bucket total."""
        buckets = sorted(self._sums)
        return np.array([self._sums[b] for b in buckets], dtype=np.float64)
