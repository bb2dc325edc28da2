"""Per-update lifecycle provenance: publish → detect → deliver.

Corona's headline metric is *update detection time* — the staleness a
subscriber experiences between a channel changing and the notification
arriving.  PR 9's per-link network model made that computable end to
end (``TransmitOutcome.delay`` accumulates into
``DetectionEvent.path_delay`` along the wedge dissemination path);
this module reduces the per-update lifecycles into freshness
histograms with exact percentiles, plus a deterministic, seeded,
capped sample of exemplar lifecycle records for report rendering.

Latch contract (``tests/obs/test_obs_equivalence.py``): the tracker is
fed values the runner already computed — it draws only from its *own*
seeded generator (for the exemplar reservoir) and never touches
protocol state or the run's RNGs, so a tracked run is byte-identical
to an untracked one for every gated metric.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.obs.metrics import Histogram

__all__ = ["ProvenanceRecord", "ProvenanceTracker", "FRESHNESS_BUCKETS"]


#: Seconds-scale buckets for freshness/staleness distributions — the
#: paper's Fig. 4/9 x-axis range (seconds to tens of minutes).
FRESHNESS_BUCKETS: tuple[float, ...] = (
    1.0, 2.0, 5.0, 10.0, 20.0, 50.0,
    100.0, 200.0, 500.0, 1000.0, 2000.0, 5000.0,
)

#: Raw samples retained per component histogram: percentiles are exact
#: up to this many detections, bucket-interpolated beyond.
SAMPLE_CAP = 4096

#: Exemplar lifecycle records kept (seeded reservoir).
RECORD_CAP = 128

#: Component → histogram, in report order.
COMPONENTS = ("staleness", "path_delay", "delivery", "freshness")


@dataclass(frozen=True)
class ProvenanceRecord:
    """One update's lifecycle, publish through subscriber delivery."""

    url: str
    version: int
    published_at: float
    detected_at: float
    #: Server-side staleness: publish → the poll that saw the change.
    staleness: float
    #: Link delay charged along the detector → manager diff path.
    path_delay: float
    #: Manager → subscriber notification latency (incl. jitter).
    delivery: float
    #: End-to-end freshness: staleness + path_delay + delivery.
    freshness: float
    subscribers: int
    detector: str | None
    #: Wedge fan-out of the dissemination plan that carried the diff.
    fanout: int

    def to_dict(self) -> dict:
        return {
            "url": self.url,
            "version": self.version,
            "published_at": self.published_at,
            "detected_at": self.detected_at,
            "staleness": self.staleness,
            "path_delay": self.path_delay,
            "delivery": self.delivery,
            "freshness": self.freshness,
            "subscribers": self.subscribers,
            "detector": self.detector,
            "fanout": self.fanout,
        }


class ProvenanceTracker:
    """Reduce update lifecycles into component freshness histograms.

    The tracker owns its generator (string-seeded, so the reservoir is
    stable across processes and never entangled with the run's RNGs)
    and four :class:`Histogram` components with raw-sample retention,
    so :meth:`percentiles` is exact under :data:`SAMPLE_CAP`.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self.record_cap = RECORD_CAP
        self._rng = random.Random(f"provenance-{seed}")
        self._seen = 0
        self.records: list[ProvenanceRecord] = []
        self.histograms: dict[str, Histogram] = {
            name: Histogram(
                f"freshness_{name}_seconds",
                f"update lifecycle component: {name}",
                buckets=FRESHNESS_BUCKETS,
                sample_cap=SAMPLE_CAP,
            )
            for name in COMPONENTS
        }

    # ------------------------------------------------------------------
    def record(
        self,
        *,
        url: str,
        version: int,
        published_at: float,
        detected_at: float,
        staleness: float,
        path_delay: float,
        delivery: float,
        subscribers: int,
        detector: str | None,
        fanout: int,
    ) -> None:
        """Fold one detection's lifecycle into the distributions."""
        freshness = staleness + path_delay + delivery
        self.histograms["staleness"].observe(staleness)
        self.histograms["path_delay"].observe(path_delay)
        self.histograms["delivery"].observe(delivery)
        self.histograms["freshness"].observe(freshness)
        record = ProvenanceRecord(
            url=url,
            version=version,
            published_at=published_at,
            detected_at=detected_at,
            staleness=staleness,
            path_delay=path_delay,
            delivery=delivery,
            freshness=freshness,
            subscribers=subscribers,
            detector=detector,
            fanout=fanout,
        )
        # Algorithm R reservoir on the tracker's own generator: a
        # bounded, seeded, uniform exemplar sample whatever the run
        # length — and zero perturbation of the run's randomness.
        self._seen += 1
        if len(self.records) < self.record_cap:
            self.records.append(record)
        else:
            slot = self._rng.randrange(self._seen)
            if slot < self.record_cap:
                self.records[slot] = record

    # ------------------------------------------------------------------
    def percentiles(self) -> dict[str, dict[str, float | None]]:
        """p50/p95/p99/max per lifecycle component (None when empty)."""
        out: dict[str, dict[str, float | None]] = {}
        for name in COMPONENTS:
            histogram = self.histograms[name]
            out[name] = {
                "p50": histogram.quantile(0.50),
                "p95": histogram.quantile(0.95),
                "p99": histogram.quantile(0.99),
                "max": histogram.max if histogram.count else None,
                "mean": (
                    histogram.sum / histogram.count
                    if histogram.count
                    else None
                ),
                "count": histogram.count,
            }
        return out

    def to_dict(self) -> dict:
        """JSON-safe reduction: percentiles + histograms + exemplars."""
        return {
            "detections": self._seen,
            "record_cap": self.record_cap,
            "percentiles": self.percentiles(),
            "histograms": {
                name: self.histograms[name].collect()
                for name in COMPONENTS
            },
            "exemplars": [record.to_dict() for record in self.records],
        }
