"""Per-round time-series sampling of registry counters.

:class:`TimelineSampler` turns the end-of-run scalar counters the
registry already maintains into *series*: the scenario runner calls
:meth:`TimelineSampler.sample` once per maintenance round, and the
sampler snapshots every unlabeled counter into a bounded
in-memory ring.  A run can then answer "when did retransmissions
spike?" instead of only "how many total?".

Contract (the PR 6 latch, enforced by ``tests/obs``):

* **Read-only** — sampling reads metric values and touches nothing
  else: no randomness, no wall clocks, no protocol state.  A run with
  the sampler attached is byte-identical to one without, for every
  gated metric.
* **Bounded** — the ring holds at most ``CAPACITY`` samples.  When it
  fills, the sampler decimates: every other retained sample is
  dropped and the sampling stride doubles, so a run of any length
  costs O(CAPACITY) memory and keeps uniform (if coarsening) time
  resolution.  Because the stored values are *cumulative*, decimation
  loses resolution, never mass — deltas between retained points still
  sum to the true totals.
* **Deterministic** — same spec + seed ⇒ identical ``to_dict`` bytes.
"""

from __future__ import annotations

from repro.obs.metrics import Counter, MetricsRegistry

__all__ = ["TimelineSampler"]

#: Samples the ring holds before it decimates (even, >= 4).
CAPACITY = 256


class TimelineSampler:
    """Snapshot registry scalars into a bounded cumulative time series.

    Samples every unlabeled :class:`Counter` registered at the time of
    each snapshot (series that appear mid-run are backfilled with zeros
    so every column spans the full time axis).
    """

    def __init__(self, registry: MetricsRegistry) -> None:
        self.registry = registry
        self.capacity = CAPACITY
        #: Rounds between materialized samples; doubles on decimation.
        self.stride = 1
        #: Total rounds offered via :meth:`sample` (pre-decimation).
        self.rounds = 0
        self.times: list[float] = []
        self._series: dict[str, list[float]] = {}

    # ------------------------------------------------------------------
    def _scalar_names(self) -> list[str]:
        names = []
        for name in self.registry.names():
            metric = self.registry.get(name)
            if isinstance(metric, Counter) and not metric.children():
                names.append(name)
        return names

    def sample(self, now: float) -> None:
        """Record one round's snapshot (stride-gated, decimating)."""
        self.rounds += 1
        if (self.rounds - 1) % self.stride:
            # Skipped rounds cost nothing: the columns are cumulative,
            # so the next retained sample still carries their counts.
            return
        position = len(self.times)
        self.times.append(now)
        names = self._scalar_names()
        for name in names:
            column = self._series.get(name)
            if column is None:
                # Late-appearing series: zero-fill history so every
                # column stays aligned with the time axis.
                column = [0.0] * position
                self._series[name] = column
            column.append(float(self.registry.value(name)))
        for name, column in self._series.items():
            if len(column) <= position:
                # Series that vanished (re-registration): carry the
                # last value forward to keep the columns rectangular.
                column.append(column[-1] if column else 0.0)
        if len(self.times) >= self.capacity:
            self._decimate()

    def _decimate(self) -> None:
        # Keep the first of each pair: retained points then sit exactly
        # on the doubled stride's grid, so post-decimation samples stay
        # uniformly spaced.  The dropped tail value is recovered by the
        # very next retained sample (the columns are cumulative).
        self.times = self.times[0::2]
        for name in self._series:
            self._series[name] = self._series[name][0::2]
        self.stride *= 2

    # ------------------------------------------------------------------
    def deltas(self, name: str) -> list[float]:
        """Per-retained-interval increments for one metric."""
        column = self._series.get(name)
        if not column:
            return []
        out = [column[0]]
        for previous, current in zip(column, column[1:]):
            out.append(current - previous)
        return out

    def to_dict(self) -> dict:
        """JSON-safe snapshot: time axis + cumulative/delta columns."""
        return {
            "rounds": self.rounds,
            "stride": self.stride,
            "capacity": self.capacity,
            "times": list(self.times),
            "series": {
                name: {
                    "cumulative": list(self._series[name]),
                    "deltas": self.deltas(name),
                }
                for name in sorted(self._series)
            },
        }
