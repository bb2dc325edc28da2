"""A typed metrics registry: Counter / Gauge / Histogram with labels.

The registry is the single backing store for every deterministic
counter the reproduction maintains — the aggregation ``work_*``
value-change counters, the optimization-phase ``solver_work_*``
counters, the fault-plane counters and the system-wide protocol
counters all register their series here (see
:class:`~repro.honeycomb.aggregation.AggregationWork`,
:class:`~repro.honeycomb.solver.SolverWork`,
:class:`~repro.faults.plane.FaultCounters`,
:class:`~repro.core.system.SystemCounters`).  The scenario runner
collates its gated metrics *from* the registry, so adding a metric is
one registration plus one entry in the serialization order — not an
edit in five files.

Design constraints, enforced by ``tests/obs``:

* **Determinism** — the registry never touches randomness or wall
  clocks; reading or writing a metric cannot perturb a seeded run.
  Protocol counters are plain integer cells behind properties, so a
  registry-backed run is bit-identical to the pre-registry code.
* **Hot-path cost** — incrementing a counter is one attribute add on
  a ``__slots__`` instance: no dict lookup, no allocation beyond the
  int arithmetic itself.  Label resolution (:meth:`Counter.labels`)
  is for registration-time fan-out, never for per-event paths.
* **Re-registration** — registering a name that already exists
  replaces the previous series, so a counter struct built again on
  the same registry starts from zero and the registry reports the
  struct in use, never a stale one.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping

__all__ = [
    "Counter",
    "CounterStruct",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
]


def _label_key(labels: Mapping[str, str]) -> tuple[tuple[str, str], ...]:
    return tuple(sorted(labels.items()))


class _Metric:
    """Shared naming/label plumbing for all three metric types."""

    __slots__ = ("name", "description", "labelnames", "_children")

    kind = "metric"

    def __init__(
        self,
        name: str,
        description: str = "",
        labelnames: Iterable[str] = (),
    ) -> None:
        self.name = name
        self.description = description
        self.labelnames = tuple(labelnames)
        #: label-values tuple -> child metric (same type, no labels).
        self._children: dict[tuple[tuple[str, str], ...], _Metric] = {}

    def labels(self, **labels: str) -> "_Metric":
        """The child series for one label combination (memoized).

        Children are full metrics of the same type with no further
        labels; resolve them once at setup time and keep the handle —
        the lookup is a dict hit, not free.
        """
        if set(labels) != set(self.labelnames):
            raise ValueError(
                f"{self.name}: expected labels {self.labelnames}, "
                f"got {tuple(sorted(labels))}"
            )
        key = _label_key(labels)
        child = self._children.get(key)
        if child is None:
            child = type(self)(self.name, self.description)
            self._children[key] = child
        return child

    def children(self) -> dict[tuple[tuple[str, str], ...], "_Metric"]:
        """Live view of the labeled children (empty for unlabeled)."""
        return self._children


class Counter(_Metric):
    """A monotonically non-decreasing integer/float series."""

    __slots__ = ("value",)

    kind = "counter"

    def __init__(
        self,
        name: str,
        description: str = "",
        labelnames: Iterable[str] = (),
    ) -> None:
        super().__init__(name, description, labelnames)
        self.value = 0

    def inc(self, amount: int | float = 1) -> None:
        if amount < 0:
            raise ValueError(f"{self.name}: counters cannot decrease")
        self.value += amount

    def collect(self) -> int | float:
        return self.value


class Gauge(_Metric):
    """A point-in-time value that can move either way."""

    __slots__ = ("value",)

    kind = "gauge"

    def __init__(
        self,
        name: str,
        description: str = "",
        labelnames: Iterable[str] = (),
    ) -> None:
        super().__init__(name, description, labelnames)
        self.value = 0

    def set(self, value: int | float) -> None:
        self.value = value

    def inc(self, amount: int | float = 1) -> None:
        self.value += amount

    def dec(self, amount: int | float = 1) -> None:
        self.value -= amount

    def collect(self) -> int | float:
        return self.value


#: Default histogram buckets: geometric, micro-seconds to minutes —
#: wide enough for both per-phase wall clocks and allocation counts.
DEFAULT_BUCKETS: tuple[float, ...] = tuple(
    10.0 ** exponent for exponent in range(-6, 3)
)


class Histogram(_Metric):
    """Bucketed observations (cumulative buckets, like Prometheus).

    ``bucket_counts[i]`` counts observations ``<= buckets[i]``; the
    implicit final bucket is ``+inf``.  ``sum``/``count``/``min``/
    ``max`` summarize the stream without storing it.

    ``sample_cap`` > 0 additionally retains up to that many raw
    observations (the first ``sample_cap`` seen), which lets
    :meth:`quantile` answer exactly while the stream fits under the
    cap and fall back to bucket interpolation once it overflows.  The
    default of 0 keeps the hot path allocation-free.
    """

    __slots__ = (
        "buckets",
        "bucket_counts",
        "sum",
        "count",
        "min",
        "max",
        "sample_cap",
        "samples",
    )

    kind = "histogram"

    def __init__(
        self,
        name: str,
        description: str = "",
        labelnames: Iterable[str] = (),
        buckets: Iterable[float] = DEFAULT_BUCKETS,
        sample_cap: int = 0,
    ) -> None:
        super().__init__(name, description, labelnames)
        bounds = tuple(sorted(float(bound) for bound in buckets))
        if not bounds:
            raise ValueError(f"{name}: need at least one bucket bound")
        self.buckets = bounds
        self.bucket_counts = [0] * (len(bounds) + 1)
        self.sum = 0.0
        self.count = 0
        self.min = math.inf
        self.max = -math.inf
        self.sample_cap = int(sample_cap)
        self.samples: list[float] = []

    def labels(self, **labels: str) -> "Histogram":
        if set(labels) != set(self.labelnames):
            raise ValueError(
                f"{self.name}: expected labels {self.labelnames}, "
                f"got {tuple(sorted(labels))}"
            )
        key = _label_key(labels)
        child = self._children.get(key)
        if child is None:
            child = Histogram(
                self.name,
                self.description,
                buckets=self.buckets,
                sample_cap=self.sample_cap,
            )
            self._children[key] = child
        return child  # type: ignore[return-value]

    def observe(self, value: float) -> None:
        # Linear scan: bucket lists are small (defaults: 9) and the
        # branch exits early for the common small observations.
        index = len(self.buckets)
        for position, bound in enumerate(self.buckets):
            if value <= bound:
                index = position
                break
        self.bucket_counts[index] += 1
        self.sum += value
        self.count += 1
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if len(self.samples) < self.sample_cap:
            self.samples.append(value)

    def quantile(self, q: float) -> float | None:
        """The ``q``-quantile of the observed stream (``0 <= q <= 1``).

        Exact (nearest-rank on the retained samples) while the stream
        fits under ``sample_cap``; bucket-interpolated against the
        cumulative counts once it overflows — still clamped to the
        true observed ``[min, max]``.  ``None`` with no observations.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"{self.name}: quantile {q!r} not in [0, 1]")
        if self.count == 0:
            return None
        if self.samples and len(self.samples) == self.count:
            ordered = sorted(self.samples)
            rank = max(0, math.ceil(q * len(ordered)) - 1)
            return ordered[rank]
        # Interpolate within the bucket holding the target rank.  The
        # lower edge of the first occupied bucket is the observed min
        # and every edge is clamped by the observed max, so estimates
        # never leave the true range.
        target = q * self.count
        cumulative = 0
        lower = self.min
        for position, bound in enumerate(self.buckets):
            in_bucket = self.bucket_counts[position]
            if in_bucket:
                if cumulative + in_bucket >= target:
                    fraction = (target - cumulative) / in_bucket
                    upper = min(bound, self.max)
                    value = lower + (upper - lower) * fraction
                    return min(max(value, self.min), self.max)
                lower = min(bound, self.max)
            cumulative += in_bucket
        return self.max

    def collect(self) -> dict:
        return {
            "buckets": list(self.buckets),
            "counts": list(self.bucket_counts),
            "sum": self.sum,
            "count": self.count,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
        }


class CounterStruct:
    """Base for fixed-schema counter structs backed by :class:`Counter`.

    Subclasses declare ``SERIES`` — ``(attribute, registry_name,
    description)`` triples — and get one property per attribute that
    reads/writes the underlying counter cell, so existing call sites
    (``work.summaries_rebuilt += 1``) keep working unchanged.  Passing
    a :class:`MetricsRegistry` registers every series on it (replacing
    a previous registration, see "Re-registration" above); with no
    registry the struct is standalone, exactly as cheap as the
    dataclasses it replaces.
    """

    __slots__ = ("_cells",)

    #: subclass contract: (attribute, registry name, description).
    SERIES: tuple[tuple[str, str, str], ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)

        def _make_property(attr: str) -> property:
            def _get(self, _attr=attr):
                return self._cells[_attr].value

            def _set(self, value, _attr=attr):
                self._cells[_attr].value = value

            return property(_get, _set)

        for attr, _name, _description in cls.SERIES:
            setattr(cls, attr, _make_property(attr))

    def __init__(self, registry: "MetricsRegistry | None" = None) -> None:
        cells: dict[str, Counter] = {}
        for attr, name, description in type(self).SERIES:
            counter = Counter(name, description)
            if registry is not None:
                registry.register(counter)
            cells[attr] = counter
        object.__setattr__(self, "_cells", cells)

    def as_dict(self) -> dict[str, int | float]:
        return {attr: cell.value for attr, cell in self._cells.items()}

    def __eq__(self, other: object) -> bool:
        if isinstance(other, CounterStruct):
            return self.as_dict() == other.as_dict()
        return NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{attr}={cell.value}" for attr, cell in self._cells.items()
        )
        return f"{type(self).__name__}({fields})"


class MetricsRegistry:
    """Name → metric store with typed constructors and one snapshot.

    One registry spans one run (the scenario runner creates one per
    ``_execute``); subsystems register their series at construction
    and mutate the returned handles directly.  ``collect`` renders a
    JSON-safe snapshot; :meth:`value` reads a single series — the
    runner's serialization path for the gated counters.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, _Metric] = {}

    # -- constructors --------------------------------------------------
    def counter(
        self,
        name: str,
        description: str = "",
        labelnames: Iterable[str] = (),
    ) -> Counter:
        return self._register(Counter(name, description, labelnames))

    def gauge(
        self,
        name: str,
        description: str = "",
        labelnames: Iterable[str] = (),
    ) -> Gauge:
        return self._register(Gauge(name, description, labelnames))

    def histogram(
        self,
        name: str,
        description: str = "",
        labelnames: Iterable[str] = (),
        buckets: Iterable[float] = DEFAULT_BUCKETS,
        sample_cap: int = 0,
    ) -> Histogram:
        return self._register(
            Histogram(
                name,
                description,
                labelnames,
                buckets=buckets,
                sample_cap=sample_cap,
            )
        )

    def register(self, metric: _Metric) -> _Metric:
        """Adopt an externally constructed metric (replaces same name)."""
        return self._register(metric)

    def _register(self, metric):
        self._metrics[metric.name] = metric
        return metric

    # -- reads ---------------------------------------------------------
    def get(self, name: str) -> _Metric | None:
        return self._metrics.get(name)

    def value(self, name: str) -> int | float:
        """The scalar value of a registered counter/gauge."""
        metric = self._metrics[name]
        return metric.collect()  # type: ignore[return-value]

    def names(self) -> list[str]:
        return sorted(self._metrics)

    def collect(self) -> dict:
        """JSON-safe snapshot of every registered series.

        Labeled families render as ``{"series": {label-repr: data}}``
        so a dump stays greppable; unlabeled metrics render flat.
        """
        snapshot: dict[str, dict] = {}
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            children = metric.children()
            entry: dict = {
                "kind": metric.kind,
                "description": metric.description,
            }
            if children:
                entry["series"] = {
                    ",".join(f"{k}={v}" for k, v in key): child.collect()
                    for key, child in sorted(children.items())
                }
            else:
                entry["value"] = metric.collect()
            snapshot[name] = entry
        return snapshot
