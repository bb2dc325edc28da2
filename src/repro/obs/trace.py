"""Phase-level span tracing with sim-time + wall-time clocks.

:class:`Tracer` wraps every protocol phase (churn splice, aggregation
rounds, optimization/solve, dissemination floods, anti-entropy repair,
poll batches) and every scenario timeline event in a span carrying

* the **wall clock** (``perf_counter`` start + duration, µs) — where a
  sweep actually spends its time,
* the **sim clock** (the discrete-event ``now`` the span ran at) — where
  in protocol time it happened,
* an **allocation delta** (``sys.getallocatedblocks``) — what the phase
  cost in live Python objects, and
* free-form counter attributes set by the instrumented code.

Spans are emitted as JSON lines (one object per line, append-friendly,
mergeable across runs) and exported to Chrome-trace format by
:func:`export_chrome_trace` (``repro trace export``), so a Perfetto
flamegraph of a sweep is one command away.

The determinism contract (enforced by
``tests/obs/test_obs_equivalence.py``): tracing never touches RNG or
protocol state, and a **disabled** tracer is allocation-free on the
hot path — ``span()`` returns a module-level no-op singleton, so
instrumented code needs no ``if tracer.enabled`` guards.
"""

from __future__ import annotations

import json
import sys
import time
from typing import IO, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.metrics import Histogram, MetricsRegistry

__all__ = [
    "Tracer",
    "NULL_SPAN",
    "export_chrome_trace",
    "read_spans",
]


class _NullSpan:
    """The disabled-tracer span: every operation is a no-op.

    A single module-level instance is returned for every ``span()``
    call on a disabled tracer, so instrumentation left in hot paths
    costs one method call and no allocation.
    """

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        return None

    def set(self, **attrs) -> "_NullSpan":
        return self


NULL_SPAN = _NullSpan()


class Span:
    """One live span; records timings and attributes on exit."""

    __slots__ = (
        "_tracer",
        "name",
        "category",
        "sim_time",
        "attrs",
        "_wall_start",
        "_alloc_start",
        "_depth",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        category: str,
        sim_time: float | None,
    ) -> None:
        self._tracer = tracer
        self.name = name
        self.category = category
        self.sim_time = sim_time
        self.attrs: dict = {}

    def set(self, **attrs) -> "Span":
        """Attach counter attributes (rendered into the span record)."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        tracer = self._tracer
        self._depth = len(tracer._stack)
        tracer._stack.append(self)
        self._alloc_start = sys.getallocatedblocks()
        self._wall_start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        wall_end = time.perf_counter()
        alloc_delta = sys.getallocatedblocks() - self._alloc_start
        tracer = self._tracer
        tracer._stack.pop()
        tracer._record(
            self,
            wall_start=self._wall_start,
            wall_duration=wall_end - self._wall_start,
            alloc_delta=alloc_delta,
        )


class Tracer:
    """Span collector writing JSON-lines, feeding phase histograms.

    ``Tracer()`` (no sink) is **disabled**: ``span()`` hands back
    :data:`NULL_SPAN` and nothing is recorded.  Enable by passing a
    ``sink`` (any text-mode writable), or ``enabled=True`` to buffer
    in memory (``tracer.records``) — the test-suite mode.

    When a :class:`~repro.obs.metrics.MetricsRegistry` is attached,
    every finished span also lands in two labeled histograms —
    ``phase_wall_seconds{phase=<name>}`` and
    ``phase_alloc_blocks{phase=<name>}`` — the per-phase wall-clock
    and allocation profile of the run.
    """

    def __init__(
        self,
        sink: IO[str] | None = None,
        registry: "MetricsRegistry | None" = None,
        enabled: bool | None = None,
    ) -> None:
        self.sink = sink
        self.enabled = bool(sink) if enabled is None else enabled
        self.records: list[dict] = []
        self._stack: list[Span] = []
        self._epoch = time.perf_counter()
        self._wall_hist: "Histogram | None" = None
        self._alloc_hist: "Histogram | None" = None
        if registry is not None:
            self.bind_registry(registry)

    def bind_registry(self, registry: "MetricsRegistry") -> None:
        """Route per-span wall/alloc observations into ``registry``."""
        self._wall_hist = registry.histogram(
            "phase_wall_seconds",
            "wall-clock duration of traced protocol phases",
            labelnames=("phase",),
        )
        self._alloc_hist = registry.histogram(
            "phase_alloc_blocks",
            "net allocated blocks across traced protocol phases",
            labelnames=("phase",),
            buckets=(0, 10, 100, 1_000, 10_000, 100_000, 1_000_000),
        )

    def span(
        self,
        name: str,
        sim_time: float | None = None,
        category: str = "phase",
    ):
        """A context manager tracing one phase (no-op when disabled)."""
        if not self.enabled:
            return NULL_SPAN
        return Span(self, name, category, sim_time)

    def complete(
        self,
        name: str,
        wall_start: float,
        wall_duration: float,
        category: str = "phase",
        alloc_delta: int | None = None,
        **attrs,
    ) -> None:
        """Record an externally-measured complete span.

        For work whose timing the caller already holds — e.g. the
        sweep farm, whose tasks run in *worker processes* while the
        parent keeps the clock: ``wall_start`` is a parent-side
        ``perf_counter`` value, ``wall_duration`` seconds.  The
        record is shaped exactly like a context-manager span (and
        feeds the same phase histograms), so ``repro trace export``
        renders both identically.
        """
        if not self.enabled:
            return
        record = {
            "name": name,
            "cat": category,
            "ph": "X",
            "wall_us": round((wall_start - self._epoch) * 1e6, 3),
            "dur_us": round(wall_duration * 1e6, 3),
            "sim": None,
            "alloc": alloc_delta,
            "depth": len(self._stack),
        }
        if attrs:
            record["args"] = attrs
        self._emit(record)
        if self._wall_hist is not None:
            self._wall_hist.labels(phase=name).observe(wall_duration)
        if self._alloc_hist is not None and alloc_delta is not None:
            self._alloc_hist.labels(phase=name).observe(float(alloc_delta))

    def instant(
        self,
        name: str,
        sim_time: float | None = None,
        category: str = "event",
        **attrs,
    ) -> None:
        """A zero-duration marker (scenario events, fault flips)."""
        if not self.enabled:
            return
        record = {
            "name": name,
            "cat": category,
            "ph": "i",
            "wall_us": round(
                (time.perf_counter() - self._epoch) * 1e6, 3
            ),
            "sim": sim_time,
            "depth": len(self._stack),
        }
        if attrs:
            record["args"] = attrs
        self._emit(record)

    # ------------------------------------------------------------------
    def _record(
        self,
        span: Span,
        wall_start: float,
        wall_duration: float,
        alloc_delta: int,
    ) -> None:
        record = {
            "name": span.name,
            "cat": span.category,
            "ph": "X",
            "wall_us": round((wall_start - self._epoch) * 1e6, 3),
            "dur_us": round(wall_duration * 1e6, 3),
            "sim": span.sim_time,
            "alloc": alloc_delta,
            "depth": span._depth,
        }
        if span.attrs:
            record["args"] = span.attrs
        self._emit(record)
        if self._wall_hist is not None:
            self._wall_hist.labels(phase=span.name).observe(wall_duration)
        if self._alloc_hist is not None:
            self._alloc_hist.labels(phase=span.name).observe(
                float(alloc_delta)
            )

    def _emit(self, record: dict) -> None:
        if self.sink is not None:
            self.sink.write(json.dumps(record) + "\n")
        else:
            self.records.append(record)


#: The disabled tracer everything defaults to — instrumented code can
#: keep an unconditional reference and pay one attribute check.
NULL_TRACER = Tracer()


# ----------------------------------------------------------------------
# JSONL <-> Chrome trace format
# ----------------------------------------------------------------------
def read_spans(lines) -> list[dict]:
    """Parse span JSON-lines (an iterable of strings) into records.

    A killed writer (SIGTERM mid-sweep, a crashed run) can leave one
    partially written *final* line; that tail is skipped with a
    warning rather than failing the whole export.  A malformed line
    anywhere *before* the end still raises :class:`ValueError` — an
    interior parse failure means the log is corrupt, not merely
    truncated, and an export should never silently drop real spans.
    """
    from repro.obs.log import get_logger

    records = []
    bad_line: int | None = None
    line_no = 0
    for line in lines:
        line_no += 1
        line = line.strip()
        if not line:
            continue
        if bad_line is not None:
            raise ValueError(
                f"malformed span record at line {bad_line}"
            )
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError:
            bad_line = line_no  # tolerated iff nothing follows it
    if bad_line is not None:
        get_logger(__name__).warning(
            "span log: skipping truncated final line %d", bad_line
        )
    return records


def export_chrome_trace(
    records: list[dict],
    clock: str = "wall",
    process_name: str = "repro",
) -> dict:
    """Render span records as a Chrome-trace (Perfetto-loadable) dict.

    ``clock`` picks the timeline: ``"wall"`` places spans at their
    measured wall-clock offsets (a real flamegraph of where the run
    spent time); ``"sim"`` places them at their simulation timestamps
    (duration = wall duration, so overlapping phases of one sim
    instant still nest) — where in *protocol* time the work happened.

    The output is the JSON object format: ``{"traceEvents": [...]}``
    with complete (``X``) and instant (``i``) events on one
    process/thread track, which Perfetto nests by containment.
    """
    if clock not in ("wall", "sim"):
        raise ValueError(f"unknown clock {clock!r} (use 'wall' or 'sim')")
    events: list[dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 0,
            "tid": 0,
            "args": {"name": process_name},
        }
    ]
    for record in records:
        if clock == "sim" and record.get("sim") is not None:
            ts = float(record["sim"]) * 1e6
        else:
            ts = float(record.get("wall_us", 0.0))
        event = {
            "name": record.get("name", "?"),
            "cat": record.get("cat", "phase"),
            "ph": record.get("ph", "X"),
            "ts": ts,
            "pid": 0,
            "tid": 0,
        }
        if event["ph"] == "X":
            event["dur"] = float(record.get("dur_us", 0.0))
        if event["ph"] == "i":
            event["s"] = "t"  # instant scope: thread
        args = dict(record.get("args", ()))
        if record.get("sim") is not None:
            args["sim_time"] = record["sim"]
        if record.get("alloc") is not None:
            args["alloc_blocks"] = record["alloc"]
        if args:
            event["args"] = args
        events.append(event)
    return {"traceEvents": events, "displayTimeUnit": "ms"}
