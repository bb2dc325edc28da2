"""``repro.obs`` — observability for the whole reproduction stack.

Three legs, one facade:

* :mod:`repro.obs.metrics` — the typed metrics registry
  (Counter/Histogram with labels) that backs every protocol
  counter in the system;
* :mod:`repro.obs.trace` — phase-level span tracing (sim + wall
  clocks, allocation deltas, JSON-lines, Chrome-trace export);
* :mod:`repro.obs.log` — stdlib logging wiring with sampled per-node
  debug helpers.

:class:`Observability` bundles one registry + one tracer for a run.
The default (:meth:`Observability.off`) keeps the registry — protocol
counters are part of the reproduction's gated metrics and always
count — but disables tracing, which is the allocation-free library
configuration.  The CLI enables tracing per run (``--trace``).  The
contract, enforced by ``tests/obs/test_obs_equivalence.py``: enabled
or disabled, protocol state and every gated scenario metric are
byte-identical — observability observes, it never participates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import IO

from repro.obs.log import get_logger, setup as setup_logging, should_log
from repro.obs.metrics import Counter, Histogram, MetricsRegistry
from repro.obs.provenance import ProvenanceTracker
from repro.obs.timeline import TimelineSampler
from repro.obs.trace import (
    NULL_SPAN,
    Tracer,
    export_chrome_trace,
    read_spans,
)

__all__ = [
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "ProvenanceTracker",
    "TimelineSampler",
    "Tracer",
    "NULL_SPAN",
    "Observability",
    "export_chrome_trace",
    "read_spans",
    "get_logger",
    "setup_logging",
    "should_log",
]


@dataclass
class Observability:
    """One run's registry + tracer, handed through the stack.

    ``CoronaSystem``, the scenario runner and the simulators accept an
    instance (or default to :meth:`off`); subsystems register their
    counters on ``registry`` and wrap their phases in ``tracer``
    spans.
    """

    registry: MetricsRegistry = field(default_factory=MetricsRegistry)
    tracer: Tracer = field(default_factory=Tracer)
    #: Optional run-introspection legs (PR 10): a per-round registry
    #: sampler and a per-update lifecycle tracker.  Both are read-only
    #: observers of the run — attached or not, every gated metric is
    #: byte-identical (``tests/obs/test_obs_equivalence.py``).
    timeline: TimelineSampler | None = None
    provenance: ProvenanceTracker | None = None

    @classmethod
    def off(cls) -> "Observability":
        """Registry on (counters always count), tracing disabled."""
        return cls()

    @classmethod
    def on(cls, sink: IO[str] | None = None) -> "Observability":
        """Tracing enabled — to ``sink`` (JSONL) or an in-memory buffer.

        The tracer is bound to the registry, so per-phase wall-clock
        and allocation histograms accumulate alongside the counters.
        """
        registry = MetricsRegistry()
        tracer = Tracer(
            sink=sink, registry=registry, enabled=True
        )
        return cls(registry=registry, tracer=tracer)

    @classmethod
    def introspected(
        cls, seed: int = 0, trace: bool = False
    ) -> "Observability":
        """The full run-introspection plane for `repro report`.

        Timeline sampling + update provenance always on; span tracing
        optional (wall timings are the one nondeterministic leg, so
        reports segregate them — see :mod:`repro.obs.report`).
        """
        registry = MetricsRegistry()
        tracer = Tracer(registry=registry, enabled=trace)
        return cls(
            registry=registry,
            tracer=tracer,
            timeline=TimelineSampler(registry),
            provenance=ProvenanceTracker(seed=seed),
        )
