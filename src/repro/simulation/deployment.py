"""The message-level simulator behind the §5.2 PlanetLab experiments.

The paper deploys Corona on 80 PlanetLab nodes, issues 30 000
subscriptions for 3 000 real RSS feeds uniformly over the first hour,
and measures detection time (Figure 9) and total polling load
(Figure 10) over six hours with τ = maintenance = 30 minutes.

This simulator runs the *actual protocol code* — the same
:class:`~repro.core.system.CoronaSystem` the examples drive — under a
discrete-event clock: every poll is a simulated HTTP fetch against the
synthetic feed farm (full difference-engine path), every subscription
arrives as a routed event, maintenance rounds fire on schedule, and
wide-area latencies delay diff dissemination.  What PlanetLab provided
— geographic distribution, real web servers — is replaced by the
latency model and the web-server farm; what the experiment *measures*
is protocol behaviour, which runs unmodified.

:class:`ProtocolLoop` is that clock's subscribe → maintain → poll
loop; the scenario runner (:mod:`repro.scenarios.runner`) drives its
fault timelines through the same loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import CoronaConfig
from repro.core.system import CoronaSystem
from repro.simulation.engine import EventEngine
from repro.simulation.latency import LatencyModel
from repro.simulation.metrics import TimeSeries
from repro.simulation.webserver import WebServerFarm
from repro.workload.trace import SubscriptionTrace

#: Seconds between the deployment's poll rounds.
POLL_TICK = 30.0


class ProtocolLoop:
    """One run's subscribe → maintain → poll loop on an event clock.

    Building the loop schedules the trace's subscription arrivals on
    :attr:`engine` (a trace without arrival times subscribes everyone
    at time zero, before the clock starts).  The caller then schedules
    its own timeline on :attr:`engine`, and :meth:`run` adds the
    maintenance loop (first round half an interval in) and the poll
    loop and runs the clock.  Same-time events fire in insertion
    order, so at one instant a subscription precedes a timeline event,
    which precedes a maintenance round, which precedes a poll round.

    A poll round advances the farm, polls every due task and bins the
    polls it made into :attr:`poll_series`.  Each fresh update it
    detects adds its end-to-end delay to :attr:`detect_series`:
    staleness at detection, the path delay the link model charged the
    diff, the notification latency, and the fault plane's reorder
    jitter.  The system's fault plane and observability plane (its
    timeline sampler and provenance tracker) are read off the system.
    """

    def __init__(
        self,
        system: CoronaSystem,
        farm: WebServerFarm,
        trace: SubscriptionTrace,
        latency: LatencyModel,
        bucket_width: float,
    ) -> None:
        self.system = system
        self.farm = farm
        self.latency = latency
        self.engine = EventEngine()
        self.poll_series = TimeSeries(bucket_width)
        self.detect_series = TimeSeries(bucket_width)
        self.detections = 0
        self._monitor = None
        if trace.events:
            for when, client, channel_index in trace.events:
                self.engine.schedule(
                    when,
                    lambda now, u=trace.urls[channel_index], c=client: (
                        system.subscribe(u, c, now)
                    ),
                )
        else:
            client = 0
            for channel_index, count in enumerate(trace.subscribers):
                url = trace.urls[channel_index]
                for _ in range(int(count)):
                    system.subscribe(url, f"client-{client}", now=0.0)
                    client += 1

    def run(self, horizon: float, poll_tick: float, monitor=None) -> None:
        """Schedule the protocol loops and run the clock to ``horizon``.

        ``monitor`` (an :class:`~repro.scenarios.invariants
        .InvariantMonitor`) checks the system after every maintenance
        round; it only reads, so the run is the same without it.
        """
        self._monitor = monitor
        maintenance = self.system.config.maintenance_interval
        self.engine.schedule_every(
            maintenance * 0.5,
            maintenance,
            self._maintenance_round,
            until=horizon,
        )
        self.engine.schedule_every(
            poll_tick, poll_tick, self._poll_round, until=horizon
        )
        self.engine.run_until(horizon)

    def _maintenance_round(self, now: float) -> None:
        self.system.run_maintenance_round(now)
        if self._monitor is not None:
            self._monitor.check_round(now)
        sampler = self.system.obs.timeline
        if sampler is not None:
            # Snapshot the registry scalars into the run timeline —
            # reads only, after the round (and its checks) settled.
            sampler.sample(now)

    def _poll_round(self, now: float) -> None:
        system = self.system
        faults = system.faults
        provenance = system.obs.provenance
        self.farm.advance_to(now)
        polls_before = system.counters.polls
        events = system.poll_due(now)
        polls_done = system.counters.polls - polls_before
        if polls_done:
            self.poll_series.add(now, float(polls_done))
        for event in events:
            if event.published_at is None:
                continue
            # The components are accumulated in one fixed order (same
            # float-add sequence, same draw order), so the delay stream
            # is unchanged by the provenance capture below.
            staleness = max(0.0, event.detected_at - event.published_at)
            delay = staleness
            # 0.0 without an active link table.
            delay += event.path_delay
            notify_delay = self.latency.sample()
            delay += notify_delay
            # 0.0 — and no randomness — while the plane is jitter-free.
            jitter = faults.detection_jitter() if faults is not None else 0.0
            delay += jitter
            self.detect_series.add(now, delay)
            self.detections += 1
            if provenance is not None:
                provenance.record(
                    url=event.url,
                    version=event.version,
                    published_at=event.published_at,
                    detected_at=event.detected_at,
                    staleness=staleness,
                    path_delay=event.path_delay,
                    delivery=notify_delay + jitter,
                    subscribers=event.subscribers,
                    detector=(
                        f"{event.detector.value:040x}"[:10]
                        if event.detector is not None
                        else None
                    ),
                    fanout=event.fanout,
                )


@dataclass
class DeploymentResult:
    """Figures 9 and 10's data, plus bookkeeping for the tests."""

    bucket_times: np.ndarray
    corona_polls_per_min: np.ndarray  # Figure 10, Corona line
    legacy_polls_per_min: float  # Figure 10, legacy line (flat)
    detection_times: np.ndarray  # Figure 9, per-bucket mean (seconds)
    mean_detection_time: float  # the paper's 64 s headline
    legacy_detection_time: float  # τ/2 = 900 s
    detections: int
    total_polls: int
    total_subscriptions: int
    redundant_diffs: int
    final_poll_tasks: int


class DeploymentSimulator:
    """Event-driven run of the full protocol stack (see module doc)."""

    def __init__(
        self,
        trace: SubscriptionTrace,
        config: CoronaConfig,
        n_nodes: int = 80,
        seed: int = 0,
        horizon: float = 6 * 3600.0,
        bucket_width: float = 600.0,
    ) -> None:
        if not trace.events:
            raise ValueError(
                "deployment needs a trace with timed subscription events "
                "(generate_trace(..., subscription_window=...))"
            )
        self.trace = trace
        self.config = config
        self.horizon = horizon
        self.bucket_width = bucket_width
        latency = LatencyModel(seed=seed)
        self.farm = WebServerFarm(seed=seed + 1)
        for index, url in enumerate(trace.urls):
            self.farm.host(
                url,
                update_interval=float(trace.update_intervals[index]),
                target_bytes=int(trace.content_sizes[index]),
            )
        self.system = CoronaSystem(
            n_nodes=n_nodes, config=config, fetcher=self.farm, seed=seed
        )
        self.loop = ProtocolLoop(
            self.system, self.farm, trace, latency, bucket_width
        )

    # ------------------------------------------------------------------
    def run(self) -> DeploymentResult:
        """Execute the full horizon and collate the figures' series."""
        self.loop.run(self.horizon, POLL_TICK)
        return self._collate()

    # ------------------------------------------------------------------
    def _collate(self) -> DeploymentResult:
        tau = self.config.polling_interval
        total_subs = self.trace.total_subscriptions
        poll_series = self.loop.poll_series
        detection = self.loop.detect_series.means()
        mean_detection = (
            float(np.nanmean(detection)) if len(detection) else float("nan")
        )
        redundant = sum(
            node.redundant_diffs for node in self.system.nodes.values()
        )
        return DeploymentResult(
            bucket_times=poll_series.times(),
            corona_polls_per_min=poll_series.sums()
            / (self.bucket_width / 60.0),
            legacy_polls_per_min=total_subs / tau * 60.0,
            detection_times=detection,
            mean_detection_time=mean_detection,
            legacy_detection_time=tau / 2.0,
            detections=self.loop.detections,
            total_polls=self.system.counters.polls,
            total_subscriptions=total_subs,
            redundant_diffs=redundant,
            final_poll_tasks=self.system.total_poll_tasks(),
        )
