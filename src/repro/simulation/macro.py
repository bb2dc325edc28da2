"""The scalable hybrid simulator behind the §5.1 experiments.

The paper simulates 1024 nodes, 20 000 channels and 1 000 000
subscriptions for six hours.  Simulating every poll as a message event
at that scale is pointless — poll *outcomes* are statistically exact
without it:

* **wedge populations** are measured exactly from the real overlay's
  identifier prefixes (not the ``N/b^l`` expectation), so orphans and
  small-wedge variance are real;
* **the control plane is simulated faithfully**: every maintenance
  round runs the decentralized aggregation over the real routing
  tables (one prefix digit of horizon per round — global knowledge
  propagates gradually, reproducing the initial transient of Figure 3)
  and every manager node solves its own Honeycomb instance from local
  fine-grained data plus remote clusters, then steps levels one at a
  time;
* **update detection is sampled exactly**: with ``n`` staggered
  pollers at interval τ, the detection delay of one update is the
  minimum of ``n`` independent U(0, τ) residuals, i.e.
  ``τ·(1 − U^{1/n})`` — the macro simulator draws from that law per
  update event instead of enumerating polls.

The per-bucket server load is the deterministic consequence of current
levels (``n_i`` polls per τ per channel), which is also exact.

Table 2 compares five schemes over *one* world: the same overlay,
channel placement and update schedule.  None of it depends on the
scheme, so a :class:`MacroWorld` — the overlay, its base level, the
channel ids, wedge populations, managers, anchor prefixes, orphan mask
and the update schedule — is built once and shared by every simulator
of the same ``(trace, n_nodes, seed, base, horizon)``; each scheme
builds only its own nodes, their channel adoptions and trace stats,
its levels and its aggregator.  Sharing changes no result, bit for
bit:

* the world also keeps the state of ``default_rng(seed)`` after the
  update draws, and every simulator resumes its generator from it, so
  each draw in :meth:`MacroSimulator.run` is the one a fresh build
  would make;
* the shared arrays are read-only, and nothing a run does writes to
  the overlay;
* the one-slot memo behind the constructor is keyed on a snapshot of
  the *values* the world reads (the URLs, the update intervals' bytes,
  node count, base, horizon and seed), never on object identity, so a
  trace mutated in place gets a fresh world.
"""

from __future__ import annotations

import bisect
from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from repro.core.config import CoronaConfig
from repro.core.node import CoronaNode
from repro.honeycomb.aggregation import DecentralizedAggregator
from repro.honeycomb.clusters import ClusterSummary
from repro.honeycomb.solver import SolverWork
from repro.obs import NULL_SPAN, Observability
from repro.overlay.hashing import channel_id
from repro.overlay.network import OverlayNetwork
from repro.overlay.nodeid import ID_BITS, NodeId, bits_per_digit
from repro.workload.trace import SubscriptionTrace


@dataclass
class MacroResult:
    """Everything one macro run produces; benches render these."""

    scheme: str
    bucket_times: np.ndarray  # bucket midpoints, seconds
    polls_per_min: np.ndarray  # total server polls/minute per bucket
    kbps_per_channel: np.ndarray  # mean bandwidth load per channel
    detection_means: np.ndarray  # event-measured weighted delay per bucket
    analytic_series: np.ndarray  # expected weighted delay per bucket
    #: The paper's Figure 4 / Table 2 metric is the subscription-weighted
    #: *expected* detection time over all channels under current levels
    #: (the optimizer's own objective); the event-measured series skews
    #: toward frequently-updating channels, which sit at deeper levels.
    final_levels: np.ndarray  # per-channel polling level at end
    final_pollers: np.ndarray  # per-channel wedge population at end
    per_channel_delay: np.ndarray  # mean measured delay per channel (NaN if no update)
    mean_weighted_delay: float  # Table 2 column 1
    polls_per_channel_per_tau: float  # Table 2 column 2
    target_polls_per_tau: float  # the legacy-equivalent budget
    orphan_count: int
    analytic_weighted_delay: float  # τ/(2 n_i) expectation under final levels


def draw_updates(
    intervals: np.ndarray, horizon: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Periodic-with-jitter update events, ``(times, channels)`` by time.

    Each channel's first update falls uniformly in its first interval
    and every later gap is its interval jittered by U(0.7, 1.3);
    channels updating less often than every four horizons never update
    inside the run.  The macro simulator and the legacy baseline both
    draw their schedule here, from their own generator.
    """
    times: list[float] = []
    channels: list[int] = []
    for index in range(len(intervals)):
        interval = float(intervals[index])
        if interval > horizon * 4:
            continue  # effectively never updates inside the run
        t = float(rng.uniform(0.0, interval))
        while t < horizon:
            times.append(t)
            channels.append(index)
            t += interval * float(rng.uniform(0.7, 1.3))
    order = np.argsort(times) if times else np.array([], dtype=np.int64)
    return (
        np.array(times, dtype=np.float64)[order],
        np.array(channels, dtype=np.int64)[order],
    )


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@dataclass(frozen=True, eq=False)
class MacroWorld:
    """What every scheme of one Table 2 run shares (module docstring)."""

    overlay: OverlayNetwork
    base_level: int
    channel_ids: tuple[NodeId, ...]
    #: url -> channel index (the last index of a repeated URL).
    channel_index: Mapping[str, int]
    #: Wedge population per channel per level, shape ``(m, K + 1)``.
    wedge_sizes: np.ndarray
    managers: tuple[NodeId, ...]
    anchor_prefix: np.ndarray
    orphan: np.ndarray
    update_times: np.ndarray
    update_channels: np.ndarray
    #: ``default_rng(seed)``'s bit-generator state after the updates
    #: (a plain dict, as numpy's state setter wants; never written).
    rng_state: dict

    @classmethod
    def build(
        cls,
        trace: SubscriptionTrace,
        base: int,
        n_nodes: int,
        seed: int,
        horizon: float,
    ) -> "MacroWorld":
        """Build the world from scratch (the constructor memoizes it)."""
        rng = np.random.default_rng(seed)
        # The "corona" address prefix yields a Poisson-typical number
        # of empty identifier-prefix regions (hence orphans) at the
        # paper's 1024-node scale; an unlucky hash universe can double
        # the orphan count and visibly drag the weighted latency.
        overlay = OverlayNetwork.build(
            n_nodes, base=base, leaf_size=4, address_prefix="corona"
        )
        k = overlay.base_level()
        channel_ids = tuple(channel_id(url) for url in trace.urls)
        # Wedge population per channel per level, measured exactly by
        # prefix-range counting over the sorted node identifiers; the
        # owner level always has at least the manager itself polling.
        id_list = sorted(node.value for node in overlay.node_ids())
        wedge_sizes = np.ones((len(channel_ids), k + 1), dtype=np.int64)
        bpd = bits_per_digit(base)
        for index, cid in enumerate(channel_ids):
            wedge_sizes[index, 0] = n_nodes
            for level in range(1, k + 1):
                shift = ID_BITS - level * bpd
                lo = (cid.value >> shift) << shift
                left = bisect.bisect_left(id_list, lo)
                right = bisect.bisect_left(id_list, lo + (1 << shift))
                wedge_sizes[index, level] = max(
                    1 if level == k else 0, right - left
                )
        managers = tuple(overlay.anchor_of(cid) for cid in channel_ids)
        anchor_prefix = np.array(
            [
                manager.shared_prefix_len(cid, base)
                for manager, cid in zip(managers, channel_ids)
            ],
            dtype=np.int64,
        )
        update_times, update_channels = draw_updates(
            trace.update_intervals, horizon, rng
        )
        return cls(
            overlay=overlay,
            base_level=k,
            channel_ids=channel_ids,
            channel_index=MappingProxyType(
                {url: i for i, url in enumerate(trace.urls)}
            ),
            wedge_sizes=_read_only(wedge_sizes),
            managers=managers,
            anchor_prefix=_read_only(anchor_prefix),
            orphan=_read_only(anchor_prefix < (k - 1)),
            update_times=_read_only(update_times),
            update_channels=_read_only(update_channels),
            rng_state=rng.bit_generator.state,
        )


#: One-slot memo: ``(key, world)`` of the last world built.
_last_world: tuple[tuple, MacroWorld] | None = None


def _shared_world(
    trace: SubscriptionTrace,
    base: int,
    n_nodes: int,
    seed: int,
    horizon: float,
) -> MacroWorld:
    """The world for these values: the last one built, if they match."""
    global _last_world
    key = (
        n_nodes, seed, base, horizon,
        tuple(trace.urls), trace.update_intervals.tobytes(),
    )
    if _last_world is None or _last_world[0] != key:
        _last_world = (
            key, MacroWorld.build(trace, base, n_nodes, seed, horizon)
        )
    return _last_world[1]


class MacroSimulator:
    """Drives one scheme over one trace (see module docstring)."""

    def __init__(
        self,
        trace: SubscriptionTrace,
        config: CoronaConfig,
        n_nodes: int = 1024,
        seed: int = 0,
        horizon: float = 6 * 3600.0,
        bucket_width: float = 600.0,
        obs: Observability | None = None,
    ) -> None:
        self.trace = trace
        self.config = config
        self.n_nodes = n_nodes
        self.seed = seed
        self.horizon = horizon
        self.bucket_width = bucket_width
        self.obs = obs if obs is not None else Observability.off()
        #: Shared solver counters across all manager nodes.
        self.solver_work = SolverWork(self.obs.registry)
        self.world = _shared_world(trace, config.base, n_nodes, seed, horizon)
        self.rng = np.random.default_rng(seed)
        self.rng.bit_generator.state = self.world.rng_state
        self._prepare_channels()

    # ------------------------------------------------------------------
    # setup
    # ------------------------------------------------------------------
    def _prepare_channels(self) -> None:
        """This scheme's managers, adoptions, levels and aggregator.

        Nodes get their dirty hook only once every trace stat is
        written: the aggregator starts with every node dirty, so the
        setup writes have nothing to report.
        """
        trace = self.trace
        world = self.world
        k = world.base_level
        self.levels = np.full(trace.n_channels, k, dtype=np.int64)
        self.nodes: dict[NodeId, CoronaNode] = {}
        for url, manager, prefix, subscribers, size, interval in zip(
            trace.urls,
            world.managers,
            world.anchor_prefix.tolist(),
            trace.subscribers.tolist(),
            trace.content_sizes.tolist(),
            trace.update_intervals.tolist(),
        ):
            node = self.nodes.get(manager)
            if node is None:
                node = self.nodes[manager] = CoronaNode(
                    manager,
                    self.config,
                    rng_seed=self.seed,
                    solver_work=self.solver_work,
                )
            stats = node.adopt_channel(
                url, max_level=k, anchor_prefix=prefix, now=0.0
            ).stats
            stats.subscribers = int(subscribers)
            stats.content_size = int(size)
            stats._interval_estimate = float(interval)
        # The overlay's live routing-table view keeps the aggregator
        # current without per-event re-materialization (same API the
        # full system uses for incremental churn).
        self.aggregator = DecentralizedAggregator.for_overlay(
            world.overlay,
            bins=self.config.tradeoff_bins,
            registry=self.obs.registry,
        )
        for node in self.nodes.values():
            node.on_factors_changed = self.aggregator.mark_local_dirty

    # ------------------------------------------------------------------
    # decentralized control plane
    # ------------------------------------------------------------------
    def _run_control_round(self) -> None:
        """One optimization + aggregation + level-step round.

        The aggregation phase (:meth:`DecentralizedAggregator
        .run_phase`) reloads only managers whose factors moved since
        the last round (plus the initial everyone-dirty load).
        """
        self.aggregator.run_phase(
            lambda node_id: (
                self.nodes[node_id].local_summary()
                if node_id in self.nodes
                else ClusterSummary(bins=self.config.tradeoff_bins)
            )
        )
        solve_cache: dict = {}  # round-scoped shared solutions
        for node_id, node in self.nodes.items():
            remote = self.aggregator.states[node_id].best_remote()
            node.run_optimization(remote, self.n_nodes, solve_cache=solve_cache)
            controller = node.controller
            for url, channel in node.managed.items():
                before = channel.level
                if controller.settled(url, before):
                    # Levels are clamped on every write, so a channel
                    # at its target has nowhere to step or snap to.
                    continue
                channel.level = controller.step(url, before)
                channel.clamp_level()
                self.levels[self.world.channel_index[url]] = channel.level

    # ------------------------------------------------------------------
    # measurement
    # ------------------------------------------------------------------
    def _pollers(self) -> np.ndarray:
        """Current wedge population per channel under current levels."""
        gathered = self.world.wedge_sizes[
            np.arange(self.trace.n_channels), self.levels
        ]
        return np.maximum(1, gathered)

    def run(self) -> MacroResult:
        """Execute the full horizon; see :class:`MacroResult`."""
        tau = self.config.polling_interval
        maint = self.config.maintenance_interval
        m = self.trace.n_channels
        q = self.trace.subscribers.astype(np.float64)
        sizes = self.trace.content_sizes.astype(np.float64)
        update_times = self.world.update_times
        update_channels = self.world.update_channels

        n_buckets = int(np.ceil(self.horizon / self.bucket_width))
        bucket_times = (np.arange(n_buckets) + 0.5) * self.bucket_width
        polls_per_min = np.zeros(n_buckets)
        kbps_per_channel = np.zeros(n_buckets)
        analytic_series = np.zeros(n_buckets)
        detection_sum = np.zeros(n_buckets)
        detection_weight = np.zeros(n_buckets)

        per_channel_delay_sum = np.zeros(m)
        per_channel_delay_count = np.zeros(m, dtype=np.int64)
        total_polls = 0.0
        weighted_delay_sum = 0.0
        weighted_delay_count = 0.0

        next_maint = 0.0
        for bucket in range(n_buckets):
            t0 = bucket * self.bucket_width
            t1 = t0 + self.bucket_width
            # Control rounds due in this bucket fire at its start (the
            # bucket width divides the maintenance interval in all the
            # paper's setups).
            while next_maint < t1 - 1e-9:
                if next_maint >= t0 - 1e-9:
                    with self.obs.tracer.span(
                        "macro.control_round",
                        sim_time=next_maint,
                        category="phase",
                    ) as span:
                        solved_before = self.solver_work.problems_solved
                        self._run_control_round()
                        if span is not NULL_SPAN:
                            span.set(
                                problems_solved=self.solver_work.problems_solved
                                - solved_before,
                            )
                next_maint += maint

            pollers = self._pollers().astype(np.float64)
            # Load: each of the n_i wedge members polls once per tau.
            polls_this_bucket = pollers.sum() * (self.bucket_width / tau)
            total_polls += polls_this_bucket
            polls_per_min[bucket] = polls_this_bucket / (
                self.bucket_width / 60.0
            )
            kbps_per_channel[bucket] = float(
                (pollers * sizes / tau).mean() * 8.0 / 1000.0
            )
            analytic_series[bucket] = float(
                ((tau / 2.0 / pollers) * q).sum() / max(q.sum(), 1.0)
            )

            # Updates falling in this bucket: sample detection delays.
            lo = np.searchsorted(update_times, t0, side="left")
            hi = np.searchsorted(update_times, t1, side="left")
            if hi > lo:
                events = update_channels[lo:hi]
                n_event = pollers[events]
                u = self.rng.random(hi - lo)
                delays = tau * (1.0 - u ** (1.0 / n_event))
                weights = q[events]
                np.add.at(per_channel_delay_sum, events, delays)
                np.add.at(per_channel_delay_count, events, 1)
                detection_sum[bucket] += float((delays * weights).sum())
                detection_weight[bucket] += float(weights.sum())
                weighted_delay_sum += float((delays * weights).sum())
                weighted_delay_count += float(weights.sum())

        detection_means = np.divide(
            detection_sum,
            detection_weight,
            out=np.full(n_buckets, np.nan),
            where=detection_weight > 0,
        )
        per_channel_delay = np.divide(
            per_channel_delay_sum,
            per_channel_delay_count,
            out=np.full(m, np.nan),
            where=per_channel_delay_count > 0,
        )
        pollers = self._pollers().astype(np.float64)
        analytic = float(
            ((tau / 2.0 / pollers) * q).sum() / max(q.sum(), 1.0)
        )
        duration_intervals = self.horizon / tau
        return MacroResult(
            scheme=self.config.scheme,
            bucket_times=bucket_times,
            polls_per_min=polls_per_min,
            kbps_per_channel=kbps_per_channel,
            detection_means=detection_means,
            analytic_series=analytic_series,
            final_levels=self.levels.copy(),
            final_pollers=pollers.astype(np.int64),
            per_channel_delay=per_channel_delay,
            mean_weighted_delay=(
                weighted_delay_sum / weighted_delay_count
                if weighted_delay_count
                else float("nan")
            ),
            polls_per_channel_per_tau=float(
                total_polls / duration_intervals / m
            ),
            target_polls_per_tau=float(q.sum()),
            orphan_count=int(self.world.orphan.sum()),
            analytic_weighted_delay=analytic,
        )


def run_legacy(
    trace: SubscriptionTrace,
    config: CoronaConfig,
    horizon: float = 6 * 3600.0,
    bucket_width: float = 600.0,
    seed: int = 0,
) -> MacroResult:
    """The legacy-RSS baseline over the same workload.

    Load is deterministic (q_i polls per τ per channel); detection
    delays are the per-client U(0, τ) law, sampled per update to give
    the same scatter the paper's legacy lines show.
    """
    rng = np.random.default_rng(seed)
    tau = config.polling_interval
    m = trace.n_channels
    q = trace.subscribers.astype(np.float64)
    sizes = trace.content_sizes.astype(np.float64)

    n_buckets = int(np.ceil(horizon / bucket_width))
    bucket_times = (np.arange(n_buckets) + 0.5) * bucket_width
    polls_per_min = np.full(n_buckets, q.sum() / tau * 60.0)
    kbps_per_channel = np.full(
        n_buckets, float((q * sizes / tau).mean() * 8.0 / 1000.0)
    )

    update_times, update_channels = draw_updates(
        trace.update_intervals, horizon, rng
    )

    detection_sum = np.zeros(n_buckets)
    detection_weight = np.zeros(n_buckets)
    per_channel_delay_sum = np.zeros(m)
    per_channel_delay_count = np.zeros(m, dtype=np.int64)
    weighted_sum = weighted_count = 0.0
    for t0_index in range(n_buckets):
        t0, t1 = t0_index * bucket_width, (t0_index + 1) * bucket_width
        lo = np.searchsorted(update_times, t0, side="left")
        hi = np.searchsorted(update_times, t1, side="left")
        if hi <= lo:
            continue
        events = update_channels[lo:hi]
        delays = rng.uniform(0.0, tau, size=hi - lo)
        weights = q[events]
        np.add.at(per_channel_delay_sum, events, delays)
        np.add.at(per_channel_delay_count, events, 1)
        detection_sum[t0_index] += float((delays * weights).sum())
        detection_weight[t0_index] += float(weights.sum())
        weighted_sum += float((delays * weights).sum())
        weighted_count += float(weights.sum())

    per_channel_delay = np.divide(
        per_channel_delay_sum,
        per_channel_delay_count,
        out=np.full(m, np.nan),
        where=per_channel_delay_count > 0,
    )
    return MacroResult(
        scheme="legacy",
        bucket_times=bucket_times,
        polls_per_min=polls_per_min,
        kbps_per_channel=kbps_per_channel,
        detection_means=np.divide(
            detection_sum,
            detection_weight,
            out=np.full(n_buckets, np.nan),
            where=detection_weight > 0,
        ),
        analytic_series=np.full(n_buckets, tau / 2.0),
        final_levels=np.zeros(m, dtype=np.int64),
        final_pollers=trace.subscribers.astype(np.int64),
        per_channel_delay=per_channel_delay,
        mean_weighted_delay=weighted_sum / weighted_count if weighted_count else float("nan"),
        polls_per_channel_per_tau=float(q.mean()),
        target_polls_per_tau=float(q.sum()),
        orphan_count=0,
        analytic_weighted_delay=tau / 2.0,
    )
