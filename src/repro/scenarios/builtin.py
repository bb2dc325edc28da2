"""The built-in scenario library.

Scenarios covering the paper's evaluation axes and the failure modes
it argues Corona absorbs: steady-state operation, a §3.1 flash crowd,
§3.3 churn (sustained and catastrophic), publish-rate bursts,
Zipf-skew sensitivity, wide-area degradation, and the PlanetLab-
flavoured fault family (message loss, partitions with heals,
correlated manager failures, rate-limited servers, subscription
flapping, and the scheme comparison under identical fault timelines).
All are sized to finish in seconds so they double as CI smoke
workloads; scale/perf experiments override fields via variants or
:meth:`ScenarioSpec.from_dict`.
"""

from __future__ import annotations

from repro.faults.chaos import chaos_timeline
from repro.scenarios.registry import register
from repro.scenarios.spec import (
    ChurnWave,
    CorrelatedManagerFailure,
    FlashCrowd,
    LinkDegradation,
    MessageLoss,
    NetworkDegradation,
    NodeCrash,
    NodeJoin,
    NodeRecovery,
    Partition,
    PartitionHeal,
    ScenarioSpec,
    SubscriptionFlap,
    UpdateBurst,
    WorkloadSpec,
)

STEADY_STATE = register(
    ScenarioSpec(
        name="steady-state",
        description=(
            "Baseline: no faults, Zipf-0.5 workload on a stable "
            "overlay — the control every other scenario is read "
            "against."
        ),
        n_nodes=32,
        horizon=3600.0,
        workload=WorkloadSpec(n_channels=40, n_subscriptions=800),
    )
)

FLASH_CROWD = register(
    ScenarioSpec(
        name="flash-crowd",
        description=(
            "A breaking story: one channel gains 400 subscribers in a "
            "minute and updates 4x faster; server load must stay "
            "capped at the wedge (§3.1)."
        ),
        n_nodes=64,
        horizon=3600.0,
        workload=WorkloadSpec(
            n_channels=13,
            n_subscriptions=104,
            zipf_exponent=0.0,
            update_interval_scale=0.02,
        ),
        events=(
            FlashCrowd(
                at=1200.0,
                channel=0,
                subscribers=400,
                window=60.0,
                update_factor=4.0,
            ),
        ),
    )
)

HEAVY_CHURN = register(
    ScenarioSpec(
        name="heavy-churn",
        description=(
            "Membership treadmill: one crash and one join per minute "
            "for 15 minutes, then 6 simultaneous manager failures "
            "(§3.3 ownership transfer under fire)."
        ),
        n_nodes=48,
        horizon=3600.0,
        workload=WorkloadSpec(n_channels=24, n_subscriptions=480),
        events=(
            ChurnWave(
                at=900.0,
                duration=900.0,
                interval=60.0,
                crashes_per_tick=1,
                joins_per_tick=1,
            ),
            NodeCrash(at=2100.0, count=6, target="managers"),
        ),
    )
)

CHURN_RESILIENCE = register(
    ScenarioSpec(
        name="churn-resilience",
        description=(
            "The churn example as data: a quarter of the cloud dies "
            "at once, managers included; detection must continue with "
            "subscription state intact."
        ),
        n_nodes=48,
        horizon=3600.0,
        workload=WorkloadSpec(
            n_channels=12,
            n_subscriptions=240,
            zipf_exponent=0.0,
            update_interval_scale=0.02,
        ),
        events=(
            NodeCrash(at=1800.0, count=4, target="managers"),
            NodeCrash(at=1800.0, count=8, target="bystanders"),
        ),
    )
)

ZIPF_SKEW_SWEEP = register(
    ScenarioSpec(
        name="zipf-skew-sweep",
        description=(
            "Popularity-skew sensitivity: the same cloud under flat, "
            "survey (0.5) and heavy-tailed (0.9) Zipf exponents."
        ),
        n_nodes=32,
        horizon=2700.0,
        workload=WorkloadSpec(n_channels=40, n_subscriptions=800),
        variants={
            "zipf-0.0": {"workload": {"zipf_exponent": 0.0}},
            "zipf-0.5": {"workload": {"zipf_exponent": 0.5}},
            "zipf-0.9": {"workload": {"zipf_exponent": 0.9}},
        },
    )
)

BURST_PUBLISH = register(
    ScenarioSpec(
        name="burst-publish",
        description=(
            "Update-rate burst: the top quarter of channels publish "
            "8x faster for 10 minutes, then recover — cooperative "
            "polling must ride the transient."
        ),
        n_nodes=32,
        horizon=3600.0,
        workload=WorkloadSpec(
            n_channels=40, n_subscriptions=800, update_interval_scale=0.04
        ),
        events=(
            UpdateBurst(
                at=1200.0, duration=600.0, factor=8.0, channel_fraction=0.25
            ),
        ),
    )
)

DEGRADED_OVERLAY = register(
    ScenarioSpec(
        name="degraded-overlay",
        description=(
            "Wide-area brown-out: per-hop latency inflates 50x for 15 "
            "minutes mid-run while four fresh nodes join; end-to-end "
            "freshness degrades gracefully, polling load does not."
        ),
        n_nodes=32,
        horizon=3600.0,
        workload=WorkloadSpec(n_channels=40, n_subscriptions=800),
        events=(
            NetworkDegradation(
                at=1200.0, duration=900.0, latency_factor=50.0
            ),
            NodeJoin(at=1500.0, count=4),
        ),
    )
)

CHURN_SCALE_SWEEP = register(
    ScenarioSpec(
        name="churn-scale-sweep",
        description=(
            "Scale probe for incremental churn: manager-targeted "
            "crash/join waves at 512 up to 4096 nodes over a wide "
            "channel population — CI gates the n512 work counters "
            "of membership change (churn-scale-sweep.work.json)."
        ),
        n_nodes=512,
        horizon=1800.0,
        poll_tick=60.0,
        bucket_width=300.0,
        workload=WorkloadSpec(
            n_channels=128,
            n_subscriptions=1280,
            update_interval_scale=0.05,
        ),
        events=(
            ChurnWave(
                at=300.0,
                duration=600.0,
                interval=60.0,
                crashes_per_tick=2,
                joins_per_tick=2,
                target="managers",
            ),
            NodeCrash(at=1200.0, count=8, target="managers"),
            NodeJoin(at=1260.0, count=8),
        ),
        variants={
            "n512": {},
            "n1024": {"n_nodes": 1024},
            "n2048": {"n_nodes": 2048},
            "n4096": {"n_nodes": 4096},
        },
    )
)

STEADY_STATE_4096 = register(
    ScenarioSpec(
        name="steady-state-4096",
        description=(
            "Delta-round scale probe: a fault-free 4096-node cloud "
            "where, once levels converge, maintenance rounds should "
            "do work proportional to change (≈ none) — its --json "
            "work counters are the steady-state regression reference "
            "for aggregation cost at scale."
        ),
        n_nodes=4096,
        horizon=1800.0,
        poll_tick=300.0,
        bucket_width=600.0,
        workload=WorkloadSpec(
            n_channels=64,
            n_subscriptions=640,
            update_interval_scale=0.05,
        ),
    )
)

LOSSY_OVERLAY = register(
    ScenarioSpec(
        name="lossy-overlay",
        description=(
            "PlanetLab weather: 5% wide-area message loss (with "
            "occasional duplicates) for the middle half hour; per-hop "
            "retransmits and the maintenance repair pass must hold "
            "freshness while messages_dropped/retransmissions show "
            "the cost."
        ),
        n_nodes=32,
        horizon=3600.0,
        workload=WorkloadSpec(n_channels=40, n_subscriptions=800),
        events=(
            MessageLoss(
                at=600.0,
                duration=1800.0,
                rate=0.05,
                duplicate_rate=0.01,
            ),
        ),
    )
)

PARTITION_HEAL = register(
    ScenarioSpec(
        name="partition-heal",
        description=(
            "A quarter of the cloud is cut off for 25 minutes, "
            "servers included, then the partition heals; unresponsive "
            "managers fail over through crash repair and stranded "
            "wedge members converge via the anti-entropy pass."
        ),
        n_nodes=48,
        horizon=3600.0,
        workload=WorkloadSpec(n_channels=24, n_subscriptions=480),
        events=(
            Partition(
                at=900.0,
                name="island",
                fraction=0.25,
                isolates_servers=True,
            ),
            PartitionHeal(at=2400.0, name="island"),
        ),
    )
)

CORRELATED_MANAGER_FAILURES = register(
    ScenarioSpec(
        name="correlated-manager-failures",
        description=(
            "Two correlated blasts take out six channel managers each "
            "while the wide area is lossy — §3.3 ownership transfer "
            "under fire, with retransmits and repair carrying the "
            "wedges through."
        ),
        n_nodes=48,
        horizon=3600.0,
        workload=WorkloadSpec(n_channels=24, n_subscriptions=480),
        events=(
            MessageLoss(at=900.0, duration=1500.0, rate=0.03),
            CorrelatedManagerFailure(at=1200.0, count=6),
            CorrelatedManagerFailure(at=1800.0, count=6),
        ),
    )
)

SCHEME_FAULT_SWEEP = register(
    ScenarioSpec(
        name="scheme-fault-sweep",
        description=(
            "Corona-Lite vs Fast vs Fair under one identical fault "
            "timeline (5% loss plus a partition that heals) — the "
            "scheme comparison the paper only ran in steady state, "
            "as one CLI invocation."
        ),
        n_nodes=32,
        horizon=2700.0,
        workload=WorkloadSpec(n_channels=40, n_subscriptions=800),
        events=(
            MessageLoss(at=300.0, duration=1800.0, rate=0.05),
            Partition(at=900.0, name="split", fraction=0.25),
            PartitionHeal(at=1500.0, name="split"),
        ),
        variants={
            "lite": {"config": {"scheme": "lite"}},
            "fast": {"config": {"scheme": "fast"}},
            "fair": {"config": {"scheme": "fair"}},
        },
    )
)

RATE_LIMITED_SERVERS = register(
    ScenarioSpec(
        name="rate-limited-servers",
        description=(
            "Adversarial content providers: per-IP caps (1.5x the "
            "polling interval) refuse over-cap polls with the stale "
            "snapshot — detection must degrade to staleness, never "
            "errors; the uncapped variant is the control."
        ),
        n_nodes=32,
        horizon=3600.0,
        workload=WorkloadSpec(
            n_channels=40,
            n_subscriptions=800,
            rate_limit_spacing=450.0,
        ),
        variants={
            "capped": {},
            "uncapped": {"workload": {"rate_limit_spacing": 0.0}},
        },
    )
)

SUBSCRIPTION_FLAP = register(
    ScenarioSpec(
        name="subscription-flap",
        description=(
            "Subscription-plane churn: waves of 20 clients per "
            "channel flap on and off the four hottest channels every "
            "two minutes for half an hour — estimators and optimizer "
            "must ride the treadmill without losing registry state."
        ),
        n_nodes=32,
        horizon=3600.0,
        workload=WorkloadSpec(n_channels=40, n_subscriptions=800),
        events=(
            SubscriptionFlap(
                at=900.0,
                duration=1800.0,
                interval=120.0,
                channels=4,
                subscribers=20,
            ),
        ),
    )
)

CRASH_RECOVER = register(
    ScenarioSpec(
        name="crash-recover",
        description=(
            "Six channel managers crash, then rejoin ten minutes "
            "later under their original identities — §3.3 ownership "
            "transfer forward on the crash and *back* on the "
            "recovery, with caches catching up via bootstrap and the "
            "anti-entropy pass."
        ),
        n_nodes=48,
        horizon=3600.0,
        workload=WorkloadSpec(n_channels=24, n_subscriptions=480),
        events=(
            NodeCrash(at=900.0, count=6, target="managers"),
            NodeRecovery(at=1500.0, count=6),
        ),
    )
)

CONGESTED_RELAY = register(
    ScenarioSpec(
        name="congested-relay",
        description=(
            "Bandwidth brown-out: a quarter of the cloud's outbound "
            "links drop to a trickle (token bucket, bounded queue) "
            "for 15 minutes — adaptive RTOs back retransmits off, "
            "queue overflow drops separately from loss, congested "
            "nodes shed poll load (stale serves, not errors), and "
            "everyone reconverges within a maintenance interval of "
            "the window's end."
        ),
        n_nodes=32,
        horizon=3600.0,
        workload=WorkloadSpec(n_channels=40, n_subscriptions=800),
        events=(
            LinkDegradation(
                at=1200.0,
                duration=900.0,
                fraction=0.25,
                bandwidth=0.02,
                queue_limit=6,
                direction="outbound",
            ),
        ),
    )
)

SLOW_SUBTREE = register(
    ScenarioSpec(
        name="slow-subtree",
        description=(
            "Latency asymmetry: every link *into* a quarter of the "
            "cloud gains 1.5s (+U(0,0.5) jitter) for 20 minutes — "
            "the slow subtree's detections age by path delay while "
            "the rest of the wedge stays fast, and the EWMA RTO "
            "keeps retransmits patient instead of spurious."
        ),
        n_nodes=32,
        horizon=3600.0,
        workload=WorkloadSpec(n_channels=40, n_subscriptions=800),
        events=(
            LinkDegradation(
                at=900.0,
                duration=1200.0,
                fraction=0.25,
                latency=1.5,
                jitter=0.5,
                direction="inbound",
            ),
        ),
    )
)

ASYMMETRIC_LOSS = register(
    ScenarioSpec(
        name="asymmetric-loss",
        description=(
            "Directional weather: outbound links of a quarter of the "
            "cloud drop 30% of messages for 25 minutes while the "
            "reverse direction stays clean — per-link overrides "
            "replace the global rate on exactly those links, and "
            "backed-off retransmits plus anti-entropy repair carry "
            "the affected wedges."
        ),
        n_nodes=32,
        horizon=3600.0,
        workload=WorkloadSpec(n_channels=40, n_subscriptions=800),
        events=(
            LinkDegradation(
                at=600.0,
                duration=1500.0,
                fraction=0.25,
                loss=0.3,
                direction="outbound",
            ),
        ),
    )
)

MULTI_DC = register(
    ScenarioSpec(
        name="multi-dc",
        description=(
            "Declarative topology: the cloud spans three datacenters "
            "(5ms intra, 120ms inter with 30% jitter and 2% cross-DC "
            "loss) for the whole run — the latency-matrix shape of "
            "the link table, exercising path-delay accumulation "
            "through multi-hop wedge floods."
        ),
        n_nodes=33,
        horizon=3600.0,
        workload=WorkloadSpec(n_channels=40, n_subscriptions=800),
        links={
            "topology": "multi-dc",
            "dcs": 3,
            "intra_latency": 0.005,
            "inter_latency": 0.12,
            "jitter_fraction": 0.3,
            "inter_loss": 0.02,
        },
    )
)

CHAOS_SOAK = register(
    ScenarioSpec(
        name="chaos-soak",
        description=(
            "Seeded chaos schedules: each variant expands one chaos "
            "seed into a deterministic fault+recovery timeline (loss "
            "bursts, partition+heal pairs, crash+recover waves, "
            "correlated manager failures) — same seed, same timeline, "
            "same metrics, so chaos runs diff across PRs like every "
            "other scenario."
        ),
        n_nodes=48,
        horizon=3600.0,
        workload=WorkloadSpec(n_channels=24, n_subscriptions=480),
        variants={
            f"chaos-{chaos_seed}": {
                "events": chaos_timeline(chaos_seed, 3600.0, 48)
            }
            for chaos_seed in range(3)
        },
    )
)

#: Names guaranteed registered, in narrative order (docs/tests).
BUILTIN_NAMES = (
    "steady-state",
    "flash-crowd",
    "heavy-churn",
    "churn-resilience",
    "zipf-skew-sweep",
    "burst-publish",
    "degraded-overlay",
    "churn-scale-sweep",
    "steady-state-4096",
    "lossy-overlay",
    "partition-heal",
    "correlated-manager-failures",
    "scheme-fault-sweep",
    "rate-limited-servers",
    "subscription-flap",
    "crash-recover",
    "congested-relay",
    "slow-subtree",
    "asymmetric-loss",
    "multi-dc",
    "chaos-soak",
)
