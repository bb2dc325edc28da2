"""Runner semantics: determinism, fault injection, variants, metrics."""

import dataclasses
import json

from repro.faults import FaultPlane
from repro.obs import Observability
from repro.scenarios import (
    ChurnWave,
    CorrelatedManagerFailure,
    FlashCrowd,
    MessageLoss,
    NetworkDegradation,
    NodeCrash,
    NodeJoin,
    Partition,
    PartitionHeal,
    ScenarioRunner,
    SubscriptionFlap,
    UpdateBurst,
    WorkloadSpec,
)
from repro.scenarios.runner import REGISTRY_COUNTER_KEYS, ScenarioMetrics
from tests.reference_paths import eager_rounds
from tests.scenarios.conftest import TINY_WORKLOAD, tiny_spec


def run_tiny(seed=3, **overrides):
    return ScenarioRunner(tiny_spec(**overrides), seed=seed).run()


class TestDeterminism:
    def test_same_seed_same_metrics(self):
        spec = tiny_spec(
            events=(
                NodeCrash(at=300.0, count=1),
                FlashCrowd(at=400.0, channel=0, subscribers=10),
            )
        )
        first = ScenarioRunner(spec, seed=11).run()
        second = ScenarioRunner(spec, seed=11).run()
        assert first.to_dict() == second.to_dict()
        # bit-identical through JSON rendering too (the CLI contract)
        assert json.dumps(first.to_dict(), sort_keys=True) == json.dumps(
            second.to_dict(), sort_keys=True
        )

    def test_different_seed_different_run(self):
        first = run_tiny(seed=1)
        second = run_tiny(seed=2)
        assert first.to_dict() != second.to_dict()


class TestBaseline:
    def test_steady_run_produces_detections(self):
        metrics = run_tiny()
        assert metrics.polls > 0
        assert metrics.detections > 0
        assert metrics.n_nodes_final == metrics.n_nodes_initial
        assert metrics.crashes == 0 and metrics.joins == 0
        assert metrics.scenario == "tiny"
        assert metrics.variant == "base"

    def test_series_are_paired(self):
        metrics = run_tiny()
        assert len(metrics.bucket_times) == len(metrics.polls_per_min)
        assert len(metrics.detection_bucket_times) == len(
            metrics.detection_delays
        )

    def test_to_dict_is_json_safe(self):
        payload = run_tiny().to_dict()
        json.dumps(payload)  # must not raise (NaN scrubbed to None)


class TestInjection:
    def test_node_crash_shrinks_population(self):
        metrics = run_tiny(events=(NodeCrash(at=300.0, count=2),))
        assert metrics.crashes == 2
        assert metrics.n_nodes_final == metrics.n_nodes_initial - 2

    def test_crash_preserves_subscription_state(self):
        metrics = run_tiny(
            events=(NodeCrash(at=300.0, count=3, target="managers"),)
        )
        assert metrics.final_registered_subscriptions == (
            metrics.total_subscriptions
        )

    def test_node_join_grows_population(self):
        metrics = run_tiny(events=(NodeJoin(at=300.0, count=3),))
        assert metrics.joins == 3
        assert metrics.n_nodes_final == metrics.n_nodes_initial + 3

    def test_churn_wave_ticks(self):
        metrics = run_tiny(
            events=(
                ChurnWave(
                    at=300.0,
                    duration=180.0,
                    interval=60.0,
                    crashes_per_tick=1,
                    joins_per_tick=1,
                ),
            )
        )
        # ticks at 300, 360, 420, 480 (until = at + duration, inclusive)
        assert metrics.crashes == 4
        assert metrics.joins == 4
        assert metrics.n_nodes_final == metrics.n_nodes_initial

    def test_flash_crowd_adds_subscriptions(self):
        base = run_tiny()
        crowd = run_tiny(
            events=(FlashCrowd(at=300.0, channel=0, subscribers=25),)
        )
        assert crowd.total_subscriptions == base.total_subscriptions + 25
        assert crowd.final_registered_subscriptions == (
            crowd.total_subscriptions
        )
        assert crowd.injected_events == 1

    def test_flash_crowd_past_horizon_not_counted(self):
        # the crowd window straddles the horizon: arrivals that would
        # land after the run ends must not inflate the reported load
        crowd = run_tiny(
            events=(
                FlashCrowd(
                    at=880.0, channel=0, subscribers=40, window=100.0
                ),
            )
        )
        base = run_tiny()
        added = crowd.total_subscriptions - base.total_subscriptions
        assert 0 < added < 40
        assert crowd.final_registered_subscriptions == (
            crowd.total_subscriptions
        )

    def test_update_burst_publishes_more(self):
        base = run_tiny()
        burst = run_tiny(
            events=(
                UpdateBurst(
                    at=150.0, duration=600.0, factor=16.0,
                    channel_fraction=1.0,
                ),
            )
        )
        assert burst.updates_published > base.updates_published

    def test_degradation_inflates_delay(self):
        base = run_tiny()
        degraded = run_tiny(
            events=(
                NetworkDegradation(
                    at=0.0, duration=900.0, latency_factor=200.0
                ),
            )
        )
        # Same seed: identical protocol behaviour, inflated end-to-end
        # freshness (dissemination latency is injected on top).
        assert degraded.detections == base.detections
        assert degraded.mean_detection_delay > base.mean_detection_delay


class TestMessageFaultInjection:
    def test_message_loss_drops_and_retransmits(self):
        lossy = run_tiny(
            events=(
                MessageLoss(at=60.0, duration=600.0, rate=0.1),
            )
        )
        assert lossy.messages_dropped > 0
        assert lossy.retransmissions > 0
        assert lossy.detections > 0  # the protocol rides the loss

    def test_duplicates_counted_and_absorbed(self):
        doubled = run_tiny(
            events=(
                MessageLoss(
                    at=60.0, duration=600.0, rate=0.0,
                    duplicate_rate=0.5,
                ),
            )
        )
        assert doubled.messages_duplicated > 0
        # Dedup holds: duplicated diffs never double-count detections.
        assert doubled.detections <= doubled.updates_published

    def test_partition_and_heal(self):
        cut = run_tiny(
            events=(
                Partition(at=240.0, name="cut", fraction=0.4),
                PartitionHeal(at=600.0, name="cut"),
            )
        )
        assert cut.messages_dropped > 0
        # Subscription state survives any failover the cut triggered.
        assert cut.final_registered_subscriptions == (
            cut.total_subscriptions
        )

    def test_partition_members_sized_by_fraction(self, monkeypatch):
        """The spec's ``fraction`` sizes the island drawn from the
        live population: ``round(fraction * n)`` members."""
        opened = []
        partition = FaultPlane.partition

        def spy(plane, name, **kwargs):
            island = partition(plane, name, **kwargs)
            opened.append(island)
            return island

        monkeypatch.setattr(FaultPlane, "partition", spy)
        run_tiny(events=(Partition(at=240.0, name="cut", fraction=0.4),))
        assert [len(island.members) for island in opened] == [
            round(0.4 * tiny_spec().n_nodes)
        ]

    def test_correlated_manager_failure_crashes_managers(self):
        blast = run_tiny(
            events=(CorrelatedManagerFailure(at=300.0, count=2),)
        )
        assert blast.crashes == 2
        assert blast.n_nodes_final == blast.n_nodes_initial - 2
        assert blast.final_registered_subscriptions == (
            blast.total_subscriptions
        )

    def test_fault_runs_are_deterministic(self):
        events = (
            MessageLoss(at=60.0, duration=600.0, rate=0.1,
                        duplicate_rate=0.05),
            Partition(at=300.0, name="cut", fraction=0.3,
                      isolates_servers=True),
            PartitionHeal(at=540.0, name="cut"),
        )
        first = ScenarioRunner(
            tiny_spec(events=events), seed=21
        ).run().to_dict()
        second = ScenarioRunner(
            tiny_spec(events=events), seed=21
        ).run().to_dict()
        assert first == second
        assert first["messages_dropped"] > 0


class TestSubscriptionFlap:
    def test_flap_waves_subscribe_and_unsubscribe(self):
        flapped = run_tiny(
            events=(
                SubscriptionFlap(
                    at=120.0, duration=360.0, interval=60.0,
                    channels=2, subscribers=5,
                ),
            )
        )
        # Ticks at 120..480 inclusive: 7 waves, alternating on/off,
        # 2 channels x 5 clients each.
        assert flapped.flap_subscribes == 4 * 10
        assert flapped.flap_unsubscribes == 3 * 10
        # The last wave ended subscribed: the registry carries them,
        # and the reported totals stay consistent.
        assert flapped.final_registered_subscriptions == (
            flapped.total_subscriptions
        )

    def test_flap_ending_unsubscribed_restores_load(self):
        base = run_tiny()
        flapped = run_tiny(
            events=(
                SubscriptionFlap(
                    at=120.0, duration=420.0, interval=60.0,
                    channels=2, subscribers=5,
                ),
            )
        )
        # 8 waves: the final one unsubscribes, so the run hands back
        # exactly the baseline subscription load.
        assert flapped.flap_subscribes == flapped.flap_unsubscribes
        assert flapped.total_subscriptions == base.total_subscriptions
        assert flapped.final_registered_subscriptions == (
            base.final_registered_subscriptions
        )

    def test_flap_is_deterministic(self):
        events = (
            SubscriptionFlap(
                at=120.0, duration=360.0, interval=60.0,
                channels=3, subscribers=4,
            ),
        )
        first = ScenarioRunner(
            tiny_spec(events=events), seed=8
        ).run().to_dict()
        second = ScenarioRunner(
            tiny_spec(events=events), seed=8
        ).run().to_dict()
        assert first == second


class TestRateLimitedServers:
    def test_cap_surfaces_as_staleness_not_errors(self):
        capped_workload = WorkloadSpec(
            **{
                **dataclasses.asdict(TINY_WORKLOAD),
                "rate_limit_spacing": 180.0,  # 1.5x the 120 s tau
            }
        )
        base = run_tiny()
        capped = run_tiny(workload=capped_workload)
        assert capped.rate_limited_polls > 0
        assert base.rate_limited_polls == 0
        # Refusals degrade freshness (fewer/later detections), never
        # crash the run or drop registry state.
        assert capped.detections <= base.detections
        assert capped.final_registered_subscriptions == (
            capped.total_subscriptions
        )


class TestVariants:
    def test_run_all_covers_variants(self):
        spec = tiny_spec(
            variants={
                "flat": {"workload": {"zipf_exponent": 0.0}},
                "skewed": {"workload": {"zipf_exponent": 1.0}},
            }
        )
        results = ScenarioRunner(spec, seed=7).run_all()
        assert list(results) == ["flat", "skewed"]
        assert results["flat"].variant == "flat"
        assert all(m.scenario == "tiny" for m in results.values())

    def test_run_all_without_variants_is_base(self):
        results = ScenarioRunner(tiny_spec(), seed=7).run_all()
        assert list(results) == ["base"]


class TestMetricsShape:
    def test_dataclass_fields_survive_round_trip(self):
        metrics = run_tiny()
        payload = metrics.to_dict()
        for field in dataclasses.fields(metrics):
            if field.name == "counters":
                # Registry-collated counters serialize flattened, one
                # key each, exactly where the old explicit fields sat.
                continue
            if field.name == "violations":
                # Invariant-monitor output stays out of the payload on
                # purpose: baseline bytes cannot depend on monitoring.
                assert field.name not in payload
                continue
            assert field.name in payload
        for key, value in metrics.counters.items():
            assert payload[key] == value
            assert getattr(metrics, key) == value

    def test_every_counter_has_one_head_key_slot(self):
        assert len(set(REGISTRY_COUNTER_KEYS)) == len(REGISTRY_COUNTER_KEYS)
        assert set(REGISTRY_COUNTER_KEYS) <= set(ScenarioMetrics._HEAD_KEYS)

    def test_counters_are_the_registry_series_of_the_same_name(self):
        obs = Observability.off()
        metrics = ScenarioRunner(tiny_spec(), seed=3, obs=obs).run()
        assert set(metrics.counters) == {
            *REGISTRY_COUNTER_KEYS, "solver_work_solve_hits"
        }
        for name in REGISTRY_COUNTER_KEYS:
            assert metrics.counters[name] == obs.registry.value(name)

    def test_summary_mentions_key_numbers(self):
        metrics = run_tiny()
        text = metrics.summary()
        assert "scenario tiny" in text
        assert str(metrics.detections) in text
        assert str(metrics.polls) in text


class TestDeltaRoundsEquivalence:
    """Delta rounds are an execution strategy only: a full scenario's
    --json metrics — work counters included — are bit-identical between
    delta rounds and the eager reference."""

    def test_metrics_identical_across_modes(self):
        events = (
            ChurnWave(
                at=120.0,
                duration=240.0,
                interval=60.0,
                crashes_per_tick=1,
                joins_per_tick=1,
            ),
            FlashCrowd(
                at=300.0, channel=0, subscribers=30, window=30.0,
                update_factor=2.0,
            ),
        )
        delta = ScenarioRunner(
            tiny_spec(events=events), seed=5
        ).run().to_dict()
        with eager_rounds():
            eager = ScenarioRunner(
                tiny_spec(events=events), seed=5
            ).run().to_dict()
        assert delta == eager

    def test_work_counters_emitted_and_deterministic(self):
        first = run_tiny(seed=9).to_dict()
        second = run_tiny(seed=9).to_dict()
        for key in (
            "work_summaries_rebuilt",
            "work_cluster_merges",
            "work_nodes_dirtied",
        ):
            assert key in first
            assert first[key] == second[key]
            assert first[key] >= 0
