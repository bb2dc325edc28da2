"""Spec construction, validation errors, and the plain-dict round trip."""

import pytest

from repro.scenarios import (
    ChurnWave,
    FlashCrowd,
    NodeCrash,
    ScenarioSpec,
    ScenarioSpecError,
    UpdateBurst,
    WorkloadSpec,
)
from tests.scenarios.conftest import tiny_spec


class TestValidation:
    def test_valid_spec_passes(self, base_spec):
        base_spec.validate()

    def test_needs_name(self):
        with pytest.raises(ScenarioSpecError, match="name"):
            tiny_spec(name="").validate()

    def test_population_too_small(self):
        with pytest.raises(ScenarioSpecError, match="n_nodes"):
            tiny_spec(n_nodes=1).validate()

    def test_bad_horizon(self):
        with pytest.raises(ScenarioSpecError, match="horizon"):
            tiny_spec(horizon=0.0).validate()

    def test_unknown_config_key(self):
        spec = tiny_spec(config={"polling_intervall": 60.0})
        with pytest.raises(ScenarioSpecError, match="polling_intervall"):
            spec.validate()

    def test_invalid_config_value(self):
        spec = tiny_spec(config={"scheme": "warp"})
        with pytest.raises(ScenarioSpecError, match="invalid config"):
            spec.validate()

    def test_config_must_be_mapping(self):
        with pytest.raises(ScenarioSpecError, match="config.*mapping"):
            tiny_spec(config=5).validate()
        with pytest.raises(ScenarioSpecError, match="config.*mapping"):
            ScenarioSpec.from_dict({"name": "x", "config": 5})

    def test_workload_must_be_workload_spec(self):
        with pytest.raises(ScenarioSpecError, match="WorkloadSpec"):
            tiny_spec(workload={"n_channels": 3}).validate()

    def test_events_must_be_dataclasses(self):
        with pytest.raises(ScenarioSpecError, match="event dataclasses"):
            tiny_spec(events=({"kind": "node-join", "at": 1.0},)).validate()

    def test_workload_validated(self):
        spec = tiny_spec(workload=WorkloadSpec(n_channels=0))
        with pytest.raises(ScenarioSpecError, match="n_channels"):
            spec.validate()

    def test_event_outside_horizon(self):
        spec = tiny_spec(events=(NodeCrash(at=5000.0),))
        with pytest.raises(ScenarioSpecError, match="outside the horizon"):
            spec.validate()

    def test_flash_crowd_channel_out_of_range(self):
        spec = tiny_spec(events=(FlashCrowd(at=100.0, channel=99),))
        with pytest.raises(ScenarioSpecError, match="out of.*range"):
            spec.validate()

    def test_crashes_must_leave_a_survivor(self):
        spec = tiny_spec(events=(NodeCrash(at=100.0, count=8),))
        with pytest.raises(ScenarioSpecError, match="survive"):
            spec.validate()

    def test_event_field_validation(self):
        with pytest.raises(ScenarioSpecError, match="target"):
            tiny_spec(events=(NodeCrash(at=1.0, target="everyone"),)).validate()
        with pytest.raises(ScenarioSpecError, match="factor"):
            tiny_spec(events=(UpdateBurst(at=1.0, factor=0.0),)).validate()
        with pytest.raises(ScenarioSpecError, match="churn-wave"):
            tiny_spec(
                events=(
                    ChurnWave(
                        at=1.0, crashes_per_tick=0, joins_per_tick=0
                    ),
                )
            ).validate()

    def test_variant_unknown_field(self):
        spec = tiny_spec(variants={"bad": {"n_notes": 4}})
        with pytest.raises(ScenarioSpecError, match="n_notes"):
            spec.validate()

    def test_variant_cannot_rename(self):
        spec = tiny_spec(variants={"bad": {"name": "other"}})
        with pytest.raises(ScenarioSpecError, match="name"):
            spec.validate()

    def test_unknown_variant_lookup(self, base_spec):
        with pytest.raises(ScenarioSpecError, match="unknown variant"):
            base_spec.variant_spec("nope")


class TestVariants:
    def test_config_overrides_merge(self):
        spec = tiny_spec(
            config={"polling_interval": 60.0, "base": 4},
            variants={"fast": {"config": {"scheme": "fast"}}},
        )
        variant = spec.variant_spec("fast")
        resolved = variant.corona_config()
        # the sweep key changed; the base customizations survive
        assert resolved.scheme == "fast"
        assert resolved.polling_interval == 60.0
        assert resolved.base == 4

    def test_config_override_must_be_mapping(self):
        spec = tiny_spec(variants={"bad": {"config": 7}})
        with pytest.raises(ScenarioSpecError, match="config.*mapping"):
            spec.variant_spec("bad")

    def test_overrides_apply(self):
        spec = tiny_spec(
            variants={
                "big": {"n_nodes": 16, "workload": {"n_channels": 12}},
            }
        )
        variant = spec.variant_spec("big")
        assert variant.n_nodes == 16
        assert variant.workload.n_channels == 12
        # untouched fields are inherited
        assert variant.horizon == spec.horizon
        assert variant.workload.n_subscriptions == (
            spec.workload.n_subscriptions
        )
        assert variant.variants == {}


class TestDictRoundTrip:
    def test_round_trip(self):
        spec = tiny_spec(
            events=(
                NodeCrash(at=300.0, count=2, target="bystanders"),
                FlashCrowd(at=400.0, channel=1, subscribers=5),
            ),
            variants={"flat": {"workload": {"zipf_exponent": 0.0}}},
        )
        rebuilt = ScenarioSpec.from_dict(spec.to_dict())
        assert rebuilt == spec

    def test_from_dict_unknown_top_level_key(self):
        with pytest.raises(ScenarioSpecError, match="horizont"):
            ScenarioSpec.from_dict({"name": "x", "horizont": 3.0})

    def test_from_dict_unknown_event_kind(self):
        with pytest.raises(ScenarioSpecError, match="unknown event kind"):
            ScenarioSpec.from_dict(
                {"name": "x", "events": [{"kind": "meteor-strike", "at": 1}]}
            )

    def test_from_dict_unknown_event_field(self):
        with pytest.raises(ScenarioSpecError, match="at_time"):
            ScenarioSpec.from_dict(
                {
                    "name": "x",
                    "events": [{"kind": "node-join", "at_time": 1}],
                }
            )

    def test_from_dict_validates(self):
        with pytest.raises(ScenarioSpecError, match="n_nodes"):
            ScenarioSpec.from_dict({"name": "x", "n_nodes": 0})

    def test_from_dict_rejects_non_mapping(self):
        with pytest.raises(ScenarioSpecError, match="mapping"):
            ScenarioSpec.from_dict(["not", "a", "mapping"])

    @pytest.mark.parametrize("key", ["delta_rounds", "memo_solve"])
    def test_from_dict_rejects_execution_mode_keys(self, key):
        """No spec field selects an eager aggregation or solve path."""
        with pytest.raises(ScenarioSpecError, match=key):
            ScenarioSpec.from_dict({"name": "x", key: False})

    @pytest.mark.parametrize("key", ["delta_rounds", "memo_solve"])
    def test_from_dict_rejects_execution_mode_variant_keys(self, key):
        payload = tiny_spec().to_dict()
        payload["variants"] = {"eager": {key: False}}
        with pytest.raises(ScenarioSpecError, match=key):
            ScenarioSpec.from_dict(payload)


class TestFaultEventValidation:
    """The message-level fault family plus subscription flapping."""

    def test_valid_fault_timeline(self):
        from repro.scenarios import (
            CorrelatedManagerFailure,
            MessageLoss,
            Partition,
            PartitionHeal,
            SubscriptionFlap,
        )

        tiny_spec(
            events=(
                MessageLoss(at=60.0, duration=300.0, rate=0.05),
                Partition(at=120.0, name="cut", fraction=0.25),
                PartitionHeal(at=400.0, name="cut"),
                CorrelatedManagerFailure(at=500.0, count=2),
                SubscriptionFlap(
                    at=100.0, duration=300.0, interval=60.0,
                    channels=2, subscribers=5,
                ),
            )
        ).validate()

    def test_loss_rate_bounds(self):
        from repro.scenarios import MessageLoss

        with pytest.raises(ScenarioSpecError, match="rate"):
            tiny_spec(
                events=(MessageLoss(at=0.0, rate=1.5),)
            ).validate()
        with pytest.raises(ScenarioSpecError, match="duplicate_rate"):
            tiny_spec(
                events=(MessageLoss(at=0.0, duplicate_rate=-0.1),)
            ).validate()

    def test_partition_fraction_bounds(self):
        from repro.scenarios import Partition

        with pytest.raises(ScenarioSpecError, match="fraction"):
            tiny_spec(
                events=(Partition(at=0.0, fraction=1.0),)
            ).validate()

    def test_heal_must_reference_a_partition(self):
        from repro.scenarios import PartitionHeal

        with pytest.raises(ScenarioSpecError, match="no.*partition"):
            tiny_spec(
                events=(PartitionHeal(at=100.0, name="phantom"),)
            ).validate()

    def test_heal_before_open_rejected(self):
        from repro.scenarios import Partition, PartitionHeal

        with pytest.raises(ScenarioSpecError, match="before"):
            tiny_spec(
                events=(
                    PartitionHeal(at=100.0, name="cut"),
                    Partition(at=200.0, name="cut"),
                )
            ).validate()

    def test_overlapping_same_name_partitions_rejected(self):
        from repro.scenarios import Partition

        with pytest.raises(ScenarioSpecError, match="still open"):
            tiny_spec(
                events=(
                    Partition(at=100.0, name="cut"),  # never healed
                    Partition(at=200.0, name="cut"),
                )
            ).validate()

    def test_sequential_same_name_partitions_allowed(self):
        from repro.scenarios import Partition, PartitionHeal

        tiny_spec(
            events=(
                Partition(at=100.0, name="cut"),
                PartitionHeal(at=150.0, name="cut"),
                Partition(at=200.0, name="cut"),
                PartitionHeal(at=300.0, name="cut"),
                Partition(at=400.0, name="cut"),
            )
        ).validate()

    def test_correlated_failures_count_toward_survivor_guard(self):
        from repro.scenarios import CorrelatedManagerFailure

        with pytest.raises(ScenarioSpecError, match="survive"):
            tiny_spec(  # tiny spec has 8 nodes
                events=(
                    CorrelatedManagerFailure(at=100.0, count=4),
                    CorrelatedManagerFailure(at=200.0, count=4),
                )
            ).validate()

    def test_flap_pool_bounded_by_workload(self):
        from repro.scenarios import SubscriptionFlap

        with pytest.raises(ScenarioSpecError, match="flap"):
            tiny_spec(  # tiny workload has 6 channels
                events=(
                    SubscriptionFlap(at=0.0, channels=7),
                )
            ).validate()

    def test_rate_limit_spacing_validated(self):
        bad = WorkloadSpec(rate_limit_spacing=-1.0)
        with pytest.raises(ScenarioSpecError, match="rate_limit"):
            tiny_spec(workload=bad).validate()

    def test_fault_events_round_trip_through_dicts(self):
        from repro.scenarios import (
            MessageLoss,
            Partition,
            PartitionHeal,
            SubscriptionFlap,
        )

        spec = tiny_spec(
            events=(
                MessageLoss(at=60.0, duration=300.0, rate=0.05,
                            duplicate_rate=0.01),
                Partition(at=120.0, name="cut", fraction=0.25,
                          isolates_servers=True),
                PartitionHeal(at=400.0, name="cut"),
                SubscriptionFlap(at=100.0, duration=300.0),
            )
        )
        rebuilt = ScenarioSpec.from_dict(spec.to_dict())
        assert rebuilt == spec
