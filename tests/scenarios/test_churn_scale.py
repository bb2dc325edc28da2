"""The churn-scale-sweep scenario: determinism and targeted waves.

This scenario is the CI perf baseline for membership-change cost, so
its ``--json`` metrics must be bit-identical across in-process runs of
the same spec + seed, and its manager-targeted churn waves must
actually exercise the §3.3 ownership-transfer path at scale.
"""

import pytest

from repro.scenarios.registry import get_scenario
from repro.scenarios.runner import ScenarioRunner
from repro.scenarios.spec import ChurnWave, ScenarioSpecError


class TestChurnWaveTarget:
    def test_target_validates(self):
        with pytest.raises(ScenarioSpecError):
            ChurnWave(at=0.0, target="everyone").validate()
        ChurnWave(at=0.0, target="managers").validate()
        ChurnWave(at=0.0, target="bystanders").validate()

    def test_round_trips_through_dict(self):
        spec = get_scenario("churn-scale-sweep")
        assert type(spec).from_dict(spec.to_dict()) == spec


class TestChurnScaleSweep:
    def test_registered_with_scale_variants(self):
        spec = get_scenario("churn-scale-sweep")
        assert spec.n_nodes == 512
        assert spec.variant_labels() == ["n512", "n1024", "n2048", "n4096"]
        assert spec.variant_spec("n1024").n_nodes == 1024
        assert spec.variant_spec("n2048").n_nodes == 2048
        assert spec.variant_spec("n4096").n_nodes == 4096
        wave = spec.events[0]
        assert isinstance(wave, ChurnWave)
        assert wave.target == "managers"

    def test_steady_state_4096_probe_registered(self):
        spec = get_scenario("steady-state-4096")
        assert spec.n_nodes == 4096
        assert spec.events == ()
        # The probe times the one (delta) aggregation round: no spec
        # field selects another.
        assert {"delta_rounds", "memo_solve"}.isdisjoint(spec.to_dict())

    def test_same_seed_is_bit_identical_across_runs(self):
        """Two in-process runs of spec+seed produce identical metrics."""
        spec = get_scenario("churn-scale-sweep")
        first = ScenarioRunner(spec, seed=3).run("n512").to_dict()
        second = ScenarioRunner(spec, seed=3).run("n512").to_dict()
        assert first == second

    def test_sweep_exercises_churn_with_state_intact(self):
        """The manager-targeted waves transfer state without loss."""
        metrics = ScenarioRunner(
            get_scenario("churn-scale-sweep"), seed=0
        ).run("n512")
        assert metrics.crashes >= 20
        assert metrics.joins >= 20
        # manager-targeted waves must have forced ownership transfers
        assert metrics.rehomed_channels > 0
        # §3.3 transfer keeps every registered subscription alive
        assert (
            metrics.final_registered_subscriptions
            == metrics.total_subscriptions
        )
        assert metrics.n_nodes_initial == 512
