"""Registry lookup, self-registration of built-ins, error paths."""

import pytest

from repro.scenarios import (
    get_scenario,
    list_scenarios,
    register,
    scenario_names,
)
from repro.scenarios.builtin import BUILTIN_NAMES
from repro.scenarios.registry import _REGISTRY, UnknownScenarioError
from tests.scenarios.conftest import tiny_spec


@pytest.fixture()
def scratch_registry():
    """Snapshot the registry and restore it after the test."""
    before = dict(_REGISTRY)
    yield
    _REGISTRY.clear()
    _REGISTRY.update(before)


class TestBuiltins:
    def test_at_least_six_builtins(self):
        assert len(scenario_names()) >= 6

    def test_all_builtin_names_registered(self):
        names = set(scenario_names())
        assert set(BUILTIN_NAMES) <= names

    def test_specs_are_valid(self):
        for spec in list_scenarios():
            spec.validate()

    def test_get_returns_named_spec(self):
        assert get_scenario("heavy-churn").name == "heavy-churn"


class TestLookupErrors:
    def test_unknown_scenario_lists_available(self):
        with pytest.raises(UnknownScenarioError) as excinfo:
            get_scenario("warp-speed")
        message = str(excinfo.value)
        assert "warp-speed" in message
        assert "heavy-churn" in message


class TestRegister:
    def test_register_and_lookup(self, scratch_registry):
        spec = register(tiny_spec(name="tmp-registered"))
        assert get_scenario("tmp-registered") is spec
        assert "tmp-registered" in scenario_names()

    def test_duplicate_rejected(self, scratch_registry):
        register(tiny_spec(name="tmp-dup"))
        with pytest.raises(ValueError, match="already registered"):
            register(tiny_spec(name="tmp-dup"))

    def test_register_validates(self, scratch_registry):
        with pytest.raises(Exception):
            register(tiny_spec(name="tmp-bad", n_nodes=0))
