"""Invariant monitors: read-only, byte-neutral, and actually armed.

Two halves: (1) running every committed CI baseline scenario with
monitors *on* leaves the gated metrics byte-identical to the
committed files — the monitors draw no randomness and mutate nothing;
(2) the checks genuinely fire — a deliberately corrupted system
produces the matching violation records and registry counters.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.obs import Observability
from repro.scenarios.invariants import InvariantMonitor
from repro.scenarios.registry import get_scenario
from repro.scenarios.runner import ScenarioRunner
from tests.scenarios.conftest import tiny_spec

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
BASELINE_DIR = REPO_ROOT / "ci" / "baselines"
BASELINE_SEED = 0

#: Mirrors scripts/check_baselines.py (see tests/obs/test_obs_equivalence).
UNGATED_KEYS = frozenset(
    {"solver_work_memo_hits", "solver_work_shared_hits"}
)


def _gated(metrics: dict) -> dict:
    return {k: v for k, v in metrics.items() if k not in UNGATED_KEYS}


@pytest.mark.parametrize(
    "name",
    ["steady-state", "heavy-churn", "lossy-overlay", "partition-heal"],
)
def test_baselines_byte_identical_with_monitors_on(name):
    baseline = json.loads((BASELINE_DIR / f"{name}.json").read_text())
    runner = ScenarioRunner(
        get_scenario(name), seed=BASELINE_SEED, check_invariants=True
    )
    results = runner.run_all()
    actual = {
        label: _gated(metrics.to_dict())
        for label, metrics in results.items()
    }
    assert actual == baseline
    # The committed scenarios are invariant-clean, and the monitor
    # output never leaks into the payload.
    for metrics in results.values():
        assert metrics.violations == []
        assert "violations" not in metrics.to_dict()


def test_chaos_soak_is_invariant_clean():
    runner = ScenarioRunner(
        get_scenario("chaos-soak"), seed=0, check_invariants=True
    )
    for metrics in runner.run_all().values():
        assert metrics.violations == []
        assert metrics.n_nodes_final == metrics.n_nodes_initial


class TestMonitorsFire:
    """Corrupt the system on purpose; every check must notice."""

    @pytest.fixture()
    def armed(self, fast_config, small_farm):
        from repro.core.system import CoronaSystem

        spec = tiny_spec(n_nodes=20)
        system = CoronaSystem(
            n_nodes=20, config=fast_config, fetcher=small_farm, seed=9
        )
        for rank in range(6):
            system.subscribe(
                f"http://feed{rank}.example/rss", f"c-{rank}", now=0.0
            )
        obs = Observability.off()
        monitor = InvariantMonitor(spec, system, obs.registry)
        return system, monitor, obs

    def test_clean_system_records_nothing(self, armed):
        system, monitor, obs = armed
        system.run_maintenance_round(120.0)
        monitor.check_round(120.0)
        assert monitor.violations == []
        assert monitor.report()["violation_counts"] == {}

    def test_population_violation_is_detected(self, armed):
        system, monitor, _obs = armed
        system.counters.crashes += 1  # books a crash that never happened
        monitor.check_round(60.0)
        kinds = {v["invariant"] for v in monitor.violations}
        assert "population-conservation" in kinds

    def test_manager_coverage_violation_is_detected(self, armed):
        system, monitor, obs = armed
        url = next(iter(system.managers))
        manager = system.managers[url]
        system.nodes[manager].managed.pop(url)
        monitor.check_round(60.0)
        kinds = {v["invariant"] for v in monitor.violations}
        assert "manager-coverage" in kinds
        assert (
            obs.registry.get("invariant_violations")
            .labels(invariant="manager-coverage")
            .value
            >= 1
        )

    def test_lost_subscription_is_detected_at_the_end(self, armed):
        _system, monitor, _obs = armed
        monitor.check_final(900.0, registered=5, total_subscriptions=6)
        kinds = {v["invariant"] for v in monitor.violations}
        assert "no-lost-subscription" in kinds

    def test_report_caps_entries_but_counts_everything(self, armed):
        _system, monitor, _obs = armed
        for index in range(40):
            monitor._record("manager-coverage", float(index), "boom")
        report = monitor.report()
        assert report["violation_counts"]["manager-coverage"] == 40
        assert len(report["violations"]) == 32  # _MAX_PER_INVARIANT


class TestQueueConservation:
    """The link-layer invariant: queued traffic never vanishes."""

    @pytest.fixture()
    def congested(self, fast_config, small_farm, monkeypatch):
        from repro.core.system import CoronaSystem
        from repro.faults import FaultPlane, LinkSpec, LinkTable

        monkeypatch.setattr(LinkSpec, "burst", 1.0)
        plane = FaultPlane(seed=4)
        table = LinkTable(seed=4)
        table.set_link("a", "b", LinkSpec(bandwidth=0.5, queue_limit=2))
        plane.install_links(table)
        system = CoronaSystem(
            n_nodes=12, config=fast_config, fetcher=small_farm,
            seed=4, faults=plane,
        )
        monitor = InvariantMonitor(
            tiny_spec(n_nodes=12), system, Observability.off().registry
        )
        # Saturate the capped link: 1 sent, 2 queued, 2 overflowed.
        for _ in range(5):
            plane.transmit("a", "b")
        return plane, table, monitor

    def test_clean_accounting_records_nothing(self, congested):
        _plane, _table, monitor = congested
        monitor.check_round(60.0)
        assert monitor.violations == []

    def test_faultless_system_skips_the_check(
        self, fast_config, small_farm
    ):
        from repro.core.system import CoronaSystem

        system = CoronaSystem(
            n_nodes=12, config=fast_config, fetcher=small_farm, seed=4
        )
        monitor = InvariantMonitor(
            tiny_spec(n_nodes=12), system, Observability.off().registry
        )
        monitor.check_round(60.0)
        assert monitor.violations == []

    def test_vanished_backlog_is_detected(self, congested):
        _plane, table, monitor = congested
        table._states[("a", "b")].backlog -= 1  # a message evaporates
        monitor.check_round(60.0)
        kinds = [v["invariant"] for v in monitor.violations]
        assert "queue-conservation" in kinds

    def test_counter_mismatch_is_detected(self, congested):
        plane, _table, monitor = congested
        plane.counters.queued_messages += 1  # registry disagrees
        monitor.check_round(60.0)
        details = [
            v["detail"]
            for v in monitor.violations
            if v["invariant"] == "queue-conservation"
        ]
        assert any("queued_messages" in detail for detail in details)

    def test_overflow_undercount_is_detected(self, congested):
        plane, _table, monitor = congested
        plane.counters.queue_drops -= 1
        monitor.check_round(60.0)
        details = [
            v["detail"]
            for v in monitor.violations
            if v["invariant"] == "queue-conservation"
        ]
        assert any("queue_drops" in detail for detail in details)
