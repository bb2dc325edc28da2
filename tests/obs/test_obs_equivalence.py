"""The observability contract: observing never changes the run.

Every committed CI baseline (``ci/baselines/*.json``, generated with
observability *off*) must survive byte-identical when tracing and the
bound phase histograms are *on* — the tracer reads clocks and
allocation counters, never RNG or protocol state.  These tests re-run
the full gated scenario set with tracing enabled and diff against the
committed files, which simultaneously proves on == off (CI gates the
off configuration via ``scripts/check_baselines.py``).
"""

from __future__ import annotations

import hashlib
import io
import json
from pathlib import Path

import pytest

from repro.obs import Observability, export_chrome_trace, read_spans
from repro.scenarios.registry import get_scenario
from repro.scenarios.runner import ScenarioRunner

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
BASELINE_DIR = REPO_ROOT / "ci" / "baselines"
BASELINE_SEED = 0

#: Mirrors scripts/check_baselines.py: the memo/shared split can flip
#: across processes; their conserved sum is gated instead (it stays in
#: the dict as solver_work_solve_hits).
UNGATED_KEYS = frozenset(
    {"solver_work_memo_hits", "solver_work_shared_hits"}
)


def _gated(metrics: dict) -> dict:
    return {k: v for k, v in metrics.items() if k not in UNGATED_KEYS}


@pytest.mark.parametrize(
    "name",
    ["steady-state", "heavy-churn", "lossy-overlay", "partition-heal"],
)
def test_baseline_scenarios_byte_identical_with_tracing_on(name):
    baseline = json.loads((BASELINE_DIR / f"{name}.json").read_text())
    obs = Observability.on()  # tracing + phase histograms, in memory
    runner = ScenarioRunner(get_scenario(name), seed=BASELINE_SEED, obs=obs)
    actual = {
        label: _gated(metrics.to_dict())
        for label, metrics in runner.run_all().items()
    }
    assert actual == baseline
    # the tracer genuinely observed the runs it did not perturb
    assert obs.tracer.records


@pytest.mark.parametrize(
    "name",
    [
        "steady-state",
        "heavy-churn",
        "lossy-overlay",
        "partition-heal",
        "congested-relay",
        "asymmetric-loss",
    ],
)
def test_baseline_scenarios_byte_identical_with_introspection_on(name):
    """PR 10 latch leg: timeline + provenance observe, never perturb.

    ``Observability.introspected`` attaches the per-round timeline
    sampler *and* the per-update provenance tracker; every committed
    baseline (written with observability off) must survive the full
    introspection stack byte-for-byte.
    """
    baseline = json.loads((BASELINE_DIR / f"{name}.json").read_text())
    obs = Observability.introspected(seed=BASELINE_SEED)
    runner = ScenarioRunner(get_scenario(name), seed=BASELINE_SEED, obs=obs)
    actual = {
        label: _gated(metrics.to_dict())
        for label, metrics in runner.run_all().items()
    }
    assert actual == baseline
    # …and the introspection layer genuinely saw the run it left alone.
    assert obs.timeline is not None and obs.timeline.rounds > 0
    assert obs.provenance is not None and obs.provenance.detections > 0


def test_introspected_rerun_is_byte_stable():
    """Same seed twice ⇒ identical timeline and provenance bytes."""

    def introspect():
        obs = Observability.introspected(seed=BASELINE_SEED)
        ScenarioRunner(
            get_scenario("steady-state"), seed=BASELINE_SEED, obs=obs
        ).run()
        return json.dumps(
            {
                "timeline": obs.timeline.to_dict(),
                "provenance": obs.provenance.to_dict(),
            },
            sort_keys=True,
        )

    assert introspect() == introspect()


def test_work_baseline_byte_identical_with_tracing_on():
    baseline = json.loads(
        (BASELINE_DIR / "churn-scale-sweep.work.json").read_text()
    )
    obs = Observability.on()
    runner = ScenarioRunner(
        get_scenario("churn-scale-sweep"), seed=BASELINE_SEED, obs=obs
    )
    actual = {}
    for label in baseline:
        metrics = _gated(runner.run(label).to_dict())
        actual[label] = {
            key: value
            for key, value in metrics.items()
            if key.startswith(("work_", "solver_work_"))
        }
    assert actual == baseline


#: Per committed baseline and variant: ``(problems_solved, solve_hits)``
#: as they stood before PR 20 re-keyed the whole-phase memo (commit
#: b6ca930) — their sum is the number of optimization instances the
#: protocol *posed*, a property of the run, not of the caches — then
#: ``(work_summaries_rebuilt, work_cluster_merges, work_nodes_dirtied)``
#: as they stood before PR 21 took the level histogram out of a
#: summary (commit b476531): the aggregation work a run may no longer
#: exceed.
WORK_BEFORE = {
    ("asymmetric-loss.json", "base"): (49, 71, 963, 767, 494),
    ("churn-scale-sweep.work.json", "n512"): (88, 199, 3990, 80, 3791),
    ("congested-relay.json", "base"): (49, 71, 963, 767, 494),
    ("heavy-churn.json", "base"): (62, 32, 940, 550, 642),
    ("lossy-overlay.json", "base"): (49, 71, 963, 767, 494),
    ("partition-heal.json", "base"): (67, 29, 1037, 992, 665),
    ("steady-state.json", "base"): (49, 71, 963, 767, 494),
}

#: sha256 of each committed baseline without its ``work_*`` /
#: ``solver_work_*`` keys (see :func:`_protocol_digest`), recorded from
#: commit b476531 via ``git show``: everything a run *decided*.
PROTOCOL_DIGEST = {
    "asymmetric-loss.json":
        "ad88fc2c62ec5b427d93a93d1fc1e755f3862af64447a2fdae0ff97f09006daa",
    "churn-scale-sweep.work.json":
        "0ceaea2a56ffcd6bb93dd2493e310268c8229d1339fb90f006e4093e035197d7",
    "congested-relay.json":
        "f9035fd50c2450f3428f932ac9f4b0f79aaa935f9b38ac2a5bd6f18200fc3ee6",
    "heavy-churn.json":
        "a8a8b2fd1f60dfbae0eed42fd450838a34da1183b9c3e9806709cb6e2fb6c484",
    "lossy-overlay.json":
        "89480a402a0c0e36af9341c1c3d196de2bab7af9d3295efc68879c4ae5a82253",
    "partition-heal.json":
        "f93270ff8bde73d95baf76f6432140e151de44be7da3a2b56b495350c6a54f92",
    "steady-state.json":
        "1550613a473ec7d8c00adcb74a6da7af55581548738e672fa37a9b2c98699ea5",
}


def test_solver_counter_baselines_only_move_work_into_hits():
    """A cheaper round may answer more instances and merge fewer
    summaries, never pose, solve or aggregate more.

    What makes a diff of the work counters reviewable: in every
    committed baseline ``problems_solved + solve_hits`` is still the
    recorded number of posed instances, ``problems_solved`` is no
    higher than it was, and neither is any aggregation counter.
    """
    seen = set()
    for path in sorted(BASELINE_DIR.glob("*.json")):
        for label, metrics in json.loads(path.read_text()).items():
            solved = metrics["solver_work_problems_solved"]
            hits = metrics["solver_work_solve_hits"]
            was_solved, was_hits, *was_aggregated = WORK_BEFORE[
                path.name, label
            ]
            assert solved + hits == was_solved + was_hits, (path.name, label)
            assert solved <= was_solved, (path.name, label)
            for key, was in zip(
                (
                    "work_summaries_rebuilt",
                    "work_cluster_merges",
                    "work_nodes_dirtied",
                ),
                was_aggregated,
            ):
                assert metrics[key] <= was, (path.name, label, key)
            seen.add((path.name, label))
    assert seen == set(WORK_BEFORE)


def _protocol_digest(text: str) -> str:
    decided = {
        label: {
            key: value
            for key, value in metrics.items()
            if not key.startswith(("work_", "solver_work_"))
        }
        for label, metrics in json.loads(text).items()
    }
    payload = json.dumps(decided, sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def test_baselines_outside_the_work_counters_are_the_recorded_ones():
    """The work counters are the only baseline keys that have moved."""
    assert {
        path.name: _protocol_digest(path.read_text())
        for path in BASELINE_DIR.glob("*.json")
    } == PROTOCOL_DIGEST


class TestOnOffEquivalence:
    """Direct on-vs-off comparison inside one process."""

    @pytest.fixture(scope="class")
    def pair(self):
        def run(obs):
            runner = ScenarioRunner(
                get_scenario("steady-state"), seed=BASELINE_SEED, obs=obs
            )
            return {
                label: metrics.to_dict()
                for label, metrics in runner.run_all().items()
            }

        sink = io.StringIO()
        on = Observability.on(sink=sink)
        return run(Observability.off()), run(on), on, sink

    def test_gated_metrics_identical(self, pair):
        off_result, on_result, _obs, _sink = pair
        assert {k: _gated(v) for k, v in off_result.items()} == {
            k: _gated(v) for k, v in on_result.items()
        }

    def test_ungated_sum_conserved(self, pair):
        off_result, on_result, _obs, _sink = pair
        for label in off_result:
            assert (
                off_result[label]["solver_work_solve_hits"]
                == on_result[label]["solver_work_solve_hits"]
            )

    def test_trace_of_real_run_exports_to_chrome_format(self, pair):
        _off, _on, _obs, sink = pair
        records = read_spans(io.StringIO(sink.getvalue()))
        assert records, "an enabled sink tracer must emit spans"
        names = {record["name"] for record in records}
        # the protocol phases the tentpole instruments all appear
        assert {"scenario.run", "poll_batch", "aggregation", "optimize"} \
            <= names
        trace = export_chrome_trace(records, clock="sim")
        events = trace["traceEvents"]
        assert events[0]["ph"] == "M"
        assert all(
            event["ph"] in ("X", "i", "M") for event in events
        )
        # sim-clock placement: every timestamp non-negative and finite
        assert all(event.get("ts", 0.0) >= 0.0 for event in events)

    def test_phase_histograms_populate_only_when_on(self, pair):
        _off, _on, obs, _sink = pair
        wall = obs.registry.get("phase_wall_seconds")
        assert wall is not None
        assert wall.labels(phase="poll_batch").count > 0
        off_registry = Observability.off().registry
        assert off_registry.get("phase_wall_seconds") is None


class TestDirtySetRepair:
    """Satellite (b): the anti-entropy repair scan is O(change)."""

    def test_fault_run_skips_proven_clean_channels(self):
        obs = Observability.off()
        runner = ScenarioRunner(
            get_scenario("lossy-overlay"), seed=BASELINE_SEED, obs=obs
        )
        metrics = runner.run()
        # the run repaired something, so the dirty set was live …
        assert metrics.repair_diffs > 0
        # … and the scan provably skipped clean channels, which is the
        # saved work the registry-only counter records.
        assert obs.registry.value("repair_urls_skipped") > 0

    def test_skip_counter_stays_out_of_gated_metrics(self):
        obs = Observability.off()
        runner = ScenarioRunner(
            get_scenario("lossy-overlay"), seed=BASELINE_SEED, obs=obs
        )
        metrics = runner.run()
        assert "repair_urls_skipped" not in metrics.to_dict()
