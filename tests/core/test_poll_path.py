"""Scenario-level checks of the poll path ``CoronaNode.execute_poll``
-> ``CoreContentExtractor.core_lines`` (unit tests: ``test_node.py``,
``tests/diffengine``).

Neither the one-pass extractor nor the conditional GET may move a
simulated count: what a poll reports depends on the core lines only
(pinned by the golden vectors), and a reply whose version the poller
holds could only have reported nothing.  A flooded diff is patched
once per distinct base, however many wedge members receive it.
"""

import json
from pathlib import Path

from repro.core import node as node_module
from repro.core.system import CoronaSystem
from repro.diffengine import delta as delta_module
from repro.diffengine.extractor import CoreContentExtractor
from repro.faults.chaos import chaos_timeline
from repro.scenarios import ScenarioRunner, get_scenario
from repro.scenarios.spec import ScenarioSpec

BASELINE = Path(__file__).resolve().parents[2] / "ci/baselines/steady-state.json"


class TestScenarios:
    def test_steady_state_counts_equal_the_committed_baseline(self, monkeypatch):
        calls = []
        real = CoreContentExtractor.core_lines
        monkeypatch.setattr(
            CoreContentExtractor,
            "core_lines",
            lambda self, document: calls.append(1) or real(self, document),
        )
        systems = []
        real_init = CoronaSystem.__init__
        monkeypatch.setattr(
            CoronaSystem,
            "__init__",
            lambda self, *args, **kwargs: real_init(self, *args, **kwargs)
            or systems.append(self),
        )
        applies = []
        real_apply = delta_module.apply_diff
        monkeypatch.setattr(
            delta_module,
            "apply_diff",
            lambda old, diff: applies.append(1) or real_apply(old, diff),
        )
        offered = []  # (diff, base) per member patch; diffs kept alive
        real_once = node_module.apply_once
        monkeypatch.setattr(
            node_module,
            "apply_once",
            lambda old, diff: offered.append((diff, old))
            or real_once(old, diff),
        )
        metrics = ScenarioRunner(get_scenario("steady-state"), seed=0).run()
        actual = metrics.to_dict()
        baseline = json.loads(BASELINE.read_text())["base"]
        for key in ("polls", "server_polls", "detections", "diff_messages",
                    "detection_delays"):
            assert actual[key] == baseline[key], key
        # Only first fetches, newer versions and version-less feeds
        # are parsed; the other 4134 polls were answered not-modified.
        assert actual["polls"] == 6161
        assert len(calls) == 2027
        (system,) = systems
        assert system.fetcher.total_not_modified == 6161 - 2027
        # Stagger generators are built on a node's first poll task
        # (the counts above pin that the draws are unchanged); a node
        # that was never given one holds none.
        pollers = [n for n in system.nodes.values() if n.scheduler._rng]
        assert sum(n.polls_issued for n in pollers) == actual["polls"]
        # Members mostly hold equal bases: 3476 member patches of 373
        # flooded diffs come from 500 distinct (diff, base) pairs, and
        # each pair is patched once.
        distinct = {(id(diff), base) for diff, base in offered}
        assert len(offered) == 3476
        assert len({id(diff) for diff, _ in offered}) == 373
        assert len(applies) <= len(distinct) == 500

    def test_rate_limited_replays_stay_invariant_clean(self):
        """A capped server answers with its last snapshot *and* that
        snapshot's version: a replay, never an update."""
        runner = ScenarioRunner(
            get_scenario("rate-limited-servers"), seed=0, check_invariants=True
        )
        metrics = runner.run("capped")
        assert metrics.rate_limited_polls > 0
        assert metrics.detections > 0
        assert metrics.violations == []

    def test_chaos_stays_invariant_clean(self):
        """The ``chaos-2048`` workload of ``benchmarks/e2e`` at its
        smoke size: drops, retransmits, repair and churn around the
        poll path."""
        spec = ScenarioSpec.from_dict(
            {
                "name": "chaos-smoke",
                "n_nodes": 96,
                "horizon": 3600.0,
                "workload": {"n_channels": 8, "n_subscriptions": 80},
                "events": chaos_timeline(0, 3600.0, 96, incidents=4),
            }
        )
        metrics = ScenarioRunner(spec, seed=0, check_invariants=True).run()
        assert metrics.detections > 0
        assert metrics.violations == []
