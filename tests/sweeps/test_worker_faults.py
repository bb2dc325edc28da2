"""Worker fault handling: retries, partial failure, survivor isolation.

A task whose worker raises (or overruns its timeout) is retried up to
the budget, then reported per-variant in the merged artifact — status
``"failed"``, last error, attempt count, **no** metrics — while the
surviving tasks' bytes are unaffected.  The failing task here is an
unknown-variant run: it raises inside the worker through the same
dispatch path as real scenario bugs, but fails fast.
"""

import json

import pytest

from repro.scenarios.registry import get_scenario
from repro.scenarios.runner import ScenarioRunner
from repro.sweeps import SweepRun, SweepTask, run_tasks, variant_json

BAD = SweepTask("flash-crowd", "no-such-variant", 0)
GOOD = SweepTask("flash-crowd", None, 0)


def expected_good_bytes() -> str:
    metrics = ScenarioRunner(get_scenario(GOOD.scenario), seed=GOOD.seed)
    return variant_json(metrics.run(GOOD.variant).to_dict())


class TestParallelFailures:
    def test_failure_is_retried_isolated_and_reported(self, tmp_path):
        results = run_tasks([BAD, GOOD], jobs=2, retries=2)
        failed, survivor = results  # enumeration order, not completion

        # The raising task consumed its full budget (1 + 2 retries)
        # and was reported failed with the worker's error, never a
        # metrics payload.
        assert failed.task == BAD
        assert not failed.ok
        assert failed.status == "failed"
        assert failed.attempts == 3
        assert failed.payload is None
        assert "no-such-variant" in failed.error
        assert "ScenarioSpecError" in failed.error

        # The survivor is untouched: same bytes as a direct run.
        assert survivor.task == GOOD
        assert survivor.ok
        assert survivor.attempts == 1
        assert variant_json(survivor.payload) == expected_good_bytes()

        # The merged artifact reports the failure per-variant and
        # never writes the incomplete result as complete.
        run = SweepRun(name="faulty", jobs=2, results=results)
        merged = run.merged()
        assert merged["counts"] == {"total": 2, "ok": 1, "failed": 1}
        failed_entry, ok_entry = merged["tasks"]
        assert failed_entry["status"] == "failed"
        assert failed_entry["metrics"] is None
        assert failed_entry["attempts"] == 3
        assert "no-such-variant" in failed_entry["error"]
        assert ok_entry["status"] == "ok"
        assert ok_entry["metrics"] == survivor.payload

        # On disk: no per-variant file for the failed task, and the
        # sweep.json mirrors the merged dict.
        written = run.write_artifacts(tmp_path)
        names = sorted(path.name for path in written)
        assert names == ["base.seed0.json", "summary.txt", "sweep.json"]
        assert not (tmp_path / "flash-crowd" / "no-such-variant").exists()
        assert (
            tmp_path / "flash-crowd" / "base.seed0.json"
        ).read_text() == expected_good_bytes()
        on_disk = json.loads((tmp_path / "sweep.json").read_text())
        assert on_disk == merged

    def test_timeout_kills_worker_and_consumes_attempts(self):
        # Building a 4096-node overlay alone takes far longer than
        # 0.05s, however fast the simulator gets, so both attempts end
        # in a kill.
        slow = SweepTask("churn-scale-sweep", "n4096", 0)
        (result,) = run_tasks([slow], jobs=2, timeout=0.05, retries=1)
        assert result.status == "failed"
        assert result.attempts == 2
        assert result.payload is None
        assert "timed out after 0.05s" in result.error


class TestSerialFailures:
    def test_failure_isolated_without_retries(self):
        results = run_tasks([BAD, GOOD], jobs=1, retries=0)
        failed, survivor = results
        assert failed.status == "failed"
        assert failed.attempts == 1
        assert "no-such-variant" in failed.error
        assert survivor.ok
        assert variant_json(survivor.payload) == expected_good_bytes()

    def test_retry_budget_validated(self):
        with pytest.raises(ValueError):
            run_tasks([GOOD], jobs=1, retries=-1)
        with pytest.raises(ValueError):
            run_tasks([GOOD], jobs=2, timeout=0.0)


class TestBudgetValidation:
    """A bad retry or timeout budget is refused before a worker starts."""

    @pytest.mark.parametrize(
        "kwargs",
        [{"timeout": 0.0}, {"timeout": -1.0}, {"retries": -1}],
        ids=["zero-timeout", "negative-timeout", "negative-retries"],
    )
    def test_run_tasks_rejects(self, kwargs):
        with pytest.raises(ValueError, match="timeout|retries"):
            run_tasks([GOOD], jobs=2, **kwargs)
