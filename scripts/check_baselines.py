#!/usr/bin/env python
"""Diff fixed-seed scenario metrics against the committed CI baselines.

Scenario runs are bit-for-bit deterministic (same spec + same seed ⇒
identical ``--json`` metrics), so CI gates on *exact* equality: any
metric drift — intended or not — shows up as a failing diff naming
the scenario, variant and keys that moved.  Timings are deliberately
not part of these files; they are measured by ``benchmarks/e2e`` and
never gated here.

Usage::

    python scripts/check_baselines.py            # compare (CI gate)
    python scripts/check_baselines.py --jobs 4   # same gate, farmed
    python scripts/check_baselines.py --update   # regenerate baselines

``--jobs N`` (N > 1) fans the scenario runs across the sweep farm's
worker processes (:mod:`repro.sweeps`) — byte-identical metrics,
lower wall clock; ``--jobs 1`` (the default) keeps the original
serial in-process path as the fallback.

To add a scenario to the CI baseline set: append its registered name
to ``BASELINE_SCENARIOS`` below, run ``--update``, commit the new
``ci/baselines/<name>.json``, and mention the change in the PR — the
diff *is* the review artifact.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.scenarios.registry import get_scenario  # noqa: E402
from repro.scenarios.runner import ScenarioRunner  # noqa: E402
from repro.sweeps import SweepTask, run_tasks  # noqa: E402

#: The fixed-seed scenarios CI gates on.  Kept small and fast; the
#: churn-scale-sweep is gated by its work counters alone
#: (``WORK_BASELINE_SCENARIOS`` below).
#: The fault scenarios gate the fault plane end to end: their
#: baselines pin messages_dropped / retransmissions / repair_diffs /
#: manager_failovers exactly (fault decisions draw from the plane's
#: own seeded generator, so they are as deterministic as everything
#: else).  The two link scenarios extend the gate to the per-link
#: table: queued_messages / queue_drops / retries_suppressed /
#: polls_shed pin the token-bucket, backoff and shedding paths the
#: same way (the table draws from its own seeded generator too).
BASELINE_SCENARIOS = (
    "steady-state",
    "heavy-churn",
    "lossy-overlay",
    "partition-heal",
    "congested-relay",
    "asymmetric-loss",
)
BASELINE_SEED = 0

# The built-in `baseline-suite` sweep mirrors this set so `repro sweep
# run baseline-suite` farms exactly what the gate gates; drift between
# the two would silently un-gate a scenario.
from repro.sweeps.builtin import BASELINE_SUITE_SCENARIOS  # noqa: E402

assert BASELINE_SUITE_SCENARIOS == BASELINE_SCENARIOS, (
    "repro.sweeps.builtin.BASELINE_SUITE_SCENARIOS is out of sync with "
    "scripts/check_baselines.py BASELINE_SCENARIOS"
)
BASELINE_DIR = REPO_ROOT / "ci" / "baselines"

#: Scale-sweep *work* baselines: scenario → gated variants.  Only the
#: deterministic work counters (``work_*`` aggregation value-changes
#: and ``solver_work_*`` optimization-phase counters) are recorded —
#: gating the full metrics of a 512-node run would mostly re-gate what
#: the small scenarios already cover, while the work counters are
#: exactly the scale signal timings are too noisy to gate on.  Stored
#: as ``ci/baselines/<name>.work.json`` to mark the subset.
WORK_BASELINE_SCENARIOS: dict[str, tuple[str, ...]] = {
    "churn-scale-sweep": ("n512",),
}
WORK_KEY_PREFIXES = ("work_", "solver_work_")

#: Execution-classification counters excluded from the exact gate.
#: Which equivalent cache layer absorbs a skipped solve (the
#: whole-phase memo vs the round-scoped shared cache) has been
#: observed to flip by one across otherwise identical processes in
#: rare runs; their conserved sum is gated instead, as
#: ``solver_work_solve_hits``, alongside ``solver_work_problems_
#: solved``.  The split stays in the ``--json`` output for humans.
UNGATED_KEYS = frozenset(
    {"solver_work_memo_hits", "solver_work_shared_hits"}
)


def _gated(metrics: dict) -> dict:
    return {
        key: value
        for key, value in metrics.items()
        if key not in UNGATED_KEYS
    }


def run_scenario(name: str) -> dict:
    runner = ScenarioRunner(get_scenario(name), seed=BASELINE_SEED)
    return {
        label: _gated(metrics.to_dict())
        for label, metrics in runner.run_all().items()
    }


def run_work_scenario(name: str, variants: tuple[str, ...]) -> dict:
    """The work-counter subset of ``name``'s metrics, per variant."""
    runner = ScenarioRunner(get_scenario(name), seed=BASELINE_SEED)
    payload = {}
    for label in variants:
        metrics = _gated(runner.run(label).to_dict())
        payload[label] = {
            key: value
            for key, value in metrics.items()
            if key.startswith(WORK_KEY_PREFIXES)
        }
    return payload


def _scenario_variants(name: str) -> list[str | None]:
    """The variant labels one gated scenario expands to, in order."""
    if name in WORK_BASELINE_SCENARIOS:
        return list(WORK_BASELINE_SCENARIOS[name])
    labels = get_scenario(name).variant_labels()
    return list(labels) if labels else [None]


def run_all_via_farm(names: list[str], jobs: int) -> dict[str, dict]:
    """Farm every gated run; scenario → {label: gated payload}.

    One grid for the whole baseline set (variants enumerated exactly
    as the serial path would), fanned across ``jobs`` workers.  The
    farm's byte-identity contract (tests/sweeps/) is what licenses
    gating through it: per-variant JSON is identical to the serial
    path's.  A failed task raises — a gate must never silently pass
    on a partial grid.
    """
    tasks = [
        SweepTask(name, variant, BASELINE_SEED)
        for name in names
        for variant in _scenario_variants(name)
    ]
    results = run_tasks(
        tasks, jobs=jobs, retries=1, sweep_name="baseline-gate"
    )
    failures = [result for result in results if not result.ok]
    if failures:
        details = "; ".join(
            f"{result.task.key}: {result.error}" for result in failures
        )
        raise RuntimeError(f"baseline farm run failed: {details}")
    payloads: dict[str, dict] = {}
    for result in results:
        payloads.setdefault(result.task.scenario, {})[
            result.task.label
        ] = _gated(result.payload)
    return payloads


def baseline_path(name: str) -> Path:
    return BASELINE_DIR / f"{name}.json"


def work_baseline_path(name: str) -> Path:
    return BASELINE_DIR / f"{name}.work.json"


def diff_metrics(expected: dict, actual: dict, context: str) -> list[str]:
    """Human-readable per-key drift report (empty = identical)."""
    drift: list[str] = []
    for label in sorted(set(expected) | set(actual)):
        if label not in expected:
            drift.append(f"{context}[{label}]: variant not in baseline")
            continue
        if label not in actual:
            drift.append(f"{context}[{label}]: variant missing from run")
            continue
        left, right = expected[label], actual[label]
        for key in sorted(set(left) | set(right)):
            if left.get(key) != right.get(key):
                drift.append(
                    f"{context}[{label}].{key}: "
                    f"baseline {left.get(key)!r} != run {right.get(key)!r}"
                )
    return drift


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "names",
        nargs="*",
        default=[],
        help="scenario names (default: the CI baseline set plus the "
        "work-counter baselines)",
    )
    parser.add_argument(
        "--update",
        action="store_true",
        help="regenerate the committed baselines instead of comparing",
    )
    parser.add_argument(
        "-j",
        "--jobs",
        type=int,
        default=1,
        help="worker processes for the scenario runs (1 = the serial "
        "in-process fallback; >1 delegates to the repro.sweeps farm — "
        "metrics are byte-identical either way)",
    )
    args = parser.parse_args(argv)
    names = args.names or (
        list(BASELINE_SCENARIOS) + list(WORK_BASELINE_SCENARIOS)
    )

    farmed: dict[str, dict] | None = None
    if args.jobs > 1:
        farmed = run_all_via_farm(names, jobs=args.jobs)

    def work_subset(payload: dict) -> dict:
        return {
            label: {
                key: value
                for key, value in metrics.items()
                if key.startswith(WORK_KEY_PREFIXES)
            }
            for label, metrics in payload.items()
        }

    failures: list[str] = []
    targets = []
    for name in names:
        if name in WORK_BASELINE_SCENARIOS:
            # A work-baseline scenario is always handled as its work
            # subset — `--update churn-scale-sweep` refreshes the
            # .work.json gate rather than replaying every scale
            # variant in full (nothing gates those full metrics).
            variants = WORK_BASELINE_SCENARIOS[name]
            if farmed is not None:
                produce = lambda n=name: work_subset(farmed[n])  # noqa: E731
            else:
                produce = lambda n=name, v=variants: (  # noqa: E731
                    run_work_scenario(n, v)
                )
            targets.append(
                (f"{name}[work]", work_baseline_path(name), produce)
            )
        else:
            if farmed is not None:
                produce = lambda n=name: farmed[n]  # noqa: E731
            else:
                produce = lambda n=name: run_scenario(n)  # noqa: E731
            targets.append((name, baseline_path(name), produce))
    for label, path, produce in targets:
        actual = produce()
        if args.update:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(
                json.dumps(actual, indent=2, sort_keys=True) + "\n"
            )
            print(f"updated {path.relative_to(REPO_ROOT)}")
            continue
        if not path.exists():
            failures.append(
                f"{label}: no baseline at {path.relative_to(REPO_ROOT)} "
                "(run scripts/check_baselines.py --update and commit it)"
            )
            continue
        expected = json.loads(path.read_text())
        drift = diff_metrics(expected, actual, context=label)
        if drift:
            failures.extend(drift)
            print(f"FAIL {label}: {len(drift)} metric(s) drifted")
        else:
            print(f"ok   {label} (seed {BASELINE_SEED})")
    if failures:
        print("\nMetric drift against committed baselines:", file=sys.stderr)
        for line in failures:
            print(f"  {line}", file=sys.stderr)
        print(
            "\nIf the drift is intended, regenerate with "
            "`python scripts/check_baselines.py --update` and commit.",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
