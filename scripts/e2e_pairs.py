#!/usr/bin/env python
"""Alternating parent/change pairs of the repo's end-to-end benchmark.

    python scripts/e2e_pairs.py --parent HEAD~1 --workload steady-poll
    python scripts/e2e_pairs.py --parent HEAD~1 --workload all

The measurement a change that claims a gain must show
(``/opt/skills/guides/choosing-metrics`` §8): per seed, one run of the
parent and one of the change, alternating which side goes first, each
made by that tree's *own* ``benchmarks/e2e/run.py`` with the same
``--seconds``.  The change is the tree this script sits in; the parent
is ``git archive <rev>`` unpacked into a temporary directory (under
``$TMPDIR``) that is removed afterwards — committed files only, which
is also what the driver measures.

Every run made is printed as it finishes.  Then, per end-to-end metric
of ``BENCHMARK.json``: each side's median [quartiles] over the seeds,
the ratio change/parent, the pairs the change won (a tie counts for
neither side), the parent's own quartile distance (the wider of the
inclusive and exclusive methods), and one ``claim rule:`` line with
§8's two checks — the change is ahead in at least 9/10 of the pairs,
and its median beats the parent's by more than that quartile
distance; a claimed gain needs both.  Last, the quartile distance of
the *change's* runs — inclusive and exclusive method — against
``bound x parent median``:
a change whose runs spread wider than that over the seeds is refused
as unresolvable however good its median (ISSUE 13's first version
was).  ``separated: yes`` — every run of the change reads better than
every run of the parent — is the only thing choosing-metrics §6.5
accepts in place of *unresolved* when a side spreads wider than the
bound.  Metrics equal on every seed (the simulated ones, when a change
keeps behaviour) are reported as such.  ``--workload all`` measures
the workloads one after the other: the rows a change does not claim
have to be shown too.

Exit status is 1 as soon as a run fails (non-zero exit, ``failed`` > 0
or ``correct`` false).  Run nothing else while it measures.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
RUN = "benchmarks/e2e/run.py"


def parse_seeds(text: str) -> list[int]:
    """``"0-9"``, ``"0,3,7"`` or a mix of both."""
    seeds: list[int] = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds.extend(range(int(first), int(last or first) + 1))
    return seeds


def unpack(rev: str, into: Path) -> None:
    archive = subprocess.Popen(
        ["git", "archive", "--format=tar", rev],
        cwd=REPO_ROOT, stdout=subprocess.PIPE,
    )
    subprocess.run(
        ["tar", "-x", "-C", str(into)], stdin=archive.stdout, check=True
    )
    if archive.wait() != 0:
        raise SystemExit(f"git archive {rev} failed")


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``run.py`` invocation; its end-to-end values by name."""
    done = subprocess.run(
        [sys.executable, str(tree / RUN), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, stdout=subprocess.PIPE, text=True,
    )
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if done.returncode or result.get("failed") or not result.get("correct"):
        raise SystemExit(
            f"failed run in {tree}: exit {done.returncode}, "
            f"{ {k: v for k, v in result.items() if k != 'metrics'} }"
        )
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartile_distance(values: list[float], method: str) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4, method=method)
    return q3 - q1


def cell(values: list[float]) -> str:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"{median:.4g} [{q1:.4g}, {q3:.4g}]"


def claim_rule(won: int, pairs: int, gap: float, spread: float) -> str:
    """choosing-metrics §8: a gain counts only when the change is ahead
    in at least 9/10 of the pairs (ties count for neither side) *and*
    its median is better by more than the parent's quartile distance.
    """
    ahead = won * 10 >= pairs * 9
    wide = gap > spread
    return (
        f"claim rule: ahead in {won}/{pairs} pairs (needs 9/10):"
        f" {'yes' if ahead else 'no'}; median gap {gap:.4g} against the"
        f" parent's quartile distance {spread:.4g}:"
        f" {'yes' if wide else 'no'} -> "
        + ("met" if ahead and wide else "not met")
    )


def report(metric: dict, parent: list[float], change: list[float]) -> str:
    name = f"{metric['name']} ({metric['unit']}, {metric['better']} is better)"
    # The wider of the two quartile methods: the claim must clear both.
    parent_spread = max(
        quartile_distance(parent, "inclusive"),
        quartile_distance(parent, "exclusive"),
    )
    if parent == change:
        return (
            f"{name}\n  equal on every seed: {cell(change)}\n"
            f"  {claim_rule(0, len(parent), 0.0, parent_spread)}"
        )
    sign = 1 if metric["better"] == "higher" else -1
    gains = [sign * (c - p) for p, c in zip(parent, change)]
    won, lost = sum(g > 0 for g in gains), sum(g < 0 for g in gains)
    parent_median = statistics.median(parent)
    gap = sign * (statistics.median(change) - parent_median)
    limit = metric["bound"] * abs(parent_median)
    inclusive = quartile_distance(change, "inclusive")
    exclusive = quartile_distance(change, "exclusive")
    separated = min(sign * c for c in change) > max(sign * p for p in parent)
    return (
        f"{name}\n"
        f"  parent {cell(parent)}  ->  change {cell(change)}"
        f"  (change/parent {statistics.median(change) / parent_median:.3f})\n"
        f"  change ahead in {won} of {len(parent)} pairs, behind in {lost}\n"
        f"  separated: {'yes' if separated else 'no'}\n"
        f"  parent's quartile distance {parent_spread:.4g}\n"
        f"  {claim_rule(won, len(parent), gap, parent_spread)}\n"
        f"  change's quartile distance {inclusive:.4g} inclusive /"
        f" {exclusive:.4g} exclusive against"
        f" {metric['bound']} x parent median = {limit:.4g}: "
        + ("OVER" if max(inclusive, exclusive) > limit else "under")
    )


def measure(
    trees: dict[str, Path], workload: str, seeds: list[int], seconds: float
) -> dict[str, dict[str, list[float]]]:
    """Every pair of one workload: side -> metric -> value per seed."""
    values: dict[str, dict[str, list[float]]] = {"parent": {}, "change": {}}
    for position, seed in enumerate(seeds):
        for side in ("parent", "change")[:: -1 if position % 2 else 1]:
            metrics = run_once(trees[side], workload, seed, seconds)
            for name, value in metrics.items():
                values[side].setdefault(name, []).append(value)
            print(
                f"{workload} seed {seed} {side:6s} "
                + " ".join(f"{k}={v:.6g}" for k, v in metrics.items()),
                flush=True,
            )
    return values


def main(argv: list[str] | None = None) -> int:
    benchmark = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, metavar="REV")
    parser.add_argument(
        "--workload", required=True, choices=[*workloads, "all"]
    )
    parser.add_argument("--seeds", type=parse_seeds, default="0-9")
    parser.add_argument(
        "--seconds", type=float, default=benchmark["run_seconds"],
        help="time budget of one run's timed reps (default: the driver's)",
    )
    args = parser.parse_args(argv)
    if len(args.seeds) < 2:
        parser.error("quartiles need at least two seeds")

    with tempfile.TemporaryDirectory(prefix="e2e-parent-") as scratch:
        unpack(args.parent, Path(scratch))
        trees = {"parent": Path(scratch), "change": REPO_ROOT}
        chosen = workloads if args.workload == "all" else [args.workload]
        for workload in chosen:
            values = measure(trees, workload, args.seeds, args.seconds)
            print(
                f"\n{workload}: {len(args.seeds)} pairs (seeds {args.seeds}),"
                f" parent {args.parent}, {args.seconds:g} s per run,"
                " medians [inclusive quartiles]"
            )
            for metric in benchmark["end_to_end"]:
                print(report(
                    metric,
                    values["parent"][metric["name"]],
                    values["change"][metric["name"]],
                ), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
