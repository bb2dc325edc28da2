"""Compare two benchmark ledgers: one row per (workload, metric).

    python3 benchmarks/e2e/compare.py out/A.json out/B.json

A and B are files written by ``run.py --ledger NAME`` (a list of
runs) or single per-run ledgers.  A is the base: every ratio is B/A
and says so.  Per row: both medians with their quartiles, the ratio,
the metric's bound from BENCHMARK.json and a verdict:

* ``worse``      B's median is worse than A's by more than the bound;
* ``better``     B's median is better by more than A's own
                 interquartile range;
* ``within``     neither;
* ``unresolved`` the spread of either side exceeds the bound and the
                 two sides overlap, so "within" would be a guess.

With several runs of a workload on a side (seeds, repeats) the values
compared are the per-run metrics; with a single run they are its
per-rep samples.  Simulated metrics are deterministic: any difference
is ``worse`` or ``better``, whatever the bound.  An extra ``output``
row per workload says whether runs of the same seed produced the same
bytes on both sides.  Exit status is 1 if any row is ``worse``,
``unresolved`` or ``changed``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent


def load_runs(path: str) -> dict[str, list[dict]]:
    """workload -> its runs that carry end-to-end metrics."""
    data = json.loads(Path(path).read_text())
    by_workload: dict[str, list[dict]] = {}
    for run in data if isinstance(data, list) else [data]:
        if "end_to_end" in run:
            by_workload.setdefault(run["workload"], []).append(run)
    return by_workload


def values_of(runs: list[dict], metric: str) -> list[float]:
    entries = [run["end_to_end"][metric] for run in runs]
    if len(entries) == 1:
        return entries[0].get("samples") or [entries[0]["value"]]
    return [entry["value"] for entry in entries]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(a: list[float], b: list[float], metric: dict,
            deterministic: bool) -> str:
    sign = 1.0 if metric["better"] == "lower" else -1.0
    (a_q1, a_med, a_q3), (b_q1, b_med, b_q3) = quartiles(a), quartiles(b)
    worse_by = sign * (b_med - a_med) / a_med
    if deterministic:
        if set(a) == set(b):
            return "within"
        return "worse" if worse_by > 0 else "better"
    spread = max((a_q3 - a_q1) / a_med, (b_q3 - b_q1) / b_med)
    separated = max(a) < min(b) or max(b) < min(a)
    if spread > metric["bound"] and not separated:
        return "unresolved"
    if worse_by > metric["bound"]:
        return "worse"
    if worse_by < 0 and -worse_by * a_med > a_q3 - a_q1:
        return "better"
    return "within"


def cell(values: list[float]) -> str:
    q1, median, q3 = quartiles(values)
    return f"{median:.5g} [{q1:.5g}, {q3:.5g}]"


def output_row(a_runs: list[dict], b_runs: list[dict]) -> str:
    a = {run["seed"]: run.get("output_sha256") for run in a_runs}
    b = {run["seed"]: run.get("output_sha256") for run in b_runs}
    shared = sorted(set(a) & set(b))
    if not shared:
        return "no seed in common"
    changed = [seed for seed in shared if a[seed] != b[seed]]
    if changed:
        return f"changed (seeds {changed})"
    return f"identical ({len(shared)} seed(s))"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    side_a, side_b = load_runs(argv[0]), load_runs(argv[1])
    header = (
        f"{'workload':<13} {'metric':<23} {'A med [q1, q3]':>31} "
        f"{'B med [q1, q3]':>31} {'B/A':>7} {'bound':>6}  verdict"
    )
    print(f"A = {argv[0]}  (base)\nB = {argv[1]}\n{header}")
    bad = False
    for workload in (w["name"] for w in spec["workloads"]):
        a_runs, b_runs = side_a.get(workload), side_b.get(workload)
        if not a_runs or not b_runs:
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a, b = values_of(a_runs, name), values_of(b_runs, name)
            deterministic = "samples" not in a_runs[0]["end_to_end"][name]
            if None in a or None in b:
                word, cells = "unresolved", ["n/a", "n/a", "n/a"]
            else:
                word = verdict(a, b, metric, deterministic)
                ratio = statistics.median(b) / statistics.median(a)
                cells = [cell(a), cell(b), f"{ratio:.3f}"]
            bad |= word in ("worse", "unresolved")
            print(
                f"{workload:<13} {name:<23} {cells[0]:>31} {cells[1]:>31} "
                f"{cells[2]:>7} {metric['bound']:>6.0%}  {word}"
            )
        outputs = output_row(a_runs, b_runs)
        bad |= outputs.startswith("changed")
        print(f"{workload:<13} {'output':<23} {outputs}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
