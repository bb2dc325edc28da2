#!/usr/bin/env python
"""Report benchmark timing drift against a rolling baseline.

Wall-clock timings are too noisy to exact-gate (unlike the scenario
metrics ``check_baselines.py`` pins), so CI publishes their
*trajectory* instead: this script loads ``BENCH_timings_*.json``
artifacts oldest-first, builds a rolling-median baseline from all but
the newest, and prints per-benchmark relative drift of the newest
snapshot.  Threshold breaches exit non-zero **by default** — the
noise-floor characterization ROADMAP item 5a asked for accumulated
across PRs 6–9, so the would-gate verdict became the gate in PR 10 at
the documented ``NOISE_FLOOR`` (+25%).  ``--no-gate`` restores the
report-only behaviour.

Usage::

    python scripts/perf_drift.py old1.json old2.json new.json
    python scripts/perf_drift.py --glob 'benchmarks/results/history/*.json'
    python scripts/perf_drift.py --threshold 0.3 --no-gate ...

Equivalent to ``python -m repro bench compare``; this wrapper exists
so CI and developers can run the report without installing the
package (it injects ``src/`` on ``sys.path`` itself).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.obs.drift import NOISE_FLOOR, compare_paths, gate_verdict  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "snapshots", nargs="*",
        help="BENCH_*.json artifacts, oldest first (last = candidate)",
    )
    parser.add_argument(
        "--glob", default=None, metavar="PATTERN",
        help="collect snapshots matching PATTERN (sorted by name) "
             "in addition to positional paths",
    )
    parser.add_argument(
        "--threshold", type=float, default=NOISE_FLOOR,
        help="relative drift flagged as regression (default: the "
             f"documented noise floor, {NOISE_FLOOR})",
    )
    parser.add_argument(
        "--window", type=int, default=8,
        help="baseline snapshots feeding the rolling median (default 8)",
    )
    gate_flags = parser.add_mutually_exclusive_group()
    gate_flags.add_argument(
        "--gate", dest="gate", action="store_true", default=True,
        help="exit 1 on flagged regressions (the default)",
    )
    gate_flags.add_argument(
        "--no-gate", dest="gate", action="store_false",
        help="report only, always exit 0",
    )
    args = parser.parse_args(argv)

    paths = list(args.snapshots)
    if args.glob:
        paths.extend(sorted(str(p) for p in Path().glob(args.glob)))
    if len(paths) < 2:
        print(
            "perf drift: need at least two snapshots "
            f"(got {len(paths)}); skipping report", file=sys.stderr
        )
        # Not an error: early repos have no timing history yet.
        return 0

    report, regressed = compare_paths(
        paths, threshold=args.threshold, window=args.window
    )
    print(report)
    print(
        f"\n{len(paths) - 1} baseline snapshot(s), threshold "
        f"+{args.threshold:.0%}, {len(regressed)} flagged"
    )
    print(gate_verdict(regressed, threshold=args.threshold))
    if regressed and args.gate:
        print(
            "\ndrift gate failed. If the drift is intended (a known "
            "slowdown or a stale rolling baseline), refresh the "
            "committed snapshot: re-run the benchmarks with "
            "--update-results and commit benchmarks/results/"
            "BENCH_timings_ci.json (see README, 'Perf drift gate'). "
            "Use --no-gate for a report-only run.",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
