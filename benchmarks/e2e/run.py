"""End-to-end benchmark harness: one workload, many cold reps.

    python3 benchmarks/e2e/run.py --workload steady-poll [--seed 0]
                                  [--seconds 24] [--trace 0|1]
                                  [--ledger NAME]

Each rep is one fresh ``child.py`` process — a whole user-visible run,
import to last byte of JSON — and reps run strictly one at a time
(the box has two cores and the simulator is single-threaded).  Fresh
processes are deliberate: users run one simulation per process, so a
cross-run cache must not look free on rep 2.

A run is: one untimed import-only warm-up (fills ``__pycache__``;
skipped by ``--smoke``),
timed reps on the ``--seed`` input until ``--seconds`` is used, one
*verify* rep and, with ``--trace 1``, one *traced* rep with the layer
wrappers of layers.py installed.  The verify rep runs the workload's
reference input (seed 0) with invariant monitors and the
introspection plane under another PYTHONHASHSEED; the three simulated
end-to-end metrics are read from it, so they are the same number for
every ``--seed`` and move only when behaviour does.

Every rep is one attempted operation.  It fails on a non-zero exit,
on output not byte-identical to rep 1 (verify rep: when ``--seed`` is
the reference input too), on an invariant violation, on the reference
``steady-poll`` output drifting from ``ci/baselines/steady-state.json``
or on a broken Table 2 shape.

The last stdout line is the result object (end-to-end metrics with
``--trace 0``, per-layer metrics with ``--trace 1``); the full ledger
of the run — both metric sets, per-rep samples, environment — goes to
``benchmarks/e2e/out/``, the only place this harness writes
(``__pycache__`` aside).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
OUT = HERE / "out"
CHILD = HERE / "child.py"
#: Timed, traced and warm reps share one hash seed; the verify rep
#: gets another, so set/dict-order dependence shows as a byte diff.
HASH_SEED, VERIFY_HASH_SEED = "1", "2"
REFERENCE_SEED = 0
REP_TIMEOUT = 60.0
MIN_REPS = 3

sys.path.insert(0, str(HERE))
import layers  # noqa: E402
import workloads  # noqa: E402
from child import MARK  # noqa: E402


def load_spec() -> dict:
    """BENCHMARK.json: the one declaration of names, units, bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


class Rep:
    """One child process: its wall, its report, its stdout bytes."""

    def __init__(self, mode: str, wall: float, spawned: float,
                 returncode: int, stdout: bytes, report: dict | None):
        self.mode = mode
        self.wall = wall
        self.returncode = returncode
        self.stdout = stdout
        self.report = report or {}
        self.failures: list[str] = []
        if returncode != 0 or report is None:
            self.failures.append(f"exit {returncode}")
            return
        stamps = report["stamps"]
        self.setup_s = stamps["ready"] - spawned
        simulate_s = stamps["simulated"] - stamps["ready"]
        self.sim_rate = report["sim_seconds"] / simulate_s
        self.peak_rss_mb = report["peak_rss_kb"] / 1024.0

    def expect_same_output(self, first: "Rep") -> None:
        if not self.failures and self.stdout != first.stdout:
            self.failures.append("output differs from rep 1")


def spawn(workload: str, seed: int, mode: str, smoke: bool,
          spans: Path | None = None) -> Rep:
    command = [
        sys.executable, str(CHILD), "--workload", workload,
        "--seed", str(seed), "--mode", mode,
    ]
    if smoke:
        command.append("--smoke")
    if spans is not None:
        command += ["--spans", str(spans)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    env["PYTHONHASHSEED"] = (
        VERIFY_HASH_SEED if mode == "verify" else HASH_SEED
    )
    spawned = time.monotonic()
    process = subprocess.Popen(
        command, cwd=ROOT, env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    try:
        stdout, stderr = process.communicate(timeout=REP_TIMEOUT)
    except subprocess.TimeoutExpired:
        process.kill()
        stdout, stderr = process.communicate()
    wall = time.monotonic() - spawned
    report = None
    for line in stderr.decode("utf-8", "replace").splitlines():
        if line.startswith(MARK):
            report = json.loads(line[len(MARK):])
    if process.returncode != 0:
        sys.stderr.write(stderr.decode("utf-8", "replace"))
    return Rep(mode, wall, spawned, process.returncode, stdout, report)


def check_oracles(workload: str, smoke: bool, first: Rep,
                  verify: Rep) -> None:
    """Correctness beyond byte-identity; failures land on the reps."""
    if not verify.failures and verify.report["violations"]:
        verify.failures.append(
            f"{verify.report['violations']} invariant violation(s)"
        )
    if smoke:
        return  # the oracles below hold at full scale only
    for rep in (first, verify):
        if not rep.failures and rep.report.get("table2_shape") is False:
            rep.failures.append("Table 2 shape broken")
    if workload == "steady-poll" and not verify.failures:
        # The baseline holds the gated keys only; each must match.
        baseline = json.loads(
            (ROOT / "ci" / "baselines" / "steady-state.json").read_text()
        )
        produced = json.loads(verify.stdout)
        if any(
            produced.get(label, {}).get(key) != value
            for label, gated in baseline.items()
            for key, value in gated.items()
        ):
            verify.failures.append("differs from ci/baselines/steady-state")


def environment() -> dict:
    load = os.getloadavg()[0]
    cores = os.cpu_count() or 1
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT,
            capture_output=True, text=True,
        )
        commit = done.stdout.strip() or None
    return {
        "commit": commit,
        "nproc": cores,
        "python": platform.python_version(),
        "load_1min_at_start": load,
        "noisy": load > cores / 2,
        "hash_seed": HASH_SEED,
        "verify_hash_seed": VERIFY_HASH_SEED,
    }


def end_to_end(spec: dict, timed: list[Rep], verify: Rep) -> dict:
    """Medians over the good timed reps; simulated metrics from verify."""
    simulated = verify.report.get("simulated", {})
    samples = {
        "run_wall_s": [rep.wall for rep in timed],
        "setup_s": [rep.setup_s for rep in timed],
        "sim_s_per_host_s": [rep.sim_rate for rep in timed],
        "peak_rss_mb": [rep.peak_rss_mb for rep in timed],
    }
    out = {}
    for metric in spec["end_to_end"]:
        name, unit = metric["name"], metric["unit"]
        if name in samples:
            out[name] = {
                "value": statistics.median(samples[name]),
                "unit": unit,
                "samples": samples[name],
            }
        else:
            out[name] = {"value": simulated.get(name), "unit": unit}
    return out


def per_layer(spec: dict, traced: Rep, spans: Path, plain_wall: float,
              verify: Rep) -> tuple[dict, list[str]]:
    dump = json.loads(spans.read_text())
    reduced = layers.Reduced(dump, traced.report["counts"])
    values = layers.per_layer_metrics(reduced)
    # The dump happens after the run's last byte; it is the cost of
    # keeping the spans, not of taking them.
    traced_wall = traced.wall - traced.report["dump_seconds"]
    values["trace.coverage"] = reduced.all_self_seconds() / traced_wall
    values["trace.overhead_ratio"] = traced_wall / plain_wall
    values["scenarios.verify_overhead_ratio"] = verify.wall / plain_wall
    return (
        {
            metric["name"]: {
                "value": values.get(metric["name"]),
                "unit": metric["unit"],
            }
            for metric in spec["per_layer"]
        },
        dump["unresolved"],
    )


def run_workload(spec: dict, name: str, seed: int, seconds: float,
                 trace: bool, smoke: bool) -> dict:
    OUT.mkdir(exist_ok=True)
    (OUT / ".gitignore").write_text("*\n")
    ledger = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "smoke": smoke,
        "environment": environment(),
    }
    if not smoke and spawn(name, seed, "warm", smoke).returncode != 0:
        raise SystemExit("run.py: cannot import the program")

    started = time.monotonic()
    timed: list[Rep] = []
    while True:
        rep = spawn(name, seed, "timed", smoke)
        timed.append(rep)
        rep.expect_same_output(timed[0])
        typical = statistics.median(r.wall for r in timed)
        used = time.monotonic() - started
        if smoke or (len(timed) >= MIN_REPS and used + typical > seconds):
            break
    verify = spawn(name, REFERENCE_SEED, "verify", smoke)
    if seed == REFERENCE_SEED:
        verify.expect_same_output(timed[0])
    check_oracles(name, smoke, timed[0], verify)
    reps = [*timed, verify]

    good = [rep for rep in timed if not rep.failures]
    if good:
        ledger["end_to_end"] = end_to_end(spec, good, verify)
        ledger["p90_samples"] = verify.report.get("p90_samples")
        ledger["output_sha256"] = hashlib.sha256(good[0].stdout).hexdigest()
        ledger["environment"]["numpy"] = good[0].report["numpy"]
    ledger["environment"]["timed_reps"] = len(timed)
    if trace:
        spans = OUT / f"{stem(ledger)}.spans.json"
        traced = spawn(name, seed, "traced", smoke, spans)
        traced.expect_same_output(timed[0])
        reps.append(traced)
        if good and not traced.failures:
            plain_wall = ledger["end_to_end"]["run_wall_s"]["value"]
            ledger["per_layer"], ledger["unresolved"] = per_layer(
                spec, traced, spans, plain_wall, verify
            )
    ledger["attempted"] = len(reps)
    ledger["failed"] = sum(1 for rep in reps if rep.failures)
    ledger["failures"] = [
        f"{rep.mode}: {reason}" for rep in reps for reason in rep.failures
    ]
    return ledger


def result_line(ledger: dict, trace: bool) -> str:
    """The driver's contract: correct/attempted/failed/metrics."""
    section = ledger.get("per_layer" if trace else "end_to_end", {})
    metrics = {
        name: {"value": entry["value"], "unit": entry["unit"]}
        for name, entry in section.items()
    }
    return json.dumps(
        {
            "correct": ledger["failed"] == 0 and bool(metrics),
            "attempted": ledger["attempted"],
            "failed": ledger["failed"],
            "metrics": metrics,
        }
    )


def stem(ledger: dict) -> str:
    smoke = "-smoke" if ledger["smoke"] else ""
    return f"{ledger['workload']}-seed{ledger['seed']}{smoke}"


def save(ledger: dict, trace: bool, collection: str | None) -> None:
    (OUT / f"{stem(ledger)}-trace{int(trace)}.json").write_text(
        json.dumps(ledger, indent=2) + "\n"
    )
    if collection is not None:
        path = OUT / f"{collection}.json"
        runs = json.loads(path.read_text()) if path.exists() else []
        runs.append(ledger)
        path.write_text(json.dumps(runs, indent=1) + "\n")


def main() -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True,
        choices=[*workloads.KINDS, "all"],
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=spec["run_seconds"],
        help="time budget of the timed reps of one workload",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--ledger", metavar="NAME",
        help="also append each run to out/NAME.json (compare.py input)",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny inputs, one timed rep: exercises the harness only",
    )
    args = parser.parse_args()
    if not (ROOT / "src" / "repro").is_dir():
        print("run.py: src/repro not found; nothing to measure",
              file=sys.stderr)
        return 2
    names = (
        list(workloads.KINDS) if args.workload == "all"
        else [args.workload]
    )
    for name in names:
        ledger = run_workload(
            spec, name, args.seed, args.seconds, bool(args.trace), args.smoke
        )
        save(ledger, bool(args.trace), args.ledger)
        for reason in ledger["failures"]:
            print(f"run.py: {name}: {reason}", file=sys.stderr)
        print(result_line(ledger, bool(args.trace)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
