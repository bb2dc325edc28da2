"""The sweep farm: fan tasks across worker processes, merge results.

Modelled on SimBricks' local orchestration runtime — a queue of runs,
a bounded pool of executors, output collection — adapted to the
reproduction's determinism discipline.  The farm's contract, enforced
by ``tests/sweeps/test_sweep_equivalence.py``:

**Serial and parallel execution produce byte-identical per-variant
JSON.**  Three mechanisms carry it:

* every task executes through one code path
  (:func:`repro.sweeps.worker.run_task`) with observability off, in a
  spawn-fresh interpreter (parallel) or the calling process (serial);
* results are keyed by task and merged in *enumeration* order, never
  completion order, so scheduling and worker count are invisible in
  the artifacts;
* per-variant JSON is rendered by one canonical serializer
  (:func:`variant_json` — ``indent=2, sort_keys=True``), the same
  shape ``repro scenario run --json`` prints and the CI baselines
  are committed in.

Failure handling is partial by design: an attempt that raises or
overruns ``timeout`` is retried up to ``retries`` extra times, a task
that exhausts its budget is reported per-variant in the merged
artifact (``status: "failed"``, last error, attempt count) with **no**
metrics block — an incomplete result is never written as complete —
and surviving tasks are unaffected.  Timeouts are enforced by killing
the worker process and respawning a fresh one, so a wedged run cannot
stall the sweep; in serial mode (``jobs=1``) there is no process to
kill and ``timeout`` is not enforced.

Observability: the farm wraps the whole run in a ``sweep.run`` span
and emits one ``sweep.task`` span per attempt (parent-clock placement,
worker-measured wall/alloc as attributes), so ``repro trace export``
renders a sweep timeline; per-variant wall/alloc land in the
``sweep_task_wall_seconds`` / ``sweep_task_alloc_blocks`` labeled
histograms on the run's registry.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from multiprocessing import connection, get_context
from pathlib import Path

from repro.analysis.tables import format_table
from repro.obs import Observability
from repro.sweeps.spec import SweepSpec, SweepTask
from repro.sweeps.worker import TaskOutcome, run_task, worker_loop

#: How long the scheduler sleeps in ``connection.wait`` when no
#: deadline is nearer (seconds); also the grace period for worker
#: shutdown before escalating to ``terminate``.
_POLL_INTERVAL = 0.25

#: Consecutive worker replacements (deaths and timeout kills) with no
#: clean answer in between before the farm declares the environment
#: poisoned and raises.
MAX_RESPAWNS = 5


def variant_json(payload: dict) -> str:
    """The canonical per-variant rendering (one variant's metrics).

    Byte-compatible with one entry of ``repro scenario run --json``
    and with the committed ``ci/baselines/*.json`` values: ``indent=2,
    sort_keys=True`` plus a trailing newline.  Both execution modes
    and every artifact writer funnel through here.
    """
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _atomic_write(target: Path, text: str) -> None:
    """Write ``text`` via a temporary sibling + atomic rename.

    A crashed or interrupted writer never leaves a truncated file
    that could pass for a result — the target either holds the old
    complete bytes or the new complete bytes.
    """
    staging = target.with_name(target.name + ".tmp")
    staging.write_text(text)
    os.replace(staging, target)


def write_variant_file(root: Path, result: TaskResult) -> Path | None:
    """Write one completed task's canonical per-variant JSON.

    Layout matches :meth:`SweepRun.write_artifacts`
    (``root/<scenario>/<label>.seed<N>.json``).  Returns the path, or
    ``None`` for a failed task — an incomplete result is never
    written as complete.  Called incrementally by the CLI as results
    land, so a killed sweep leaves only whole files behind.
    """
    if not result.ok or result.payload is None:
        return None
    directory = root / result.task.scenario
    directory.mkdir(parents=True, exist_ok=True)
    target = (
        directory / f"{result.task.label}.seed{result.task.seed}.json"
    )
    _atomic_write(target, variant_json(result.payload))
    return target


@dataclass
class TaskResult:
    """Terminal state of one task after all its attempts."""

    task: SweepTask
    status: str  #: ``"ok"`` or ``"failed"``
    attempts: int
    #: Worker-side wall of the final attempt (run only; 0.0 when no
    #: attempt finished).
    wall_seconds: float = 0.0
    alloc_blocks: int = 0
    error: str | None = None
    #: ``ScenarioMetrics.to_dict()`` — present iff ``status == "ok"``.
    payload: dict | None = None
    #: Invariant monitor violations (``None`` unless the task ran with
    #: ``check_invariants``).  Carried outside ``payload`` so variant
    #: JSON bytes stay identical with monitoring on or off.
    violations: list | None = None
    #: Per-task report document (``None`` unless the task ran with
    #: ``collect_report``).  Outside ``payload`` for the same reason.
    report: dict | None = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"


@dataclass
class SweepRun:
    """A finished sweep: results in enumeration order + merge logic."""

    name: str
    jobs: int
    results: list[TaskResult] = field(default_factory=list)

    # ------------------------------------------------------------------
    @property
    def failed(self) -> list[TaskResult]:
        return [result for result in self.results if not result.ok]

    @property
    def completed(self) -> list[TaskResult]:
        return [result for result in self.results if result.ok]

    def merged(self) -> dict:
        """The cross-variant comparison artifact (JSON-safe).

        Task order is enumeration order whatever the completion
        order was; failed tasks carry their error and no ``metrics``
        key value (never an incomplete result marked complete).
        """
        tasks = []
        for result in self.results:
            tasks.append(
                {
                    "key": result.task.key,
                    "scenario": result.task.scenario,
                    "variant": result.task.label,
                    "seed": result.task.seed,
                    "status": result.status,
                    "attempts": result.attempts,
                    "wall_seconds": round(result.wall_seconds, 6),
                    "error": result.error,
                    "metrics": result.payload if result.ok else None,
                }
            )
        return {
            "sweep": self.name,
            "jobs": self.jobs,
            "counts": {
                "total": len(self.results),
                "ok": len(self.completed),
                "failed": len(self.failed),
            },
            "tasks": tasks,
        }

    def comparison_table(self) -> str:
        """Side-by-side key metrics across the whole grid."""
        rows = []
        for result in self.results:
            payload = result.payload or {}
            delay = payload.get("mean_detection_delay")
            rows.append(
                [
                    result.task.key,
                    result.status
                    + (f" x{result.attempts}" if result.attempts > 1 else ""),
                    payload.get("detections", "-"),
                    f"{delay:.1f}" if isinstance(delay, float) else "n/a",
                    (
                        f"{payload['mean_polls_per_min']:.1f}"
                        if result.ok
                        else "-"
                    ),
                    payload.get("messages_dropped", "-"),
                    payload.get("manager_failovers", "-"),
                    f"{result.wall_seconds:.2f}",
                ]
            )
        return format_table(
            ["task", "status", "detections", "delay (s)", "polls/min",
             "dropped", "failovers", "wall (s)"],
            rows,
            title=f"{self.name} — sweep comparison ({self.jobs} worker(s))",
        )

    def violation_report(self) -> dict:
        """Invariant-monitor summary across monitored tasks.

        JSON-safe; the CI chaos job uploads it as an artifact.  Tasks
        that ran without monitoring (``violations is None``) are not
        counted as clean — they are simply absent.
        """
        tasks = []
        total = 0
        for result in self.results:
            if result.violations is None:
                continue
            total += len(result.violations)
            tasks.append(
                {
                    "key": result.task.key,
                    "status": result.status,
                    "violations": result.violations,
                }
            )
        return {
            "sweep": self.name,
            "monitored_tasks": len(tasks),
            "total_violations": total,
            "tasks": tasks,
        }

    def run_report(self) -> dict:
        """Merge per-task report documents (``collect_report`` runs).

        Enumeration order, JSON-safe; failed or unreported tasks keep
        their slot with ``report: null`` so the document shape is
        stable whatever succeeded.
        """
        from repro.obs.report import build_sweep_report

        tasks = [
            {
                "key": result.task.key,
                "scenario": result.task.scenario,
                "variant": result.task.label,
                "seed": result.task.seed,
                "status": result.status,
                "report": result.report,
            }
            for result in self.results
        ]
        return build_sweep_report(self.name, tasks)

    # ------------------------------------------------------------------
    def write_artifacts(self, out_dir: str | os.PathLike) -> list[Path]:
        """Write the merged artifact tree under ``out_dir``.

        Layout::

            out_dir/sweep.json                      merged comparison
            out_dir/summary.txt                     the table, rendered
            out_dir/<scenario>/<label>.seed<N>.json per-variant JSON

        Per-variant files exist only for completed tasks and hold the
        canonical :func:`variant_json` bytes; each is written to a
        temporary sibling and atomically renamed, so a crashed or
        interrupted writer never leaves a truncated file that could
        pass for a result.
        """
        root = Path(out_dir)
        root.mkdir(parents=True, exist_ok=True)
        written: list[Path] = []
        for result in self.results:
            target = write_variant_file(root, result)
            if target is not None:
                written.append(target)
        merged = root / "sweep.json"
        _atomic_write(
            merged,
            json.dumps(self.merged(), indent=2, sort_keys=True) + "\n",
        )
        written.append(merged)
        summary = root / "summary.txt"
        summary.write_text(self.comparison_table() + "\n")
        written.append(summary)
        return written


# ----------------------------------------------------------------------
# execution
# ----------------------------------------------------------------------
@contextmanager
def _spawn_safe_main():
    """Hide an unimportable ``__main__`` from spawn's preparation data.

    Spawn children replay the parent's main module when it looks like
    a plain script.  A parent driven from stdin or ``python -c`` has
    ``__main__.__file__`` set to a pseudo-path (``<stdin>``), which a
    child cannot re-run; masking the attribute for the duration of
    ``Process.start`` makes spawn skip the main fixup entirely.
    Real script, ``-m`` and pytest parents are untouched.
    """
    main = sys.modules.get("__main__")
    file = getattr(main, "__file__", None)
    spec = getattr(main, "__spec__", None)
    if (
        main is None
        or spec is not None
        or file is None
        or os.path.exists(file)
    ):
        yield
        return
    main.__file__ = None
    try:
        yield
    finally:
        main.__file__ = file


class _Worker:
    """One spawned child and the parent's bookkeeping about it."""

    def __init__(self, ctx) -> None:
        self.conn, child_conn = ctx.Pipe(duplex=True)
        self.process = ctx.Process(
            target=worker_loop, args=(child_conn,), daemon=True
        )
        with _spawn_safe_main():
            self.process.start()
        child_conn.close()
        #: (task index, attempt number) in flight, or None when idle.
        self.item: tuple[int, int] | None = None
        self.dispatched_at = 0.0

    @property
    def idle(self) -> bool:
        return self.item is None

    def assign(self, item: tuple[int, int], task: SweepTask) -> None:
        self.item = item
        self.dispatched_at = time.perf_counter()
        self.conn.send(task)

    def kill(self) -> None:
        self.process.terminate()
        self.process.join()
        self.conn.close()

    def shutdown(self) -> None:
        try:
            self.conn.send(None)
        except (BrokenPipeError, OSError):
            pass
        self.process.join(timeout=_POLL_INTERVAL * 4)
        if self.process.is_alive():  # pragma: no cover - defensive
            self.process.terminate()
            self.process.join()
        self.conn.close()


def run_tasks(
    tasks: list[SweepTask] | tuple[SweepTask, ...],
    jobs: int = 1,
    timeout: float | None = None,
    retries: int = 1,
    obs: Observability | None = None,
    sweep_name: str = "ad-hoc",
    on_result=None,
) -> list[TaskResult]:
    """Execute ``tasks`` and return results in task order.

    ``jobs <= 1`` runs everything in-process (the serial reference
    the equivalence suite compares against; ``timeout`` unenforced);
    ``jobs > 1`` fans tasks across that many spawn-started workers.
    Each task gets up to ``1 + retries`` attempts; a raised exception
    or (parallel only) a ``timeout`` overrun consumes one attempt.

    ``on_result`` (when given) is called with each **terminal**
    :class:`TaskResult` the moment it is known — the journaling hook:
    results arrive in completion order, not enumeration order, and a
    retried task is reported once, not per attempt.

    ``MAX_RESPAWNS`` caps *consecutive* worker replacements (deaths
    and timeout kills) with exponential backoff between them; once
    that many workers in a row die without a single clean answer in
    between, the environment is poisoned — out of memory, a broken
    interpreter, an unimportable package — and the farm raises
    :class:`RuntimeError` instead of burning through the grid one
    doomed spawn at a time.
    """
    if retries < 0:
        raise ValueError("retries cannot be negative")
    if timeout is not None and timeout <= 0:
        raise ValueError("timeout must be positive when set")
    if obs is None:
        obs = Observability.off()
    tasks = list(tasks)
    tracer = obs.tracer
    wall_hist = obs.registry.histogram(
        "sweep_task_wall_seconds",
        "worker-side wall clock of sweep task runs",
        labelnames=("scenario", "variant"),
    )
    alloc_hist = obs.registry.histogram(
        "sweep_task_alloc_blocks",
        "worker-side net allocated blocks of sweep task runs",
        labelnames=("scenario", "variant"),
        buckets=(0, 1_000, 10_000, 100_000, 1_000_000, 10_000_000),
    )

    def record(result: TaskResult, started: float) -> None:
        """Per-attempt-terminal obs: span + per-variant histograms."""
        task = result.task
        if result.ok:
            wall_hist.labels(
                scenario=task.scenario, variant=task.label
            ).observe(result.wall_seconds)
            alloc_hist.labels(
                scenario=task.scenario, variant=task.label
            ).observe(float(result.alloc_blocks))
        if tracer.enabled:
            tracer.complete(
                "sweep.task",
                wall_start=started,
                wall_duration=time.perf_counter() - started,
                category="sweep",
                alloc_delta=result.alloc_blocks if result.ok else None,
                scenario=task.scenario,
                variant=task.label,
                seed=task.seed,
                status=result.status,
                attempts=result.attempts,
                worker_wall_seconds=round(result.wall_seconds, 6),
            )

    with tracer.span("sweep.run", category="sweep") as run_span:
        if jobs <= 1:
            results = _run_serial(tasks, retries, record, on_result)
        else:
            results = _run_parallel(
                tasks, jobs, timeout, retries, record, on_result
            )
        run_span.set(
            sweep=sweep_name,
            tasks=len(tasks),
            jobs=max(1, jobs),
            failed=sum(1 for result in results if not result.ok),
        )
    return results


def run_sweep(
    spec: SweepSpec,
    jobs: int = 1,
    timeout: float | None = None,
    retries: int = 1,
    obs: Observability | None = None,
    check_invariants: bool = False,
    collect_report: bool = False,
    completed: dict[str, TaskResult] | None = None,
    on_result=None,
) -> SweepRun:
    """Validate ``spec``, run its grid, and wrap the merge logic.

    ``check_invariants`` attaches the runner's read-only invariant
    monitors to every task (variant bytes are unchanged; violations
    surface on :attr:`TaskResult.violations`).

    ``collect_report`` attaches the introspection plane to every task
    (likewise read-only — variant bytes unchanged); per-task report
    documents surface on :attr:`TaskResult.report` and merge through
    :meth:`SweepRun.run_report`.

    ``completed`` (key → prior :class:`TaskResult`, typically from a
    resume journal) skips every journaled task — ok *and* failed, so
    the merged artifact is stable across a resume — and splices the
    prior results back in at their enumeration positions.  Skipped
    tasks are not re-reported through ``on_result``.
    """
    spec.validate()
    grid = [
        replace(
            task,
            check_invariants=check_invariants or task.check_invariants,
            collect_report=collect_report or task.collect_report,
        )
        if (check_invariants or collect_report)
        else task
        for task in spec.tasks()
    ]
    completed = completed or {}
    todo = [task for task in grid if task.key not in completed]
    fresh = run_tasks(
        todo,
        jobs=jobs,
        timeout=timeout,
        retries=retries,
        obs=obs,
        sweep_name=spec.name,
        on_result=on_result,
    )
    by_key = {result.task.key: result for result in fresh}
    results = [
        completed[task.key]
        if task.key in completed
        else by_key[task.key]
        for task in grid
    ]
    return SweepRun(name=spec.name, jobs=max(1, jobs), results=results)


# ----------------------------------------------------------------------
def _run_serial(tasks, retries, record, on_result) -> list[TaskResult]:
    results: list[TaskResult] = []
    for task in tasks:
        result: TaskResult | None = None
        for attempt in range(1, retries + 2):
            started = time.perf_counter()
            try:
                outcome = run_task(task)
            except Exception as error:
                result = TaskResult(
                    task=task,
                    status="failed",
                    attempts=attempt,
                    error=f"{type(error).__name__}: {error}",
                )
                record(result, started)
                continue
            result = TaskResult(
                task=task,
                status="ok",
                attempts=attempt,
                wall_seconds=outcome.wall_seconds,
                alloc_blocks=outcome.alloc_blocks,
                payload=outcome.payload,
                violations=outcome.violations,
                report=outcome.report,
            )
            record(result, started)
            break
        assert result is not None
        results.append(result)
        if on_result is not None:
            on_result(result)
    return results


def _run_parallel(
    tasks, jobs, timeout, retries, record, on_result
) -> list[TaskResult]:
    ctx = get_context("spawn")
    results: list[TaskResult | None] = [None] * len(tasks)
    #: (task index, attempt number), FIFO; retries requeue at the back
    #: so one flapping task cannot starve the rest of the grid.
    pending: deque[tuple[int, int]] = deque(
        (index, 1) for index in range(len(tasks))
    )
    workers = [_Worker(ctx) for _ in range(min(jobs, len(tasks)))]
    #: Consecutive worker replacements without a clean answer in
    #: between — the poisoned-environment detector.
    respawn_streak = 0

    def note_respawn(reason: str) -> None:
        """Count a replacement; back off, and fail fast past the cap.

        Each death in a row doubles the pause before the next spawn
        (capped at 1 s); ``MAX_RESPAWNS`` deaths with no completed
        answer in between means every fresh worker is dying too —
        out of memory, a broken interpreter, an unimportable package
        — so raise instead of grinding the whole grid through doomed
        respawns.  Any cleanly received message resets the streak.
        """
        nonlocal respawn_streak
        respawn_streak += 1
        if respawn_streak > MAX_RESPAWNS:
            raise RuntimeError(
                f"{respawn_streak} consecutive worker deaths with no "
                "completed task in between — the environment looks "
                f"poisoned; last error: {reason}"
            )
        time.sleep(min(0.05 * 2 ** (respawn_streak - 1), 1.0))

    def settle(worker: _Worker, message: tuple | None, died: str | None):
        """Resolve the attempt in flight on ``worker``."""
        index, attempt = worker.item
        worker.item = None
        task = tasks[index]
        if message is not None and message[0] == "ok":
            outcome: TaskOutcome = message[1]
            results[index] = TaskResult(
                task=task,
                status="ok",
                attempts=attempt,
                wall_seconds=outcome.wall_seconds,
                alloc_blocks=outcome.alloc_blocks,
                payload=outcome.payload,
                violations=outcome.violations,
                report=outcome.report,
            )
            record(results[index], worker.dispatched_at)
            if on_result is not None:
                on_result(results[index])
            return
        error = died if message is None else str(message[1])
        failure = TaskResult(
            task=task,
            status="failed",
            attempts=attempt,
            error=error,
        )
        record(failure, worker.dispatched_at)
        if attempt <= retries:
            pending.append((index, attempt + 1))
        else:
            results[index] = failure
            if on_result is not None:
                on_result(failure)

    try:
        while pending or any(not worker.idle for worker in workers):
            for worker in workers:
                if worker.idle and pending:
                    item = pending.popleft()
                    worker.assign(item, tasks[item[0]])
            busy = [worker for worker in workers if not worker.idle]
            if not busy:  # every remaining item just got scheduled
                continue
            now = time.perf_counter()
            wait_for = _POLL_INTERVAL
            if timeout is not None:
                nearest = min(
                    worker.dispatched_at + timeout for worker in busy
                )
                wait_for = max(0.0, min(wait_for, nearest - now))
            ready = connection.wait(
                [worker.conn for worker in busy], timeout=wait_for
            )
            for worker in busy:
                if worker.conn in ready:
                    try:
                        message = worker.conn.recv()
                    except (EOFError, OSError):
                        code = worker.process.exitcode
                        position = workers.index(worker)
                        worker.kill()
                        reason = f"worker died (exit code {code})"
                        settle(worker, None, reason)
                        note_respawn(reason)
                        workers[position] = _Worker(ctx)
                        continue
                    respawn_streak = 0
                    settle(worker, message, None)
            if timeout is not None:
                now = time.perf_counter()
                for position, worker in enumerate(workers):
                    if worker.idle:
                        continue
                    if now - worker.dispatched_at < timeout:
                        continue
                    worker.kill()
                    reason = (
                        f"timed out after {timeout:g}s (worker killed)"
                    )
                    settle(worker, None, reason)
                    note_respawn(reason)
                    workers[position] = _Worker(ctx)
    finally:
        for worker in workers:
            if worker.idle:
                worker.shutdown()
            else:  # pragma: no cover - only on unexpected teardown
                worker.kill()
    assert all(result is not None for result in results)
    return results  # type: ignore[return-value]
