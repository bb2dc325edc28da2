"""Crash-resumable sweep journaling (append-only JSONL).

A :class:`SweepJournal` records every *terminal* task result the farm
produces — one JSON line per task, flushed as soon as it is written —
so a sweep killed mid-run (SIGTERM, OOM, power loss) can be resumed
without redoing finished work: ``repro sweep run --resume`` loads the
journal, skips every journaled task, and re-runs only the rest.  Because tasks are deterministic and
artifacts merge in enumeration order, the resumed run's artifacts are
byte-identical to an uninterrupted run (``tests/sweeps/test_resume.py``
pins it).

File format::

    {"journal": "repro-sweep", "version": 1, "sweep": ..., ...}
    {"key": "...", "status": "ok", ..., "payload": {...}}
    {"key": "...", "status": "failed", ..., "error": "..."}

The writer appends and flushes one line per result, so the only
damage a crash can inflict is a truncated *final* line.  The loader
tolerates exactly that — the partial tail is dropped (with a warning)
and rewriting resumes from the last clean byte.  Anything else — a
corrupt interior line, a header for a different sweep, a mismatched
``check_invariants`` flag — raises :class:`JournalError` loudly:
resuming against the wrong journal must never silently mix runs.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path

from repro.obs import get_logger
from repro.sweeps.farm import TaskResult
from repro.sweeps.spec import SweepTask

_log = get_logger(__name__)

__all__ = [
    "JOURNAL_NAME",
    "JournalError",
    "JournalState",
    "SweepJournal",
    "load_journal",
]

#: File name of the journal inside a sweep's ``--out`` directory.
JOURNAL_NAME = "journal.jsonl"

_MAGIC = "repro-sweep"
_VERSION = 1


class JournalError(ValueError):
    """The journal cannot be trusted for a resume (see module doc)."""


def _result_record(result: TaskResult) -> dict:
    task = result.task
    return {
        "key": task.key,
        "scenario": task.scenario,
        "variant": task.variant,
        "seed": task.seed,
        "status": result.status,
        "attempts": result.attempts,
        "wall_seconds": result.wall_seconds,
        "alloc_blocks": result.alloc_blocks,
        "error": result.error,
        "payload": result.payload,
        "violations": result.violations,
        "report": result.report,
    }


def _result_from_record(record: dict) -> TaskResult:
    task = SweepTask(
        scenario=record["scenario"],
        variant=record["variant"],
        seed=record["seed"],
    )
    return TaskResult(
        task=task,
        status=record["status"],
        attempts=record["attempts"],
        wall_seconds=record["wall_seconds"],
        alloc_blocks=record["alloc_blocks"],
        error=record["error"],
        payload=record["payload"],
        violations=record.get("violations"),
        # .get(): journals written before per-task reports existed
        # load cleanly (the field simply resumes as absent).
        report=record.get("report"),
    )


@dataclass
class JournalState:
    """What a journal file held: header facts + replayable results."""

    sweep: str
    check_invariants: bool
    results: dict[str, TaskResult]
    #: Byte offset of the last *complete* line — a truncated tail (if
    #: any) lives past it and is overwritten on resume.
    clean_size: int


def load_journal(path: str | os.PathLike) -> JournalState:
    """Parse a journal, tolerating only a truncated final line."""
    path = Path(path)
    raw = path.read_bytes()
    results: dict[str, TaskResult] = {}
    header: dict | None = None
    offset = 0
    clean_size = 0
    line_no = 0
    while offset < len(raw):
        end = raw.find(b"\n", offset)
        if end < 0:  # no newline: an interrupted append — drop it
            _log.warning(
                "journal %s: dropping truncated final line (%d bytes)",
                path,
                len(raw) - offset,
            )
            break
        line = raw[offset:end].strip()
        offset = end + 1
        line_no += 1
        if not line:
            clean_size = offset
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as error:
            raise JournalError(
                f"journal {path}: corrupt record at line {line_no}: "
                f"{error}"
            ) from None
        if header is None:
            if (
                not isinstance(record, dict)
                or record.get("journal") != _MAGIC
                or record.get("version") != _VERSION
            ):
                raise JournalError(
                    f"journal {path}: unrecognised header at line "
                    f"{line_no}"
                )
            header = record
        else:
            try:
                result = _result_from_record(record)
            except (KeyError, TypeError) as error:
                raise JournalError(
                    f"journal {path}: malformed result at line "
                    f"{line_no}: {error!r}"
                ) from None
            results[result.task.key] = result
        clean_size = offset
    if header is None:
        raise JournalError(f"journal {path}: no header line")
    return JournalState(
        sweep=header.get("sweep", ""),
        check_invariants=bool(header.get("check_invariants", False)),
        results=results,
        clean_size=clean_size,
    )


class SweepJournal:
    """Append-only writer over a journal file (flush per line)."""

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = Path(path)
        self._handle = None

    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls,
        path: str | os.PathLike,
        sweep: str,
        check_invariants: bool = False,
    ) -> SweepJournal:
        """Start a fresh journal, truncating any previous file."""
        journal = cls(path)
        journal.path.parent.mkdir(parents=True, exist_ok=True)
        journal._handle = open(journal.path, "w", encoding="utf-8")
        journal._write_line(
            {
                "journal": _MAGIC,
                "version": _VERSION,
                "sweep": sweep,
                "check_invariants": check_invariants,
            }
        )
        return journal

    @classmethod
    def resume(
        cls,
        path: str | os.PathLike,
        sweep: str,
        check_invariants: bool = False,
    ) -> tuple[SweepJournal, JournalState]:
        """Load ``path`` for a resume and reopen it for appending.

        Validates that the journal belongs to ``sweep`` under the same
        ``check_invariants`` setting, truncates away any partial tail,
        and returns the journal (positioned to append) plus the loaded
        state whose ``results`` the farm should skip.
        """
        state = load_journal(path)
        if state.sweep != sweep:
            raise JournalError(
                f"journal {path} belongs to sweep {state.sweep!r}, "
                f"not {sweep!r}"
            )
        if state.check_invariants != check_invariants:
            raise JournalError(
                f"journal {path} was written with check_invariants="
                f"{state.check_invariants}; rerun with the same flag "
                "or start fresh without --resume"
            )
        journal = cls(path)
        journal._handle = open(journal.path, "r+", encoding="utf-8")
        journal._handle.truncate(state.clean_size)
        journal._handle.seek(state.clean_size)
        return journal, state

    # ------------------------------------------------------------------
    def _write_line(self, record: dict) -> None:
        assert self._handle is not None
        self._handle.write(
            json.dumps(record, sort_keys=True, separators=(",", ":"))
            + "\n"
        )
        # Flush every line: the journal's whole point is surviving a
        # kill, so a result is durable the moment append() returns.
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def append(self, result: TaskResult) -> None:
        """Record one terminal task result durably."""
        self._write_line(_result_record(result))

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None
