"""Parallel sweep farm: multi-process scenario orchestration.

The scenario subsystem runs one variant at a time in one process;
this package turns a *grid* of scenario runs — variants × seeds,
possibly across several scenarios — into a farmed execution:
:class:`~repro.sweeps.spec.SweepSpec` enumerates the grid as
:class:`~repro.sweeps.spec.SweepTask` cells,
:func:`~repro.sweeps.farm.run_sweep` fans the cells across
spawn-started worker processes (bounded retries, per-task timeouts,
partial-failure reporting), and :class:`~repro.sweeps.farm.SweepRun`
merges per-variant ``--json`` metrics into a cross-variant comparison
artifact.  The CLI front end is ``repro sweep run <name> [-j N]`` /
``repro sweep list``.

The headline contract, enforced by
``tests/sweeps/test_sweep_equivalence.py``: **serial and parallel
execution produce byte-identical per-variant JSON** — worker count,
scheduling order and completion order are invisible in every
artifact.
"""

from repro.sweeps.farm import (
    SweepRun,
    TaskResult,
    run_sweep,
    run_tasks,
    variant_json,
    write_variant_file,
)
from repro.sweeps.journal import (
    JOURNAL_NAME,
    JournalError,
    JournalState,
    SweepJournal,
    load_journal,
)
from repro.sweeps.registry import (
    UnknownSweepError,
    get_sweep,
    list_sweeps,
    register,
    sweep_names,
)
from repro.sweeps.spec import (
    SweepSelection,
    SweepSpec,
    SweepSpecError,
    SweepTask,
)
from repro.sweeps.worker import TaskOutcome, run_task

# Importing the package registers the built-in sweeps.
# isort: split
from repro.sweeps import builtin as _builtin  # noqa: E402  (self-registration)

__all__ = [
    "JOURNAL_NAME",
    "JournalError",
    "JournalState",
    "SweepJournal",
    "SweepRun",
    "SweepSelection",
    "SweepSpec",
    "SweepSpecError",
    "SweepTask",
    "TaskOutcome",
    "TaskResult",
    "UnknownSweepError",
    "get_sweep",
    "list_sweeps",
    "load_journal",
    "register",
    "run_sweep",
    "run_task",
    "run_tasks",
    "sweep_names",
    "variant_json",
    "write_variant_file",
]

del _builtin
