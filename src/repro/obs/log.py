"""Stdlib ``logging`` wiring for the whole package.

The package logs under the ``"repro"`` namespace; :func:`get_logger`
hands out children (``repro.core.system``, ``repro.scenarios`` …) and
:func:`setup` attaches one stderr handler at a verbosity the CLI's
``-v``/``-q`` flags pick.  Library use stays silent by default — the
root ``repro`` logger gets a ``NullHandler`` on import, the stdlib
convention for packages.

Per-node debug logs at 65k-node scale would drown a run even at
``DEBUG``, so instrumented sites gate on :func:`should_log`: node 0,
powers of two and multiples of ``every`` pass, everything else is
sampled out — the classic simulator ``should_log`` pattern.  For
event-shaped noise (one line per dropped message, say) use
:class:`RateLimited`, which passes the first ``budget`` records per
key and then counts suppressions.
"""

from __future__ import annotations

import logging
import sys

__all__ = [
    "PACKAGE_LOGGER",
    "get_logger",
    "setup",
    "should_log",
    "RateLimited",
]

PACKAGE_LOGGER = "repro"

logging.getLogger(PACKAGE_LOGGER).addHandler(logging.NullHandler())

#: CLI verbosity (``-q``…``-vv``) → logging level.
_LEVELS = {
    -1: logging.ERROR,
    0: logging.WARNING,
    1: logging.INFO,
    2: logging.DEBUG,
}


def get_logger(name: str | None = None) -> logging.Logger:
    """The package logger, or a namespaced child of it."""
    if not name or name == PACKAGE_LOGGER:
        return logging.getLogger(PACKAGE_LOGGER)
    if name.startswith(f"{PACKAGE_LOGGER}."):
        return logging.getLogger(name)
    return logging.getLogger(f"{PACKAGE_LOGGER}.{name}")


def setup(verbosity: int = 0) -> logging.Logger:
    """Attach one ``stderr`` handler at the ``-v`` count's level.

    ``verbosity``: -1 = quiet (errors only), 0 = warnings, 1 = info,
    2+ = debug.  Idempotent: a previous setup's handler is replaced,
    not stacked, so repeated CLI invocations in one process (tests)
    never double-log.
    """
    verbosity = max(-1, min(2, verbosity))
    logger = logging.getLogger(PACKAGE_LOGGER)
    logger.setLevel(_LEVELS[verbosity])
    for handler in list(logger.handlers):
        if isinstance(handler, logging.StreamHandler) and not isinstance(
            handler, logging.NullHandler
        ):
            logger.removeHandler(handler)
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(
        logging.Formatter("%(asctime)s %(levelname)-7s %(name)s: %(message)s")
    )
    logger.addHandler(handler)
    return logger


def should_log(index: int, every: int = 1024) -> bool:
    """Sampled per-node logging: 0, powers of two, every ``every``-th.

    Keeps 65k-node debug runs readable: ~16 powers of two plus one
    node per ``every`` stride, instead of one line per node.
    """
    if index <= 0:
        return index == 0
    return (index & (index - 1)) == 0 or index % every == 0


class RateLimited:
    """Pass the first ``budget`` log records per key, count the rest.

    >>> limited = RateLimited(logger, budget=3)
    >>> limited.debug("drop", "dropped %s -> %s", a, b)
    """

    def __init__(self, logger: logging.Logger, budget: int = 5) -> None:
        if budget < 0:
            raise ValueError("budget cannot be negative")
        self.logger = logger
        self.budget = budget
        self._seen: dict[str, int] = {}

    def _admit(self, key: str) -> bool:
        seen = self._seen.get(key, 0) + 1
        self._seen[key] = seen
        return seen <= self.budget

    def log(self, level: int, key: str, msg: str, *args) -> None:
        if not self.logger.isEnabledFor(level):
            return
        if self._admit(key):
            self.logger.log(level, msg, *args)

    def debug(self, key: str, msg: str, *args) -> None:
        self.log(logging.DEBUG, key, msg, *args)

    def info(self, key: str, msg: str, *args) -> None:
        self.log(logging.INFO, key, msg, *args)
