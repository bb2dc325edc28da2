"""Logging wiring tests plus the repo-wide no-print rule."""

from __future__ import annotations

import ast
import io
import logging
import sys
from pathlib import Path

import pytest

from repro.obs.log import (
    PACKAGE_LOGGER,
    RateLimited,
    get_logger,
    setup,
    should_log,
)

REPO_ROOT = Path(__file__).resolve().parent.parent.parent


@pytest.fixture(autouse=True)
def _restore_package_logger():
    logger = logging.getLogger(PACKAGE_LOGGER)
    handlers = list(logger.handlers)
    level = logger.level
    yield
    logger.handlers[:] = handlers
    logger.setLevel(level)


class TestGetLogger:
    def test_bare_and_package_names(self):
        assert get_logger().name == "repro"
        assert get_logger("repro").name == "repro"

    def test_child_namespacing(self):
        assert get_logger("core.system").name == "repro.core.system"
        assert get_logger("repro.core.system").name == "repro.core.system"

    def test_package_root_has_null_handler(self):
        root = logging.getLogger(PACKAGE_LOGGER)
        assert any(
            isinstance(h, logging.NullHandler) for h in root.handlers
        )


class TestSetup:
    @pytest.mark.parametrize(
        ("verbosity", "level"),
        [
            (-1, logging.ERROR),
            (0, logging.WARNING),
            (1, logging.INFO),
            (2, logging.DEBUG),
            (5, logging.DEBUG),  # clamped
            (-9, logging.ERROR),  # clamped
        ],
    )
    def test_verbosity_maps_to_level(self, verbosity, level):
        logger = setup(verbosity)
        assert logger.level == level

    def test_idempotent_handler_replacement(self):
        logger = setup(1)
        count = len(logger.handlers)
        setup(2)
        assert len(logger.handlers) == count

    def test_records_reach_the_stream(self, monkeypatch):
        stream = io.StringIO()
        monkeypatch.setattr(sys, "stderr", stream)
        setup(1)
        get_logger("obs.test").info("hello from %s", "corona")
        assert "hello from corona" in stream.getvalue()
        assert "repro.obs.test" in stream.getvalue()


class TestShouldLog:
    def test_node_zero_and_powers_of_two(self):
        assert should_log(0)
        assert should_log(1)
        assert should_log(2)
        assert should_log(4096)
        assert not should_log(3)
        assert not should_log(1023)

    def test_every_stride(self):
        assert should_log(3000, every=1000)
        assert not should_log(3001, every=1000)

    def test_negative_indices_never_log(self):
        assert not should_log(-1)


class TestRateLimited:
    def _capture(self):
        stream = io.StringIO()
        logger = setup(2)
        logger.handlers[-1].setStream(stream)
        return logger, stream

    def test_budget_then_suppression(self):
        logger, stream = self._capture()
        limited = RateLimited(logger, budget=2)
        for index in range(5):
            limited.debug("drop", "dropped message %d", index)
        lines = stream.getvalue().splitlines()
        assert len(lines) == 2

    def test_budgets_are_per_key(self):
        logger, stream = self._capture()
        limited = RateLimited(logger, budget=1)
        limited.info("a", "first a")
        limited.info("b", "first b")
        limited.info("a", "second a")
        lines = stream.getvalue().splitlines()
        assert [line.rsplit(": ", 1)[1] for line in lines] == [
            "first a", "first b"
        ]

    def test_disabled_level_spends_no_budget(self):
        logger, stream = self._capture()
        logger.setLevel(logging.WARNING)
        limited = RateLimited(logger, budget=1)
        limited.debug("drop", "invisible")
        logger.setLevel(logging.DEBUG)
        limited.debug("drop", "visible")
        (line,) = stream.getvalue().splitlines()
        assert line.endswith(": visible")

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            RateLimited(logging.getLogger("repro"), budget=-1)


class TestNoPrintRule:
    """Library code must log/trace, never print (ruff T20 in CI; this
    AST walk enforces the same rule where ruff is not installed)."""

    ALLOWED = {Path("src/repro/cli.py")}

    def _print_calls(self, path: Path) -> list[int]:
        tree = ast.parse(path.read_text(), filename=str(path))
        return [
            node.lineno
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "print"
        ]

    def test_no_print_calls_outside_cli(self):
        offenders = {}
        for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py")):
            relative = path.relative_to(REPO_ROOT)
            if relative in self.ALLOWED:
                continue
            lines = self._print_calls(path)
            if lines:
                offenders[str(relative)] = lines
        assert not offenders, (
            f"print() in library code (use repro.obs logging): {offenders}"
        )

    def test_cli_is_genuinely_allowed(self):
        # sanity: the allowlist entry exists and does print (the UI)
        assert self._print_calls(REPO_ROOT / "src" / "repro" / "cli.py")
