"""Suite-wide pytest hooks and fixtures; the helpers and oracles that test
modules import live in helpers.py."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from helpers import ACCEPTANCE_RESULTS


def pytest_collection_modifyitems(config, items):
    """A test here that leaks an open file fails. Only here: the benchmark's
    store_churn drops its stores unclosed on purpose, to stand in for a
    crash."""
    here = Path(__file__).parent
    for item in items:
        if here in item.path.parents:
            item.add_marker(pytest.mark.filterwarnings(
                "error::ResourceWarning"))
            item.add_marker(pytest.mark.filterwarnings(
                "error::pytest.PytestUnraisableExceptionWarning"))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(ACCEPTANCE_RESULTS):
        ok, desc = ACCEPTANCE_RESULTS[num]
        verdict = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"criterion {num} {verdict}: {desc}")


@pytest.fixture
def rng():
    return np.random.default_rng(0)
