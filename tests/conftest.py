"""Session-wide test plumbing: the harness's once-per-session check."""

import pytest

import differential


def _recomputed():
    return {key: n for key, n in differential.COMPUTED.items() if n > 1}


def pytest_sessionfinish(session):
    """Fail the session if an uninterrupted reference run was computed
    more than once: the harness shares each one between every test that
    compares against it."""
    if _recomputed():
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


def pytest_terminal_summary(terminalreporter):
    if _recomputed():
        terminalreporter.write_line(
            f"differential: reference runs computed more than once: "
            f"{_recomputed()}", red=True,
        )
