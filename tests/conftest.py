"""Session-wide test plumbing: id-counter isolation and the harness's
once-per-session check."""

import pytest

import differential
import repro.core.transaction as txn_mod
import repro.transport.flit as flit_mod


@pytest.fixture(autouse=True)
def _fresh_global_ids():
    """txn/packet ids come from process-global counters that every
    harness build resets; restore them after each test so no test sees
    another's counters."""
    txn_ids, packet_ids = txn_mod._txn_ids, flit_mod._flit_packet_ids
    yield
    txn_mod._txn_ids, flit_mod._flit_packet_ids = txn_ids, packet_ids


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
