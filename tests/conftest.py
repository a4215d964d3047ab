"""Checks shared by every test."""

import os

import pytest


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process running or unreaped."""
    yield
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # no child at all
        return
    if pid == 0:
        pytest.fail("the test left a child process running")
    pytest.fail(f"the test left child {pid} unreaped "
                f"(exit code {os.waitstatus_to_exitcode(status)})")
