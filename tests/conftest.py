"""Shared test settings and checks.

Hypothesis runs derandomized and without deadlines: example generation then
repeats from run to run, and a slow moment on a shared host cannot fail a
property test.  Every test must also leave no child process unreaped, so a
test whose code starts a child process and never waits for it fails.
"""

import os

import pytest
from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


@pytest.fixture(autouse=True)
def no_child_process_left():
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
