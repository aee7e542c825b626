"""Shared test fixtures."""

import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")


@pytest.fixture
def isolated():
    """Run Python source in a fresh interpreter and return (exit code, stripped stdout).

    The child is killed after 60 s, so code that never returns fails its test
    instead of stalling the suite.
    """
    def run(code):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=60)
        return proc.returncode, proc.stdout.strip()

    return run
