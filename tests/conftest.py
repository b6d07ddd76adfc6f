"""Helpers shared by the test modules. Each fixture returns a function
that the test calls where it needs it."""

import os
import pathlib
import subprocess
import sys

import pytest

import wtal
from wtal import consensus


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _python_env(drop=()):
    """This environment without the names in ``drop``, with the package's
    source directory on PYTHONPATH."""
    env = {k: v for k, v in os.environ.items() if k not in drop}
    src = str(pathlib.Path(wtal.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    return env


def _python_with_src(*args):
    """subprocess.run of this interpreter with args, the package's source
    directory on PYTHONPATH; output is captured as text."""
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=_python_env(), timeout=120)


@pytest.fixture
def assert_no_child_left():
    """Fails if this process has a child that it has not reaped."""
    return _assert_no_child_left


@pytest.fixture
def python_env():
    return _python_env


@pytest.fixture
def python_with_src():
    return _python_with_src


@pytest.fixture
def set_cpus(monkeypatch):
    """A function that gives this process n CPUs, as if its affinity mask
    (os.sched_getaffinity) held n, and lets training fork at any size
    (consensus.FORK_MIN_WORK 0): ``wtal train`` then runs in min(n, 2)
    processes and ``wtal plot`` in min(n, videos). It returns the source
    that does the same at the start of a script for a fresh interpreter."""
    def set_cpus(n):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(n)))
        monkeypatch.setattr(consensus, "FORK_MIN_WORK", 0)
        return ("import os\n"
                "from wtal import consensus\n"
                f"os.sched_getaffinity = lambda pid: set(range({n}))\n"
                "consensus.FORK_MIN_WORK = 0\n")
    return set_cpus
