import os
import subprocess
import sys
from pathlib import Path

import pytest

import sdcode
from sdcode import make_field, make_ring


@pytest.fixture
def report(capsys):
    """Print a line that bypasses capture, for acceptance pass/fail output."""
    def _emit(line: str) -> None:
        with capsys.disabled():
            print(line, flush=True)
    return _emit


@pytest.fixture
def python():
    """Run a fresh interpreter on the package under test, wherever pytest
    found it."""
    def _run(*args):
        src = str(Path(sdcode.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)
    return _run


@pytest.fixture(scope="session")
def gf16():
    return make_field(4)


@pytest.fixture(scope="session")
def gf256():
    return make_field(8)


@pytest.fixture(scope="session")
def ring17():
    return make_ring(17)


@pytest.fixture(scope="session")
def ring7():
    return make_ring(7)


@pytest.fixture(scope="session")
def ring5():
    return make_ring(5)
