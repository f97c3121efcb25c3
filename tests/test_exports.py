"""Every exported name resolves.

A name left in ``__all__`` after its definition is deleted breaks
``from chebprob import *``, which no other test imports.
"""

import importlib
import os
import pathlib
import pkgutil
import subprocess
import sys

import pytest

import chebprob

ROOT = pathlib.Path(__file__).resolve().parents[1]
MODULES = sorted(info.name for info in pkgutil.iter_modules(chebprob.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"chebprob.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_package_all_resolves():
    missing = [n for n in chebprob.__all__ if not hasattr(chebprob, n)]
    assert missing == []


def test_benchmark_tracer_installs():
    # bench/tracer.py wraps chebprob functions, methods and modules by name;
    # renaming or deleting one breaks the benchmark, which this catches with
    # the tracer's own ImportError or AttributeError.
    script = (
        "import sys; sys.path.insert(0, 'bench'); "
        "import chebprob.cli, chebprob.stochastic; "
        "from tracer import Tracer; Tracer().install()"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, "-c", script], cwd=ROOT, env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
