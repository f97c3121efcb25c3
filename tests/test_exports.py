"""Every exported name resolves, and is used.

A name left in ``__all__`` after its definition is deleted breaks
``from chebprob import *``, which no other test imports.  A name that only
tests call is surface without a purpose: it is wired into a check, deleted,
or kept for a reason stated below.
"""

import ast
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
# Exported names that no code in src/ or bench/ refers to, and why they stay.
UNUSED_BY_DESIGN = {
    "__version__": "package metadata",
    "asymptotic_ratio": "acceptance criterion 9, the large-N ratio of 1/T_N(1/z)",
    "chebyshev_U": "the Bernoulli companion through U_(N-1) (ROADMAP item 6)",
}

# Private names one src module may import from another: the identity's
# summation reads the integer law memo directly, and the Catalan prefix check
# builds the law through 3N under the caps of a table.
PRIVATE_IMPORTS = {
    ("identities", "probnum", "_check_table_args"),
    ("identities", "probnum", "_law"),
}

@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"chebprob.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_package_all_resolves():
    missing = [n for n in chebprob.__all__ if not hasattr(chebprob, n)]
    assert missing == []


def test_stochastic_names_are_those_of_its_all():
    # The package names the stochastic exports itself, since reading
    # stochastic.__all__ at import would load numpy; its constants stay in
    # the module.
    stochastic = importlib.import_module("chebprob.stochastic")
    assert chebprob._STOCHASTIC == tuple(
        name for name in stochastic.__all__ if not name.isupper()
    )


def test_package_names_no_eager_export():
    # An eager module's __all__ is the one list of its public names: the
    # package re-exports it and spells none of them.
    tree = ast.parse((ROOT / "src" / "chebprob" / "__init__.py").read_text())
    strings = {
        node.value for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }
    eager = {
        name
        for module in (chebprob.chebyshev, chebprob.eulerpoly, chebprob.exactnum,
                       chebprob.identities, chebprob.probnum)
        for name in module.__all__
    }
    assert sorted(strings & eager) == []


def _referenced_names(paths) -> set:
    """Names read as a variable or an attribute in ``paths``: a definition,
    an import and an ``__all__`` string are not references."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_export_is_used():
    package = ROOT / "src" / "chebprob"
    code = [p for p in package.glob("*.py") if p.name != "__init__.py"]
    used = _referenced_names(code + sorted((ROOT / "bench").glob("*.py")))
    unused = sorted(set(chebprob.__all__) - used - set(UNUSED_BY_DESIGN))
    assert unused == []
    # An allowed name that gains a caller leaves the list.
    assert sorted(set(UNUSED_BY_DESIGN) & used) == []


def test_no_private_imports_between_modules():
    # A module that needs another's private name either gets a public one
    # or is listed above.
    found = set()
    for path in (ROOT / "src" / "chebprob").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level and node.module:
                found.update(
                    (path.stem, node.module, alias.name)
                    for alias in node.names
                    if alias.name.startswith("_")
                )
    assert sorted(found - PRIVATE_IMPORTS) == []
    # An allowed import that is gone leaves the list.
    assert sorted(PRIVATE_IMPORTS - found) == []

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
