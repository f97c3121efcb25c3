"""Every exported name resolves, and is used.

A name left in ``__all__`` after its definition is deleted breaks
``from chebprob import *``, which no other test imports.  A name that only
tests call is surface without a purpose: it is wired into a check, deleted,
or kept for a reason stated below.  README's quick tour runs as written.
"""

import ast
import importlib
import os
import pathlib
import pkgutil
import re
import subprocess
import sys
from fractions import Fraction

import pytest

import chebprob

ROOT = pathlib.Path(__file__).resolve().parents[1]
MODULES = sorted(info.name for info in pkgutil.iter_modules(chebprob.__path__))
# Exported names that no code in src/ or bench/ refers to, and why they stay.
UNUSED_BY_DESIGN = {
    "__version__": "package metadata",
    "asymptotic_ratio": "acceptance criterion 9, the large-N ratio of 1/T_N(1/z)",
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


def test_each_public_name_has_one_module():
    # A name moved to another module leaves the __all__ of the one it left.
    owners = {}
    for name in MODULES:
        module = importlib.import_module(f"chebprob.{name}")
        for export in getattr(module, "__all__", ()):
            owners.setdefault(export, []).append(name)
    assert {n: m for n, m in owners.items() if len(m) > 1} == {}


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
        for module in (chebprob.eulerpoly, chebprob.exactnum, chebprob.identities,
                       chebprob.probnum)
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
    # The Monte Carlo layer is public too, though the package does not export it.
    stochastic = importlib.import_module("chebprob.stochastic")
    exported = set(chebprob.__all__) | set(stochastic.__all__)
    unused = sorted(exported - used - set(UNUSED_BY_DESIGN))
    assert unused == []
    # An allowed name that gains a caller, or leaves the package, leaves the list.
    assert sorted(set(UNUSED_BY_DESIGN) & used) == []
    assert sorted(set(UNUSED_BY_DESIGN) - exported) == []


@pytest.mark.parametrize("name", ["chebyshev", "series", "stochastic"])
def test_oracles_are_not_exported(name):
    # The test oracles and the Monte Carlo layer are imported by module name
    # (tests/test_cli.py checks that the package does not load them).
    oracle = importlib.import_module(f"chebprob.{name}")
    assert sorted(set(oracle.__all__) & set(chebprob.__all__)) == []


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


def test_readme_quick_tour_runs():
    # README's one python block runs as written, and each of its bare
    # expressions whose comment states a value gives that value.
    readme = (ROOT / "README.md").read_text()
    (block,) = re.findall(r"```python\n(.*?)```", readme, re.S)
    namespace, values = {}, {}
    for statement in ast.parse(block).body:
        code = ast.unparse(statement)
        if isinstance(statement, ast.Expr):
            values[code] = eval(code, namespace)
        else:
            exec(code, namespace)
    assert values["table.values[5]"] == Fraction(3, 16)
    assert values["probnum_catalan(3, 5)"] == Fraction(3, 16)
    assert values["gen_euler_recursive(2, 2).coefficients"] == (Fraction(1, 2), -2, 1)
    assert values["report.ok()"] is True
