"""Every exported name resolves.

A name left in ``__all__`` after its definition is deleted breaks
``from chebprob import *``, which no other test imports.
"""

import importlib
import pkgutil

import pytest

import chebprob

MODULES = sorted(info.name for info in pkgutil.iter_modules(chebprob.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"chebprob.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_package_all_resolves():
    missing = [n for n in chebprob.__all__ if not hasattr(chebprob, n)]
    assert missing == []
