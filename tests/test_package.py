"""Tests of the package's public surface."""

import importlib
import pkgutil

import pytest

import rbkit

MODULES = ["rbkit"] + [f"rbkit.{m.name}" for m in pkgutil.iter_modules(rbkit.__path__)
                       if m.name != "__main__"]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # a name deleted from a module but left in its __all__ breaks
    # ``from rbkit.<module> import *``
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
