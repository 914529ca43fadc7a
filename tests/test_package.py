"""Tests of the package's public surface and its declared dependencies."""

import ast
import importlib
import pkgutil
import re
import sys
from pathlib import Path

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


def _third_party_imports(files, local):
    """The top-level modules that ``files`` import by absolute name, less the
    standard library and ``local``."""
    names = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - set(local)


def test_imports_match_declared_dependencies():
    # an undeclared import, or a declared dependency nothing imports, fails
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).parents[1]
    with open(root / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]

    def names(requirements):
        return {re.split(r"[<>=!~;\[ ]", r, maxsplit=1)[0].lower()
                for r in requirements}

    runtime = names(project["dependencies"])
    assert runtime == {"numpy", "scipy"}
    package = root / "src" / "rbkit"
    assert _third_party_imports(package.glob("*.py"), ["rbkit"]) == runtime
    tests = sorted((root / "tests").glob("*.py"))
    local = ["rbkit"] + [path.stem for path in tests]
    assert _third_party_imports(tests, local) - runtime == names(
        project["optional-dependencies"]["test"])
