"""Each module's ``__all__`` names what the module really exports.

The benchmark tracer wraps every function that ``exponents.__all__``
lists, so a stale entry there breaks it; and a name the package re-exports
from a module should be part of that module's public list too.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import fujitalab

MODULES = sorted(info.name for info in pkgutil.iter_modules(fujitalab.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_listed_name_resolves(name):
    module = importlib.import_module("fujitalab." + name)
    missing = [n for n in getattr(module, "__all__", ())
               if not hasattr(module, n)]
    assert not missing


def test_package_reexports_are_listed():
    tree = ast.parse(Path(fujitalab.__file__).read_text(encoding="utf-8"))
    unlisted = []
    for node in tree.body:
        if not (isinstance(node, ast.ImportFrom) and node.level == 1):
            continue
        module = importlib.import_module("fujitalab." + node.module)
        if hasattr(module, "__all__"):
            unlisted += ["%s.%s" % (node.module, alias.name)
                         for alias in node.names
                         if alias.name not in module.__all__]
    assert not unlisted
