"""The package's public names and imports hold together, checked with ast and importlib.

- every name listed in a module's ``__all__`` exists in that module;
- every name ``liechar/__init__.py`` imports from a module is in that
  module's ``__all__``;
- every name a module imports from inside the package (a relative import) is
  used in that module.  ``__init__.py`` is exempt: its imports are the
  package's API.
"""

import ast
import importlib
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "liechar"
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py") if path.stem != "__init__")


def tree(name):
    return ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))


def relative_imports(module_tree):
    """(module, imported name, local name) for each ``from .module import name``."""
    for node in ast.walk(module_tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            for alias in node.names:
                yield node.module, alias.name, alias.asname or alias.name


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_exists(name):
    module = importlib.import_module(f"liechar.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_package_imports_only_public_names():
    stray = []
    for module, name, _ in relative_imports(tree("__init__")):
        if module is None:  # from . import catalog
            importlib.import_module(f"liechar.{name}")
        elif name not in importlib.import_module(f"liechar.{module}").__all__:
            stray.append(f"{module}.{name}")
    assert stray == []


@pytest.mark.parametrize("name", MODULES)
def test_every_relative_import_is_used(name):
    module_tree = tree(name)
    used = {node.id for node in ast.walk(module_tree) if isinstance(node, ast.Name)}
    unused = [f"{module}.{imported}" for module, imported, local in relative_imports(module_tree)
              if local not in used]
    assert unused == []
