"""The package's public names and imports hold together, checked with ast and importlib.

- every name listed in a module's ``__all__`` exists in that module;
- every name ``liechar/__init__.py`` imports from a module is in that
  module's ``__all__``;
- every name a module imports from inside the package (a relative import) is
  used in that module.  ``__init__.py`` is exempt: its imports are the
  package's API;
- every private name bound at module level is referenced by some other
  top-level statement of the package;
- every public name in a module's ``__all__`` is read by some statement of
  the package other than its own definition, or by a demo or a perfbench
  script; a name that only tests read moves to the tests or is deleted.
"""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "liechar"
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


def definitions(module_tree):
    """(name, statement) for each name a module-level statement binds."""
    for node in module_tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            names = []
        for name in names:
            yield name, node


def references(node):
    """Every name the node reads: plain names, attributes and imported names."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.ImportFrom):
            yield from (alias.name for alias in sub.names)


def test_every_private_module_name_is_used_elsewhere():
    """A private helper that only its own definition mentions is dead code."""
    trees = {name: tree(name) for name in MODULES + ["__init__"]}
    statements = [(node, set(references(node)))
                  for module_tree in trees.values() for node in module_tree.body]
    dead = [f"{name}.{private}"
            for name, module_tree in trees.items()
            for private, definition in definitions(module_tree)
            if private.startswith("_") and not private.endswith("__")
            and not any(private in refs for node, refs in statements if node is not definition)]
    assert dead == []


def public_names(module_tree):
    for node in module_tree.body:
        targets = [getattr(t, "id", None) for t in getattr(node, "targets", ())]
        if targets == ["__all__"]:
            return ast.literal_eval(node.value)
    return []


def test_every_public_name_has_a_reader_outside_the_tests():
    trees = {name: tree(name) for name in MODULES}
    scripts = sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    script_refs = {ref for path in scripts
                   for ref in references(ast.parse(path.read_text(encoding="utf-8")))}
    statements = [(node, set(references(node)))
                  for module_tree in trees.values() for node in module_tree.body]
    unread = []
    for name, module_tree in trees.items():
        defined = dict(definitions(module_tree))
        for public in public_names(module_tree):
            if public not in script_refs and not any(
                    public in refs for node, refs in statements if node is not defined[public]):
                unread.append(f"{name}.{public}")
    assert unread == []
