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
  script; a name that only tests read moves to the tests or is deleted;
- no module but ``liealg`` scans ``.structure`` or ``.matrices`` with
  ``enumerate`` for nonzero entries: the sparse tables of ``LieAlgebra`` and
  ``Representation`` are the one reader;
- ``LieAlgebra``, ``Representation``, ``Cochain``, ``SymMultiMap`` and
  ``Section`` store their sparse table and no dense or full-table copy of it;
- outside ``cochains``, only ``characteristic._delta_f`` calls ``compose_sym``,
  so Delta_f, f applied to section curvatures and differences, is written once;
- only ``characteristic._delta_f`` and ``extensions.param_curvature`` call
  ``_family_curvature``, so R_t of a section family is built one way, and
  only ``section_curvature`` and ``_Vertices.of`` run the curvature loop
  ``_curvature_values``;
- sections and right-hand sides are rational: ``linalg`` names neither
  ``MultiPoly`` nor ``_coerce_scalar``, and in ``extensions`` only
  ``_family_curvature`` (R_t of a section family) names ``MultiPoly``;
- symmetric maps and written documents are rational too: ``workspace`` and
  ``characteristic`` name neither ``MultiPoly`` nor ``as_poly``; in
  ``cochains`` only the import, ``_integer_form``, ``_contract`` and ``_zero``
  name ``MultiPoly``; ``SymMultiMap`` coerces its entries with ``_fraction``,
  ``Cochain`` with ``_coerce_scalar``, and the shared base names neither.
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


DENSE_TABLES = {"structure", "matrices"}


class _TableScans(ast.NodeVisitor):
    """Collects the enumerate(...) calls whose argument reads .structure or
    .matrices, directly or through a name bound to (part of) them by a loop, a
    comprehension or a plain assignment.  Names are followed in order, per
    function and per comprehension; zip and enumerate targets element by
    element."""

    def __init__(self):
        self.tainted = set()
        self.lines = []

    def reads(self, node):
        return any(isinstance(sub, ast.Attribute) and sub.attr in DENSE_TABLES
                   or isinstance(sub, ast.Name) and sub.id in self.tainted
                   for sub in ast.walk(node))

    def bind(self, target, source):
        """Mark the names target binds as reading a table or not; source None
        reads none."""
        if (isinstance(source, ast.Call) and isinstance(source.func, ast.Name)
                and source.func.id in ("zip", "enumerate") and isinstance(target, ast.Tuple)):
            sources = source.args if source.func.id == "zip" else [None, *source.args]
            for elt, src in zip(target.elts, sources):
                self.bind(elt, src)
            return
        names = {sub.id for sub in ast.walk(target) if isinstance(sub, ast.Name)}
        if source is not None and self.reads(source):
            self.tainted |= names
        else:
            self.tainted -= names

    def scoped(self, visit):
        saved = set(self.tainted)
        visit()
        self.tainted = saved

    def visit_FunctionDef(self, node):
        self.scoped(lambda: self.generic_visit(node))

    visit_Lambda = visit_FunctionDef

    def visit_For(self, node):
        self.visit(node.iter)
        self.bind(node.target, node.iter)
        for stmt in node.body + node.orelse:
            self.visit(stmt)

    def visit_Assign(self, node):
        self.visit(node.value)
        plain = isinstance(node.value, (ast.Name, ast.Attribute, ast.Subscript))
        for target in node.targets:
            self.bind(target, node.value if plain else None)

    def visit_comprehension_node(self, node):
        def visit():
            for gen in node.generators:
                self.visit(gen.iter)
                self.bind(gen.target, gen.iter)
                for cond in gen.ifs:
                    self.visit(cond)
            for part in ("elt", "key", "value"):
                if hasattr(node, part):
                    self.visit(getattr(node, part))
        self.scoped(visit)

    visit_ListComp = visit_SetComp = visit_DictComp = visit_GeneratorExp = \
        visit_comprehension_node

    def visit_Call(self, node):
        if (isinstance(node.func, ast.Name) and node.func.id == "enumerate" and node.args
                and self.reads(node.args[0])):
            self.lines.append(node.lineno)
        self.generic_visit(node)


def dense_table_scans(module_tree):
    """Sorted line numbers of the enumerate(...) scans of the dense tables."""
    scans = _TableScans()
    scans.visit(module_tree)
    return sorted(scans.lines)


def test_dense_table_scans_are_detected():
    source = '''
def rows(algebra, rep, i, j):
    table = [[[(k, c) for k, c in enumerate(vec) if c] for vec in plane]
             for plane in algebra.structure]
    for k, c in enumerate(algebra.structure[i][j]):
        pass
    mats = rep.matrices
    for mat, other in zip(mats, table):
        nonzero = [(c, x) for row in mat for c, x in enumerate(row) if x]
        fine = [(c, x) for row in other for c, x in enumerate(row) if x]
    sizes = [len(row) for row in enumerate(rep.sparse)]
'''
    assert dense_table_scans(ast.parse(source)) == [3, 5, 9]


@pytest.mark.parametrize("name", [name for name in MODULES if name != "liealg"])
def test_only_liealg_scans_the_dense_tables(name):
    """Loops over nonzero structure constants or module entries read the sparse
    tables that LieAlgebra and Representation fill at construction."""
    assert dense_table_scans(tree(name)) == []


@pytest.mark.parametrize("cls, slots", [
    ("LieAlgebra", ("dim", "basis_names", "sparse")),
    ("Representation", ("algebra", "space_dim", "sparse")),
    ("Cochain", ("source", "degree", "target_dim", "nonzero")),
    ("SymMultiMap", ("source", "degree", "target_dim", "nonzero")),
    ("Section", ("extension", "_cols")),
])
def test_tables_are_stored_sparse_only(cls, slots):
    """Instances have no __dict__, so a dense shadow of the sparse table (or a
    full table of a cochain or symmetric map, whose ``values`` is a view read
    through ``nonzero``) would need a slot of its own."""
    cls = getattr(importlib.import_module("liechar"), cls)
    held = tuple(s for base in reversed(cls.__mro__) for s in vars(base).get("__slots__", ()))
    assert held == slots
    assert not (DENSE_TABLES | {"values"}) & set(held)
    assert not hasattr(object.__new__(cls), "__dict__")


def functions(name):
    """(module.function or module.Class.method, node) for each top-level
    function of a module and each method of its top-level classes."""
    for node in tree(name).body:
        if isinstance(node, ast.FunctionDef):
            yield f"{name}.{node.name}", node
        elif isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef):
                    yield f"{name}.{node.name}.{sub.name}", sub


def callers(target, modules=MODULES):
    """The definitions of the given modules that call target, by name or as an
    attribute."""
    return sorted({qualified for name in modules for qualified, node in functions(name)
                   for sub in ast.walk(node)
                   if isinstance(sub, ast.Call) and target in (
                       getattr(sub.func, "id", None), getattr(sub.func, "attr", None))})


def test_only_delta_f_composes_outside_cochains():
    assert callers("compose_sym", [n for n in MODULES if n != "cochains"]) == [
        "characteristic._delta_f"]


def test_family_curvature_has_two_callers():
    assert callers("_family_curvature") == [
        "characteristic._delta_f", "extensions.param_curvature"]


def test_curvature_loop_has_two_callers():
    assert callers("_curvature_values") == [
        "extensions._Vertices.of", "extensions.section_curvature"]


def name_uses(node, name):
    """How often a node reads a name or imports it with a from-import."""
    return sum(isinstance(sub, ast.Name) and sub.id == name
               or isinstance(sub, ast.alias) and sub.name == name for sub in ast.walk(node))


def test_polynomials_stay_in_the_family_curvature():
    linalg = tree("linalg")
    assert name_uses(linalg, "MultiPoly") == name_uses(linalg, "_coerce_scalar") == 0
    body = tree("extensions").body
    family = next(node for node in body
                  if isinstance(node, ast.FunctionDef) and node.name == "_family_curvature")
    outside = [node for node in body if node is not family and not isinstance(node, ast.ImportFrom)]
    assert name_uses(family, "MultiPoly")
    assert [getattr(node, "name", node.lineno) for node in outside
            if name_uses(node, "MultiPoly")] == []
    for name in ("workspace", "characteristic"):
        module = tree(name)
        assert name_uses(module, "MultiPoly") == name_uses(module, "as_poly") == 0, name
    body = tree("cochains").body
    assert [getattr(node, "name", "import") for node in body if name_uses(node, "MultiPoly")] == [
        "import", "_zero", "_integer_form", "_contract"]
    classes = {node.name: node for node in body if isinstance(node, ast.ClassDef)}

    def coercion(cls):
        return next(ast.unparse(node.value) for node in classes[cls].body
                    if isinstance(node, ast.Assign)
                    and [ast.unparse(target) for target in node.targets] == ["_coerce"])

    assert coercion("SymMultiMap") == "staticmethod(_fraction)"
    assert coercion("Cochain") == "staticmethod(_coerce_scalar)"
    assert name_uses(classes["_Table"], "_fraction") == 0
    assert name_uses(classes["_Table"], "_coerce_scalar") == 0
