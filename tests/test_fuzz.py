"""Mutated fixture workspaces fail with a typed error, never with a traceback.

Each example takes one of the three fixture documents and applies one to three
random mutations at random places in its JSON tree: replace a value with a
small random JSON value, delete a key or list item, insert one, or re-point a
reference (an algebra named by source, algebra, total, base or kernel, an
extension named by extension) to another name of the same kind.  Parsing
must either succeed or raise ParseError/ValidationError, and the CLI must
return 0, 1 or 2 on the mutated file.  Integers are drawn from a small range
and from 10**6 and 2**63: a dimension, degree or index that large must be
rejected by the size of the document that names it, before any table or
tuple of that size is built.

Most mutations stop at the parse, so a second strategy draws valid documents
that reach the computations: a catalog workspace with seeded rational
sections (the lift s0 plus kernel shifts through iota) and a seeded symmetric
map of degree 1 to 3.  On the oscillator the draw may keep to its rotation
invariants (shifts along z, maps a z^k + b z^(k-2) (p^2 + q^2)), so that the
section-policy classes are computed rather than refused.
"""

import contextlib
import io
import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from liechar import (ParseError, Section, SymMultiMap, ValidationError, catalog,
                     parse_workspace, serialize_workspace)
from liechar.cli import run_command

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"
DOCS = {name: (FIXTURES / f"{name}.json").read_text(encoding="utf-8")
        for name in ("oscillator", "heisenberg", "filiform")}

# fixture: (extension, two sections, degree-1 map)
NAMES = {
    "oscillator": ("osc", "s0", "sz", "fz"),
    "heisenberg": ("heis", "s0", "s1", "f1"),
    "filiform": ("fil", "s0", "s1", "f1"),
}

KEYS = ("algebras", "sections", "dim", "basis", "brackets", "i", "j", "coeffs",
        "matrix", "entries", "tuple", "value", "degree", "x")

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 6) | st.sampled_from([10**6, 2**63])
    | st.sampled_from([0.5, "0", "1", "-1", "1/2", "2/4", "1e5", "x", ""]),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.sampled_from(KEYS), inner, max_size=3)),
    max_leaves=6)

SETTINGS = settings(max_examples=100, derandomize=True, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


# reference field: the top-level registry its names come from
REFERENCES = {"source": "algebras", "algebra": "algebras", "total": "algebras",
              "base": "algebras", "kernel": "algebras", "extension": "extensions"}


def _paths(node, path=()):
    yield path
    children = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield from _paths(child, path + (key,))


def _parent(doc, path):
    for key in path[:-1]:
        doc = doc[key]
    return doc


def _references(doc):
    """(path, other names of the same kind) for each reference field holding a name."""
    for path in _paths(doc):
        if not path or path[-1] not in REFERENCES:
            continue
        name = _parent(doc, path)[path[-1]]
        registry = doc.get(REFERENCES[path[-1]]) if isinstance(doc, dict) else None
        if isinstance(name, str) and isinstance(registry, dict):
            others = sorted(n for n in registry if n != name)
            if others:
                yield path, others


@st.composite
def mutated_fixtures(draw):
    name = draw(st.sampled_from(sorted(DOCS)))
    doc = json.loads(DOCS[name])
    for _ in range(draw(st.integers(1, 3))):
        references = list(_references(doc))
        if references and draw(st.integers(0, 3)) == 0:
            path, others = draw(st.sampled_from(references))
            _parent(doc, path)[path[-1]] = draw(st.sampled_from(others))
            continue
        paths = list(_paths(doc))
        if draw(st.booleans()):
            # half of the mutations hit a named field rather than a matrix entry
            paths = [path for path in paths if not path or isinstance(path[-1], str)]
        path = draw(st.sampled_from(paths))
        if not path:
            doc = draw(JSON_VALUES)
            continue
        parent = _parent(doc, path)
        last = path[-1]
        kind = draw(st.sampled_from(["replace", "delete", "insert"]))
        if kind == "replace":
            parent[last] = draw(JSON_VALUES)
        elif kind == "delete":
            del parent[last]
        elif isinstance(parent, dict):
            parent[draw(st.sampled_from(KEYS))] = draw(JSON_VALUES)
        else:
            parent.insert(last, draw(JSON_VALUES))
    return name, json.dumps(doc)


@SETTINGS
@given(mutated_fixtures())
def test_parse_succeeds_or_raises_a_typed_error(case):
    _, text = case
    try:
        parse_workspace(text)
    except (ParseError, ValidationError):
        pass


@SETTINGS
@given(case=mutated_fixtures())
def test_cli_keeps_its_exit_code_contract(tmp_path_factory, case):
    name, text = case
    path = tmp_path_factory.mktemp("fuzz") / f"{name}.json"
    path.write_text(text, encoding="utf-8")
    ext, s0, s1, f1 = NAMES[name]
    for argv in (["validate"],
                 ["curvature", "--extension", ext, "--section", s1],
                 ["chern-weil", "--extension", ext, "--poly", f1, "--section", s0],
                 ["secondary", "--extension", ext, "--poly", f1, "--sections", f"{s0},{s1}"],
                 ["verify-theorem", "--extension", ext, "--poly", f1,
                  "--sections", f"{s0},{s1}"]):
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = run_command([argv[0], str(path), *argv[1:]])
        assert code in (0, 1, 2), argv


RATIONALS = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))


@st.composite
def seeded_documents(draw):
    """(fixture, section names, serialized workspace, output format); the map is g."""
    name = draw(st.sampled_from(sorted(DOCS)))
    ws = getattr(catalog, f"{name}_workspace")()
    ext = ws.extensions[NAMES[name][0]]
    lift = ws.sections["s0"].matrix
    invariant = name == "oscillator" and draw(st.booleans())
    shifted = [2] if invariant else range(ext.kernel.dim)
    names = [f"t{i}" for i in range(draw(st.integers(2, 3)))]
    for sec_name in names:
        shift = [[draw(RATIONALS) if j in shifted else 0 for j in range(ext.kernel.dim)]
                 for _ in range(ext.base.dim)]
        ws.sections[sec_name] = Section(ext, [
            [lift[r][c] + sum(x * y for x, y in zip(ext.iota[r], shift[c]))
             for c in range(ext.base.dim)] for r in range(ext.total.dim)])
    degree = draw(st.integers(1, 3))
    a, b = draw(RATIONALS), draw(RATIONALS)

    def value(key):
        if not invariant:
            return [draw(RATIONALS)]
        zs = key.count(2)
        if zs == degree:
            return [a]
        return [b if zs == degree - 2 and (key.count(0) == 2 or key.count(1) == 2) else 0]

    ws.polynomials["g"] = SymMultiMap.from_function(ext.kernel, degree, 1, value)
    output = draw(st.sampled_from(["text", "json"]))
    return name, names, serialize_workspace(ws), output


@settings(max_examples=60, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=seeded_documents())
@pytest.mark.filterwarnings("ignore::liechar.InvarianceWarning")
def test_valid_documents_reach_the_computations(tmp_path_factory, case):
    name, sections, text, output = case
    path = tmp_path_factory.mktemp("seeded") / f"{name}.json"
    path.write_text(text, encoding="utf-8")
    ext = NAMES[name][0]
    runs = [["curvature", "--extension", ext, "--section", sections[0]]]
    for mode in ("section", "strict"):
        common = ["--extension", ext, "--poly", "g", "--invariance", mode]
        runs += [["chern-weil", *common, "--section", sections[0]],
                 ["secondary", *common, "--sections", ",".join(sections[:2])],
                 ["verify-theorem", *common, "--sections", ",".join(sections)]]
    for argv in runs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run_command([argv[0], str(path), *argv[1:], "--output", output])
        assert code in (0, 1), (argv, err.getvalue())
        assert "Traceback" not in out.getvalue() + err.getvalue(), argv
        if output == "json" and code == 0:
            json.loads(out.getvalue())
