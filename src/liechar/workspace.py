"""JSON workspace files: parsing, validation, canonical serialization.

A workspace document has the top-level keys "algebras", "representations",
"extensions", "sections" and "polynomials", each mapping names to objects.
All rationals are strings ("p/q" in lowest terms, "p" for integers); floats
never appear.  Canonical form is two-space-indented JSON with sorted keys and
a trailing newline, so parse and serialize are mutually inverse on canonical
documents byte for byte.

Schemas:

    algebra        {"dim": n, "basis": [..], "brackets": [{"i", "j", "coeffs"}]}
                   with sparse i < j entries and coefficient keys that are
                   basis indices as strings
    representation {"algebra": name, "space_dim": m, "matrices": [[[..]]]}
    extension      {"total": name-or-algebra, "base": .., "kernel": ..,
                    "iota": [[..]], "q": [[..]]}
    section        {"extension": name, "matrix": [[..]]}
    polynomial     {"degree": p, "source": name, "target_dim": m,
                    "entries": [{"tuple": [..], "value": [..]}]}
                   over non-decreasing tuples in lexicographic order

ParseError marks malformed documents (bad JSON, wrong shapes, dangling
references by shape); ValidationError marks well-formed objects that violate
a mathematical invariant, and names the object and the invariant.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .characteristic import CharacteristicClass
from .cochains import Cochain, SymMultiMap
from .extensions import Extension, Section, validate_extension, validate_section
from .liealg import (LieAlgebra, Representation, algebra_from_brackets,
                     check_jacobi, check_representation)
from .scalars import (MultiPoly, poly_from_json, poly_to_json, rational_from_str,
                      rational_to_str)

__all__ = [
    "ParseError",
    "ValidationError",
    "Workspace",
    "parse_workspace",
    "serialize_workspace",
    "canonical_dumps",
    "algebra_to_json",
    "cochain_to_json",
    "cochain_from_json",
    "class_to_json",
]


class ParseError(ValueError):
    def __init__(self, message, location=None):
        self.location = location
        super().__init__(f"{location}: {message}" if location else message)


class ValidationError(ValueError):
    pass


@dataclass
class Workspace:
    algebras: dict = field(default_factory=dict)
    representations: dict = field(default_factory=dict)
    extensions: dict = field(default_factory=dict)
    sections: dict = field(default_factory=dict)
    polynomials: dict = field(default_factory=dict)


_TOP_KEYS = ("algebras", "representations", "extensions", "sections", "polynomials")


def canonical_dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _expect(cond, message, location):
    if not cond:
        raise ParseError(message, location)


def _rational(s, location, nvars=None):
    """A rational string; with nvars, a polynomial term list instead."""
    if isinstance(s, float):
        raise ParseError("floats are not accepted; use rational strings", location)
    if nvars is None and not isinstance(s, (str, int)):
        raise ParseError(f"expected a rational string, got {type(s).__name__}", location)
    try:
        return rational_from_str(str(s)) if nvars is None else poly_from_json(s, nvars)
    except ValueError as exc:
        raise ParseError(str(exc), location) from None


def _matrix(obj, rows, cols, location):
    _expect(isinstance(obj, list) and len(obj) == rows, f"expected {rows} rows", location)
    out = []
    for r, row in enumerate(obj):
        _expect(isinstance(row, list) and len(row) == cols,
                f"expected {cols} columns in row {r}", location)
        out.append([_rational(c, f"{location}[{r}][{j}]") for j, c in enumerate(row)])
    return out


def _algebra_from_json(name, obj, location):
    _expect(isinstance(obj, dict), "algebra must be an object", location)
    _expect(set(obj) <= {"dim", "basis", "brackets"},
            "unknown keys in algebra object", location)
    dim = obj.get("dim")
    basis = obj.get("basis")
    _expect(isinstance(dim, int) and dim >= 0, "dim must be a non-negative integer", location)
    _expect(isinstance(basis, list) and len(basis) == dim
            and all(isinstance(b, str) for b in basis),
            "basis must list dim names", location)
    brackets = {}
    for idx, item in enumerate(obj.get("brackets", [])):
        loc = f"{location}.brackets[{idx}]"
        _expect(isinstance(item, dict) and set(item) <= {"i", "j", "coeffs"},
                "bracket entry must have keys i, j, coeffs", loc)
        i, j = item.get("i"), item.get("j")
        _expect(isinstance(i, int) and isinstance(j, int) and 0 <= i < j < dim,
                "bracket indices must satisfy 0 <= i < j < dim", loc)
        coeffs = {}
        for k, c in (item.get("coeffs") or {}).items():
            try:
                ki = int(k)
            except ValueError:
                raise ParseError("coefficient keys must be basis indices", loc) from None
            _expect(0 <= ki < dim, f"coefficient index {ki} out of range", loc)
            coeffs[ki] = _rational(c, f"{loc}.coeffs[{k}]")
        _expect((i, j) not in brackets, f"duplicate bracket entry ({i},{j})", loc)
        brackets[(i, j)] = coeffs
    try:
        alg = algebra_from_brackets(basis, brackets, validate=False)
    except ValueError as exc:
        raise ParseError(str(exc), location) from None
    bad = check_jacobi(alg)
    if bad:
        i, j, k, defect = bad[0]
        names = alg.basis_names
        raise ValidationError(
            f"algebra '{name}': Jacobi identity fails at "
            f"({names[i]},{names[j]},{names[k]}) with defect {list(map(str, defect))}")
    return alg


def algebra_to_json(alg: LieAlgebra):
    brackets = []
    for i in range(alg.dim):
        for j in range(i + 1, alg.dim):
            coeffs = {
                str(k): rational_to_str(c)
                for k, c in enumerate(alg.structure[i][j]) if c
            }
            if coeffs:
                brackets.append({"i": i, "j": j, "coeffs": coeffs})
    return {"dim": alg.dim, "basis": list(alg.basis_names), "brackets": brackets}


def _rep_from_json(name, obj, algebras, location):
    _expect(isinstance(obj, dict) and set(obj) <= {"algebra", "space_dim", "matrices"},
            "representation must have keys algebra, space_dim, matrices", location)
    ref = obj.get("algebra")
    _expect(isinstance(ref, str), "algebra must be a name", location)
    if ref not in algebras:
        raise ValidationError(f"representation '{name}': unknown algebra '{ref}'")
    alg = algebras[ref]
    m = obj.get("space_dim")
    _expect(isinstance(m, int) and m >= 1, "space_dim must be a positive integer", location)
    mats = obj.get("matrices")
    _expect(isinstance(mats, list) and len(mats) == alg.dim,
            "need one matrix per basis element", location)
    matrices = [_matrix(mat, m, m, f"{location}.matrices[{i}]")
                for i, mat in enumerate(mats)]
    rep = Representation(alg, m, matrices, validate=False)
    bad = check_representation(rep)
    if bad:
        i, j, _ = bad[0]
        raise ValidationError(
            f"representation '{name}': representation property fails on "
            f"({alg.basis_names[i]},{alg.basis_names[j]})")
    return rep


def _rep_to_json(name, rep, algebras):
    ref = _find_name(algebras, rep.algebra)
    if ref is None:
        raise ValueError(f"representation '{name}' refers to an unregistered algebra")
    return {
        "algebra": ref,
        "space_dim": rep.space_dim,
        "matrices": [[[rational_to_str(c) for c in row] for row in mat]
                     for mat in rep.matrices],
    }


def _resolve_algebra(ref, algebras, location):
    if isinstance(ref, str):
        if ref not in algebras:
            raise ValidationError(f"{location}: unknown algebra '{ref}'")
        return algebras[ref]
    return _algebra_from_json(location, ref, location)


def _extension_from_json(name, obj, algebras, location):
    _expect(isinstance(obj, dict) and set(obj) <= {"total", "base", "kernel", "iota", "q"},
            "extension must have keys total, base, kernel, iota, q", location)
    total = _resolve_algebra(obj.get("total"), algebras, f"extension '{name}' (total)")
    base = _resolve_algebra(obj.get("base"), algebras, f"extension '{name}' (base)")
    kernel = _resolve_algebra(obj.get("kernel"), algebras, f"extension '{name}' (kernel)")
    iota = _matrix(obj.get("iota"), total.dim, kernel.dim, f"{location}.iota")
    proj = _matrix(obj.get("q"), base.dim, total.dim, f"{location}.q")
    ext = Extension(total, base, kernel, iota, proj)
    failures = validate_extension(ext)
    if failures:
        raise ValidationError(f"extension '{name}': " + "; ".join(failures))
    return ext


def _extension_to_json(name, ext, algebras):
    def ref_or_inline(alg):
        found = _find_name(algebras, alg)
        return found if found is not None else algebra_to_json(alg)

    return {
        "total": ref_or_inline(ext.total),
        "base": ref_or_inline(ext.base),
        "kernel": ref_or_inline(ext.kernel),
        "iota": [[rational_to_str(c) for c in row] for row in ext.iota],
        "q": [[rational_to_str(c) for c in row] for row in ext.proj],
    }


def _section_from_json(name, obj, extensions, location):
    _expect(isinstance(obj, dict) and set(obj) <= {"extension", "matrix"},
            "section must have keys extension, matrix", location)
    ref = obj.get("extension")
    _expect(isinstance(ref, str), "extension must be a name", location)
    if ref not in extensions:
        raise ValidationError(f"section '{name}': unknown extension '{ref}'")
    ext = extensions[ref]
    matrix = _matrix(obj.get("matrix"), ext.total.dim, ext.base.dim, f"{location}.matrix")
    sec = Section(ext, matrix)
    if not validate_section(ext, sec):
        raise ValidationError(f"section '{name}': q . sigma is not the identity")
    return sec


def _section_to_json(name, sec, extensions):
    ref = _find_name(extensions, sec.extension)
    if ref is None:
        raise ValueError(f"section '{name}' refers to an unregistered extension")
    return {
        "extension": ref,
        "matrix": [[rational_to_str(c) for c in row] for row in sec.matrix],
    }


def _symmap_from_json(name, obj, algebras, location):
    _expect(isinstance(obj, dict)
            and set(obj) <= {"degree", "source", "target_dim", "entries"},
            "polynomial must have keys degree, source, target_dim, entries", location)
    ref = obj.get("source")
    _expect(isinstance(ref, str), "source must be a name", location)
    if ref not in algebras:
        raise ValidationError(f"polynomial '{name}': unknown algebra '{ref}'")
    degree = obj.get("degree")
    target_dim = obj.get("target_dim")
    _expect(isinstance(degree, int) and degree >= 0, "degree must be a non-negative integer", location)
    _expect(isinstance(target_dim, int) and target_dim >= 1,
            "target_dim must be a positive integer", location)
    return _table_from_json(SymMultiMap, obj.get("entries"), algebras[ref], degree,
                            target_dim, location)


def _symmap_to_json(name, f, algebras):
    ref = _find_name(algebras, f.source)
    if ref is None:
        raise ValueError(f"polynomial '{name}' refers to an unregistered algebra")
    return {"degree": f.degree, "source": ref, "target_dim": f.target_dim,
            "entries": _table_entries_to_json(f)}


def _table_from_json(cls, entries, alg, degree, target_dim, location, nvars=None):
    """A Cochain or SymMultiMap from its entry list in canonical tuple order."""
    expected = cls.key_tuples(alg.dim, degree)
    _expect(isinstance(entries, list) and len(entries) == len(expected),
            f"expected {len(expected)} entries", location)
    values = {}
    for idx, item in enumerate(entries):
        loc = f"{location}.entries[{idx}]"
        _expect(isinstance(item, dict) and set(item) <= {"tuple", "value"},
                "entry must have keys tuple, value", loc)
        key = item.get("tuple", [])
        _expect(isinstance(key, list) and tuple(key) == expected[idx],
                f"entry {idx} must be for tuple {list(expected[idx])}", loc)
        val = item.get("value")
        _expect(isinstance(val, list) and len(val) == target_dim,
                f"value must have length {target_dim}", loc)
        values[expected[idx]] = [_rational(v, f"{loc}.value[{i}]", nvars)
                               for i, v in enumerate(val)]
    return cls(alg, degree, target_dim, values)


def _table_entries_to_json(table):
    return [{"tuple": list(key), "value": [_scalar_to_json(v) for v in val]}
            for key, val in table.values.items()]


def _find_name(registry, obj):
    for name, value in registry.items():
        if value is obj:
            return name
    return None


def parse_workspace(text: str) -> Workspace:
    """Parse and fully validate a workspace document."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}",
                         f"line {exc.lineno} column {exc.colno}") from None
    _expect(isinstance(doc, dict), "top level must be an object", "document")
    for key in doc:
        _expect(key in _TOP_KEYS, f"unknown top-level key {key!r}", "document")
    for key in _TOP_KEYS:
        section = doc.get(key, {})
        _expect(isinstance(section, dict), f"'{key}' must map names to objects", key)
    ws = Workspace()
    for name, obj in doc.get("algebras", {}).items():
        ws.algebras[name] = _algebra_from_json(name, obj, f"algebras.{name}")
    for name, obj in doc.get("representations", {}).items():
        ws.representations[name] = _rep_from_json(name, obj, ws.algebras,
                                                  f"representations.{name}")
    for name, obj in doc.get("extensions", {}).items():
        ws.extensions[name] = _extension_from_json(name, obj, ws.algebras,
                                                   f"extensions.{name}")
    for name, obj in doc.get("sections", {}).items():
        ws.sections[name] = _section_from_json(name, obj, ws.extensions,
                                               f"sections.{name}")
    for name, obj in doc.get("polynomials", {}).items():
        ws.polynomials[name] = _symmap_from_json(name, obj, ws.algebras,
                                                 f"polynomials.{name}")
    return ws


def serialize_workspace(ws: Workspace) -> str:
    """Canonical-form document for the workspace (sorted keys, LF, trailing newline)."""
    doc = {}
    if ws.algebras:
        doc["algebras"] = {name: algebra_to_json(a) for name, a in ws.algebras.items()}
    if ws.representations:
        doc["representations"] = {
            name: _rep_to_json(name, r, ws.algebras)
            for name, r in ws.representations.items()
        }
    if ws.extensions:
        doc["extensions"] = {
            name: _extension_to_json(name, e, ws.algebras)
            for name, e in ws.extensions.items()
        }
    if ws.sections:
        doc["sections"] = {
            name: _section_to_json(name, s, ws.extensions)
            for name, s in ws.sections.items()
        }
    if ws.polynomials:
        doc["polynomials"] = {
            name: _symmap_to_json(name, f, ws.algebras)
            for name, f in ws.polynomials.items()
        }
    return canonical_dumps(doc)


def _scalar_to_json(x):
    if isinstance(x, MultiPoly):
        return poly_to_json(x)
    return rational_to_str(x)


def cochain_to_json(w: Cochain):
    """Dense entry list over increasing tuples in lexicographic order."""
    return {"degree": w.degree, "entries": _table_entries_to_json(w)}


def cochain_from_json(obj, source: LieAlgebra, target_dim: int, nvars=None) -> Cochain:
    """Inverse of cochain_to_json; with nvars, values are polynomial term lists."""
    _expect(isinstance(obj, dict), "cochain must be an object", "cochain")
    degree = obj.get("degree")
    _expect(isinstance(degree, int) and degree >= 0,
            "degree must be a non-negative integer", "cochain")
    return _table_from_json(Cochain, obj.get("entries"), source, degree, target_dim,
                            "cochain", nvars)


def class_to_json(cls: CharacteristicClass):
    return {
        "degree": cls.degree,
        "h_dim": cls.h_space.h_dim,
        "coordinates": [rational_to_str(c) for c in cls.coordinates],
        "representative": cochain_to_json(cls.representative),
    }
