"""JSON workspace files: parsing, validation, canonical serialization.

A workspace document maps top-level keys to named objects of one kind each.
The table _KINDS is the one place that defines the five kinds: their keys,
their order ("algebras", "representations", "extensions", "sections",
"polynomials", the order of dependence, in which any document is read), their
reader and writer, and the registry that a kind's references name.
All rationals are strings ("p/q" in lowest terms, "p" for integers); bare
JSON numbers are rejected there, and floats never appear.  Canonical form is
two-space-indented JSON with sorted keys and a trailing newline, so parse and
serialize are mutually inverse on canonical documents byte for byte.

Schemas:

    algebra        {"dim": n, "basis": [..], "brackets": [{"i", "j", "coeffs"}]}
                   with sparse i < j entries and coefficient keys that are
                   basis indices as canonical decimal strings ("1", never
                   "01", "+1" or " 1")
    representation {"algebra": name, "space_dim": m, "matrices": [[[..]]]}
    extension      {"total": name-or-algebra, "base": .., "kernel": ..,
                    "iota": [[..]], "q": [[..]]}
    section        {"extension": name, "matrix": [[..]]}
    polynomial     {"degree": p, "source": name, "target_dim": m,
                    "entries": [{"tuple": [..], "value": [..]}]}
                   over non-decreasing tuples in lexicographic order

Every value read is a rational string; no schema holds polynomial values.
Each distinct literal is parsed once per parse_workspace call, and its
location is formatted only if it is rejected.  Module matrices, iota, q and
section matrices go through one matrix reader, which checks the shape and
every literal and returns the {column: Fraction} dict of each row's nonzero
entries: the literal "0", the only zero literal rational_from_str accepts, is
skipped without a Fraction, and a literal already parsed is read from the
memo.  Modules, extensions and sections are built from those rows through the
trusted constructors, and each is then checked as its public constructor
would check it (_require_representation, validate_extension,
validate_section), so no entry is coerced or scanned for zeros twice.
Algebras are built through algebra_from_brackets.

A polynomial's entry count is checked against the number of its tuples, and
each entry's tuple length against its degree, before any tuple is
enumerated; the canonical tuples are then walked one at a time, so the reader
holds no more of them than the document has accepted entries.  Cochains are
written (cochain_to_json) and never read.  Module matrices are stored sparse
and expanded to dense rows of strings only by the writer.  The canonical
text comes from a small recursive writer whose bytes are those of json.dumps
with an indent and sorted keys; it writes only the JSON types a document
holds and raises TypeError on any other object, a float or a non-string key
among them.

Dimensions, degrees and indices are JSON integers; true and false are not
read as 1 and 0 there, although Python's bool is a subclass of int.

ParseError marks malformed documents (bad JSON, wrong shapes, dangling
references by shape); ValidationError marks well-formed objects that violate
a mathematical invariant, and names the object and the invariant.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _quote

from .characteristic import CharacteristicClass
from .cochains import Cochain, SymMultiMap, _nondecreasing_walk, _nonzero
from .extensions import Extension, Section, validate_extension, validate_section
from .liealg import (LieAlgebra, Representation, _require_representation,
                     algebra_from_brackets)
from .linalg import sparse_transpose
from .scalars import MultiPoly, poly_to_json, rational_from_str, rational_to_str

__all__ = [
    "ParseError",
    "ValidationError",
    "Workspace",
    "parse_workspace",
    "serialize_workspace",
    "canonical_dumps",
    "algebra_to_json",
    "cochain_to_json",
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


def canonical_dumps(obj) -> str:
    """json.dumps(obj, indent=2, sort_keys=True) + "\n", written directly.

    Only lists, tuples, dicts with string keys, strings, integers, booleans
    and None are written, strings quoted with the C function json.dumps uses.
    Anything else (a float, a key of another type) raises TypeError, and a
    cycle RecursionError, so no document is written that parse_workspace
    would refuse.
    """
    return _canonical(obj, "\n") + "\n"


def _canonical(obj, indent):
    """obj as json.dumps writes it, each nested line starting with indent."""
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = indent + "  "
        items = []
        for x in obj:  # strings, the entries of every matrix, take no call
            items.append(_quote(x) if type(x) is str else _canonical(x, inner))
        return f"[{inner}{(',' + inner).join(items)}{indent}]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = indent + "  "
        items = []
        for key, x in sorted(obj.items()):  # _quote raises TypeError on other keys
            items.append(f"{_quote(key)}: {_quote(x) if type(x) is str else _canonical(x, inner)}")
        return f"{{{inner}{(',' + inner).join(items)}{indent}}}"
    if isinstance(obj, str):
        return _quote(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    raise TypeError(f"cannot write {type(obj).__name__} as canonical JSON")


def _expect(cond, message, location, *args):
    """ParseError unless cond; with args, message is a template formatted only then."""
    if not cond:
        raise ParseError(message.format(*args) if args else message, location)


def _rational(s, memo, where, *args):
    """A rational string, parsed once per document (``memo`` holds each literal that
    parsed); its location ``where.format(*args)`` is formatted only to reject it."""
    if isinstance(s, float):
        raise ParseError("floats are not accepted; use rational strings", where.format(*args))
    if not isinstance(s, str):
        raise ParseError(f"expected a rational string, got {type(s).__name__}",
                         where.format(*args))
    x = memo.get(s)
    if x is None:
        try:
            x = memo[s] = rational_from_str(s)
        except ValueError as exc:
            raise ParseError(str(exc), where.format(*args)) from None
    return x


def _rows(obj, rows, cols, location, memo):
    """The {column: Fraction} dicts of the nonzero entries of each row of a rows x
    cols matrix of rational strings.  Every literal is checked; "0", the one zero
    literal rational_from_str accepts, is skipped without a Fraction, and a literal
    the memo holds is read there."""
    _expect(isinstance(obj, list) and len(obj) == rows, "expected {} rows", location, rows)
    out = []
    for r, row in enumerate(obj):
        _expect(isinstance(row, list) and len(row) == cols,
                "expected {} columns in row {}", location, cols, r)
        entries = {}
        for j, c in enumerate(row):
            if c == "0":
                continue
            x = memo.get(c) if type(c) is str else None
            entries[j] = x if x is not None else _rational(c, memo, "{}[{}][{}]",
                                                           location, r, j)
        out.append(entries)
    return out


def _algebra_from_json(name, obj, _registry, location, memo):
    _expect(isinstance(obj, dict), "algebra must be an object", location)
    _expect(set(obj) <= {"dim", "basis", "brackets"},
            "unknown keys in algebra object", location)
    dim = obj.get("dim")
    basis = obj.get("basis")
    _expect(type(dim) is int and dim >= 0, "dim must be a non-negative integer", location)
    _expect(isinstance(basis, list) and len(basis) == dim
            and all(isinstance(b, str) for b in basis),
            "basis must list dim names", location)
    _expect(len(set(basis)) == dim, "basis names must be unique", location)
    _expect(isinstance(obj.get("brackets", []), list), "brackets must be a list", location)
    brackets = {}
    for idx, item in enumerate(obj.get("brackets", [])):
        loc = f"{location}.brackets[{idx}]"
        _expect(isinstance(item, dict) and set(item) <= {"i", "j", "coeffs"},
                "bracket entry must have keys i, j, coeffs", loc)
        i, j = item.get("i"), item.get("j")
        _expect(type(i) is int and type(j) is int and 0 <= i < j < dim,
                "bracket indices must satisfy 0 <= i < j < dim", loc)
        _expect(isinstance(item.get("coeffs", {}), dict), "coeffs must be an object", loc)
        coeffs = {}
        for k, c in item.get("coeffs", {}).items():
            try:
                ki = int(k)
            except ValueError:
                ki = None
            _expect(ki is not None and k == str(ki),
                    "coefficient keys must be basis indices in canonical form", loc)
            _expect(0 <= ki < dim, "coefficient index {} out of range", loc, ki)
            coeffs[ki] = _rational(c, memo, "{}.coeffs[{}]", loc, k)
        _expect((i, j) not in brackets, "duplicate bracket entry ({},{})", loc, i, j)
        brackets[(i, j)] = coeffs
    try:
        return algebra_from_brackets(basis, brackets)
    except ValueError as exc:
        raise ValidationError(f"algebra '{name}': {exc}") from None


def algebra_to_json(alg: LieAlgebra):
    brackets = []
    for i in range(alg.dim):
        for j in range(i + 1, alg.dim):
            coeffs = {str(k): rational_to_str(c) for k, c in alg.sparse[i][j]}
            if coeffs:
                brackets.append({"i": i, "j": j, "coeffs": coeffs})
    return {"dim": alg.dim, "basis": list(alg.basis_names), "brackets": brackets}


def _lookup(registry, name, kind, prefix=""):
    """registry[name]; ValidationError "<prefix>unknown <kind> '<name>'" if absent."""
    if name not in registry:
        raise ValidationError(f"{prefix}unknown {kind} '{name}'")
    return registry[name]


def _referent(kind, name, obj, keys, ref_key, registry, target, location):
    """The entry of registry that obj, the kind object called name, names under
    ref_key; obj must be an object with no keys but keys, and that a name."""
    if not (isinstance(obj, dict) and set(obj).issubset(keys)):
        raise ParseError(f"{kind} must have keys {', '.join(keys)}", location)
    ref = obj.get(ref_key)
    _expect(isinstance(ref, str), "{} must be a name", location, ref_key)
    return _lookup(registry, ref, target, f"{kind} '{name}': ")


def _name_of(registry, obj, owner, kind):
    """The name obj is registered under; ValueError, naming owner, if none."""
    name = _find_name(registry, obj)
    if name is None:
        raise ValueError(f"{owner} refers to an unregistered {kind}")
    return name


def _rep_from_json(name, obj, algebras, location, memo):
    alg = _referent("representation", name, obj, ("algebra", "space_dim", "matrices"),
                    "algebra", algebras, "algebra", location)
    m = obj.get("space_dim")
    _expect(type(m) is int and m >= 1, "space_dim must be a positive integer", location)
    mats = obj.get("matrices")
    _expect(isinstance(mats, list) and len(mats) == alg.dim,
            "need one matrix per basis element", location)
    sparse = []
    for i, mat in enumerate(mats):
        rows = tuple([tuple(row.items()) for row in
                      _rows(mat, m, m, f"{location}.matrices[{i}]", memo)])
        sparse.append(rows if any(rows) else None)
    try:
        return _require_representation(Representation._of(alg, m, tuple(sparse)))
    except ValueError as exc:
        raise ValidationError(f"representation '{name}': {exc}") from None


def _rep_to_json(name, rep, algebras):
    m = rep.space_dim
    return {
        "algebra": _name_of(algebras, rep.algebra, f"representation '{name}'", "algebra"),
        "space_dim": m,
        "matrices": [[[rational_to_str(row[s]) if s in row else "0" for s in range(m)]
                      for row in map(dict, rows or ((),) * m)] for rows in rep.sparse],
    }


def _resolve_algebra(ref, algebras, location, memo):
    if isinstance(ref, str):
        return _lookup(algebras, ref, "algebra", f"{location}: ")
    return _algebra_from_json(location, ref, None, location, memo)


def _extension_from_json(name, obj, algebras, location, memo):
    _expect(isinstance(obj, dict) and set(obj) <= {"total", "base", "kernel", "iota", "q"},
            "extension must have keys total, base, kernel, iota, q", location)
    total, base, kernel = (
        _resolve_algebra(obj.get(part), algebras, f"extension '{name}' ({part})", memo)
        for part in ("total", "base", "kernel"))
    iota = _rows(obj.get("iota"), total.dim, kernel.dim, f"{location}.iota", memo)
    proj = _rows(obj.get("q"), base.dim, total.dim, f"{location}.q", memo)
    ext = Extension._of(total, base, kernel, iota, proj)
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


def _section_from_json(name, obj, extensions, location, memo):
    ext = _referent("section", name, obj, ("extension", "matrix"), "extension", extensions,
                    "extension", location)
    rows = _rows(obj.get("matrix"), ext.total.dim, ext.base.dim, f"{location}.matrix", memo)
    sec = Section._of(ext, sparse_transpose(rows, ext.base.dim))
    if not validate_section(ext, sec):
        raise ValidationError(f"section '{name}': q . sigma is not the identity")
    return sec


def _section_to_json(name, sec, extensions):
    return {
        "extension": _name_of(extensions, sec.extension, f"section '{name}'", "extension"),
        "matrix": [[rational_to_str(c) for c in row] for row in sec.matrix],
    }


def _symmap_from_json(name, obj, algebras, location, memo):
    alg = _referent("polynomial", name, obj, ("degree", "source", "target_dim", "entries"),
                    "source", algebras, "algebra", location)
    degree = obj.get("degree")
    target_dim = obj.get("target_dim")
    _expect(type(degree) is int and degree >= 0, "degree must be a non-negative integer", location)
    _expect(type(target_dim) is int and target_dim >= 1,
            "target_dim must be a positive integer", location)
    # The entry count is checked against the number of canonical tuples, and each
    # entry's tuple length against the degree before the entry is compared with the
    # next canonical tuple.  The tuples are walked one at a time, from the first
    # entry that passes, so only those of accepted entries are kept.
    entries = obj.get("entries")
    count = SymMultiMap.key_count(alg.dim, degree)
    _expect(isinstance(entries, list) and len(entries) == count,
            f"expected {count} entries", location)
    values = {}
    keys = None
    for idx, item in enumerate(entries):
        loc = f"{location}.entries[{idx}]"
        _expect(isinstance(item, dict) and set(item) <= {"tuple", "value"},
                "entry must have keys tuple, value", loc)
        key = item.get("tuple")
        _expect(isinstance(key, list) and len(key) == degree,
                "entry {} must be for a tuple of length {}", loc, idx, degree)
        if keys is None:
            keys = _nondecreasing_walk(alg.dim, degree)
        expected = next(keys)
        _expect(all(type(k) is int for k in key) and tuple(key) == expected,
                "entry {} must be for tuple {}", loc, idx, list(expected))
        val = item.get("value")
        _expect(isinstance(val, list) and len(val) == target_dim,
                "value must have length {}", loc, target_dim)
        values[expected] = tuple(_rational(v, memo, "{}.value[{}]", loc, i)
                                 for i, v in enumerate(val))
    return SymMultiMap._of(alg, degree, target_dim, _nonzero(values.items()))


def _symmap_to_json(name, f, algebras):
    return {"degree": f.degree,
            "source": _name_of(algebras, f.source, f"polynomial '{name}'", "algebra"),
            "target_dim": f.target_dim, "entries": _table_entries_to_json(f)}


def _table_entries_to_json(table):
    return [{"tuple": list(key),
             "value": [poly_to_json(v) if isinstance(v, MultiPoly) else rational_to_str(v)
                       for v in val]}
            for key, val in table.values.items()]


def _find_name(registry, obj):
    for name, value in registry.items():
        if value is obj:
            return name
    return None


# The five kinds in dependency order: key -> (reader(name, obj, registry, location,
# memo), writer(name, obj, registry), key of the registry their references name).
_KINDS = {
    "algebras": (_algebra_from_json, lambda name, alg, _: algebra_to_json(alg), None),
    "representations": (_rep_from_json, _rep_to_json, "algebras"),
    "extensions": (_extension_from_json, _extension_to_json, "algebras"),
    "sections": (_section_from_json, _section_to_json, "extensions"),
    "polynomials": (_symmap_from_json, _symmap_to_json, "algebras"),
}


def parse_workspace(text: str) -> Workspace:
    """Parse and fully validate a workspace document."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}",
                         f"line {exc.lineno} column {exc.colno}") from None
    _expect(isinstance(doc, dict), "top level must be an object", "document")
    for key in doc:
        _expect(key in _KINDS, "unknown top-level key {!r}", "document", key)
    for key in _KINDS:
        _expect(isinstance(doc.get(key, {}), dict), "'{}' must map names to objects", key, key)
    ws = Workspace()
    memo = {}  # each distinct rational literal of this document, parsed once
    for key, (read, _, refs) in _KINDS.items():
        registry, targets = getattr(ws, key), refs and getattr(ws, refs)
        for name, obj in doc.get(key, {}).items():
            registry[name] = read(name, obj, targets, f"{key}.{name}", memo)
    return ws


def serialize_workspace(ws: Workspace) -> str:
    """Canonical-form document for the workspace (sorted keys, LF, trailing newline)."""
    return canonical_dumps({
        key: {name: write(name, obj, refs and getattr(ws, refs))
              for name, obj in getattr(ws, key).items()}
        for key, (_, write, refs) in _KINDS.items() if getattr(ws, key)})


def cochain_to_json(w: Cochain):
    """Dense entry list over increasing tuples in lexicographic order."""
    return {"degree": w.degree, "entries": _table_entries_to_json(w)}


def class_to_json(cls: CharacteristicClass):
    return {
        "degree": cls.degree,
        "h_dim": cls.h_space.h_dim,
        "coordinates": [rational_to_str(c) for c in cls.coordinates],
        "representative": cochain_to_json(cls.representative),
    }
