import json
import random
import tracemalloc
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from liechar import cochains
from liechar import (Cochain, Extension, MultiPoly, ParseError, Representation, Section,
                     SymMultiMap, ValidationError, Workspace, abelian, adjoint_representation,
                     canonical_dumps, cochain_to_json, heisenberg3, nondecreasing_tuples,
                     param_curvature, parse_workspace, rational_from_str,
                     rational_to_str, serialize_workspace, trivial_representation)
from liechar.catalog import (filiform_workspace, heisenberg_workspace,
                             oscillator_workspace)

from helpers import (BOOLEAN_FIELDS, PINNED_LOAD_FAILURES, algebra_pool, boolean_document,
                     dense_matrices, dense_structure, exact_entry, oversized_polynomial_document,
                     poly_eval_at, rand_matrix, random_module, raise_everywhere,
                     sparse_matrices, zeros)

_H3 = {"dim": 3, "basis": ["p", "q", "z"], "brackets": [{"i": 0, "j": 1, "coeffs": {"2": "1"}}]}


def map_document(obj):
    """A document holding obj as the map named "cochain" on h3 with one-dimensional
    values (source and target_dim are added to an object)."""
    if isinstance(obj, dict):
        obj = {"source": "h3", "target_dim": 1, **obj}
    return json.dumps({"algebras": {"h3": _H3}, "polynomials": {"cochain": obj}})


def read_cochain(obj, source, target_dim):
    """The inverse of cochain_to_json on its output."""
    return Cochain(source, obj["degree"], target_dim, {
        tuple(e["tuple"]): [rational_from_str(v) for v in e["value"]] for e in obj["entries"]})


class TestRoundTrips:
    def test_fixture_files_are_canonical(self, fixtures_dir):
        for name in ("oscillator", "heisenberg", "filiform"):
            text = (fixtures_dir / f"{name}.json").read_text(encoding="utf-8")
            assert serialize_workspace(parse_workspace(text)) == text, name

    def test_fixture_files_match_catalog(self, fixtures_dir):
        built = {
            "oscillator": oscillator_workspace(),
            "heisenberg": heisenberg_workspace(),
            "filiform": filiform_workspace(),
        }
        for name, ws in built.items():
            text = (fixtures_dir / f"{name}.json").read_text(encoding="utf-8")
            assert serialize_workspace(ws) == text, name

    def test_empty_document(self):
        ws = parse_workspace("{}")
        assert ws.algebras == {} and ws.sections == {}
        assert serialize_workspace(ws) == "{}\n"

    @pytest.mark.parametrize("name", ["oscillator", "heisenberg", "filiform"])
    def test_top_level_key_order_does_not_matter(self, fixtures_dir, name):
        # kinds are read in the order of their dependence, not of the document;
        # the writer refuses a reference to an object that is not registered
        text = (fixtures_dir / f"{name}.json").read_text(encoding="utf-8")
        doc = json.loads(text)
        order = ("sections", "representations", "polynomials", "extensions", "algebras")
        ws = parse_workspace(json.dumps({key: doc[key] for key in order}))
        want = parse_workspace(text)
        assert serialize_workspace(ws) == text
        assert ws.algebras == want.algebras
        for kind in order:
            assert list(getattr(ws, kind)) == list(getattr(want, kind)), kind

    def test_value_round_trip_through_objects(self, fixtures_dir):
        text = (fixtures_dir / "oscillator.json").read_text(encoding="utf-8")
        ws = parse_workspace(text)
        assert ws.algebras["h3"] == heisenberg3()
        assert ws.extensions["osc"].kernel is ws.algebras["h3"]
        assert ws.sections["sz"].matrix[2][0] == 1
        assert ws.polynomials["fz"].entry((2,)) == (1,)


class TestModuleWriter:
    """Modules are stored sparse; the writer expands each matrix to dense rows of
    rational strings, as the dense matrices of the module would be written."""

    @staticmethod
    def workspaces():
        rng = random.Random(211)
        for alg in algebra_pool():
            ws = Workspace(algebras={"g": alg})
            ws.representations["zero"] = trivial_representation(alg, 2)
            ws.representations["ad"] = adjoint_representation(alg)
            ws.representations["module"] = random_module(rng, alg)
            mats = [rand_matrix(rng, 3, 3) if rng.random() < 0.7 else zeros(3, 3)
                    for _ in range(alg.dim)]
            ws.representations["random"] = Representation._of(alg, 3, sparse_matrices(mats))
            yield ws

    def test_matrices_written_as_the_dense_ones(self):
        for ws in self.workspaces():
            text = serialize_workspace(ws)
            doc = json.loads(text)
            doc["representations"] = {
                name: {"algebra": "g", "space_dim": rep.space_dim,
                       "matrices": [[[rational_to_str(c) for c in row] for row in mat]
                                    for mat in dense_matrices(rep)]}
                for name, rep in ws.representations.items()}
            assert text == json.dumps(doc, indent=2, sort_keys=True) + "\n"
            del ws.representations["random"]  # not a representation in general
            if ws.algebras["g"].dim:  # space_dim 0 is not a valid document
                assert serialize_workspace(parse_workspace(serialize_workspace(ws))) == \
                    serialize_workspace(ws)


class TestParseErrors:
    def test_malformed_json(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_workspace("{oops")

    def test_unknown_top_level_key(self):
        with pytest.raises(ParseError, match="unknown top-level key"):
            parse_workspace('{"algebra": {}}')

    def test_float_rejected(self):
        doc = {"algebras": {"a": {"dim": 1, "basis": ["x"], "brackets": []}},
               "representations": {
                   "r": {"algebra": "a", "space_dim": 1, "matrices": [[[0.5]]]}}}
        with pytest.raises(ParseError, match="float"):
            parse_workspace(json.dumps(doc))

    def test_bad_bracket_indices(self):
        doc = {"algebras": {"a": {"dim": 2, "basis": ["x", "y"],
                                  "brackets": [{"i": 1, "j": 0, "coeffs": {}}]}}}
        with pytest.raises(ParseError, match="i < j"):
            parse_workspace(json.dumps(doc))

    @pytest.mark.parametrize("brackets", [3, "x", None, {"i": 0, "j": 1}])
    def test_brackets_must_be_a_list(self, brackets):
        doc = {"algebras": {"a": {"dim": 2, "basis": ["x", "y"], "brackets": brackets}}}
        with pytest.raises(ParseError, match=r"^algebras\.a: brackets must be a list$"):
            parse_workspace(json.dumps(doc))

    @pytest.mark.parametrize("coeffs", [3, ["1"], [], "1", None, 0])
    def test_bracket_coeffs_must_be_an_object(self, coeffs):
        doc = {"algebras": {"a": {"dim": 2, "basis": ["x", "y"], "brackets": [
            {"i": 0, "j": 1, "coeffs": {"1": "1"}},
            {"i": 0, "j": 1, "coeffs": coeffs}]}}}
        with pytest.raises(ParseError,
                           match=r"^algebras\.a\.brackets\[1\]: coeffs must be an object$"):
            parse_workspace(json.dumps(doc))

    def test_missing_coeffs_mean_a_zero_bracket(self):
        doc = {"algebras": {"a": {"dim": 2, "basis": ["x", "y"],
                                  "brackets": [{"i": 0, "j": 1}]}}}
        assert parse_workspace(json.dumps(doc)).algebras["a"] == abelian(2, ("x", "y"))

    @pytest.mark.parametrize("literal", ["1.5", "4/6", " 2 ", "1e5", "+3", "-0",
                                         "007", "3/1", "2/4"])
    def test_non_canonical_rational_rejected(self, literal):
        doc = {"algebras": {"a": {"dim": 1, "basis": ["x"], "brackets": []}},
               "representations": {
                   "r": {"algebra": "a", "space_dim": 1, "matrices": [[[literal]]]}}}
        with pytest.raises(ParseError, match=r"representations\.r\.matrices\[0\]\[0\]\[0\]"):
            parse_workspace(json.dumps(doc))


    def test_polynomial_entry_without_tuple_rejected(self):
        doc = {"algebras": {"a": {"dim": 1, "basis": ["x"]}},
               "polynomials": {"f": {"degree": 0, "source": "a", "target_dim": 1,
                                     "entries": [{"tuple": [], "value": ["2"]}]}}}
        assert parse_workspace(json.dumps(doc)).polynomials["f"].entry(()) == (2,)
        del doc["polynomials"]["f"]["entries"][0]["tuple"]
        # a tuple that is missing has no length; naming the expected tuple
        # would enumerate it, which a large degree over dim 1 cannot afford
        with pytest.raises(ParseError, match=r"^polynomials\.f\.entries\[0\]: "
                                             r"entry 0 must be for a tuple of length 0$"):
            parse_workspace(json.dumps(doc))

    def test_polynomial_entry_tuple_must_be_a_list(self, fixtures_dir):
        doc = json.loads((fixtures_dir / "oscillator.json").read_text(encoding="utf-8"))
        doc["polynomials"]["fz"]["entries"][0]["tuple"] = 0
        with pytest.raises(ParseError, match=r"polynomials\.fz\.entries\[0\]"):
            parse_workspace(json.dumps(doc))


class TestCoefficientKeys:
    @pytest.mark.parametrize("key", [" 1", "1 ", "+1", "01", "0_1", "-0", "1.0", "\u0661", "", "None"])
    def test_non_canonical_key_rejected(self, key):
        doc = {"algebras": {"a": {"dim": 2, "basis": ["x", "y"], "brackets": [
            {"i": 0, "j": 1, "coeffs": {"1": "1"}}]}}}
        assert dense_structure(parse_workspace(json.dumps(doc)).algebras["a"])[0][1] == (0, 1)
        doc["algebras"]["a"]["brackets"][0]["coeffs"] = {key: "1"}
        with pytest.raises(ParseError, match=r"^algebras\.a\.brackets\[0\]: coefficient keys"):
            parse_workspace(json.dumps(doc))

    @pytest.mark.parametrize("key", ["-1", "2"])
    def test_key_out_of_range(self, key):
        doc = {"algebras": {"a": {"dim": 2, "basis": ["x", "y"], "brackets": [
            {"i": 0, "j": 1, "coeffs": {key: "1"}}]}}}
        with pytest.raises(ParseError, match="out of range"):
            parse_workspace(json.dumps(doc))


def _set_path(doc, path, value):
    for step in path[:-1]:
        doc = doc[step]
    doc[path[-1]] = value


class TestRationalsAreStrings:
    @pytest.mark.parametrize("path, where", [
        (("representations", "triv", "matrices", 0, 0, 0), r"representations\.triv\.matrices"),
        (("extensions", "osc", "iota", 0, 0), r"extensions\.osc\.iota"),
        (("extensions", "osc", "q", 0, 3), r"extensions\.osc\.q"),
        (("sections", "sz", "matrix", 2, 0), r"sections\.sz\.matrix"),
        (("algebras", "h3", "brackets", 0, "coeffs", "2"), r"algebras\.h3\.brackets\[0\]"),
        (("polynomials", "fz", "entries", 2, "value", 0), r"polynomials\.fz\.entries\[2\]"),
    ])
    def test_bare_number_rejected(self, fixtures_dir, path, where):
        text = (fixtures_dir / "oscillator.json").read_text(encoding="utf-8")
        doc = json.loads(text)
        _set_path(doc, path, 1)
        with pytest.raises(ParseError, match=f"{where}.*expected a rational string, got int"):
            parse_workspace(json.dumps(doc))

    def test_bare_number_in_cochain_value_rejected(self):
        obj = {"degree": 1, "entries": [{"tuple": [k], "value": ["1"]} for k in range(3)]}
        assert parse_workspace(map_document(obj)).polynomials["cochain"].entry((0,)) == (1,)
        obj["entries"][0]["value"] = [1]
        with pytest.raises(ParseError, match=r"^polynomials\.cochain\.entries\[0\]\.value\[0\]: "
                                             "expected a rational string, got int$"):
            parse_workspace(map_document(obj))

    def test_bare_number_in_polynomial_coefficient_rejected(self):
        # a term list of exponents and coefficients is not a value any schema
        # reads, whatever its coefficients
        obj = {"degree": 1, "entries": [
            {"tuple": [i], "value": [[{"exponents": [1], "coeff": 1}]]} for i in range(3)]}
        with pytest.raises(ParseError, match=r"^polynomials\.cochain\.entries\[0\]\.value\[0\]: "
                                             "expected a rational string, got list$"):
            parse_workspace(map_document(obj))


# Each schema position that reads rationals, as the first and the last literal
# one object of the oscillator fixture holds there, with the reported location.
LITERAL_POSITIONS = {
    "bracket_coefficient": (
        (("algebras", "oscillator", "brackets", 0, "coeffs", "2"),
         "algebras.oscillator.brackets[0].coeffs[2]"),
        (("algebras", "oscillator", "brackets", 2, "coeffs", "0"),
         "algebras.oscillator.brackets[2].coeffs[0]")),
    "representation_matrix": (
        (("representations", "triv_total", "matrices", 0, 0, 0),
         "representations.triv_total.matrices[0][0][0]"),
        (("representations", "triv_total", "matrices", 3, 0, 0),
         "representations.triv_total.matrices[3][0][0]")),
    "iota": ((("extensions", "osc", "iota", 0, 0), "extensions.osc.iota[0][0]"),
             (("extensions", "osc", "iota", 3, 2), "extensions.osc.iota[3][2]")),
    "q": ((("extensions", "osc", "q", 0, 0), "extensions.osc.q[0][0]"),
          (("extensions", "osc", "q", 0, 3), "extensions.osc.q[0][3]")),
    "section_matrix": ((("sections", "sz", "matrix", 0, 0), "sections.sz.matrix[0][0]"),
                       (("sections", "sz", "matrix", 3, 0), "sections.sz.matrix[3][0]")),
    "polynomial_value": (
        (("polynomials", "fz", "entries", 0, "value", 0), "polynomials.fz.entries[0].value[0]"),
        (("polynomials", "fz", "entries", 2, "value", 0), "polynomials.fz.entries[2].value[0]")),
}

# A rejected literal, a valid literal written like it, and the message.
BAD_LITERALS = [
    ("1.5", "3/2", "invalid rational literal '1.5'"),
    ("01", "1", "invalid rational literal '01'"),
    ("-0", "0", "invalid rational literal '-0'"),
    ("2/4", "1/2", "invalid rational literal '2/4'"),
    (7, "7", "expected a rational string, got int"),
    (1.5, "3/2", "floats are not accepted; use rational strings"),
    (True, "1", "expected a rational string, got bool"),
    ([1], "1", "expected a rational string, got list"),
]


class TestRejectedLiteralsStayPut:
    """Each literal is parsed once per document, so a rejected literal must be
    reported with its message and location whether or not a valid literal
    written like it was parsed before it in the same object."""

    @pytest.mark.parametrize("order", ["bad_first", "bad_after_valid"])
    @pytest.mark.parametrize("position", sorted(LITERAL_POSITIONS))
    def test_message_and_location(self, fixtures_dir, position, order):
        text = (fixtures_dir / "oscillator.json").read_text(encoding="utf-8")
        first, last = LITERAL_POSITIONS[position]
        bad_at, valid_at = (first, last) if order == "bad_first" else (last, first)
        for bad, valid, message in BAD_LITERALS:
            doc = json.loads(text)
            _set_path(doc, valid_at[0], valid)
            _set_path(doc, bad_at[0], bad)
            with pytest.raises(ParseError) as caught:
                parse_workspace(json.dumps(doc))
            assert caught.value.location == bad_at[1]
            assert str(caught.value) == f"{bad_at[1]}: {message}"


# Each matrix the reader reads, in the oscillator fixture: the path to it, the
# location it is reported under and its shape.
MATRIX_POSITIONS = {
    "module_matrix": (("representations", "triv_total", "matrices", 3),
                      "representations.triv_total.matrices[3]", 1, 1),
    "iota": (("extensions", "osc", "iota"), "extensions.osc.iota", 4, 3),
    "q": (("extensions", "osc", "q"), "extensions.osc.q", 1, 4),
    "section_matrix": (("sections", "sz", "matrix"), "sections.sz.matrix", 4, 1),
}


def _malformed_matrices(rows, cols):
    """(name, change to a rows x cols matrix of literals, (suffix of the location,
    message)) for each way a matrix can be malformed."""
    last = cols - 1
    return [
        ("too_few_rows", lambda m: m[:-1], ("", f"expected {rows} rows")),
        ("too_many_rows", lambda m: m + [m[0]], ("", f"expected {rows} rows")),
        ("not_a_list", lambda m: {"rows": m}, ("", f"expected {rows} rows")),
        ("short_row", lambda m: [m[0][:-1]] + m[1:], ("", f"expected {cols} columns in row 0")),
        ("long_last_row", lambda m: m[:-1] + [m[-1] + ["0"]],
         ("", f"expected {cols} columns in row {rows - 1}")),
        ("row_not_a_list", lambda m: m[:-1] + ["0" * cols],
         ("", f"expected {cols} columns in row {rows - 1}")),
        ("float", lambda m: m[:-1] + [m[-1][:-1] + [0.0]],
         (f"[{rows - 1}][{last}]", "floats are not accepted; use rational strings")),
        ("bare_int", lambda m: [[0] + m[0][1:]] + m[1:],
         ("[0][0]", "expected a rational string, got int")),
        *((f"literal_{bad}", lambda m, bad=bad: m[:-1] + [m[-1][:-1] + [bad]],
           (f"[{rows - 1}][{last}]", f"invalid rational literal {bad!r}"))
          for bad in ("01", "-0", "2/4", "1/1")),
    ]


class TestSparseReader:
    """The reader builds the stored sparse forms of modules, extensions and
    sections from the rows it reads: it refuses each malformed matrix with the
    message and location of the dense reader it replaced, and every object it
    builds stores exactly what the public constructors store."""

    @pytest.mark.parametrize("position", sorted(MATRIX_POSITIONS))
    def test_malformed_matrix_message_and_location(self, fixtures_dir, position):
        text = (fixtures_dir / "oscillator.json").read_text(encoding="utf-8")
        path, where, rows, cols = MATRIX_POSITIONS[position]
        doc = json.loads(text)
        matrix = doc
        for step in path:
            matrix = matrix[step]
        assert len(matrix) == rows and all(len(row) == cols for row in matrix)
        for name, change, (suffix, message) in _malformed_matrices(rows, cols):
            doc = json.loads(text)
            _set_path(doc, path, change(json.loads(json.dumps(matrix))))
            with pytest.raises(ParseError) as caught:
                parse_workspace(json.dumps(doc))
            assert caught.value.location == where + suffix, name
            assert str(caught.value) == f"{where}{suffix}: {message}", name

    FIELDS = {Representation: ("space_dim", "sparse"),
              Extension: ("iota", "proj", "_iota_rows", "_proj_rows", "_echelon"),
              Section: ("_cols",)}

    def assert_same_fields(self, got, want):
        assert type(got) is type(want)
        for name in self.FIELDS[type(got)]:
            assert getattr(got, name) == getattr(want, name), name
        if type(got) is Representation:
            stored = [c for mat in got.sparse if mat for row in mat for _, c in row]
        elif type(got) is Extension:
            stored = [c for row in got._iota_rows + got._proj_rows for c in row.values()]
            assert all(type(c) is Fraction for row in got.iota + got.proj for c in row)
        else:
            stored = [c for col in got._cols for c in col.values()]
        assert all(type(c) is Fraction and c for c in stored)

    def test_fixtures_equal_the_public_constructors(self, fixtures_dir):
        # each object rebuilt through its public constructor from the dense
        # matrices of the document, over the objects the reader built
        def dense(matrix):
            return [[rational_from_str(c) for c in row] for row in matrix]

        for path in sorted(fixtures_dir.glob("*.json")):
            doc = json.loads(path.read_text(encoding="utf-8"))
            ws = parse_workspace(json.dumps(doc))
            for name, rep in ws.representations.items():
                obj = doc["representations"][name]
                assert rep.algebra is ws.algebras[obj["algebra"]]
                self.assert_same_fields(rep, Representation(
                    rep.algebra, obj["space_dim"], [dense(m) for m in obj["matrices"]]))
            for name, ext in ws.extensions.items():
                obj = doc["extensions"][name]
                self.assert_same_fields(ext, Extension(ext.total, ext.base, ext.kernel,
                                                       dense(obj["iota"]), dense(obj["q"])))
            for name, sec in ws.sections.items():
                obj = doc["sections"][name]
                assert sec.extension is ws.extensions[obj["extension"]]
                self.assert_same_fields(sec, Section(sec.extension, dense(obj["matrix"])))
            assert ws.representations and ws.extensions and ws.sections, path.name

    @pytest.mark.parametrize("build", [oscillator_workspace, heisenberg_workspace,
                                       filiform_workspace])
    def test_catalog_workspaces_read_back_field_for_field(self, build):
        ws = build()
        back = parse_workspace(serialize_workspace(ws))
        for kind in ("representations", "extensions", "sections"):
            built, read = getattr(ws, kind), getattr(back, kind)
            assert list(read) == list(built), kind
            for name, obj in built.items():
                self.assert_same_fields(read[name], obj)


class TestModuleTablesFromJson:
    """A module read from a document stores the table its constructor stores:
    each integral entry an int, each other entry a Fraction.  The fixtures'
    modules are trivial, so their tables hold no entry to check."""

    def test_nonzero_modules_read_back_as_built(self):
        h3, plane = heisenberg3(), abelian(2)
        ws = Workspace(algebras={"h3": h3, "plane": plane})
        ws.representations["ad"] = adjoint_representation(h3)
        ws.representations["diagonal"] = Representation(
            plane, 2, [[[Fraction(1, 2), 0], [0, 2]], [[1, 0], [0, Fraction(-6, 2)]]])
        back = parse_workspace(serialize_workspace(ws))
        kinds = set()
        for name, rep in ws.representations.items():
            read = back.representations[name]
            assert read.sparse == rep.sparse, name
            stored = [c for mat in read.sparse if mat for row in mat for _, c in row]
            assert stored and all(exact_entry(c) for c in stored), name
            kinds.update(map(type, stored))
        assert kinds == {int, Fraction}


class TestBooleansAreNotIntegers:
    @pytest.mark.parametrize("field, value, message", BOOLEAN_FIELDS,
                             ids=[field for field, _, _ in BOOLEAN_FIELDS])
    def test_workspace_field(self, field, value, message):
        parse_workspace(boolean_document(field, value))
        with pytest.raises(ParseError, match=message):
            parse_workspace(boolean_document(field, bool(value)))


class TestValidationErrors:
    def test_jacobi_violation_names_the_triple(self):
        doc = {"algebras": {"broken": {
            "dim": 3, "basis": ["p", "q", "z"],
            "brackets": [{"i": 0, "j": 1, "coeffs": {"2": "1"}},
                         {"i": 1, "j": 2, "coeffs": {"1": "1"}}]}}}
        with pytest.raises(ValidationError, match=r"broken.*Jacobi.*\(p,q,z\)"):
            parse_workspace(json.dumps(doc))

    @pytest.mark.parametrize("case, doc, error, message", PINNED_LOAD_FAILURES,
                             ids=[case for case, *_ in PINNED_LOAD_FAILURES])
    def test_load_failure_type_and_wording(self, case, doc, error, message):
        with pytest.raises((ParseError, ValidationError)) as info:
            parse_workspace(json.dumps(doc))
        assert type(info.value).__name__ == error
        assert str(info.value) == message

    def test_dangling_reference(self):
        doc = {"sections": {"s": {"extension": "nope", "matrix": []}}}
        with pytest.raises(ValidationError, match="unknown extension"):
            parse_workspace(json.dumps(doc))

    def test_invalid_section_detected_on_load(self, fixtures_dir):
        text = (fixtures_dir / "oscillator.json").read_text(encoding="utf-8")
        doc = json.loads(text)
        doc["sections"]["bad"] = {
            "extension": "osc",
            "matrix": [["0"], ["0"], ["0"], ["0"]]}
        with pytest.raises(ValidationError, match="bad"):
            parse_workspace(json.dumps(doc))

    def test_broken_extension_reported_with_invariant(self, fixtures_dir):
        text = (fixtures_dir / "oscillator.json").read_text(encoding="utf-8")
        doc = json.loads(text)
        doc["extensions"]["osc"]["q"] = [["0", "0", "0", "0"]]
        with pytest.raises(ValidationError, match="surjective"):
            parse_workspace(json.dumps(doc))


class TestInlineAlgebras:
    def test_extension_with_inline_algebra_objects(self):
        doc = {
            "extensions": {
                "inline": {
                    "total": {"dim": 3, "basis": ["p", "q", "z"],
                              "brackets": [{"i": 0, "j": 1, "coeffs": {"2": "1"}}]},
                    "base": {"dim": 2, "basis": ["e1", "e2"], "brackets": []},
                    "kernel": {"dim": 1, "basis": ["z"], "brackets": []},
                    "iota": [["0"], ["0"], ["1"]],
                    "q": [["1", "0", "0"], ["0", "1", "0"]],
                }
            }
        }
        ws = parse_workspace(json.dumps(doc))
        assert ws.extensions["inline"].total.dim == 3
        # anonymous algebras serialize back inline
        again = parse_workspace(serialize_workspace(ws))
        assert again.extensions["inline"].total == ws.extensions["inline"].total


# Each kind that refers to another by name, as an object of the Heisenberg
# fixture: (top-level key, name, kind, key of the reference, kind it names, keys).
REFERENCES = [
    ("representations", "triv", "representation", "algebra", "algebra",
     "algebra, space_dim, matrices"),
    ("sections", "s0", "section", "extension", "extension", "extension, matrix"),
    ("polynomials", "f1", "polynomial", "source", "algebra",
     "degree, source, target_dim, entries"),
]


class TestReferenceMessages:
    """The message and location of each way a named reference can be wrong."""

    @pytest.fixture
    def doc(self, fixtures_dir):
        return json.loads((fixtures_dir / "heisenberg.json").read_text(encoding="utf-8"))

    @staticmethod
    def parse_error(doc):
        with pytest.raises(ParseError) as caught:
            parse_workspace(json.dumps(doc))
        return caught.value.location, str(caught.value)

    @pytest.mark.parametrize("key, name, kind, ref, target, keys", REFERENCES,
                             ids=[kind for _, _, kind, *_ in REFERENCES])
    def test_own_keys(self, doc, key, name, kind, ref, target, keys):
        where = f"{key}.{name}"
        message = f"{where}: {kind} must have keys {keys}"
        doc[key][name]["extra"] = "1"
        assert self.parse_error(doc) == (where, message)
        doc[key][name] = [doc[key][name]]
        assert self.parse_error(doc) == (where, message)

    @pytest.mark.parametrize("value", [None, 1, ["h3"], {"dim": 0}],
                             ids=["missing", "integer", "list", "object"])
    @pytest.mark.parametrize("key, name, kind, ref, target, keys", REFERENCES,
                             ids=[kind for _, _, kind, *_ in REFERENCES])
    def test_reference_must_be_a_name(self, doc, key, name, kind, ref, target, keys, value):
        where = f"{key}.{name}"
        doc[key][name][ref] = value
        if value is None:
            del doc[key][name][ref]
        assert self.parse_error(doc) == (where, f"{where}: {ref} must be a name")

    @pytest.mark.parametrize("key, name, kind, ref, target, keys", REFERENCES,
                             ids=[kind for _, _, kind, *_ in REFERENCES])
    def test_reference_must_be_registered(self, doc, key, name, kind, ref, target, keys):
        doc[key][name][ref] = "x"
        with pytest.raises(ValidationError) as caught:
            parse_workspace(json.dumps(doc))
        assert type(caught.value) is ValidationError
        assert str(caught.value) == f"{kind} '{name}': unknown {target} 'x'"

    @pytest.mark.parametrize("part", ["total", "base", "kernel"])
    def test_extension_part_must_be_registered(self, doc, part):
        doc["extensions"]["heis"][part] = "x"
        with pytest.raises(ValidationError) as caught:
            parse_workspace(json.dumps(doc))
        assert str(caught.value) == f"extension 'heis' ({part}): unknown algebra 'x'"

    @pytest.mark.parametrize("key, name, kind, target", [
        ("representations", "triv", "representation", "algebra"),
        ("sections", "s0", "section", "extension"),
        ("polynomials", "f1", "polynomial", "algebra"),
    ], ids=["representation", "section", "polynomial"])
    def test_writer_refuses_an_unregistered_referent(self, key, name, kind, target):
        obj = getattr(heisenberg_workspace(), key)[name]
        with pytest.raises(ValueError) as caught:
            serialize_workspace(Workspace(**{key: {name: obj}}))
        assert type(caught.value) is ValueError
        assert str(caught.value) == f"{kind} '{name}' refers to an unregistered {target}"


class TestSizeBound:
    """The entry count is compared with the number of tuples before enumerating them."""

    def test_oversized_polynomial_rejected_without_enumeration(self, monkeypatch):
        raise_everywhere(monkeypatch, cochains, "_nondecreasing_walk")
        text = oversized_polynomial_document()
        assert len(text) < 300
        with pytest.raises(ParseError, match=f"expected {comb(49, 30)} entries"):
            parse_workspace(text)

    @pytest.mark.parametrize("cls", [SymMultiMap])
    def test_key_count_matches_enumeration(self, cls):
        for dim in range(6):
            for degree in range(8):
                assert cls.key_count(dim, degree) == len(cls.key_tuples(dim, degree))


def polynomial_document(dim, degree, entries):
    return json.dumps({
        "algebras": {"a": {"dim": dim, "basis": [f"x{i}" for i in range(dim)]}},
        "polynomials": {"f": {"degree": degree, "source": "a", "target_dim": 1,
                              "entries": entries}}})


class TestSizeBoundAtDimensionsZeroAndOne:
    """Over dim <= 1 every degree has at most one tuple, so the entry count
    bounds nothing: each entry's tuple length is checked before any tuple is
    enumerated, and the message does not spell the expected tuple out."""

    @pytest.mark.parametrize("degree", [2, 10**6, 2**63])
    @pytest.mark.parametrize("key", [[0], [], "missing", 0])
    def test_tuple_of_another_length_rejected(self, monkeypatch, degree, key):
        raise_everywhere(monkeypatch, cochains, "_nondecreasing_walk")
        entry = {"value": ["1"]} if key == "missing" else {"tuple": key, "value": ["1"]}
        with pytest.raises(ParseError) as info:
            parse_workspace(polynomial_document(1, degree, [entry]))
        assert str(info.value) == (f"polynomials.f.entries[0]: "
                                   f"entry 0 must be for a tuple of length {degree}")

    def test_tuple_of_the_right_length_is_read(self):
        ws = parse_workspace(polynomial_document(1, 3, [{"tuple": [0, 0, 0], "value": ["2"]}]))
        assert ws.polynomials["f"].entry((0, 0, 0)) == (2,)
        with pytest.raises(ParseError, match=r"^polynomials\.f\.entries\[0\]: "
                                             r"entry 0 must be for tuple \[0, 0, 0\]$"):
            parse_workspace(polynomial_document(1, 3, [{"tuple": [0, 1, 0], "value": ["2"]}]))

    @pytest.mark.parametrize("degree", [1, 10**6, 2**63])
    def test_positive_degree_over_dim_0_has_no_entries(self, degree):
        text = polynomial_document(0, degree, [])
        ws = parse_workspace(text)
        assert ws.polynomials["f"].values == {}
        assert parse_workspace(serialize_workspace(ws)).polynomials["f"].degree == degree
        with pytest.raises(ParseError, match=r"^polynomials\.f: expected 0 entries$"):
            parse_workspace(polynomial_document(0, degree, [{"tuple": [], "value": ["1"]}]))


class TestLongTuples:
    """The canonical tuples are walked one at a time, so a rejected document
    costs memory in proportion to its own size, not to entries x degree."""

    def test_rejected_long_polynomial_stays_below_a_mebibyte(self):
        # a valid first entry of degree 3000 over a plane, then 3000 empty objects
        degree = 3000
        text = polynomial_document(2, degree, [{"tuple": [0] * degree, "value": ["1"]}]
                                   + [{}] * degree)
        assert len(text) < 22_000
        tracemalloc.start()
        try:
            with pytest.raises(ParseError) as info:
                parse_workspace(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(info.value) == (f"polynomials.f.entries[1]: "
                                   f"entry 1 must be for a tuple of length {degree}")
        assert peak < 2**20

    def test_long_tuples_in_canonical_order_are_read(self):
        degree = 200
        entries = [{"tuple": list(key), "value": [str(sum(key))]}
                   for key in nondecreasing_tuples(2, degree)]
        f = parse_workspace(polynomial_document(2, degree, entries)).polynomials["f"]
        assert list(f.values) == nondecreasing_tuples(2, degree)
        assert f.entry((1,) * degree) == (degree,)
        entries[5], entries[6] = entries[6], entries[5]
        with pytest.raises(ParseError, match=r"^polynomials\.f\.entries\[5\]: entry 5 must "
                                             r"be for tuple \[0, "):
            parse_workspace(polynomial_document(2, degree, entries))


JSON_CHARACTERS = st.characters() | st.sampled_from(
    ['"', "\\", "/", "\x00", "\n", "\t", "\x1f", "\x7f", "\u00e9", "\u2028", "\ud800",
     "\U0001f600"])
JSON_TEXT = st.text(JSON_CHARACTERS, max_size=6)
JSON_TREES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(max_value=-2**63) | JSON_TEXT,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(JSON_TEXT, inner, max_size=4)),
    max_leaves=24)


def golden_json_outputs():
    """The standard output of each command in the JSON CLI goldens."""
    for path in sorted((Path(__file__).parent / "golden" / "cli").glob("*.json.txt")):
        for block in path.read_text(encoding="utf-8").split("$ liechar ")[1:]:
            out = block.split("\n", 2)[2]
            if out:
                yield out


class TestCanonicalDumps:
    """canonical_dumps writes exactly what json.dumps(indent=2, sort_keys=True) writes,
    for the JSON types a document holds, and refuses every other object."""

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(JSON_TREES)
    @example([])
    @example(())
    @example({})
    @example({"": [[], {}, [[]], {"": {}}], "a": (None, True, False, -10**40)})
    def test_same_text_as_json_dumps(self, obj):
        assert canonical_dumps(obj) == json.dumps(obj, indent=2, sort_keys=True) + "\n"

    def test_fixtures_and_cli_goldens_byte_for_byte(self, fixtures_dir):
        texts = [(fixtures_dir / f"{name}.json").read_text(encoding="utf-8")
                 for name in ("oscillator", "heisenberg", "filiform")]
        texts += list(golden_json_outputs())
        assert len(texts) > 50
        for text in texts:
            assert canonical_dumps(json.loads(text)) == text

    REFUSED = [(1.5, "float"), ([0.25, "x"], "float"), ({"a": float("inf")}, "float"),
               ({1: "x", 2: [True]}, "int"), ({None: 1, True: 2}, "NoneType"),
               ({"a": 1, 2: 3}, "int"), ({"a": object()}, "object")]

    @pytest.mark.parametrize("obj", [obj for obj, _ in REFUSED])
    def test_other_objects_go_to_json_dumps(self, obj):
        """A float or a non-string key is left to json.dumps: canonical_dumps
        refuses it with a TypeError naming its type, since parse_workspace
        would refuse the document."""
        name = next(name for other, name in self.REFUSED if other is obj)
        with pytest.raises(TypeError, match=name):
            canonical_dumps(obj)

    def test_cycles_raise_as_in_json_dumps(self):
        """A cycle raises, as in json.dumps; here as a RecursionError."""
        loop = []
        loop.append({"a": loop})
        with pytest.raises(RecursionError):
            canonical_dumps(loop)


class TestCochainJson:
    def test_round_trip(self):
        h3 = heisenberg3()
        w = Cochain(h3, 2, 1, {(0, 1): [Fraction(1, 2)], (0, 2): [0], (1, 2): [-3]})
        obj = cochain_to_json(w)
        assert obj["degree"] == 2
        assert [e["tuple"] for e in obj["entries"]] == [[0, 1], [0, 2], [1, 2]]
        assert read_cochain(obj, h3, 1) == w

    @pytest.mark.parametrize("obj, where", [
        ([], "cochain"),
        ({"entries": []}, "cochain"),
        ({"degree": -1, "entries": []}, "cochain"),
        ({"degree": 1}, "cochain"),
        ({"degree": 1, "entries": [{"tuple": [0], "value": ["1"]}]}, "cochain"),
        ({"degree": 1, "entries": [[0, ["1"]], {}, {}]}, r"cochain\.entries\[0\]"),
        ({"degree": 1, "entries": [{"tuple": 0, "value": ["1"]}, {}, {}]},
         r"cochain\.entries\[0\]"),
        ({"degree": 1, "entries": [{"tuple": [1], "value": ["1"]}, {}, {}]},
         r"cochain\.entries\[0\]"),
        ({"degree": 1, "entries": [{"tuple": [0], "value": "1"}, {}, {}]},
         r"cochain\.entries\[0\]"),
        ({"degree": 1, "entries": [{"tuple": [0], "value": ["1", "2"]}, {}, {}]},
         r"cochain\.entries\[0\]"),
        ({"degree": 1, "entries": [{"tuple": [0], "value": ["1.5"]}, {}, {}]},
         r"cochain\.entries\[0\]\.value\[0\]"),
    ])
    def test_malformed_cochain_is_a_parse_error(self, obj, where):
        # the entry list reader of the polynomials schema, on a map named "cochain"
        with pytest.raises(ParseError, match=rf"^polynomials\.{where}:"):
            parse_workspace(map_document(obj))

    @pytest.mark.parametrize("names", [("s0", "s2"), ("s1", "s2"), ("s0", "s1", "s2")])
    def test_polynomial_cochain_is_refused(self, names):
        # R_t of a section family holds MultiPoly entries, which no schema
        # holds: the writer refuses it at its first entry, and R_t at a
        # rational point of the simplex is written and read back
        ws = filiform_workspace()
        ext = ws.extensions["fil"]
        rt = param_curvature(ext, [ws.sections[n] for n in names])
        first = next(iter(rt.values.values()))[0]
        assert type(first) is MultiPoly
        with pytest.raises(TypeError) as info:
            cochain_to_json(rt)
        assert str(info.value) == f"polynomial {first!r} is not a rational scalar"
        point = [Fraction(1, k + 2) for k in range(len(names) - 1)]
        at_point = rt.map_values(lambda x: poly_eval_at(x, point))
        assert read_cochain(cochain_to_json(at_point), ext.base, ext.kernel.dim) == at_point

    @pytest.mark.parametrize("value", [
        1, ["1"], [[]], [None], [{}],
        [{"exponents": [0, 0]}],
        [{"coeff": "1"}],
        [{"exponents": [0, 0], "coeff": "1", "extra": 0}],
        [{"exponents": [0], "coeff": "1"}],
        [{"exponents": [0, 1.0], "coeff": "1"}],
        [{"exponents": [0, True], "coeff": "1"}],
        [{"exponents": [0, -1], "coeff": "1"}],
        [{"exponents": "00", "coeff": "1"}],
        [{"exponents": [0, 0], "coeff": 1.5}],
        [{"exponents": [0, 0], "coeff": "2/4"}],
        [{"exponents": [0, 0], "coeff": ["1"]}],
    ])
    def test_malformed_polynomial_entry_is_a_parse_error(self, value):
        # no schema reads polynomial values: each shape of a term list, and a
        # bare number, is rejected where a map's entry holds a rational string
        obj = {"degree": 1, "entries": [{"tuple": [i], "value": ["1/2"]} for i in range(3)]}
        assert parse_workspace(map_document(obj)).polynomials["cochain"].entry((2,)) == (
            Fraction(1, 2),)
        obj["entries"][2]["value"] = [value]
        with pytest.raises(ParseError, match=r"^polynomials\.cochain\.entries\[2\]\.value\[0\]: "
                                             "expected a rational string, got (list|int)$"):
            parse_workspace(map_document(obj))
