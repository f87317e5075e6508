import json
from fractions import Fraction

import pytest

from liechar import (Cochain, MultiPoly, ParseError, ValidationError,
                     cochain_from_json, cochain_to_json, heisenberg3,
                     param_curvature, param_section, parse_workspace,
                     serialize_workspace)
from liechar.catalog import (filiform_workspace, heisenberg_workspace,
                             oscillator_workspace)


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

    def test_value_round_trip_through_objects(self, fixtures_dir):
        text = (fixtures_dir / "oscillator.json").read_text(encoding="utf-8")
        ws = parse_workspace(text)
        assert ws.algebras["h3"] == heisenberg3()
        assert ws.extensions["osc"].kernel is ws.algebras["h3"]
        assert ws.sections["sz"].matrix[2][0] == 1
        assert ws.polynomials["fz"].entry((2,)) == (1,)


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

    @pytest.mark.parametrize("literal", ["1.5", "4/6", " 2 ", "1e5", "+3", "-0",
                                         "007", "3/1", "2/4"])
    def test_non_canonical_rational_rejected(self, literal):
        doc = {"algebras": {"a": {"dim": 1, "basis": ["x"], "brackets": []}},
               "representations": {
                   "r": {"algebra": "a", "space_dim": 1, "matrices": [[[literal]]]}}}
        with pytest.raises(ParseError, match=r"representations\.r\.matrices\[0\]\[0\]\[0\]"):
            parse_workspace(json.dumps(doc))


    def test_polynomial_entry_tuple_must_be_a_list(self, fixtures_dir):
        doc = json.loads((fixtures_dir / "oscillator.json").read_text(encoding="utf-8"))
        doc["polynomials"]["fz"]["entries"][0]["tuple"] = 0
        with pytest.raises(ParseError, match=r"polynomials\.fz\.entries\[0\]"):
            parse_workspace(json.dumps(doc))


class TestValidationErrors:
    def test_jacobi_violation_names_the_triple(self):
        doc = {"algebras": {"broken": {
            "dim": 3, "basis": ["p", "q", "z"],
            "brackets": [{"i": 0, "j": 1, "coeffs": {"2": "1"}},
                         {"i": 1, "j": 2, "coeffs": {"1": "1"}}]}}}
        with pytest.raises(ValidationError, match=r"broken.*Jacobi.*\(p,q,z\)"):
            parse_workspace(json.dumps(doc))

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


class TestCochainJson:
    def test_round_trip(self):
        h3 = heisenberg3()
        w = Cochain(h3, 2, 1, {(0, 1): [Fraction(1, 2)], (0, 2): [0], (1, 2): [-3]})
        obj = cochain_to_json(w)
        assert obj["degree"] == 2
        assert [e["tuple"] for e in obj["entries"]] == [[0, 1], [0, 2], [1, 2]]
        assert cochain_from_json(obj, h3, 1) == w

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
        with pytest.raises(ParseError, match=where):
            cochain_from_json(obj, heisenberg3(), 1)

    @pytest.mark.parametrize("names", [("s0", "s2"), ("s1", "s2"), ("s0", "s1", "s2")])
    def test_polynomial_round_trip(self, names):
        ws = filiform_workspace()
        ext = ws.extensions["fil"]
        rt = param_curvature(ext, param_section(ext, [ws.sections[n] for n in names]))
        obj = cochain_to_json(rt)
        back = cochain_from_json(obj, ext.base, ext.kernel.dim, nvars=len(names) - 1)
        assert back == rt
        assert all(isinstance(x, MultiPoly) for v in back.values.values() for x in v)
        assert cochain_to_json(back) == obj
        with pytest.raises(ParseError, match="expected a rational string, got list"):
            cochain_from_json(obj, ext.base, ext.kernel.dim)

    @pytest.mark.parametrize("value", [
        "1", ["1"], [[]], [None], [{}],
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
        good = [{"exponents": [1, 0], "coeff": "1/2"}]
        obj = {"degree": 1, "entries": [{"tuple": [i], "value": [good]} for i in range(3)]}
        assert cochain_from_json(obj, heisenberg3(), 1, nvars=2).entry((2,)) == (
            MultiPoly(2, {(1, 0): Fraction(1, 2)}),)
        obj["entries"][2]["value"] = [value]
        with pytest.raises(ParseError, match=r"cochain\.entries\[2\]\.value\[0\]"):
            cochain_from_json(obj, heisenberg3(), 1, nvars=2)
