import json
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from liechar import Workspace, cochains, parse_workspace, serialize_workspace, workspace
from liechar import InvarianceWarning
from liechar.catalog import filiform_workspace, heisenberg_workspace
from liechar.cli import run_command

from helpers import (BOOLEAN_FIELDS, PINNED_LOAD_FAILURES, boolean_document,
                     oversized_polynomial_document, point_base_document, raise_everywhere)


def run(capsys, *argv):
    code = run_command(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestValidate:
    def test_oscillator_fixture_ok(self, capsys, fixtures_dir):
        code, out, _ = run(capsys, "validate", str(fixtures_dir / "oscillator.json"))
        assert code == 0
        assert out.startswith("ok:")

    def test_counts_follow_the_kinds_table(self, capsys, fixtures_dir):
        """validate names no kind itself: its counts come from the workspace,
        whose fields are the kinds of workspace._KINDS in the same order."""
        assert [f.name for f in fields(Workspace)] == list(workspace._KINDS)
        ws = parse_workspace((fixtures_dir / "oscillator.json").read_text(encoding="utf-8"))
        code, out, _ = run(capsys, "validate", str(fixtures_dir / "oscillator.json"))
        assert code == 0
        assert out == "ok: " + ", ".join(
            f"{len(getattr(ws, key))} {key}" for key in workspace._KINDS) + "\n"

    def test_malformed_file_exits_2(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope", encoding="utf-8")
        code, _, err = run(capsys, "validate", str(path))
        assert code == 2
        assert "parse error" in err

    def test_non_canonical_rational_exits_2(self, capsys, fixtures_dir, tmp_path):
        text = (fixtures_dir / "heisenberg.json").read_text(encoding="utf-8")
        doc = json.loads(text)
        doc["sections"]["s0"]["matrix"][0][0] = "1e5"
        path = tmp_path / "exponent.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run(capsys, "validate", str(path))
        assert code == 2
        assert out == ""
        assert "invalid rational literal '1e5'" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("field, value", [
        ("brackets", 3), ("brackets", None), ("coeffs", 3), ("coeffs", ["1"])])
    def test_malformed_brackets_exit_2(self, capsys, fixtures_dir, tmp_path, field, value):
        doc = json.loads((fixtures_dir / "heisenberg.json").read_text(encoding="utf-8"))
        if field == "brackets":
            doc["algebras"]["h3"]["brackets"] = value
        else:
            doc["algebras"]["h3"]["brackets"][0]["coeffs"] = value
        path = tmp_path / "brackets.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run(capsys, "validate", str(path))
        assert code == 2
        assert out == ""
        assert f"must be {'a list' if field == 'brackets' else 'an object'}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("field, value", [(field, v) for field, v, _ in BOOLEAN_FIELDS])
    def test_boolean_for_an_integer_exits_2(self, capsys, tmp_path, field, value):
        path = tmp_path / "boolean.json"
        path.write_text(boolean_document(field, value), encoding="utf-8")
        assert run(capsys, "validate", str(path))[0] == 0
        path.write_text(boolean_document(field, bool(value)), encoding="utf-8")
        code, out, err = run(capsys, "validate", str(path))
        assert code == 2
        assert out == ""
        assert "parse error" in err and "Traceback" not in err

    def test_missing_file_exits_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "validate", str(tmp_path / "absent.json"))
        assert code == 2

    def test_jacobi_violation_exits_1(self, capsys, tmp_path):
        doc = {"algebras": {"broken": {
            "dim": 3, "basis": ["p", "q", "z"],
            "brackets": [{"i": 0, "j": 1, "coeffs": {"2": "1"}},
                         {"i": 1, "j": 2, "coeffs": {"1": "1"}}]}}}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, _, err = run(capsys, "validate", str(path))
        assert code == 1
        assert "broken" in err

    @pytest.mark.parametrize("case, doc, error, message", PINNED_LOAD_FAILURES,
                             ids=[case for case, *_ in PINNED_LOAD_FAILURES])
    def test_load_failure_exit_code_and_wording(self, capsys, tmp_path, case, doc, error,
                                                message):
        path = tmp_path / f"{case}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        kind, code = {"ValidationError": ("validation", 1), "ParseError": ("parse", 2)}[error]
        assert run(capsys, "validate", str(path)) == (code, "", f"{kind} error: {message}\n")

    def test_oversized_polynomial_exits_2(self, capsys, tmp_path, monkeypatch):
        raise_everywhere(monkeypatch, cochains, "_nondecreasing_walk")
        path = tmp_path / "big.json"
        path.write_text(oversized_polynomial_document(), encoding="utf-8")
        code, _, err = run(capsys, "validate", str(path))
        assert code == 2
        assert "polynomials.f: expected" in err

    @pytest.mark.parametrize("degree", [10**6, 2**63])
    def test_long_polynomial_over_a_line_exits_2(self, capsys, tmp_path, degree):
        path = tmp_path / "line.json"
        path.write_text(json.dumps({
            "algebras": {"a": {"dim": 1, "basis": ["x"]}},
            "polynomials": {"f": {"degree": degree, "source": "a", "target_dim": 1,
                                  "entries": [{"tuple": [0], "value": ["1"]}]}}}),
            encoding="utf-8")
        assert run(capsys, "validate", str(path)) == (
            2, "", f"parse error: polynomials.f.entries[0]: "
                   f"entry 0 must be for a tuple of length {degree}\n")

    def test_usage_error_exits_2(self, capsys):
        assert run_command(["frobnicate", "x.json"]) == 2
        capsys.readouterr()


class TestComputations:
    def test_secondary_class_golden(self, capsys, fixtures_dir):
        code, out, _ = run(
            capsys, "secondary", str(fixtures_dir / "oscillator.json"),
            "--extension", "osc", "--poly", "fz", "--sections", "s0,sz",
            "--output", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["degree"] == 1
        assert payload["h_dim"] == 1
        assert payload["coordinates"] == ["1"]

    def test_secondary_strict_policy_refused(self, capsys, fixtures_dir):
        code, _, err = run(
            capsys, "secondary", str(fixtures_dir / "oscillator.json"),
            "--extension", "osc", "--poly", "fz", "--sections", "s0,sz",
            "--invariance", "strict")
        assert code == 1
        assert "invariance" in err

    def test_curvature_zero(self, capsys, fixtures_dir):
        code, out, _ = run(
            capsys, "curvature", str(fixtures_dir / "oscillator.json"),
            "--extension", "osc", "--section", "sz", "--output", "json")
        assert code == 0
        payload = json.loads(out)
        assert all(v == "0" for e in payload["curvature"]["entries"]
                   for v in e["value"])

    def test_cohomology_betti(self, capsys, fixtures_dir):
        expected = {0: 1, 1: 2, 2: 2, 3: 1}
        for degree, h in expected.items():
            code, out, _ = run(
                capsys, "cohomology", str(fixtures_dir / "heisenberg.json"),
                "--algebra", "h3", "--rep", "triv_total",
                "--degree", str(degree), "--output", "json")
            assert code == 0
            assert json.loads(out)["h_dim"] == h

    def test_chern_weil_coordinate_one(self, capsys, fixtures_dir):
        code, out, _ = run(
            capsys, "chern-weil", str(fixtures_dir / "heisenberg.json"),
            "--extension", "heis", "--poly", "f1", "--section", "s1",
            "--output", "json")
        assert code == 0
        assert json.loads(out)["coordinates"] == ["1"]

    def test_verify_theorem_heisenberg_three_sections(self, capsys, fixtures_dir):
        code, out, _ = run(
            capsys, "verify-theorem", str(fixtures_dir / "heisenberg.json"),
            "--extension", "heis", "--poly", "f2", "--sections", "s0,s1,s2")
        assert code == 0
        assert "equal: true" in out

    def test_verify_theorem_filiform_records_sign(self, capsys, fixtures_dir):
        code, out, _ = run(
            capsys, "verify-theorem", str(fixtures_dir / "filiform.json"),
            "--extension", "fil", "--poly", "f1", "--sections", "s0,s1",
            "--output", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["equal"] is True
        assert payload["sign"] == "+1"

    def test_unknown_object_exits_1(self, capsys, fixtures_dir):
        code, _, err = run(
            capsys, "curvature", str(fixtures_dir / "oscillator.json"),
            "--extension", "osc", "--section", "missing")
        assert code == 1
        assert "missing" in err

    @pytest.mark.parametrize("argv, kind", [
        (["cohomology", "--algebra", "x", "--rep", "triv", "--degree", "1"], "algebra"),
        (["cohomology", "--algebra", "h3", "--rep", "x", "--degree", "1"], "representation"),
        (["curvature", "--extension", "x", "--section", "s0"], "extension"),
        (["curvature", "--extension", "heis", "--section", "x"], "section"),
        (["secondary", "--extension", "heis", "--poly", "f1", "--sections", "s0,x"],
         "section"),
        (["verify-theorem", "--extension", "heis", "--poly", "f1", "--sections", "s0,s1,x"],
         "section"),
        (["chern-weil", "--extension", "heis", "--poly", "x", "--section", "s0"],
         "polynomial"),
        (["chern-weil", "--extension", "heis", "--poly", "f1", "--section", "s1",
          "--rep", "x"], "representation"),
    ], ids=["algebra", "rep", "extension", "section", "sections-2", "sections-3", "poly",
            "rep-of-base"])
    def test_unknown_name_message(self, capsys, fixtures_dir, argv, kind):
        path = str(fixtures_dir / "heisenberg.json")
        assert run(capsys, argv[0], path, *argv[1:]) == (
            1, "", f"validation error: unknown {kind} 'x'\n")

    def test_not_admissible_exits_1(self, capsys, fixtures_dir):
        code, _, err = run(
            capsys, "secondary", str(fixtures_dir / "heisenberg.json"),
            "--extension", "heis", "--poly", "f1", "--sections", "s0,s1")
        assert code == 1
        assert "curvature" in err

    def test_negative_degree_exits_1(self, capsys, fixtures_dir):
        code, out, err = run(
            capsys, "cohomology", str(fixtures_dir / "heisenberg.json"),
            "--algebra", "h3", "--rep", "triv_total", "--degree", "-1")
        assert (code, out) == (1, "")
        assert err == "validation error: cohomology degree must be non-negative\n"

    @pytest.mark.parametrize("degree", [2**63 - 1, 2**63])
    def test_degree_past_the_dimension_has_zero_cohomology(self, capsys, fixtures_dir, degree):
        # C^p = 0 for p > dim h3 = 3, however large p is
        argv = ["cohomology", str(fixtures_dir / "heisenberg.json"),
                "--algebra", "h3", "--rep", "triv_total", "--degree", str(degree)]
        assert run(capsys, *argv) == (
            0, f"degree {degree} cohomology of 'h3' with coefficients in 'triv_total': "
               f"dim Z = 0, dim B = 0, dim H = 0\n", "")
        code, out, err = run(capsys, *argv, "--output", "json")
        assert (code, err) == (0, "")
        assert json.loads(out) == {"algebra": "h3", "b_dim": 0, "degree": degree, "h_dim": 0,
                                   "rep": "triv_total", "z_dim": 0}

    def test_rep_not_over_base_exits_1(self, capsys, fixtures_dir):
        code, out, err = run(
            capsys, "secondary", str(fixtures_dir / "heisenberg.json"),
            "--extension", "heis", "--poly", "f2", "--sections", "s0,s0",
            "--rep", "triv_total")
        assert (code, out) == (1, "")
        assert err == ("validation error: representation 'triv_total' is not "
                       "over the base of extension 'heis'\n")

    def test_rep_over_inline_base_accepted(self, capsys, fixtures_dir, tmp_path):
        doc = json.loads((fixtures_dir / "heisenberg.json").read_text(encoding="utf-8"))
        doc["extensions"]["heis"]["base"] = doc["algebras"]["plane"]
        path = tmp_path / "inline.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, _ = run(
            capsys, "chern-weil", str(path), "--extension", "heis", "--poly", "f1",
            "--section", "s1", "--rep", "triv", "--output", "json")
        assert code == 0
        assert json.loads(out)["coordinates"] == ["1"]


def _class_commands(ext, f, s0, s1):
    return [["chern-weil", "--extension", ext, "--poly", f, "--section", s0],
            ["secondary", "--extension", ext, "--poly", f, "--sections", f"{s0},{s1}"],
            ["verify-theorem", "--extension", ext, "--poly", f, "--sections", f"{s0},{s1}"]]


# case: (commands, the message each prints after "validation error: ")
MISFITS = {
    "map-source": (_class_commands("heis", "f1", "s0", "s1"),
                   "polynomial 'f1' is not defined on the kernel of extension 'heis'"),
    "map-target": (_class_commands("heis", "f1", "s0", "s1"),
                   "polynomial 'f1' does not map into the module of dimension 1"),
    "foreign-section": ([["curvature", "--extension", "heis", "--section", "fil_s1"]]
                        + _class_commands("heis", "f1", "fil_s0", "fil_s1"),
                        "section 'fil_s[01]' is not a section of extension 'heis'"),
}


def misfit_document(fixtures_dir, case):
    """A valid workspace in which the named objects do not fit extension 'heis'.

    map-source: f1 is a map on h3 (3 entries), not on the kernel.
    map-target: f1 has target_dim 2, the default module dimension 1.
    foreign-section: the filiform catalog workspace joins the Heisenberg one,
    its objects under names prefixed with fil_.
    """
    if case == "foreign-section":
        ws = heisenberg_workspace()
        for registry, objects in vars(filiform_workspace()).items():
            for name, obj in objects.items():
                getattr(ws, registry)[f"fil_{name}"] = obj
        return serialize_workspace(ws)
    doc = json.loads((fixtures_dir / "heisenberg.json").read_text(encoding="utf-8"))
    f1 = doc["polynomials"]["f1"]
    if case == "map-source":
        f1["source"] = "h3"
        f1["entries"] = [{"tuple": [k], "value": ["1"]} for k in range(3)]
    else:
        f1["target_dim"] = 2
        f1["entries"] = [{"tuple": [0], "value": ["1", "0"]}]
    return json.dumps(doc)


class TestObjectsThatDoNotFitTheExtension:
    """A named map or section that does not fit the named extension is a
    validation error: exit 1, one message line, empty stdout, no traceback."""

    @pytest.fixture(params=sorted(MISFITS))
    def case(self, request, fixtures_dir, tmp_path):
        path = tmp_path / f"{request.param}.json"
        path.write_text(misfit_document(fixtures_dir, request.param), encoding="utf-8")
        commands, message = MISFITS[request.param]
        return str(path), commands, f"validation error: {message}\n"

    def test_in_process(self, capsys, case):
        path, commands, expected = case
        assert run(capsys, "validate", path)[0] == 0
        for argv in commands:
            code, out, err = run(capsys, argv[0], path, *argv[1:])
            assert (code, out) == (1, ""), argv
            assert re.fullmatch(expected, err), (argv, err)

    def test_exit_code(self, case):
        path, commands, expected = case
        root = Path(__file__).resolve().parents[1]
        for argv in commands:
            proc = subprocess.run(
                [sys.executable, "-m", "liechar.cli", argv[0], path, *argv[1:]],
                capture_output=True, text=True,
                env={"PYTHONPATH": str(root / "src"), "PATH": "/usr/bin:/bin"})
            assert (proc.returncode, proc.stdout) == (1, ""), argv
            assert "Traceback" not in proc.stderr
            assert re.fullmatch(expected, proc.stderr), (argv, proc.stderr)


class TestZeroDimensionalBase:
    """A workspace whose extension has the base {"dim": 0, "basis": []}."""

    @pytest.fixture
    def path(self, tmp_path):
        path = tmp_path / "point.json"
        path.write_text(point_base_document(), encoding="utf-8")
        return str(path)

    def test_validate_exits_0(self, capsys, path):
        code, out, err = run(capsys, "validate", path)
        assert (code, err) == (0, "")
        assert out == "ok: 2 algebras, 0 representations, 1 extensions, 1 sections, 2 polynomials\n"

    def test_strict_chern_weil_exits_1(self, capsys, path):
        code, out, err = run(capsys, "chern-weil", path, "--extension", "e", "--poly", "zstar",
                             "--section", "s", "--invariance", "strict")
        assert (code, out) == (1, "")
        assert err == ("validation error: symmetric map fails the configured "
                       "invariance condition\n")

    def test_strict_chern_weil_of_zero_map_exits_0(self, capsys, path):
        code, out, _ = run(capsys, "chern-weil", path, "--extension", "e", "--poly", "zero",
                           "--section", "s", "--invariance", "strict")
        assert code == 0
        assert out.startswith("primary class: degree 2, H-dimension 0")

    @pytest.fixture
    def square_path(self, tmp_path):
        """The point-base document with the degree-2 map zstar^2 added."""
        doc = json.loads(point_base_document())
        doc["polynomials"]["zsq"] = {
            "degree": 2, "source": "h3", "target_dim": 1,
            "entries": [{"tuple": [a, b], "value": [str(int(a == b == 2))]}
                        for a in range(3) for b in range(a, 3)]}
        path = tmp_path / "point_square.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)

    def test_secondary_of_degree_2_map_exits_0(self, capsys, square_path):
        code, out, err = run(capsys, "secondary", square_path, "--extension", "e",
                             "--poly", "zsq", "--sections", "s,s")
        assert (code, err) == (0, "")
        assert out.startswith("secondary class: degree 3, H-dimension 0, coordinates []\n")

    def test_verify_theorem_of_degree_2_map_exits_0(self, capsys, square_path):
        code, out, err = run(capsys, "verify-theorem", square_path, "--extension", "e",
                             "--poly", "zsq", "--sections", "s,s")
        assert (code, err) == (0, "")
        assert out == "equal: true\nsign: 0 (both sides vanish)\n"


class TestSharedParser:
    """run_command reuses one parser; a failed call leaves nothing for the next."""

    def test_good_command_after_failures_matches_golden(self, capsys, monkeypatch):
        root = Path(__file__).resolve().parents[1]
        monkeypatch.chdir(root)
        path = "fixtures/oscillator.json"
        argv = ["secondary", path, "--extension", "osc", "--poly", "fz",
                "--sections", "s0,sz", "--output", "json"]
        golden = (root / "tests" / "golden" / "cli" / "oscillator.json.txt").read_text(
            encoding="utf-8")
        (expected,) = [part.split("\n", 1)[1] for part in golden.split("$ liechar ")
                       if part.startswith(" ".join(argv) + "\n")]
        assert run_command(["secondary", path, "--invariance", "strict", "--rep", "triv",
                            "--output", "text", "--bogus"]) == 2
        assert run_command(["secondary", path, "--extension", "nope", "--poly", "fz",
                            "--sections", "s0,sz", "--invariance", "strict",
                            "--rep", "triv", "--output", "text"]) == 1
        capsys.readouterr()
        code = run_command(argv)
        assert f"exit {code}\n{capsys.readouterr().out}" == expected


class TestModuleEntryPoint:
    def test_runs_as_module(self, fixtures_dir):
        root = Path(__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-m", "liechar.cli", "validate",
             str(fixtures_dir / "oscillator.json")],
            capture_output=True, text=True,
            env={"PYTHONPATH": str(root / "src"), "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("ok:")


def heisenberg_with_module(fixtures_dir, tmp_path):
    """The Heisenberg fixture with two additions: the algebra 'plane_again',
    equal to 'plane' but registered apart, and 'chi', the module R of 'plane'
    on which e1 acts by 1 and e2 by 0, so that f1 is not invariant into it."""
    doc = json.loads((fixtures_dir / "heisenberg.json").read_text(encoding="utf-8"))
    doc["algebras"]["plane_again"] = dict(doc["algebras"]["plane"])
    doc["representations"]["chi"] = {"algebra": "plane", "space_dim": 1,
                                     "matrices": [[["1"]], [["0"]]]}
    path = tmp_path / "heisenberg_chi.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


class TestRepresentationPolicy:
    """Every command takes a named module whose algebra equals the named one
    (compared by structure), and refuses any other with its own message."""

    def test_cohomology_over_an_equal_algebra_registered_apart(self, capsys, fixtures_dir,
                                                               tmp_path):
        path = heisenberg_with_module(fixtures_dir, tmp_path)
        code, out, err = run(capsys, "cohomology", path, "--algebra", "plane_again",
                             "--rep", "triv", "--degree", "1")
        assert (code, err) == (0, "")
        assert out == ("degree 1 cohomology of 'plane_again' with coefficients in 'triv': "
                       "dim Z = 2, dim B = 0, dim H = 2\n")

    def test_cohomology_over_another_algebra_exits_1(self, capsys, fixtures_dir, tmp_path):
        path = heisenberg_with_module(fixtures_dir, tmp_path)
        code, out, err = run(capsys, "cohomology", path, "--algebra", "h3",
                             "--rep", "triv", "--degree", "1")
        assert (code, out) == (1, "")
        assert err == "validation error: representation 'triv' is not over algebra 'h3'\n"

    def test_class_commands_over_another_algebra_exit_1(self, capsys, fixtures_dir):
        path = str(fixtures_dir / "heisenberg.json")
        for argv in _class_commands("heis", "f2", "s0", "s1"):
            code, out, err = run(capsys, argv[0], path, *argv[1:], "--rep", "triv_total")
            assert (code, out) == (1, ""), argv
            assert err == ("validation error: representation 'triv_total' is not "
                           "over the base of extension 'heis'\n"), argv


class TestSectionCount:
    @pytest.mark.parametrize("command, sections, message", [
        ("secondary", "s0", "secondary needs exactly two section names"),
        ("secondary", "s0,s1,s2", "secondary needs exactly two section names"),
        ("verify-theorem", "s0", "verify-theorem needs at least two section names")])
    def test_wrong_number_of_sections_exits_1(self, capsys, fixtures_dir, command, sections,
                                              message):
        code, out, err = run(capsys, command, str(fixtures_dir / "heisenberg.json"),
                             "--extension", "heis", "--poly", "f1", "--sections", sections)
        assert (code, out) == (1, "")
        assert err == f"validation error: {message}\n"


class TestTheoremSidesDiffer:
    """A map that is not invariant into the module: d(Delta_f(s0, s2)) is
    nonzero while Delta_f(s2) - Delta_f(s0) vanishes, so no sign matches."""

    ARGV = ("--extension", "heis", "--poly", "f1", "--sections", "s0,s2", "--rep", "chi")

    def test_text(self, capsys, fixtures_dir, tmp_path):
        path = heisenberg_with_module(fixtures_dir, tmp_path)
        with pytest.warns(InvarianceWarning):
            code, out, err = run(capsys, "verify-theorem", path, *self.ARGV)
        assert (code, err) == (0, "")
        assert out == ("equal: false\n"
                       "sign: none (sides differ beyond sign); difference:\n"
                       "  (e1,e2) -> (1)\n")

    def test_json(self, capsys, fixtures_dir, tmp_path):
        path = heisenberg_with_module(fixtures_dir, tmp_path)
        with pytest.warns(InvarianceWarning):
            code, out, err = run(capsys, "verify-theorem", path, *self.ARGV,
                                 "--output", "json")
        assert (code, err) == (0, "")
        assert '"sign": null' in out
        payload = json.loads(out)
        assert payload["equal"] is False and payload["sign"] is None
        assert payload["lhs"]["entries"] == [{"tuple": [0, 1], "value": ["1"]}]
        assert payload["rhs"]["entries"] == [{"tuple": [0, 1], "value": ["0"]}]
