import json
import subprocess
import sys
from pathlib import Path

from liechar.cli import run_command


def run(capsys, *argv):
    code = run_command(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestValidate:
    def test_oscillator_fixture_ok(self, capsys, fixtures_dir):
        code, out, _ = run(capsys, "validate", str(fixtures_dir / "oscillator.json"))
        assert code == 0
        assert out.startswith("ok:")

    def test_malformed_file_exits_2(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope", encoding="utf-8")
        code, _, err = run(capsys, "validate", str(path))
        assert code == 2
        assert "parse error" in err

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
