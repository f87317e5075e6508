"""The six CLI commands print exactly the text recorded in tests/golden/cli/.

Every command runs in process through run_command on the three fixtures, in
text and in JSON.  One golden file per fixture and output format holds, for
each command, its argument list, its exit code and its standard output, so
any change to a number, a sign, a key or the order of printed entries shows
up as a diff.
"""

import contextlib
import io
from pathlib import Path

import pytest

from liechar.cli import run_command

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden" / "cli"

# fixture: (total algebra, base algebra, extension, sections, degree-1 map, top map)
FIXTURES = {
    "oscillator": ("oscillator", "line", "osc", ("s0", "sz"), "fz", "fz"),
    "heisenberg": ("h3", "plane", "heis", ("s0", "s1", "s2"), "f1", "f2"),
    "filiform": ("n4", "h3", "fil", ("s0", "s1", "s2"), "f1", "f2"),
}


def commands(fixture):
    path = f"fixtures/{fixture}.json"
    total, base, ext, secs, f1, ftop = FIXTURES[fixture]
    out = [["validate", path]]
    for algebra, rep, degrees in ((total, "triv_total", range(5)), (base, "triv", range(4))):
        out += [["cohomology", path, "--algebra", algebra, "--rep", rep, "--degree", str(p)]
                for p in degrees]
    for sec in secs:
        out.append(["curvature", path, "--extension", ext, "--section", sec])
        out.append(["chern-weil", path, "--extension", ext, "--poly", f1, "--section", sec])
    for f in sorted({f1, ftop}):
        out.append(["secondary", path, "--extension", ext, "--poly", f,
                    "--sections", f"{secs[0]},{secs[1]}"])
    for count in range(2, len(secs) + 1):
        out.append(["verify-theorem", path, "--extension", ext, "--poly", ftop,
                    "--sections", ",".join(secs[:count])])
    return out


def transcript(fixture, output):
    """Each command's argument list, exit code and stdout, run from the repository root."""
    parts = []
    for argv in commands(fixture):
        argv = argv + ["--output", output]
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = run_command(argv)
        parts.append(f"$ liechar {' '.join(argv)}\nexit {code}\n{stdout.getvalue()}")
    return "".join(parts)


@pytest.mark.parametrize("output", ["text", "json"])
@pytest.mark.parametrize("fixture", sorted(FIXTURES))
def test_cli_output_matches_golden(fixture, output, monkeypatch):
    monkeypatch.chdir(ROOT)
    golden = (GOLDEN / f"{fixture}.{output}.txt").read_text(encoding="utf-8")
    assert transcript(fixture, output) == golden
