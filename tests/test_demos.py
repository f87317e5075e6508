"""The demos print exactly the text recorded in tests/golden/.

Each demo runs in a fresh interpreter with src on the path; any change to a
number, a sign or the order of the printed entries shows up as a diff.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted(path.stem for path in (ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("name", DEMOS)
def test_demo_output_matches_golden(name):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, str(ROOT / "demos" / f"{name}.py")],
                            capture_output=True, text=True, env=env, timeout=60)
    assert result.returncode == 0, result.stderr
    golden = (ROOT / "tests" / "golden" / f"{name}.txt").read_text(encoding="utf-8")
    assert result.stdout == golden
