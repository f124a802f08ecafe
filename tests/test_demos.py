"""Each demo script runs to the end without an error and prints its pinned lines."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import hkgenus

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
# The demos import hkgenus; point them at the copy these tests import.
SOURCE = str(Path(hkgenus.__file__).resolve().parents[1])

# Output lines that the computations behind a demo could move, pinned verbatim.
PINNED_LINES = {
    "05_riemann_roch_from_chern_numbers": (
        "top Todd part, n=1: (1/12)*c2",
        "top Todd part, n=2: (1/240)*c2^2 + (-1/720)*c4",
        "solutions for c2^2 across all five coefficients: {Fraction(828, 1)}",
        "substitution consistency, n=1: True",
        "substitution consistency, n=2: True",
    ),
}


def test_all_six_demos_are_found():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs_cleanly(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SOURCE, env.get("PYTHONPATH")]))
    completed = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                               env=env, timeout=120)
    assert "Traceback" not in completed.stderr
    assert completed.returncode == 0, completed.stderr
    lines = completed.stdout.splitlines()
    for line in PINNED_LINES.get(demo.stem, ()):
        assert line in lines
