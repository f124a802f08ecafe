"""Each demo script runs to the end without an error and prints its golden stdout.

The expected stdout of every demo lives in ``demo_golden.json`` next to this
file.  After an intended change of a demo's output, rewrite that file with

    PYTHONPATH=src python tests/test_demos.py

and review the diff.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hkgenus

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
GOLDEN = Path(__file__).with_name("demo_golden.json")
# The demos import hkgenus; point them at the copy these tests import.
SOURCE = str(Path(hkgenus.__file__).resolve().parents[1])


def run_demo(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SOURCE, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                          env=env, timeout=120)


def test_all_six_demos_are_found():
    assert len(DEMOS) == 6
    assert sorted(json.loads(GOLDEN.read_text(encoding="utf-8"))) == [d.stem for d in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs_cleanly(demo):
    completed = run_demo(demo)
    assert "Traceback" not in completed.stderr
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout == json.loads(GOLDEN.read_text(encoding="utf-8"))[demo.stem]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({d.stem: run_demo(d).stdout for d in DEMOS}, indent=1) + "\n",
                      encoding="utf-8")
