"""Golden CLI output: stdout, stderr and exit code of every subcommand in every format.

The expected results live in ``cli_golden.json`` next to this file.  After an
intended change of the output, rewrite that file with

    PYTHONPATH=src python tests/test_cli_golden.py

and review the diff.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from hkgenus.cli import main

GOLDEN = Path(__file__).with_name("cli_golden.json")

_PER_FORMAT = (
    ("chi", "--manifold", "K3[2]"),
    ("strace", "--manifold", "K3[2]", "--matrix", "2,1;1,1"),
    ("verify", "--all-builtin"),
    ("decompose", "--manifold", "K3[2]"),
    ("rw", "--manifold", "K3[3]", "--matrix", "0,-1;1,0"),
    ("rr", "--n", "2", "--c2sq", "828", "--c4", "324", "--manifold", "K3[2]"),
    ("catalog",),
    # Integral but wrong Chern data: the MISMATCH rendering and exit code 2.
    ("rr", "--n", "1", "--c2", "36", "--manifold", "K3"),
)

CASES = [list(argv) + ["--format", fmt]
         for argv in _PER_FORMAT for fmt in ("text", "csv", "json")] + [
    ["verify", "--manifold", "K3"],
    ["rr", "--n", "1", "--c2", "24"],
    ["chi"],
    ["rw", "--manifold", "K3"],
    ["rr", "--c2", "24"],
]


def run_case(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return {"argv": list(argv), "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def test_golden_file_covers_every_case():
    assert [entry["argv"] for entry in json.loads(GOLDEN.read_text(encoding="utf-8"))] == CASES


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_cli_output_matches_golden(argv):
    expected = {tuple(entry["argv"]): entry
                for entry in json.loads(GOLDEN.read_text(encoding="utf-8"))}
    assert run_case(argv) == expected[tuple(argv)]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps([run_case(argv) for argv in CASES], indent=1) + "\n",
                      encoding="utf-8")
