"""CLI tests: output formats, exit codes, stream separation."""

import argparse
import json
import subprocess
import sys

import pytest

from hkgenus.boundary import digit_limit
from hkgenus.catalog import ManifoldRecord, builtin, builtin_names, save_manifold
from hkgenus.cli import build_parser, main
from hkgenus.hodge import HodgeDiamond
from hkgenus.laurent import LaurentPolynomial
from hkgenus.lefschetz import IdentityReport


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_k3_text(capsys):
    code, out, err = run(capsys, "verify", "--manifold", "K3")
    assert code == 0
    assert out.strip() == "PASS  ST(t=y+1/y) = 2y+20+2y^-1 = chi_{-y}/y^1"
    assert err == ""


def test_strace_with_matrix(capsys):
    code, out, _ = run(capsys, "strace", "--manifold", "K3", "--matrix", "0,-1;1,0")
    assert code == 0
    assert out.strip() == "S(t)=2t+20  S(0)=20"


def test_strace_without_matrix(capsys):
    code, out, _ = run(capsys, "strace", "--manifold", "K3[2]")
    assert code == 0
    assert out.strip() == "S(t)=3t^2+42t+228"


def test_rw_determinant_error_exits_1(capsys):
    code, out, err = run(capsys, "rw", "--manifold", "K3", "--matrix", "1,0;0,2")
    assert code == 1
    assert out == ""
    assert "determinant" in err


def test_rw_value(capsys):
    code, out, _ = run(capsys, "rw", "--manifold", "K3", "--matrix", "1,1;0,1")
    assert code == 0
    assert "Z^RW[T_U] = 24" in out
    assert "S(t)=2t+20" in out


def test_verify_all_builtin(capsys):
    code, out, _ = run(capsys, "verify", "--all-builtin")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 6  # five manifolds plus the summary line
    assert all("PASS" in line for line in lines[:5])
    assert lines[0].startswith("K3:")
    assert lines[-1] == "all passed"


def failing_report(d):
    """An identity report with unequal sides; no valid diamond produces one."""
    return IdentityReport(False, LaurentPolynomial({1: 2, 0: 20}),
                          LaurentPolynomial({1: 2, 0: 20, -1: 2}),
                          LaurentPolynomial({1: 2, 0: 21, -1: 2}), d.name)


FAILED_RESULTS = [{"lhs": "2y+20+2y^-1", "n": n, "name": name, "passed": False,
                   "rhs": "2y+21+2y^-1", "supertrace_t": "2t+20"}
                  for n, name in enumerate(builtin_names(), 1)]
FAILED_VERIFY_OUTPUT = {
    ("K3", "text"): "FAIL  ST(t=y+1/y) = 2y+20+2y^-1 != 2y+21+2y^-1 = chi_{-y}/y^1\n",
    ("K3", "csv"): "name,n,passed,supertrace_t,lhs,rhs\nK3,1,False,2t+20,2y+20+2y^-1,2y+21+2y^-1\n",
    ("K3", "json"): json.dumps({"all_passed": False, "command": "verify",
                                "results": FAILED_RESULTS[:1]}, indent=2, sort_keys=True) + "\n",
    ("all", "text"): "".join(f"{r['name']}: FAIL  ST(t=y+1/y) = 2y+20+2y^-1 != 2y+21+2y^-1"
                             f" = chi_{{-y}}/y^{r['n']}\n" for r in FAILED_RESULTS)
                     + "FAILURES present\n",
    ("all", "csv"): "name,n,passed,supertrace_t,lhs,rhs\n" + "".join(
        f"{r['name']},{r['n']},False,2t+20,2y+20+2y^-1,2y+21+2y^-1\n" for r in FAILED_RESULTS),
    ("all", "json"): json.dumps({"all_passed": False, "command": "verify",
                                 "results": FAILED_RESULTS}, indent=2, sort_keys=True) + "\n",
}


@pytest.mark.parametrize("source, fmt", sorted(FAILED_VERIFY_OUTPUT), ids="-".join)
def test_failed_identity_output_is_pinned(capsys, monkeypatch, source, fmt):
    # The FAIL line, the summary line and their CSV and JSON forms.
    import hkgenus.cli as cli_mod

    monkeypatch.setattr(cli_mod, "verify_supertrace_identity", failing_report)
    argv = ("--all-builtin",) if source == "all" else ("--manifold", "K3")
    code, out, err = run(capsys, "verify", *argv, "--format", fmt)
    assert (code, out, err) == (2, FAILED_VERIFY_OUTPUT[source, fmt], "")


def test_verify_requires_a_source(capsys):
    code, _, err = run(capsys, "verify")
    assert code == 1
    assert "manifold" in err


def test_chi_json_matches_text_numbers(capsys):
    code, out, _ = run(capsys, "chi", "--manifold", "K3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["euler"] == 24
    assert payload["todd"] == 2
    assert payload["signature"] == -16
    assert payload["chi_y"] == "2y^2-20y+2"
    assert payload["chi_minus_y"] == "2y^2+20y+2"

    _, text, _ = run(capsys, "chi", "--manifold", "K3")
    assert "euler      = 24" in text
    assert "chi_y      = 2y^2-20y+2" in text


def test_catalog_csv(capsys):
    code, out, _ = run(capsys, "catalog", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "name,n,euler,todd,signature"
    assert lines[1] == "K3,1,24,2,-16"
    assert len(lines) == 6


def test_decompose_text(capsys):
    code, out, _ = run(capsys, "decompose", "--manifold", "K3[2]")
    assert code == 0
    assert "p=2: 0 0 231 0 0" in out
    assert "dimension 3" in out  # the p=0 row generates 3-dimensional strings


def test_decompose_csv_long_form(capsys):
    code, out, _ = run(capsys, "decompose", "--manifold", "K3", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "p,dimension,q,multiplicity"
    assert "1,1,1,20" in lines  # p=1, dim 1, q=1, multiplicity 20


def test_rr_match_exit_0(capsys):
    code, out, _ = run(capsys, "rr", "--n", "1", "--c2", "24", "--manifold", "K3")
    assert code == 0
    assert "MATCH" in out


def test_rr_wrong_chern_exit_2(capsys):
    # Integral but wrong data: identity-check failure, not an input error.
    code, out, _ = run(capsys, "rr", "--n", "1", "--c2", "36", "--manifold", "K3")
    assert code == 2
    assert "MISMATCH" in out


def test_rr_non_integral_exit_1(capsys):
    code, _, err = run(capsys, "rr", "--n", "1", "--c2", "25")
    assert code == 1
    assert "non-integral" in err


def test_rr_non_integral_message_is_pinned(capsys):
    code, out, err = run(capsys, "rr", "--n", "2", "--c2sq", "1", "--c4", "1")
    assert code == 1 and out == ""
    assert err == ("error: non-integral genus coefficients (inconsistent Chern data?): "
                   "exp 0: 1/360, exp 1: 7/45, exp 2: 41/60, exp 3: 7/45, exp 4: 1/360\n")


def test_rr_non_integral_huge_data_ends_in_one_short_error_line():
    completed = subprocess.run(
        [sys.executable, "-m", "hkgenus", "rr", "--n", "1", "--c2", "9" * 4000],
        capture_output=True, text=True)
    assert_refused_briefly(completed)
    assert "non-integral" in completed.stderr
    assert "9" * 200 not in completed.stderr and "3" * 200 not in completed.stderr


@pytest.mark.parametrize("flag", ["--n", "--c2", "--c2sq", "--c4"])
def test_rr_integer_flags_are_read_by_the_boundary(capsys, flag):
    for value, error in [("x", f"error: {flag} 'x' is not an integer\n"),
                         ("9" * 5000, f"error: {flag} has 5000 digits; at most 4300 are accepted\n")]:
        code, out, err = run(capsys, "rr", "--n", "1", flag, value)
        assert (code, out, err) == (1, "", error)


def test_rr_integer_flags_take_what_int_takes(capsys):
    expected = run(capsys, "rr", "--n", "1", "--c2", "12", "--manifold", "K3")
    assert expected[0] == 2
    assert run(capsys, "rr", "--n", " 1 ", "--c2", "1_2", "--manifold", "K3") == expected


def test_rr_missing_monomial_exit_1(capsys):
    code, _, err = run(capsys, "rr", "--n", "2", "--c4", "324")
    assert code == 1
    assert "c2^2" in err


def test_rr_standalone(capsys):
    code, out, _ = run(capsys, "rr", "--n", "2", "--c2sq", "828", "--c4", "324")
    assert code == 0
    assert "chi_{-y} = 3y^4+42y^3+234y^2+42y+3" in out
    assert "S(t)      = 3t^2+42t+228" in out
    assert "substitution consistency" in out


def test_input_file_flow(tmp_path, capsys):
    record = builtin("K3")
    path = tmp_path / "k3.hodge.json"
    save_manifold(record, path)
    code, out, _ = run(capsys, "chi", "--input", str(path))
    assert code == 0
    assert "euler      = 24" in out


def test_both_sources_rejected(tmp_path, capsys):
    path = tmp_path / "k3.hodge.json"
    save_manifold(builtin("K3"), path)
    code, _, err = run(capsys, "chi", "--manifold", "K3", "--input", str(path))
    assert code == 1
    assert "one manifold source" in err


def test_strict_flag_gates_input(tmp_path, capsys):
    torus = ManifoldRecord(
        name="torus4", diamond=HodgeDiamond(((1, 2, 1), (2, 4, 2), (1, 2, 1))))
    path = tmp_path / "torus.hodge.json"
    save_manifold(torus, path)
    code, out, _ = run(capsys, "chi", "--input", str(path))
    assert code == 0
    assert "euler      = 0" in out
    code, _, err = run(capsys, "chi", "--input", str(path), "--strict")
    assert code == 1
    assert "irreducibility" in err


def test_missing_file_exit_1(capsys):
    code, _, err = run(capsys, "chi", "--input", "/no/such/file.hodge.json")
    assert code == 1
    assert err


def test_usage_errors_exit_1(capsys):
    code, _, err = run(capsys, "frobnicate")
    assert code == 1
    assert err
    code, _, err = run(capsys, "chi", "--manifold", "K3", "--format", "yaml")
    assert code == 1
    # An empty option value is given, not absent; catalog reads no manifold.
    for argv, first in [
        (("strace", "--manifold", "K3", "--matrix", ""), "error: matrix must have two rows"),
        (("verify", "--all-builtin", "--manifold", ""),
         "error: --all-builtin does not take a manifold source"),
        (("rr", "--n", "1", "--c2", "24", "--manifold", ""), "error: unknown built-in ''"),
        (("chi", "--manifold", "", "--input", "f"), "error: exactly one manifold source"),
        (("catalog", "--strict"), "error: unrecognized arguments: --strict"),
        (("rr", "--n", "1", "--c2", "24", "--strict"),
         "error: --strict needs a manifold: pass --manifold NAME or --input PATH"),
    ]:
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, ""), argv
        assert len(err.splitlines()) == 1 and err.startswith(first), argv


MANIFOLD_OPTIONS = {"--input": None, "--manifold": None, "--strict": False}
# Per subcommand: its options with their defaults, and the required ones.
PARSER_SHAPE = {
    "chi": ({**MANIFOLD_OPTIONS}, []),
    "strace": ({**MANIFOLD_OPTIONS, "--matrix": None}, []),
    "verify": ({**MANIFOLD_OPTIONS, "--all-builtin": False}, []),
    "decompose": ({**MANIFOLD_OPTIONS}, []),
    "rw": ({**MANIFOLD_OPTIONS, "--matrix": None}, ["--matrix"]),
    "rr": ({**MANIFOLD_OPTIONS, "--n": None, "--c2": None, "--c2sq": None, "--c4": None},
           ["--n"]),
    "catalog": ({}, []),
}


def test_parser_shape_is_pinned():
    action = next(a for a in build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction))
    assert list(action.choices) == list(PARSER_SHAPE)
    for command, parser in action.choices.items():
        options, required = PARSER_SHAPE[command]
        actions = [a for a in parser._actions if a.option_strings != ["-h", "--help"]]
        assert {a.option_strings[0]: a.default for a in actions} == {
            **options, "--format": "text"}, command
        assert all(len(a.option_strings) == 1 for a in actions), command
        assert sorted(a.option_strings[0] for a in actions if a.required) == required, command
        assert next(a for a in actions if a.option_strings == ["--format"]).choices == ("text", "csv", "json")


@pytest.mark.parametrize("command", list(PARSER_SHAPE))
def test_subcommand_help_exits_0(capsys, command):
    with pytest.raises(SystemExit) as info:
        main([command, "--help"])
    assert info.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: hkgenus {command} [-h]")


def test_unknown_builtin_exit_1(capsys):
    code, _, err = run(capsys, "chi", "--manifold", "K3[1]")
    assert code == 1
    assert "unknown built-in" in err


def test_json_output_is_sorted_and_parseable(capsys):
    code, out, _ = run(capsys, "verify", "--all-builtin", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["all_passed"] is True
    assert [r["name"] for r in payload["results"]] == list(
        ("K3", "K3[2]", "K3[3]", "K3[4]", "K3[5]"))


def test_internal_inconsistency_exits_3(capsys, monkeypatch):
    import hkgenus.cli as cli_mod
    from hkgenus.errors import InternalInconsistencyError

    def boom(_diamond):
        raise InternalInconsistencyError("forced for the test")

    monkeypatch.setattr(cli_mod, "supertrace_polynomial", boom)
    code, out, err = run(capsys, "strace", "--manifold", "K3")
    assert code == 3
    assert out == ""
    assert "internal inconsistency" in err


def test_other_value_errors_propagate(capsys, monkeypatch):
    # Only the interpreter's digit-limit refusal is an input error; any other
    # ValueError is a bug and leaves main with its traceback.
    import hkgenus.cli as cli_mod

    def boom(_diamond):
        raise ValueError("boom")

    monkeypatch.setattr(cli_mod, "supertrace_polynomial", boom)
    with pytest.raises(ValueError, match="^boom$"):
        main(["strace", "--manifold", "K3"])
    assert capsys.readouterr().out == ""


def test_module_entry_point_subprocess():
    completed = subprocess.run(
        [sys.executable, "-m", "hkgenus", "verify", "--manifold", "K3"],
        capture_output=True, text=True)
    assert completed.returncode == 0
    assert completed.stdout.strip() == "PASS  ST(t=y+1/y) = 2y+20+2y^-1 = chi_{-y}/y^1"
    assert completed.stderr == ""


def test_module_entry_point_error_streams():
    completed = subprocess.run(
        [sys.executable, "-m", "hkgenus", "rw", "--manifold", "K3",
         "--matrix", "1,0;0,2"],
        capture_output=True, text=True)
    assert completed.returncode == 1
    assert completed.stdout == ""
    assert "determinant" in completed.stderr


# A 5000-digit integer: past the interpreter's default str-to-int limit.
BIG = "7" * 5000
K3_WITH_CHERN_KEY = ('{"name": "K3", "n": 1, "hodge": [[1, 0, 1], [0, 20, 0], [1, 0, 1]], '
                     '"chern": {"%s": 24}}')
BOUNDARY_INPUTS = {
    "json-bigint": ('{"name": "big", "n": 1, "hodge": [[1, 0, 1], [0, %s, 0], [1, 0, 1]]}'
                    % BIG).encode(),
    "deep-array": ('{"name": "deep", "n": 1, "hodge": ' + "[" * 100_000
                   + "]" * 100_000 + "}").encode(),
    "non-utf8": b'{"name": "bad\xff\xfebytes", "n": 1, '
                b'"hodge": [[1, 0, 1], [0, 20, 0], [1, 0, 1]]}',
    # Chern keys far past degree 2: refused by one basis lookup, quoted short.
    "chern-many-factors": (K3_WITH_CHERN_KEY % ("c2" * 10**6)).encode(),
    "chern-big-power": (K3_WITH_CHERN_KEY % "c2^8000000").encode(),
    # An "n" within the digit limit but far too long to quote whole.
    "n-bigint": ('{"name": "K3", "n": %s, "hodge": [[1, 0, 1], [0, 20, 0], [1, 0, 1]]}'
                 % ("7" * 4000)).encode(),
}


def assert_refused_briefly(completed):
    assert "Traceback" not in completed.stderr
    assert completed.returncode == 1
    assert completed.stdout == ""
    lines = completed.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert len(lines[0]) <= 200
    assert BIG[:100] not in completed.stderr


@pytest.mark.parametrize("kind", sorted(BOUNDARY_INPUTS))
def test_hostile_file_ends_in_one_short_error_line(tmp_path, kind):
    path = tmp_path / f"{kind}.hodge.json"
    path.write_bytes(BOUNDARY_INPUTS[kind])
    completed = subprocess.run(
        [sys.executable, "-m", "hkgenus", "verify", "--input", str(path)],
        capture_output=True, text=True)
    assert_refused_briefly(completed)


def test_matrix_bigint_ends_in_one_short_error_line():
    completed = subprocess.run(
        [sys.executable, "-m", "hkgenus", "rw", "--manifold", "K3", f"--matrix={BIG},0;0,1"],
        capture_output=True, text=True)
    assert_refused_briefly(completed)
    assert "5000 digits" in completed.stderr


# A valid SL(2, Z) element whose trace has 3000 digits: S(trace) on K3[5] has
# about 15000, more than the interpreter writes as text.
HUGE_TRACE = "9" * 3000 + ",1;" + "9" * 2999 + "8,1"


def test_oversized_result_ends_in_one_short_error_line():
    completed = subprocess.run(
        [sys.executable, "-m", "hkgenus", "strace", "--manifold", "K3[5]",
         "--matrix", HUGE_TRACE],
        capture_output=True, text=True)
    assert_refused_briefly(completed)
    assert "digits" in completed.stderr


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_oversized_result_is_an_input_error_in_every_format(capsys, fmt):
    code, out, err = run(capsys, "rw", "--manifold", "K3[5]", "--matrix", HUGE_TRACE,
                         "--format", fmt)
    assert code == 1
    assert out == ""
    assert err.startswith("error: a result has more than") and err.count("\n") == 1
    assert len(err) <= 200
    assert err == (f"error: a result has more than {digit_limit()} digits, "
                   "the most the interpreter writes as text\n")


def test_long_manifold_name_ends_in_one_short_error_line(tmp_path):
    path = tmp_path / "long-name.hodge.json"
    save_manifold(ManifoldRecord("x" * 100_000, builtin("K3").diamond), path)
    completed = subprocess.run(
        [sys.executable, "-m", "hkgenus", "rr", "--n", "2", "--c2sq", "828", "--c4", "324",
         "--input", str(path)],
        capture_output=True, text=True)
    assert_refused_briefly(completed)
    assert "has n = 1, Chern data has n = 2" in completed.stderr


def asymmetric_rows(n):
    """A (2n+1)-square table with 0 above the diagonal and 1 elsewhere."""
    side = 2 * n + 1
    return [[int(q <= p) for q in range(side)] for p in range(side)]


def test_validation_failure_lists_a_bounded_number_of_violations(tmp_path, capsys):
    path = tmp_path / "asymmetric.hodge.json"
    path.write_text(json.dumps({"name": "asym", "n": 40, "hodge": asymmetric_rows(40)}))
    code, out, err = run(capsys, "chi", "--input", str(path))
    assert code == 1 and out == ""
    lines = err.splitlines()
    assert len(lines) == 22
    assert lines[0] == "error: fail (structural), 16240 violation(s):"
    assert lines[1] == "  [serre] at (p=0, q=1): h^{0,1} = 0 != 1 = h^{80,79}"
    assert lines[-1] == "  ... and 16220 more"


@pytest.mark.parametrize("kind", ["missing", "not-json"])
def test_long_path_ends_in_one_short_error_line(tmp_path, kind):
    # A missing file of a 100000-character name, and a real file reached
    # through a path of about 3800 characters.
    (tmp_path / "asym.hodge.json").write_text("{")
    tail = "x" * 100_000 if kind == "missing" else "./" * 1900 + "asym.hodge.json"
    completed = subprocess.run(
        [sys.executable, "-m", "hkgenus", "chi", "--input", f"{tmp_path}/{tail}"],
        capture_output=True, text=True)
    assert_refused_briefly(completed)
