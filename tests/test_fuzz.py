"""Fuzz tests of the input boundary: the file loader and the CLI.

Whatever bytes a manifold file holds and whatever arguments the CLI gets, the
outcome is a result, an ``InputError`` (exit code 1 on the CLI), or an
identity failure (exit code 2); never another exception or a traceback.  An
error message has lines of at most 200 characters, and a failed validation
lists at most ``MAX_LISTED`` violations.
"""

import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hkgenus.catalog import ManifoldRecord, builtin_names, load_manifold
from hkgenus.cli import main
from hkgenus.errors import InputError
from hkgenus.hodge import MAX_LISTED

SMALL_INTS = st.integers(-3, 30)
BIG_INTS = st.integers(-10**60, 10**60)
HUGE_INTS = st.integers(-10**1000, 10**1000)
# Names of up to a few thousand characters, too long to quote whole.
NAMES = st.text(max_size=8) | st.text(min_size=1, max_size=8).map(lambda t: t * 400)
JSON_SCALARS = (st.none() | st.booleans() | SMALL_INTS | BIG_INTS
                | st.floats(allow_nan=False) | st.text(max_size=8))
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=5)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12)


@st.composite
def manifold_objects(draw):
    """Objects shaped like a manifold file, with a slot or two gone wrong."""
    side = draw(st.sampled_from([1, 2, 3, 5, 7]))
    if draw(st.booleans()):
        # A table with every symmetry and nonnegative primitives, so that
        # validation passes now and then.
        row = sorted(draw(st.lists(st.integers(0, 30), min_size=side, max_size=side)))
        hodge = [[row[min(p, side - 1 - p, q, side - 1 - q)] for q in range(side)]
                 for p in range(side)]
        n = draw(st.just((side - 1) // 2) | SMALL_INTS)
    else:
        # Square now and then, so that the symmetry checks run on random entries.
        entries = draw(st.sampled_from([SMALL_INTS, BIG_INTS, HUGE_INTS, JSON_SCALARS]))
        low, high = draw(st.sampled_from([(side - 1, side + 1), (side, side)]))
        hodge = draw(st.lists(st.lists(entries, min_size=low, max_size=high),
                              min_size=low, max_size=high))
        n = draw(st.just((side - 1) // 2) | SMALL_INTS | HUGE_INTS | JSON_SCALARS)
    obj = {"name": draw(NAMES), "n": n, "hodge": hodge}
    if draw(st.booleans()):
        obj["chern"] = draw(st.dictionaries(
            st.sampled_from(["c2", "c4", "c2^2", "c3", "x", "c2c4", ""]),
            SMALL_INTS | JSON_SCALARS, max_size=3) | JSON_VALUES)
    if draw(st.booleans()):
        obj["provenance"] = draw(JSON_SCALARS)
    for key in draw(st.lists(st.sampled_from(sorted(obj)), max_size=1)):
        del obj[key]
    return obj


FILE_CONTENTS = (
    st.binary(max_size=200)
    | JSON_VALUES.map(lambda v: json.dumps(v).encode())
    | manifold_objects().map(lambda v: json.dumps(v).encode())
)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=75, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(FILE_CONTENTS)
def test_loader_returns_a_record_or_raises_input_error(workdir, content):
    path = workdir / "fuzz.hodge.json"
    path.write_bytes(content)
    try:
        record = load_manifold(path)
    except InputError as exc:
        assert all(len(line) <= 200 for line in str(exc).splitlines())
        return
    assert isinstance(record, ManifoldRecord)


def run_cli(argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:  # --help and friends
            code = exc.code
    return code, stderr.getvalue()


MATRICES = (st.tuples(BIG_INTS, BIG_INTS, BIG_INTS, BIG_INTS).map(
    lambda m: "{},{};{},{}".format(*m))
    | st.sampled_from(["1,0;0,1", "2,1;1,1", "0,-1;1,0", "1,1;0,1", "1,0;0,2"])
    | st.text(max_size=12))
TOKENS = st.sampled_from([
    "chi", "strace", "verify", "decompose", "rw", "rr", "catalog",
    "--manifold", "--input", "--matrix", "--all-builtin", "--format", "--strict",
    "--n", "--c2", "--c2sq", "--c4", "text", "csv", "json", "-h", "--",
    *builtin_names(),
]) | st.text(max_size=10) | BIG_INTS.map(str)


@st.composite
def argvs(draw, path):
    """Arbitrary tokens, or a well-formed command line with fuzzed values."""
    if draw(st.booleans()):
        return draw(st.lists(TOKENS, max_size=8))
    command = draw(st.sampled_from(["chi", "strace", "verify", "decompose", "rw", "rr",
                                    "catalog"]))
    argv = [command]
    if command == "rr":
        argv += ["--n", str(draw(st.integers(-1, 4)))]
        for flag in draw(st.lists(st.sampled_from(["--c2", "--c2sq", "--c4"]),
                                  unique=True, max_size=3)):
            argv += [flag, str(draw(SMALL_INTS | BIG_INTS))]
    if command == "verify" and draw(st.booleans()):
        argv.append("--all-builtin")
    elif command != "catalog" and (command != "rr" or draw(st.booleans())):
        if draw(st.booleans()):
            argv += ["--manifold", draw(st.sampled_from(builtin_names()) | st.text(max_size=6))]
        else:
            argv += ["--input", path]
    if command == "rw" or command == "strace" and draw(st.booleans()):
        argv += ["--matrix", draw(MATRICES)]
    if draw(st.booleans()):
        argv.append("--strict")
    argv += ["--format", draw(st.sampled_from(["text", "csv", "json"]))]
    return argv


@settings(max_examples=75, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_cli_exits_0_1_or_2_without_a_traceback(workdir, data):
    path = workdir / "cli.hodge.json"
    path.write_bytes(data.draw(FILE_CONTENTS))
    argv = data.draw(argvs(str(path)))
    code, err = run_cli(argv)
    assert code in (0, 1, 2), (argv, code, err[:200])
    assert "Traceback" not in err
    lines = err.splitlines()
    # One error line, or a failed validation: its header, the listed
    # violations and the count of the rest.
    assert len(lines) <= MAX_LISTED + 2, (argv, len(lines))
    assert all(len(line) <= 200 for line in lines), (argv, max(map(len, lines)))
