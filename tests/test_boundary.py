"""The three rules of ``hkgenus.boundary``, and that no other module re-decides them.

Every value a caller hands in ends, when it is refused, in an ``InputError``
whose message quotes it in a short line: ints past ``3 * SHORT`` bits by their
size, anything else by its first ``SHORT`` characters and its length.
"""

import ast
from pathlib import Path

import pytest

from hkgenus import boundary, hodge
from hkgenus.catalog import builtin, goettsche_expand
from hkgenus.errors import InputError, ValidationError
from hkgenus.hodge import HodgeDiamond
from hkgenus.lefschetz import PrimitiveTable, primitive_multiplicities
from hkgenus.riemann_roch import ChernData, chi_minus_y_from_chern
from hkgenus.sl2 import SL2Element

SRC = Path(__file__).resolve().parent.parent / "src" / "hkgenus"
K3 = builtin("K3").diamond
HUGE = 10**5000  # past the interpreter's 4300-digit int-to-str limit
LONG = "x" * 10**6

HOSTILE_CALLS = {
    "goettsche-bigint": lambda: goettsche_expand(K3, HUGE),
    "goettsche-list-of-bigint": lambda: goettsche_expand(K3, [HUGE]),
    "primitive-n-bigint": lambda: PrimitiveTable(HUGE, ()),
    "primitive-n-negative-bigint": lambda: PrimitiveTable(-HUGE, ()),
    "primitive-entry-string": lambda: PrimitiveTable(1, ((1, 0, 1), (0, LONG, 0))),
    "primitive-entry-negative-bigint": lambda: PrimitiveTable(1, ((1, 0, 1), (0, -HUGE, 0))),
    "chern-n-bigint": lambda: ChernData(HUGE, {}),
    "chern-value-bigint-non-integral": lambda: chi_minus_y_from_chern(1, ChernData(1, {"c2": HUGE + 1})),
    "chern-key-long": lambda: ChernData(1, {LONG: 24}),
    "chern-key-million-factors": lambda: ChernData(1, {"c2" * 10**6: 24}),
    "chern-key-power-of-5000-digits": lambda: ChernData(1, {"c2^" + "9" * 5000: 24}),
    "chern-key-arabic-indic-digit": lambda: ChernData(1, {"c\u0662": 24}),
    "sl2-entry-string": lambda: SL2Element(LONG, 0, 0, 1),
    "diamond-asymmetric-bigint":
        lambda: HodgeDiamond(((1, 0, 1), (0, 20, 0), (HUGE, 0, 1))).require_valid(),
}


@pytest.mark.parametrize("kind", sorted(HOSTILE_CALLS))
def test_hostile_value_ends_in_a_short_input_error(kind):
    with pytest.raises(InputError) as info:
        HOSTILE_CALLS[kind]()
    assert all(len(line) <= 200 for line in str(info.value).splitlines())


def test_is_int_takes_exact_ints_only():
    assert boundary.is_int(0) and boundary.is_int(-HUGE)
    assert not any(map(boundary.is_int, (True, False, 1.0, "1", None, [1])))


def test_quote():
    quote = boundary.quote
    assert quote(-(2**180 - 1)) == str(-(2**180 - 1))
    assert quote(2**180) == "an integer of 181 bits"
    assert quote(True) == "True"
    assert quote("K3") == "'K3'"
    assert quote(LONG) == "'" + "x" * (boundary.SHORT - 1) + "... (1000002 characters)"
    assert quote([HUGE]) == "a value of type list"


def test_write_json_is_canonical(tmp_path):
    path = tmp_path / "out.json"
    boundary.write_json({"b": [1, 2], "a": HUGE % 1000}, path)
    assert path.read_text() == '{\n  "a": 0,\n  "b": [\n    1,\n    2\n  ]\n}\n'


def test_primitive_multiplicities_lists_a_bounded_number_of_violations():
    side = 2 * 10 + 1
    rows = tuple(tuple(int(q <= p) for q in range(side)) for p in range(side))
    with pytest.raises(ValidationError) as info:
        primitive_multiplicities(HodgeDiamond(rows))
    lines = str(info.value).splitlines()
    assert len(lines) == 1 + hodge.MAX_LISTED + 1
    assert lines[-1].startswith("  ... and ") and lines[-1].endswith(" more")


def _rule_breaks(path):
    """Calls ``isinstance(..., bool)``, a ``type=int`` keyword, ``repr(`` or
    ``!r`` inside a raise, ``json.dump(s)`` or ``json.load(s)``, and any
    ``import threading``, ``global`` statement or ``lru_cache``."""
    tree = ast.parse(path.read_text(), str(path))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Import) and any(a.name == "threading" for a in node.names)
                or isinstance(node, ast.ImportFrom) and node.module == "threading"):
            yield f"{path.name}:{node.lineno}: import threading; memos take no lock"
        if isinstance(node, ast.Global):
            yield f"{path.name}:{node.lineno}: global; use a functools.cache function"
        if (isinstance(node, ast.Name) and node.id == "lru_cache"
                or isinstance(node, ast.Attribute) and node.attr == "lru_cache"
                or isinstance(node, ast.alias) and node.name == "lru_cache"):
            yield f"{path.name}:{node.lineno}: lru_cache; use functools.cache"
        if (isinstance(node, ast.keyword) and node.arg == "type"
                and isinstance(node.value, ast.Name) and node.value.id == "int"
                and path.name != "boundary.py"):
            yield f"{path.name}:{node.value.lineno}: type=int; use boundary.parse_int"
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2
                and "bool" in {n.id for n in ast.walk(node.args[1]) if isinstance(n, ast.Name)}
                and path.name != "boundary.py"):
            yield f"{path.name}:{node.lineno}: isinstance(..., bool); use boundary.is_int"
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "json" and node.attr in ("dump", "dumps", "load", "loads")
                and path.name != "boundary.py"):
            yield f"{path.name}:{node.lineno}: json.{node.attr}; use boundary.json_text or read_json"
        if isinstance(node, ast.Raise) and node.exc is not None:
            for inner in ast.walk(node.exc):
                if (isinstance(inner, ast.Call) and isinstance(inner.func, ast.Name)
                        and inner.func.id == "repr"):
                    yield f"{path.name}:{inner.lineno}: repr( in a raise; use boundary.quote"
                if isinstance(inner, ast.FormattedValue) and inner.conversion == ord("r"):
                    yield f"{path.name}:{inner.lineno}: !r in a raise; use boundary.quote"


def test_only_boundary_decides_what_an_int_is_and_how_a_value_is_quoted():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 5
    breaks = [line for path in modules for line in _rule_breaks(path)]
    assert breaks == []


def test_rule_check_sees_each_kind_of_break(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(
        "def f(x):\n"
        "    if isinstance(x, (int, bool)):\n"
        "        raise ValueError(f'bad {x!r}')\n"
        "    raise ValueError('bad ' + repr(x))\n"
        "    parser.add_argument('--n', type=int)\n"
        "    return json.dumps(x, indent=2, sort_keys=True)\n"
        "import threading\n"
        "from functools import lru_cache\n"
        "@functools.lru_cache(maxsize=None)\n"
        "def g():\n"
        "    global TABLE\n")
    assert sorted(line.split(": ", 1)[0] for line in _rule_breaks(path)) == sorted(
        f"sample.py:{line}" for line in (2, 3, 4, 5, 6, 7, 8, 9, 11))
