"""The three rules of ``hkgenus.boundary``, and that no other module re-decides them.

Every value a caller hands in ends, when it is refused, in an ``InputError``
whose message quotes it in a short line: ints past ``3 * SHORT`` bits by their
size, strings by their first ``SHORT`` characters and their length, anything
else by its repr, cut after ``SHORT`` characters.
"""

import ast
import tracemalloc
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
    "goettsche-base-named-by-a-list":
        lambda: goettsche_expand(HodgeDiamond(K3.rows, name=[LONG]), 2),
    "diamond-name-int": lambda: HodgeDiamond(K3.rows, name=5),
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
    assert quote(LONG) == "'" + "x" * (boundary.SHORT - 1) + "... (1000000 characters)"
    assert quote("\x00" * 1000) == "'" + "\\x00" * 14 + "\\x0... (1000 characters)"
    assert quote([HUGE]) == "a value of type list"


def _self_containing():
    items, table = [], {}
    items.append(items)
    table["self"] = table
    return [items, table, (items,)]


SHORT_REPRS = [
    [], (), {}, (1,), [1, (2, 3)], {"b": 1, "a": [None, True, 1.5]}, ["x'y", 'a"b', "\x00"],
    [-(2**170)], ["x" * 56], list(range(15)), {(1, 2): "v"}, {2, 1}, frozenset({3}), 0.1, None,
] + _self_containing()


@pytest.mark.parametrize("value", SHORT_REPRS, ids=repr)
def test_a_value_whose_repr_is_short_is_quoted_by_its_repr(value):
    assert len(repr(value)) <= boundary.SHORT
    assert boundary.quote(value) == repr(value)


@pytest.mark.parametrize("value", [["x" * 57], list(range(21)), {"k": ["v" * 100]},
                                   [[[[0] * 9] * 9] * 9] * 9, [[(1,)] * 30, {}]])
def test_a_long_container_is_quoted_by_the_head_of_its_repr(value):
    assert boundary.quote(value) == repr(value)[:boundary.SHORT] + "..."


def test_quoting_a_container_costs_only_what_is_shown():
    value = ["x" * 2**24]
    tracemalloc.start()
    try:
        text = boundary.quote(value)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text == "['" + "x" * (boundary.SHORT - 2) + "..."
    assert peak < 2**20


def test_a_long_chern_key_is_quoted_by_its_own_length():
    with pytest.raises(InputError, match=r"'c{59}\.\.\. \(16777216 characters\) for n = 1"):
        ChernData(1, {"c" * 2**24: 24})


@pytest.mark.parametrize("text, key", [
    ('{"n": 1, "chern": {"c2": 999, "c2": 24}}', "c2"),
    ('{"hodge": [[1]], "n": 1, "hodge": [[2]]}', "hodge"),
    ('[{"a": 1}, {"b": [{"x": 1, "%s": 2, "%s": 3}]}]' % ("k" * 100, "k" * 100), "k" * 100),
])
def test_read_json_refuses_a_key_given_twice_in_one_object(tmp_path, text, key):
    path = tmp_path / "twice.json"
    path.write_text(text)
    with pytest.raises(InputError) as info:
        boundary.read_json(path)
    assert str(info.value) == (
        f"{boundary.shorten(str(path))}: key {boundary.quote(key)} appears more than once "
        "in an object")
    # The same key in two different objects, and keys equal up to case, are fine.
    path.write_text('[{"c2": 1, "C2": 2}, {"c2": 3}]')
    assert boundary.read_json(path) == [{"c2": 1, "C2": 2}, {"c2": 3}]


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
    ``import threading``, ``global`` statement or ``lru_cache``; outside
    ``boundary.py`` also a class's ``__slots__``, a ``def __setattr__`` or
    ``__delattr__``, and ``object.__setattr__(...)``: ``Frozen`` is the one
    way to be an immutable value."""
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
        if isinstance(node, ast.ClassDef) and path.name != "boundary.py":
            for statement in node.body:
                targets = (statement.targets if isinstance(statement, ast.Assign)
                           else [statement.target] if isinstance(statement, ast.AnnAssign) else [])
                if any(isinstance(t, ast.Name) and t.id == "__slots__" for t in targets):
                    yield f"{path.name}:{statement.lineno}: __slots__; use boundary.Frozen"
        if (isinstance(node, ast.FunctionDef) and node.name in ("__setattr__", "__delattr__")
                and path.name != "boundary.py"):
            yield f"{path.name}:{node.lineno}: def {node.name}; use boundary.Frozen"
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "__setattr__" and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "object" and path.name != "boundary.py"):
            yield f"{path.name}:{node.lineno}: object.__setattr__; use boundary.Frozen"
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
        "    global TABLE\n"
        "class Value:\n"
        "    __slots__ = ('x',)\n"
        "    def __setattr__(self, name, value):\n"
        "        object.__setattr__(self, name, value)\n"
        "    def __delattr__(self, name):\n"
        "        pass\n")
    assert sorted(line.split(": ", 1)[0] for line in _rule_breaks(path)) == sorted(
        f"sample.py:{line}" for line in (2, 3, 4, 5, 6, 7, 8, 9, 11, 13, 14, 15, 16))
