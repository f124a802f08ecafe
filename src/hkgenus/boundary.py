"""The input boundary: values that come from outside, and the rules for them.

``is_int`` says what counts as an integer, ``int_rows``, ``is_int_table`` and
``check_int_row`` what a table of integer rows is, ``expect`` and ``expect_int``
that a library argument has the type its call needs, ``quote`` how a caller's
value enters an error message (an int past ``3 * SHORT`` bits by its size, a
string by the ``repr`` of its first ``SHORT`` characters and its length, else
its ``repr``, cut to ``SHORT`` characters and "..." when longer and built only
that far into a list, tuple, dict, NamedTuple or ``Frozen`` value), ``json_text``
what canonical JSON is: ``write_json`` writes it to a file and the CLI prints it.
The limits on what comes in:

* a file is named by a str or os.PathLike path, never by a descriptor;
* a JSON file holds at most ``MAX_INPUT_CHARS`` characters of UTF-8 text;
* an integer has at most as many decimal digits as the interpreter converts
  (``sys.get_int_max_str_digits()``, 4300 by default);
* JSON nesting deeper than the interpreter's recursion limit is refused;
* a key given twice in one JSON object is refused.

Results obey the same digit limit on the way out: the interpreter refuses to
write a longer integer as text, and ``is_digit_limit_error`` recognizes that
refusal so the CLI can report it as an input error.
"""

from __future__ import annotations

import os
import sys
from itertools import chain

from .errors import InputError

MAX_INPUT_CHARS = 16 * 2**20
SHORT = 60


class Frozen:
    """A value checked when built and immutable after: ``__init__`` stores the ``_fields``
    in ``vars(self)``; ``repr``, ``==`` and ``hash`` read them; setting or deleting raises.

    A subclass may override ``_key()``, the tuple ``==`` and ``hash`` compare.  All
    state lives in ``vars(self)``, so ``pickle`` and ``copy`` rebuild a value as it was;
    this class is the one place that defines ``__setattr__`` or ``__delattr__``.  What a
    value derives from its fields it keeps through ``_kept``, outside the fields."""

    _fields: tuple[str, ...] = ()

    def _kept(self, key: str, build):
        """``vars(self)[key]``, set to ``build(self)`` once; a raising ``build`` stores nothing."""
        stored = vars(self)
        if key not in stored:
            stored[key] = build(self)
        return stored[key]

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {quote(name)}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {quote(name)}")


def shorten(text: str, limit: int = SHORT) -> str:
    """``text`` itself when short, else its first ``limit`` characters and its length."""
    if len(text) <= limit:
        return text
    return f"{text[:limit]}... ({len(text)} characters)"


def is_int(value) -> bool:
    """Whether ``value`` is an exact ``int``; bool is an int subclass, but True is not 1."""
    return isinstance(value, int) and not isinstance(value, bool)


def quote(value) -> str:
    """A caller's value as an error message shows it, in at most a short line."""
    if is_int(value) and value.bit_length() > 3 * SHORT:  # else its repr fits
        return f"an integer of {value.bit_length()} bits"
    if isinstance(value, str):  # repr only the part shown; count the value's characters
        text = repr(value[:SHORT])
        return text if len(text) <= SHORT else f"{text[:SHORT]}... ({len(value)} characters)"
    try:
        text = ""
        for piece in _repr_pieces(value, set()):
            text += piece
            if len(text) > SHORT:  # what follows would not be shown
                return text[:SHORT] + "..."
        return text
    except Exception:  # repr itself can fail: on a list of too long ints, say
        return shorten(f"a value of type {type(value).__name__}")


def _repr_pieces(value, open_ids: set):
    """``repr(value)`` piece by piece, so that the reader can stop early: a list,
    tuple or dict a bracket, separator or item at a time, a ``Frozen`` value with
    ``Frozen.__repr__`` or a NamedTuple its name and then a field at a time, a str
    in one by the repr of its first ``SHORT`` characters."""
    kind = type(value)
    if kind.__repr__ is Frozen.__repr__ or (isinstance(value, tuple) and hasattr(kind, "_fields")):
        yield (kind.__qualname__ if isinstance(value, Frozen) else kind.__name__) + "("
        for i, name in enumerate(kind._fields):
            yield f"{', ' if i else ''}{name}="
            yield from _repr_pieces(getattr(value, name), open_ids)
        yield ")"
        return
    if kind not in (list, tuple, dict):
        yield repr(value[:SHORT] if kind is str else value)
        return
    left, right = {list: "[]", tuple: "()", dict: "{}"}[kind]
    if id(value) in open_ids:  # a container inside itself, as repr shows it
        yield left + "..." + right
        return
    open_ids.add(id(value))
    yield left
    for i, item in enumerate(value.items() if kind is dict else value):
        yield ", " if i else ""
        if kind is dict:
            yield from _repr_pieces(item[0], open_ids)
            yield ": "
            item = item[1]
        yield from _repr_pieces(item, open_ids)
    open_ids.discard(id(value))
    yield ",)" if kind is tuple and len(value) == 1 else right


def int_rows(rows) -> tuple[tuple, ...]:
    """``rows`` as a tuple of tuples, or an InputError if it is not a sequence of sequences."""
    try:
        return tuple(map(tuple, rows))
    except TypeError:
        raise InputError(f"expected a sequence of rows, got {quote(rows)}") from None


def is_int_table(rows, width: int) -> bool:
    """Whether every row has length ``width`` and holds only values of type ``int``."""
    return ({width}.issuperset(map(len, rows))
            and {int}.issuperset(map(type, chain.from_iterable(rows))))


def check_int_row(p: int, row: tuple, width: int) -> None:
    """An InputError unless row ``p`` of a table holds exactly ``width`` exact ints."""
    if len(row) != width:
        raise InputError(f"row {p} has length {len(row)}, expected {width}")
    if set(map(type, row)) != {int}:  # exact ints need no closer look
        for q, value in enumerate(row):
            if not is_int(value):
                raise InputError(f"entry ({p}, {q}) is not an integer: {quote(value)}")


def expect(value, kind: type):
    """``value`` if it is an instance of ``kind``, else an InputError that quotes it."""
    if not isinstance(value, kind):
        raise InputError(f"expected a {kind.__name__}, got {quote(value)}")
    return value


def expect_int(value, error: type[Exception] = InputError) -> int:
    """``value`` if ``is_int(value)``, else an ``error`` (an InputError) that quotes it."""
    if not is_int(value):
        raise error(f"expected an integer, got {quote(value)}")
    return value


def digit_limit() -> int:
    """Decimal digits the interpreter converts between str and int (0: no limit)."""
    getter = getattr(sys, "get_int_max_str_digits", None)
    return getter() if getter else 0


def is_digit_limit_error(exc: ValueError) -> bool:
    """Whether ``exc`` is the interpreter refusing to write an over-long int as text."""
    return "integer string conversion" in str(exc)


def parse_int(text: str, what: str) -> int:
    """Parse a decimal integer; ``what`` names it in the error message."""
    try:
        return int(text)
    except ValueError:
        digits = text.strip().lstrip("+-").replace("_", "")
        limit = digit_limit()
        if digits.isdigit() and limit and len(digits) > limit:
            raise InputError(
                f"{what} has {len(digits)} digits; at most {limit} are accepted") from None
        raise InputError(f"{what} {quote(text)} is not an integer") from None


def _file_path(path):
    """``path`` if it is a str or os.PathLike; ``open`` would take an int as a descriptor."""
    if not isinstance(path, (str, os.PathLike)):
        raise InputError(f"a file path must be a string or os.PathLike, got {quote(path)}")
    return path


def read_json(path):
    """Read and decode one JSON document from a UTF-8 file."""
    import json
    from collections import Counter

    where = shorten(str(_file_path(path)))
    with open(path, "r", encoding="utf-8") as handle:
        try:
            text = handle.read(MAX_INPUT_CHARS + 1)
        except UnicodeDecodeError:
            raise InputError(f"{where}: not UTF-8 text") from None
    if len(text) > MAX_INPUT_CHARS:
        raise InputError(f"{where}: more than {MAX_INPUT_CHARS} characters")

    def unique_keys(pairs):
        obj = dict(pairs)
        if len(obj) < len(pairs):
            repeated = next(key for key, count in Counter(k for k, _ in pairs).items() if count > 1)
            raise InputError(f"{where}: key {quote(repeated)} appears more than once in an object")
        return obj
    try:
        return json.loads(text, object_pairs_hook=unique_keys)
    except json.JSONDecodeError as exc:
        raise InputError(
            f"{where}: parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    except ValueError:
        # The only other ValueError json raises: an integer literal past the
        # interpreter's str-to-int digit limit.
        raise InputError(
            f"{where}: an integer has more than {digit_limit()} digits") from None
    except RecursionError:
        raise InputError(f"{where}: arrays or objects nested too deeply") from None


def json_text(obj) -> str:
    """``obj`` as canonical JSON: sorted keys, two-space indent, no final newline."""
    import json

    return json.dumps(obj, indent=2, sort_keys=True)


def write_json(obj, path) -> None:
    """Write ``json_text(obj)`` and a final newline."""
    with open(_file_path(path), "w", encoding="utf-8") as handle:
        handle.write(json_text(obj) + "\n")
