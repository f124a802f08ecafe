"""Symbolic Riemann-Roch for paired Chern roots, at desk scale (n = 1, 2).

The holomorphic tangent bundle of a hyper-Kahler 4n-manifold has 2n Chern
roots that come in pairs {x_i, -x_i}, so odd Chern classes vanish and the
degree-2n Chern monomials in even classes form a tiny basis (n=1: {c2};
n=2: {c2^2, c4}).  This module expands

    Todd of the paired root set  *  prod_i ((1+y^2) - 2 y cosh x_i)

and, for the trace form,

    Todd of the paired root set  *  prod_i (t - 2 cosh x_i)

as truncated series in x_1..x_n with exact rational coefficients, extracts the
total-degree-2n part, rewrites it in the even-Chern basis, and evaluates it
against supplied Chern numbers.  The first pipeline yields chi_{-y} as a
polynomial in y, the second the graded-trace polynomial S(t); substituting
t = (1+y^2)/y and multiplying by y^n carries one into the other exactly.

Internally everything is a Fraction (Todd coefficients such as 1/12 are not
integers); an integrality assertion guards the boundary, since every genus
value is an integer and a non-integral result means inconsistent Chern data
or a pipeline bug.

Extension point: the series engine is generic in n, only the Chern monomial
bases below are enumerated per dimension.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping

from .boundary import parse_int, read_json, shorten
from .errors import InputError, InternalInconsistencyError
from .laurent import LaurentPolynomial

# x-exponent tuple -> {formal-variable exponent -> coefficient}
YDict = dict[int, Fraction]
Terms = dict[tuple[int, ...], YDict]

#: Degree-2n monomials in even Chern classes, per n.  Keys use the external
#: format (lowercase, caret for powers); parts list the class indices.
CHERN_BASES: dict[int, tuple[tuple[str, tuple[int, ...]], ...]] = {
    1: (("c2", (2,)),),
    2: (("c2^2", (2, 2)), ("c4", (4,))),
}

_KEY_RE = re.compile(r"^c(\d+)(?:\^(\d+))?$")


def _supported_n(n: int) -> int:
    if n not in CHERN_BASES:
        raise InputError(
            f"unsupported n = {n!r}; Chern monomial bases are available for "
            f"n in {sorted(CHERN_BASES)}")
    return n


def parse_monomial_key(key: str) -> tuple[int, ...]:
    """Parse a Chern monomial key like "c2^2" into its class parts (2, 2)."""
    m = _KEY_RE.match(key.strip().lower())
    if not m:
        raise InputError(f"malformed Chern monomial key {shorten(repr(key))}")
    index = parse_int(m.group(1), "Chern class index")
    power = parse_int(m.group(2), "monomial power") if m.group(2) else 1
    if index % 2 != 0 or index < 2:
        raise InputError(
            "only even Chern classes c2, c4, ... appear for paired roots; "
            f"got {shorten(repr(key))}")
    if power < 1:
        raise InputError(f"monomial power must be positive in {shorten(repr(key))}")
    return (index,) * power


@dataclass(frozen=True)
class ChernData:
    """Formal Chern-number assignment for the degree-2n evaluation."""

    n: int
    values: Mapping[str, int]

    def __post_init__(self):
        _supported_n(self.n)
        basis_keys = {key for key, _ in CHERN_BASES[self.n]}
        cleaned: dict[str, int] = {}
        for raw_key, value in dict(self.values).items():
            key = raw_key.strip().lower().replace(" ", "")
            parts = parse_monomial_key(key)
            if sum(parts) != 2 * self.n:
                raise InputError(
                    f"monomial {shorten(repr(key))} has degree {sum(parts)}, "
                    f"expected {2 * self.n}")
            if key not in basis_keys:
                raise InputError(f"unknown Chern monomial {shorten(repr(key))} for n = {self.n}")
            if not isinstance(value, int) or isinstance(value, bool):
                raise InputError(f"Chern number for {key!r} must be an integer")
            cleaned[key] = value
        object.__setattr__(self, "values", cleaned)

    def value(self, key: str) -> int:
        if key not in self.values:
            raise InputError(f"Chern monomial {key!r} missing from data for n = {self.n}")
        return self.values[key]

    def to_json_dict(self) -> dict:
        return {"n": self.n, "chern": {k: self.values[k] for k in sorted(self.values)}}

    @classmethod
    def from_json_dict(cls, obj) -> "ChernData":
        if not isinstance(obj, dict) or "n" not in obj or "chern" not in obj:
            raise InputError('Chern data must be an object {"n": ..., "chern": {...}}')
        if not isinstance(obj["chern"], dict):
            raise InputError('"chern" must map monomial keys to integers')
        return cls(obj["n"], obj["chern"])


def load_chern_data(path) -> ChernData:
    return ChernData.from_json_dict(read_json(path))


def save_chern_data(data: ChernData, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data.to_json_dict(), handle, indent=2, sort_keys=True)
        handle.write("\n")


# -- exact series plumbing ---------------------------------------------------

def _ydict_iadd(acc: YDict, other: YDict, scale: Fraction = Fraction(1)) -> None:
    for e, c in other.items():
        value = acc.get(e, Fraction(0)) + c * scale
        if value:
            acc[e] = value
        elif e in acc:
            del acc[e]


def _ydict_mul(a: YDict, b: YDict) -> YDict:
    out: YDict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = e1 + e2
            value = out.get(e, Fraction(0)) + c1 * c2
            if value:
                out[e] = value
            elif e in out:
                del out[e]
    return out


def _series_mul(a: Terms, b: Terms, cap: int) -> Terms:
    out: Terms = {}
    for e1, y1 in a.items():
        for e2, y2 in b.items():
            e = tuple(u + v for u, v in zip(e1, e2))
            if sum(e) > cap:
                continue
            acc = out.setdefault(e, {})
            _ydict_iadd(acc, _ydict_mul(y1, y2))
    return {e: yd for e, yd in out.items() if yd}


def _inverse_1d(g: list[Fraction]) -> list[Fraction]:
    # Reciprocal of a power series with constant term 1, same truncation.
    assert g[0] == 1
    h = [Fraction(1)] + [Fraction(0)] * (len(g) - 1)
    for k in range(1, len(g)):
        h[k] = -sum(g[j] * h[k - j] for j in range(1, k + 1))
    return h


def _todd_factor_1d(order: int) -> list[Fraction]:
    # x / (1 - e^{-x}) = 1 / g(x) with g = sum_k (-x)^k / (k+1)!.
    g = [Fraction((-1) ** k, math.factorial(k + 1)) for k in range(order + 1)]
    return _inverse_1d(g)


def _cosh_1d(order: int) -> list[Fraction]:
    return [Fraction(1, math.factorial(k)) if k % 2 == 0 else Fraction(0)
            for k in range(order + 1)]


def _embed_1d(coeffs: list[Fraction], index: int, n: int, cap: int,
              negated: bool = False) -> Terms:
    """Lift a series in one root to a Terms dict in x_1..x_n (y-free)."""
    out: Terms = {}
    for k, c in enumerate(coeffs):
        if k > cap or c == 0:
            continue
        if negated and k % 2 == 1:
            c = -c
        exps = tuple(k if i == index else 0 for i in range(n))
        out[exps] = {0: c}
    return out


class RootSeries:
    """A truncated series in the independent roots x_1..x_n.

    Coefficients are polynomials in one formal variable (y or t) with exact
    rational entries; the truncation keeps total x-degree at most 2n, which is
    all that ever contributes to the degree-matching evaluation.
    """

    __slots__ = ("n", "_terms")

    def __init__(self, n: int, terms: Terms):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_terms", {
            e: dict(yd) for e, yd in terms.items() if yd and sum(e) <= 2 * n
        })

    def __setattr__(self, name, value):
        raise AttributeError("RootSeries is immutable")

    def terms(self) -> Iterator[tuple[tuple[int, ...], YDict]]:
        return iter(sorted((e, dict(yd)) for e, yd in self._terms.items()))

    def coefficient(self, exponents) -> YDict:
        return dict(self._terms.get(tuple(exponents), {}))

    def degree_part(self, total: int) -> Terms:
        return {e: dict(yd) for e, yd in self._terms.items() if sum(e) == total}

    def __mul__(self, other: "RootSeries") -> "RootSeries":
        if self.n != other.n:
            raise ValueError("root count mismatch")
        return RootSeries(self.n, _series_mul(self._terms, other._terms, 2 * self.n))

    def top_in_chern_basis(self) -> dict[str, YDict]:
        """Rewrite the total-degree-2n part in the even-Chern monomial basis."""
        return _reduce_to_chern(self.degree_part(2 * self.n), self.n)


def todd_series(n: int) -> RootSeries:
    """The Todd class of the paired root set {x_i, -x_i}, to total degree 2n.

    Computed directly as the product over all 2n roots of the series
    x/(1 - e^{-x}), with no closed form assumed; the pair {x, -x} makes the
    result even in every variable.
    """
    _supported_n(n)
    cap = 2 * n
    factor = _todd_factor_1d(cap)
    product: Terms = {(0,) * n: {0: Fraction(1)}}
    for i in range(n):
        product = _series_mul(product, _embed_1d(factor, i, n, cap), cap)
        product = _series_mul(product, _embed_1d(factor, i, n, cap, negated=True), cap)
    return RootSeries(n, product)


# -- Chern-basis reduction ---------------------------------------------------

def _paired_elementary(n: int, k: int) -> dict[tuple[int, ...], Fraction]:
    """e_k of the 2n paired roots, as an exact polynomial in x_1..x_n."""
    roots = [(i, 1) for i in range(n)] + [(i, -1) for i in range(n)]
    out: dict[tuple[int, ...], Fraction] = {}
    for combo in itertools.combinations(roots, k):
        exps = [0] * n
        sign = 1
        for i, s in combo:
            exps[i] += 1
            sign *= s
        key = tuple(exps)
        out[key] = out.get(key, Fraction(0)) + sign
    return {e: c for e, c in out.items() if c}


@functools.lru_cache(maxsize=None)
def _chern_expansions(n: int) -> tuple[tuple[str, tuple[tuple[tuple[int, ...], Fraction], ...]], ...]:
    """Each degree-2n Chern monomial expanded into x-monomials."""
    expansions = []
    for key, parts in CHERN_BASES[n]:
        poly: dict[tuple[int, ...], Fraction] = {(0,) * n: Fraction(1)}
        for part in parts:
            factor = _paired_elementary(n, part)
            out: dict[tuple[int, ...], Fraction] = {}
            for e1, c1 in poly.items():
                for e2, c2 in factor.items():
                    e = tuple(u + v for u, v in zip(e1, e2))
                    out[e] = out.get(e, Fraction(0)) + c1 * c2
            poly = {e: c for e, c in out.items() if c}
        expansions.append((key, tuple(sorted(poly.items()))))
    return tuple(expansions)


def _reduce_to_chern(top: Terms, n: int) -> dict[str, YDict]:
    """Solve top = sum_k alpha_k * expansion_k exactly, alpha_k polynomial.

    The paired roots force every contributing x-monomial to have all-even
    exponents; a stray odd exponent, or an unsolvable system, is a pipeline
    bug rather than a data problem.
    """
    for exps in top:
        if any(e % 2 for e in exps):
            raise InternalInconsistencyError(
                f"odd-degree monomial {exps} survived the paired-root cancellation")
    expansions = _chern_expansions(n)
    monomials = sorted(set(top) | {e for _, poly in expansions for e, _ in poly})
    # Rows: one per x-monomial.  Columns: one per Chern basis element.
    matrix = [[dict(poly).get(m, Fraction(0)) for _, poly in expansions]
              for m in monomials]
    rhs: list[YDict] = [dict(top.get(m, {})) for m in monomials]
    n_unknowns = len(expansions)
    solution: list[YDict | None] = [None] * n_unknowns
    row = 0
    for col in range(n_unknowns):
        pivot = next((r for r in range(row, len(matrix)) if matrix[r][col]), None)
        if pivot is None:
            raise InternalInconsistencyError("Chern basis expansions are degenerate")
        matrix[row], matrix[pivot] = matrix[pivot], matrix[row]
        rhs[row], rhs[pivot] = rhs[pivot], rhs[row]
        inv = 1 / matrix[row][col]
        matrix[row] = [v * inv for v in matrix[row]]
        scaled: YDict = {}
        _ydict_iadd(scaled, rhs[row], inv)
        rhs[row] = scaled
        for r in range(len(matrix)):
            if r != row and matrix[r][col]:
                factor = matrix[r][col]
                matrix[r] = [v - factor * w for v, w in zip(matrix[r], matrix[row])]
                _ydict_iadd(rhs[r], rhs[row], -factor)
        row += 1
    for r in range(row, len(matrix)):
        if any(matrix[r]) or rhs[r]:
            raise InternalInconsistencyError(
                "top-degree part does not lie in the even-Chern span")
    # Back-substitution is already complete (full reduction above).
    for col in range(n_unknowns):
        solution[col] = rhs[col]
    return {key: dict(solution[i]) for i, (key, _) in enumerate(expansions)}


# -- the two integrands ------------------------------------------------------

def _genus_factor(i: int, n: int) -> Terms:
    """((1 + y^2) - 2 y cosh x_i) as a Terms dict."""
    cap = 2 * n
    out: Terms = {}
    for k, c in enumerate(_cosh_1d(cap)):
        if c == 0:
            continue
        exps = tuple(k if j == i else 0 for j in range(n))
        if k == 0:
            out[exps] = {0: Fraction(1), 1: Fraction(-2), 2: Fraction(1)}
        else:
            out[exps] = {1: -2 * c}
    return out


def _trace_factor(i: int, n: int) -> Terms:
    """(t - 2 cosh x_i) as a Terms dict."""
    cap = 2 * n
    out: Terms = {}
    for k, c in enumerate(_cosh_1d(cap)):
        if c == 0:
            continue
        exps = tuple(k if j == i else 0 for j in range(n))
        if k == 0:
            out[exps] = {1: Fraction(1), 0: Fraction(-2)}
        else:
            out[exps] = {0: -2 * c}
    return out


@functools.lru_cache(maxsize=None)
def _symbolic_coefficients(n: int, kind: str) -> tuple[tuple[str, tuple[tuple[int, Fraction], ...]], ...]:
    _supported_n(n)
    cap = 2 * n
    build = _genus_factor if kind == "genus" else _trace_factor
    product = dict(todd_series(n).terms())
    for i in range(n):
        product = _series_mul(product, build(i, n), cap)
    top = {e: yd for e, yd in product.items() if sum(e) == cap}
    reduced = _reduce_to_chern(top, n)
    return tuple(
        (key, tuple(sorted(reduced.get(key, {}).items())))
        for key, _ in CHERN_BASES[n]
    )


def chi_minus_y_chern_coefficients(n: int) -> dict[str, YDict]:
    """Per-Chern-monomial polynomials in y whose weighted sum is chi_{-y}.

    Exposed so callers can solve for unknown Chern numbers against a known
    genus (this is how the fourfold's c2^2 regression constant was derived).
    """
    return {key: dict(poly) for key, poly in _symbolic_coefficients(n, "genus")}


def supertrace_chern_coefficients(n: int) -> dict[str, YDict]:
    """Per-Chern-monomial polynomials in t whose weighted sum is S(t)."""
    return {key: dict(poly) for key, poly in _symbolic_coefficients(n, "trace")}


def _evaluate(coefficients: dict[str, YDict], data: ChernData) -> LaurentPolynomial:
    total: YDict = {}
    for key, poly in coefficients.items():
        _ydict_iadd(total, poly, Fraction(data.value(key)))
    bad = {e: c for e, c in total.items() if c.denominator != 1}
    if bad:
        raise InputError(
            "non-integral genus coefficients (inconsistent Chern data?): "
            + ", ".join(f"exp {e}: {c}" for e, c in sorted(bad.items())))
    return LaurentPolynomial({e: int(c) for e, c in total.items()})


def chi_minus_y_from_chern(n: int, data: ChernData) -> LaurentPolynomial:
    """chi_{-y} as a polynomial in y, evaluated from Chern numbers.

    Must agree with the Hodge-side chi_y under y -> -y whenever the Chern
    data and the diamond describe the same manifold.
    """
    _supported_n(n)
    if data.n != n:
        raise InputError(f"Chern data is for n = {data.n}, requested n = {n}")
    return _evaluate(chi_minus_y_chern_coefficients(n), data)


def supertrace_from_chern(n: int, data: ChernData) -> LaurentPolynomial:
    """The graded-trace polynomial S(t), degree n, from Chern numbers."""
    _supported_n(n)
    if data.n != n:
        raise InputError(f"Chern data is for n = {data.n}, requested n = {n}")
    return _evaluate(supertrace_chern_coefficients(n), data)
