"""Truncated multivariate power series with exact integer coefficients.

The reference engine for the catalog generating function: a sparse map from
exponent tuples to big integers, with a hard per-variable truncation order.
``catalog.goettsche_expand`` does not use it; the tests multiply Goettsche's
product out with it and require the same diamonds.  Terms that
exceed any variable's order are discarded deterministically during every
operation, so multiplication is closed under truncation.  All exponents are
nonnegative (this is a power series ring, not a Laurent ring).
"""

from __future__ import annotations

import math
from typing import Iterator, Mapping

from .boundary import Frozen, is_int, quote
from .errors import InputError

Exponents = tuple[int, ...]


class TruncatedSeries(Frozen):
    """A truncated power series in named variables.

    Two series are compatible (and comparable) only when they share the same
    variable list and truncation orders.
    """

    def __init__(
        self,
        variables: tuple[str, ...],
        limits: tuple[int, ...],
        terms: Mapping[Exponents, int] = (),
    ):
        variables = tuple(variables)
        limits = tuple(limits)
        if len(variables) != len(limits):
            raise ValueError("one truncation order per variable required")
        if len(set(variables)) != len(variables):
            raise ValueError("variable names must be distinct")
        if any(l < 0 for l in limits):
            raise ValueError("truncation orders must be nonnegative")
        cleaned: dict[Exponents, int] = {}
        for exps, coeff in dict(terms).items():
            exps = tuple(exps)
            if len(exps) != len(variables):
                raise ValueError(f"exponent tuple {quote(exps)} has wrong arity")
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {quote(exps)}")
            if not is_int(coeff):
                raise TypeError(f"integer coefficient required, got {quote(coeff)}")
            if coeff != 0 and all(e <= l for e, l in zip(exps, limits)):
                cleaned[exps] = cleaned.get(exps, 0) + coeff
        cleaned = {e: c for e, c in cleaned.items() if c != 0}
        vars(self).update(variables=variables, limits=limits, _terms=cleaned,
                          _items=tuple(sorted(cleaned.items())))

    def _key(self) -> tuple:
        return (self.variables, self.limits, self._items)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, variables, limits) -> "TruncatedSeries":
        return cls(variables, limits)

    @classmethod
    def one(cls, variables, limits) -> "TruncatedSeries":
        return cls(variables, limits, {(0,) * len(tuple(variables)): 1})

    @classmethod
    def monomial(cls, variables, limits, coefficient: int, exponents) -> "TruncatedSeries":
        return cls(variables, limits, {tuple(exponents): coefficient})

    # -- inspection --------------------------------------------------------

    def coefficient(self, exponents) -> int:
        return self._terms.get(tuple(exponents), 0)

    def terms(self) -> Iterator[tuple[Exponents, int]]:
        """Yield (exponents, coefficient) pairs in sorted exponent order."""
        return iter(self._items)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __repr__(self) -> str:
        return (
            f"TruncatedSeries({self.variables!r}, {self.limits!r}, "
            f"{dict(self._items)!r})"
        )

    def _require_compatible(self, other: "TruncatedSeries"):
        if self.variables != other.variables or self.limits != other.limits:
            raise ValueError("incompatible series (variables or orders differ)")

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._require_compatible(other)
        out = dict(self._terms)
        for e, c in other._terms.items():
            out[e] = out.get(e, 0) + c
        return TruncatedSeries(self.variables, self.limits, out)

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries(
            self.variables, self.limits, {e: -c for e, c in self._terms.items()}
        )

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return self + (-other)

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._require_compatible(other)
        limits = self.limits
        out: dict[Exponents, int] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                if any(x > l for x, l in zip(e, limits)):
                    continue
                out[e] = out.get(e, 0) + c1 * c2
        return TruncatedSeries(self.variables, limits, out)

    # -- restriction and specialization --------------------------------------

    def extract(self, var: str, order: int) -> "TruncatedSeries":
        """Coefficient of var^order, as a series in the remaining variables."""
        i = self.variables.index(var)
        rest_vars = self.variables[:i] + self.variables[i + 1:]
        rest_limits = self.limits[:i] + self.limits[i + 1:]
        out: dict[Exponents, int] = {}
        for e, c in self._terms.items():
            if e[i] == order:
                out[e[:i] + e[i + 1:]] = c
        return TruncatedSeries(rest_vars, rest_limits, out)

    def substitute_int(self, var: str, value: int) -> "TruncatedSeries":
        """Specialize one variable to an integer value, exactly."""
        i = self.variables.index(var)
        rest_vars = self.variables[:i] + self.variables[i + 1:]
        rest_limits = self.limits[:i] + self.limits[i + 1:]
        out: dict[Exponents, int] = {}
        for e, c in self._terms.items():
            reduced = e[:i] + e[i + 1:]
            out[reduced] = out.get(reduced, 0) + c * value ** e[i]
        return TruncatedSeries(rest_vars, rest_limits, out)


def binomial_expand(base: TruncatedSeries, exponent: int) -> TruncatedSeries:
    """Expand (1 - m)^exponent for a single monomial m, truncated.

    ``base`` must consist of exactly the constant term 1 and one further
    monomial of positive total degree (whose coefficient may be any nonzero
    integer, so both 1 - m and 1 + m shapes are accepted).  For negative
    exponents this is the generalized binomial series, whose coefficients in
    powers of m are all positive.
    """
    terms = dict(base.terms())
    zero = (0,) * len(base.variables)
    if terms.get(zero) != 1 or len(terms) != 2:
        raise InputError("base must have the form 1 - m for a single monomial m")
    ((exps, coeff),) = ((e, c) for e, c in terms.items() if e != zero)
    if sum(exps) == 0:
        raise InputError("the monomial m must have positive total degree")
    # base = 1 + u with u = coeff * X^exps; expand (1 + u)^exponent.
    max_k = min(l // e for e, l in zip(exps, base.limits) if e > 0)
    if exponent >= 0:
        max_k = min(max_k, exponent)
    out: dict[Exponents, int] = {}
    for k in range(max_k + 1):
        if exponent >= 0:
            binom = math.comb(exponent, k)
        else:
            binom = (-1) ** k * math.comb(-exponent + k - 1, k)
        out[tuple(k * e for e in exps)] = binom * coeff**k
    return TruncatedSeries(base.variables, base.limits, out)
