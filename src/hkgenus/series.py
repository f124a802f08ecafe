"""Truncated multivariate power series with exact integer coefficients.

No CLI command, demo or library function runs this module: the benchmark
tracer (``bench/tracer.py``) still wraps ``TruncatedSeries.__init__`` and
``__mul__`` and reads ``terms()`` and ``limits``, so it stays, with only
what the tracer reads, until the tracer's series hooks are removed.  A
series is a sparse map from exponent tuples to big integers, with a hard
per-variable truncation order.  Terms that exceed any variable's order are
discarded during construction and multiplication, so multiplication is
closed under truncation.  All exponents are nonnegative (this is a power
series ring, not a Laurent ring).
"""

from __future__ import annotations

from typing import Iterator, Mapping

from .boundary import Frozen, is_int, quote

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

    def terms(self) -> Iterator[tuple[Exponents, int]]:
        """Yield (exponents, coefficient) pairs in sorted exponent order."""
        return iter(self._items)

    def __repr__(self) -> str:
        return (
            f"TruncatedSeries({self.variables!r}, {self.limits!r}, "
            f"{dict(self._items)!r})"
        )

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if self.variables != other.variables or self.limits != other.limits:
            raise ValueError("incompatible series (variables or orders differ)")
        limits = self.limits
        out: dict[Exponents, int] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                if any(x > l for x, l in zip(e, limits)):
                    continue
                out[e] = out.get(e, 0) + c1 * c2
        return TruncatedSeries(self.variables, limits, out)
