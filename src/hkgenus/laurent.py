"""Exact univariate Laurent polynomials over Python's big integers.

A Laurent polynomial is a finite sum of terms c * v^k where the exponent k may
be any integer, positive or negative.  Coefficients are plain ``int`` (so
arbitrary precision comes for free) and no floating point is used anywhere.

Values are immutable and canonical: zero coefficients are never stored, the
zero polynomial has an empty coefficient map, and equality is coefficient-map
equality.  That makes every identity check in this package an exact,
zero-tolerance comparison.

The variable is anonymous; rendering picks a letter (``y`` by default; trace
polynomials pass ``t`` to ``to_string``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Mapping, Union

from .boundary import is_int, quote

if TYPE_CHECKING:
    from fractions import Fraction

Coefficients = Mapping[int, int]


def _check_int(value) -> int:
    if not is_int(value):
        raise TypeError(f"expected an integer, got {quote(value)}")
    return value


class LaurentPolynomial:
    """An integer-coefficient polynomial in one variable and its inverse.

    >>> y = LaurentPolynomial.variable()
    >>> (y + y**-1) * (y - y**-1) == y**2 - y**-2
    True
    >>> print((3*y**2 + 42*y + 234 + 42*y**-1 + 3*y**-2).to_string("y"))
    3y^2+42y+234+42y^-1+3y^-2
    """

    __slots__ = ("_terms", "_key")

    def __init__(self, terms: Coefficients = ()):
        terms = terms if type(terms) is dict else dict(terms)  # only read: ``cleaned`` is new
        # Exact ``int`` everywhere passes one set test; anything else gets the
        # full per-term check, which raises at the first bad term in order.
        if not {*map(type, terms), *map(type, terms.values())} <= {int}:
            for exponent, coefficient in terms.items():
                _check_int(exponent)
                _check_int(coefficient)
        cleaned = {e: c for e, c in terms.items() if c != 0}
        object.__setattr__(self, "_terms", cleaned)
        object.__setattr__(self, "_key", tuple(sorted(cleaned.items())))

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPolynomial is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPolynomial":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPolynomial":
        return cls({0: 1})

    @classmethod
    def constant(cls, c: int) -> "LaurentPolynomial":
        return cls({0: c})

    @classmethod
    def variable(cls) -> "LaurentPolynomial":
        return cls({1: 1})

    # -- inspection --------------------------------------------------------

    def coefficient(self, exponent: int) -> int:
        return self._terms.get(exponent, 0)

    def terms(self) -> Iterator[tuple[int, int]]:
        """Yield (exponent, coefficient) pairs in ascending exponent order."""
        return iter(self._key)

    def degree(self) -> int | None:
        """Highest exponent, or None for the zero polynomial."""
        return self._key[-1][0] if self._key else None

    def valuation(self) -> int | None:
        """Lowest exponent, or None for the zero polynomial."""
        return self._key[0][0] if self._key else None

    def is_palindromic(self) -> bool:
        """True when coefficient(k) == coefficient(-k) for every k."""
        return all(c == self._terms.get(-e, 0) for e, c in self._terms.items())

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if is_int(other):
            other = LaurentPolynomial.constant(other)
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        return f"LaurentPolynomial({dict(self._key)!r})"

    def __str__(self) -> str:
        return self.to_string("y")

    # -- arithmetic --------------------------------------------------------

    @staticmethod
    def _coerce(value) -> "LaurentPolynomial":
        if isinstance(value, LaurentPolynomial):
            return value
        if is_int(value):
            return LaurentPolynomial.constant(value)
        return NotImplemented

    def __add__(self, other) -> "LaurentPolynomial":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self._terms)
        for e, c in other._terms.items():
            out[e] = out.get(e, 0) + c
        return LaurentPolynomial(out)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPolynomial":
        return LaurentPolynomial({e: -c for e, c in self._terms.items()})

    def __sub__(self, other) -> "LaurentPolynomial":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "LaurentPolynomial":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other) -> "LaurentPolynomial":
        if type(other) is int:
            return LaurentPolynomial({e: c * other for e, c in self._terms.items()})
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out: dict[int, int] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        return LaurentPolynomial(out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "LaurentPolynomial":
        _check_int(exponent)
        if exponent < 0:
            # Only monomials are invertible in the Laurent ring.
            if len(self._terms) == 1:
                ((e, c),) = self._terms.items()
                if c in (1, -1):
                    inv = LaurentPolynomial({-e: c})
                    return inv ** (-exponent)
            raise ValueError("negative powers only defined for unit monomials")
        result = LaurentPolynomial.one()
        base = self
        n = exponent
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- substitutions -----------------------------------------------------

    def negate_variable(self) -> "LaurentPolynomial":
        """Substitute v -> -v, flipping the sign of odd-exponent terms."""
        return LaurentPolynomial(
            {e: c if e % 2 == 0 else -c for e, c in self._terms.items()}
        )

    def shifted(self, k: int) -> "LaurentPolynomial":
        """Multiply by v^k."""
        _check_int(k)
        return LaurentPolynomial({e + k: c for e, c in self._terms.items()})

    def evaluate(self, value: int) -> Union[int, Fraction]:
        """Evaluate at an integer point, exactly.

        Terms with nonnegative exponents are summed as ints; negative exponents
        produce exact Fractions.  The result collapses to an int whenever it is
        integral (always the case at value = +-1).
        """
        _check_int(value)
        total: Union[int, Fraction] = 0
        for e, c in self._terms.items():
            if e >= 0:
                total += c * value**e
            else:
                if value == 0:
                    raise ZeroDivisionError(
                        "cannot evaluate a negative exponent at 0"
                    )
                from fractions import Fraction
                total += Fraction(c, value**-e)
        return int(total) if total.denominator == 1 else total

    # -- rendering ---------------------------------------------------------

    def to_string(self, var: str = "y") -> str:
        """Render as explicit monomials in descending exponent order.

        The format is golden-file friendly: no whitespace, explicit ``^`` for
        exponents other than 0 and 1, e.g. ``3y^2+42y+234+42y^-1+3y^-2``.
        """
        if not self._key:
            return "0"
        pieces: list[str] = []
        for e, c in reversed(self._key):
            sign = "-" if c < 0 else ("+" if pieces else "")
            mag = abs(c)
            if e == 0:
                body = str(mag)
            else:
                head = "" if mag == 1 else str(mag)
                body = f"{head}{var}" if e == 1 else f"{head}{var}^{e}"
            pieces.append(f"{sign}{body}")
        return "".join(pieces)


def substitute_y_plus_yinv(p: LaurentPolynomial) -> LaurentPolynomial:
    """Replace the variable of ``p`` by y + y^-1 and expand exactly.

    ``p`` must be an ordinary polynomial (no negative exponents); the result
    is always palindromic because y + y^-1 is invariant under y -> 1/y.

    Each monomial is expanded in closed form by the binomial theorem,

        s_k t^k  ->  s_k * sum_{j=0}^{k} C(k, j) y^(k-2j),

    with the binomials C(k, j) kept as running integers, so no polynomial
    products are formed.  The character form t_{r+1} - t_{r-1} = y^r + y^-r
    is deliberately not used here: the telescoped route to S(t) weights
    exactly those differences by the coefficients of chi_{-y}/y^n, so a
    left-hand side obtained through the character form would equal the
    right-hand side of the supertrace identity by construction, and the exact
    check would become a tautology.
    """
    if p.valuation() is not None and p.valuation() < 0:
        raise ValueError("substitution requires a polynomial with nonnegative exponents")
    out: dict[int, int] = {}
    for k, s_k in p.terms():
        binom = 1
        for j in range(k + 1):
            e = k - 2 * j
            out[e] = out.get(e, 0) + s_k * binom
            binom = binom * (k - j) // (j + 1)
    return LaurentPolynomial(out)
