"""Exact univariate Laurent polynomials over Python's big integers.

A Laurent polynomial is a finite sum of terms c * v^k where the exponent k may
be any integer, positive or negative.  Coefficients are plain ``int`` (so
arbitrary precision comes for free) and no floating point is used anywhere.

Values are immutable ``boundary.Frozen`` values and canonical: a value stores
one tuple of its (exponent, coefficient) pairs with nonzero coefficients, in
ascending exponent order, and equality is equality of those tuples.  A
polynomial compares equal only to a polynomial, never to an ``int`` (so ``==``
and ``hash`` agree); that makes every identity check in this package an exact,
zero-tolerance comparison of two polynomials.

The variable is anonymous; rendering picks a letter (``y`` by default; trace
polynomials pass ``t`` to ``to_string``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Mapping, Union

from .boundary import Frozen, expect, is_int, quote

if TYPE_CHECKING:
    from fractions import Fraction

Coefficients = Mapping[int, int]


def _check_int(value) -> int:
    if not is_int(value):
        raise TypeError(f"expected an integer, got {quote(value)}")
    return value


class LaurentPolynomial(Frozen):
    """An integer-coefficient polynomial in one variable and its inverse.

    ``+`` and ``-`` take two polynomials and ``*`` scales by an integer; no
    two polynomials are multiplied.

    >>> s = LaurentPolynomial({2: 3, 1: 42, 0: 228})  # S(t) of K3[2]
    >>> print((2 * s).to_string("t"), substitute_y_plus_yinv(s).to_string("y"))
    6t^2+84t+456 3y^2+42y+234+42y^-1+3y^-2
    """

    def __init__(self, terms: Coefficients = ()):
        terms = terms if type(terms) is dict else dict(terms)  # only read, never kept
        # Exact ``int`` everywhere passes one set test; anything else gets the
        # full per-term check, which raises at the first bad term in order.
        if not {*map(type, terms), *map(type, terms.values())} <= {int}:
            for exponent, coefficient in terms.items():
                _check_int(exponent)
                _check_int(coefficient)
        vars(self)["_items"] = tuple(sorted([(e, c) for e, c in terms.items() if c]))

    def _key(self) -> tuple:
        return self._items

    # -- constructors ------------------------------------------------------

    @classmethod
    def one(cls) -> "LaurentPolynomial":
        return cls({0: 1})

    # -- inspection --------------------------------------------------------

    def coefficient(self, exponent: int) -> int:
        return dict(self._items).get(exponent, 0)

    def terms(self) -> Iterator[tuple[int, int]]:
        """Yield (exponent, coefficient) pairs in ascending exponent order."""
        return iter(self._items)

    def degree(self) -> int | None:
        """Highest exponent, or None for the zero polynomial."""
        return self._items[-1][0] if self._items else None

    def valuation(self) -> int | None:
        """Lowest exponent, or None for the zero polynomial."""
        return self._items[0][0] if self._items else None

    def is_palindromic(self) -> bool:
        """True when coefficient(k) == coefficient(-k) for every k."""
        return self._items == tuple((-e, c) for e, c in reversed(self._items))

    def __bool__(self) -> bool:
        return bool(self._items)

    def __repr__(self) -> str:
        return f"LaurentPolynomial({dict(self._items)!r})"

    def __str__(self) -> str:
        return self.to_string("y")

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other) -> "LaurentPolynomial":
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        out = dict(self._items)
        for e, c in other._items:
            out[e] = out.get(e, 0) + c
        return LaurentPolynomial(out)

    def __neg__(self) -> "LaurentPolynomial":
        return LaurentPolynomial({e: -c for e, c in self._items})

    def __sub__(self, other) -> "LaurentPolynomial":
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> "LaurentPolynomial":
        """Scale by an exact integer; the one product the package forms."""
        if not is_int(other):
            return NotImplemented
        return LaurentPolynomial({e: c * other for e, c in self._items})

    __rmul__ = __mul__

    # -- substitutions -----------------------------------------------------

    def negate_variable(self) -> "LaurentPolynomial":
        """Substitute v -> -v, flipping the sign of odd-exponent terms."""
        return LaurentPolynomial({e: c if e % 2 == 0 else -c for e, c in self._items})

    def shifted(self, k: int) -> "LaurentPolynomial":
        """Multiply by v^k."""
        _check_int(k)
        return LaurentPolynomial({e + k: c for e, c in self._items})

    def evaluate(self, value: int) -> Union[int, Fraction]:
        """Evaluate at an integer point, exactly, by Horner's rule.

        With a lowest exponent e < 0, the sum times value^-e is an int divided
        once into an exact Fraction.  The result collapses to an int whenever it
        is integral (always the case at value = +-1).
        """
        _check_int(value)
        items = self._items
        if not items:
            return 0
        low = items[0][0]
        if low < 0 and value == 0:
            raise ZeroDivisionError("cannot evaluate a negative exponent at 0")
        total, above = 0, items[-1][0]
        for e, c in reversed(items):  # from the top exponent down
            total = total * value ** (above - e) + c
            above = e
        if low >= 0:
            return total * value**low
        from fractions import Fraction
        result = Fraction(total, value**-low)
        return int(result) if result.denominator == 1 else result

    # -- rendering ---------------------------------------------------------

    def to_string(self, var: str = "y") -> str:
        """Render as explicit monomials in descending exponent order.

        The format is golden-file friendly: no whitespace, explicit ``^`` for
        exponents other than 0 and 1, e.g. ``3y^2+42y+234+42y^-1+3y^-2``.
        """
        if not self._items:
            return "0"
        pieces: list[str] = []
        for e, c in reversed(self._items):
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
    products are formed.  Since C(k, j) = C(k, k-j), the terms j and k - j
    of each row carry the same coefficient at y^(k-2j) and y^-(k-2j); so only
    j <= k/2 is summed, into a list indexed by the exponent k - 2j >= 0, and
    the negative exponents are that list mirrored.  The mirror rests on the
    symmetry of (y + 1/y)^k alone, true of every p, and reads nothing of the
    structure of S(t).

    The character form t_{r+1} - t_{r-1} = y^r + y^-r is deliberately not
    used here: the telescoped route to S(t) weights exactly those differences
    by the coefficients of chi_{-y}/y^n, so a left-hand side obtained through
    the character form would equal the right-hand side of the supertrace
    identity by construction, and the exact check would become a tautology.
    The binomial sum expands t^k, not a character, so the check stays real.
    """
    if expect(p, LaurentPolynomial).valuation() is not None and p.valuation() < 0:
        raise ValueError("substitution requires a polynomial with nonnegative exponents")
    if not p:
        return LaurentPolynomial()
    deg = p.degree()
    half = [0] * (deg + 1)  # half[e]: coefficient of y^e and of y^-e
    for k, s_k in p.terms():
        binom = 1
        for j in range(k // 2 + 1):
            half[k - 2 * j] += s_k * binom
            binom = binom * (k - j) // (j + 1)
    return LaurentPolynomial(dict(zip(range(-deg, deg + 1), half[:0:-1] + half)))
