"""Integer SL(2) elements, their traces, and irreducible characters.

The graded trace machinery never extracts eigenvalues as numbers: for trace t
with |t| <= 1 they are complex, for |t| >= 3 quadratic irrationals.  Instead
everything is expressed through the character polynomials t_r (the trace of an
element in the r-dimensional irreducible representation), which satisfy the
Chebyshev-style recursion that defines them,

    t_1 = 1,  t_2 = t,  t_{r+1} = t * t_r - t_{r-1},

with the convention t_r = 0 for r <= 0.  They are computed from its closed
form t_r = sum_j (-1)^j C(r-1-j, j) t^(r-1-2j), so each character is one
polynomial built on first use, independent of the others.  The bridge to
eigenvalues is the exact substitution t = y + 1/y (equivalently
t*y = y^2 + 1, the characteristic polynomial), under which
t_{r+1} - t_{r-1} = y^r + y^-r.
"""

from __future__ import annotations

import functools

from .boundary import Frozen, is_int, parse_int, quote
from .errors import InputError
from .laurent import LaurentPolynomial, substitute_y_plus_yinv


class SL2Element(Frozen):
    """An integer 2x2 matrix (a b; c d) with determinant one."""

    _fields = ("a", "b", "c", "d")

    def __init__(self, a: int, b: int, c: int, d: int):
        for field_name, value in zip(self._fields, (a, b, c, d)):
            if not is_int(value):
                raise InputError(
                    f"matrix entry {field_name} must be an integer, got {quote(value)}")
            vars(self)[field_name] = value
        det = a * d - b * c
        if det != 1:
            raise InputError(f"determinant must be 1, got {quote(det)}")

    @classmethod
    def identity(cls) -> "SL2Element":
        return cls(1, 0, 0, 1)

    @classmethod
    def from_string(cls, text: str) -> "SL2Element":
        """Parse the row-major syntax "a,b;c,d" (integers only)."""
        rows = text.strip().split(";")
        if len(rows) != 2:
            raise InputError(
                f'matrix must have two rows "a,b;c,d", got {quote(text)}')
        entries: list[int] = []
        for row in rows:
            parts = row.split(",")
            if len(parts) != 2:
                raise InputError(
                    f'each matrix row needs two entries, got {quote(row)}')
            entries.extend(parse_int(part.strip(), "matrix entry") for part in parts)
        return cls(*entries)

    def to_string(self) -> str:
        return f"{self.a},{self.b};{self.c},{self.d}"

    @property
    def trace(self) -> int:
        return self.a + self.d

    def __matmul__(self, other: "SL2Element") -> "SL2Element":
        return SL2Element(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "SL2Element":
        return SL2Element(self.d, -self.b, -self.c, self.a)

    def conjugate_by(self, g: "SL2Element") -> "SL2Element":
        """Return g @ self @ g^-1."""
        return g @ self @ g.inverse()


def eigenvalue_polynomial(u: SL2Element) -> LaurentPolynomial:
    """The characteristic polynomial y^2 - t*y + 1, t = trace(u).

    Both eigenvalues are roots; their product is the determinant, 1, which is
    why the constant term is always 1.
    """
    return LaurentPolynomial({2: 1, 1: -u.trace, 0: 1})


_ZERO = LaurentPolynomial()  # t_r for every r <= 0; values are immutable, so one is shared


def character(r: int) -> LaurentPolynomial:
    """The character t_r of the r-dimensional irreducible, as a polynomial in t.

    t_r = 0 for r <= 0; for r >= 1 the degree of t_r is r - 1.
    """
    if not is_int(r):
        raise InputError(f"representation dimension must be an integer, got {quote(r)}")
    if r <= 0:
        return _ZERO
    return _character(r)


@functools.cache
def _character(r: int) -> LaurentPolynomial:
    """t_r for r >= 1 from the closed form, with C(m-j, j), m = r-1, kept running."""
    m = r - 1
    binom = 1
    terms = {m: 1}
    for j in range(1, m // 2 + 1):
        binom = binom * (m - 2 * j + 2) * (m - 2 * j + 1) // (j * (m - j + 1))
        terms[m - 2 * j] = -binom if j % 2 else binom
    return LaurentPolynomial(terms)


def verify_character_identity(r: int) -> bool:
    """Check t_{r+1} - t_{r-1} = y^r + y^-r exactly, for r >= 1.

    The comparison happens at the Laurent-polynomial level after substituting
    t = y + 1/y, so it certifies the identity for every element at once.
    """
    if not is_int(r) or r < 1:
        raise InputError(f"r must be a positive integer, got {quote(r)}")
    lhs = substitute_y_plus_yinv(character(r + 1) - character(r - 1))
    rhs = LaurentPolynomial({r: 1, -r: 1})
    return lhs == rhs
