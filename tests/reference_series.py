"""Reference substitution for the tests: plain polynomial arithmetic, no closed form."""

from hkgenus.laurent import LaurentPolynomial

#: The Laurent polynomial y + y^-1, the image of the trace variable under the
#: eigenvalue substitution t*y = y^2 + 1.
Y_PLUS_YINV = LaurentPolynomial({1: 1, -1: 1})


def compose(outer: LaurentPolynomial, inner: LaurentPolynomial) -> LaurentPolynomial:
    """Substitute the variable of ``outer`` by ``inner``, one power at a time."""
    return sum((c * inner**e for e, c in outer.terms()), LaurentPolynomial.zero())
