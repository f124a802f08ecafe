"""Reference substitution for the tests: plain integer convolution, no closed form."""

from hkgenus.laurent import LaurentPolynomial

#: The Laurent polynomial y + y^-1, the image of the trace variable under the
#: eigenvalue substitution t*y = y^2 + 1.
Y_PLUS_YINV = LaurentPolynomial({1: 1, -1: 1})


def naive_convolution(a: dict, b: dict) -> dict:
    """Independent double-loop product oracle over coefficient dicts."""
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c != 0}


def compose(outer: LaurentPolynomial, inner: LaurentPolynomial) -> LaurentPolynomial:
    """Substitute the variable of ``outer`` (no negative exponents) by ``inner``.

    The powers of ``inner`` grow one convolution at a time on integer dicts,
    and the polynomial is built once, from the summed dict.
    """
    base = dict(inner.terms())
    total: dict[int, int] = {}
    power, k = {0: 1}, 0  # inner^k
    for e, c in outer.terms():  # ascending exponents
        if e < 0:
            raise ValueError("compose needs an outer polynomial with nonnegative exponents")
        while k < e:
            power, k = naive_convolution(power, base), k + 1
        for f, v in power.items():
            total[f] = total.get(f, 0) + c * v
    return LaurentPolynomial(total)
