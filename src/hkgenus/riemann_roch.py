"""Symbolic Riemann-Roch for paired Chern roots, at desk scale (n = 1, 2).

The holomorphic tangent bundle of a hyper-Kahler 4n-manifold has 2n Chern
roots that come in pairs {x_i, -x_i}.  With u_i = x_i^2 the total Chern class
is prod_i (1 - u_i), so odd Chern classes vanish and c_{2k} = (-1)^k e_k(u),
where e_k is the k-th elementary symmetric function of u_1..u_n.  Each root
pair contributes one even factor to the integrand, a power series F(u):

    x^2 / (2 cosh x - 2) * ((1 + y^2) - 2 y cosh x)     for chi_{-y},
    x^2 / (2 cosh x - 2) * (t - 2 cosh x)               for S(t),

where x^2 / (2 cosh x - 2) is the Todd class x/(1 - e^{-x}) * (-x)/(1 - e^x)
of the pair.  The degree-2n integrand is the degree-n part K_n of the
multiplicative sequence prod_i F(u_i) (Hirzebruch, Topological Methods in
Algebraic Geometry, section 1).  With log F = sum_k b_k u^k and the power
sums p_k(u) written in the e_k by Newton's identities,

    m K_m = sum_{j=1..m} j b_j p_j K_{m-j},    K_0 = 1.

Renaming e_k to (-1)^k c_{2k} writes K_n in the Chern monomials of degree 2n,
one per partition of n (n=1: c2; n=2: c2^2, c4), each with a polynomial
coefficient in y (or t).  Evaluated against Chern numbers, the first
sequence yields chi_{-y}, the second the graded-trace polynomial S(t);
substituting t = (1+y^2)/y and multiplying by y^n carries one into the other
exactly.

Todd coefficients such as 1/12 are not integers, but in w = u/M, M = (2n+2)!,
every series has integer coefficients, and so does L_m = m! K_m; the one
division, by n! M^n, builds the returned Fraction tables.  A polynomial in y
(or t) is a list of integer coefficients, a power sum p_k maps each partition
(the k of each e_k) to an integer and L_m maps it to a list, all without the
arithmetic of ``hkgenus.laurent``, so the Chern side checks the Hodge side
independently.  An integrality check guards the boundary, since every genus
value is an integer and a non-integral result means inconsistent Chern data
or a pipeline bug.

The construction works for every n (mixed keys such as c2c4 appear from n = 3
on); the public functions stop at n = 2.  ChernData accepts a key exactly when,
folded to lowercase without spaces, it is a ``chern_basis(n)`` key.
"""

from __future__ import annotations

import collections
import functools
import math
from collections.abc import Iterator, Mapping
from typing import TYPE_CHECKING

from .boundary import SHORT, Frozen, expect, is_digit_limit_error, is_int, quote, shorten
from .errors import InputError
from .laurent import LaurentPolynomial

if TYPE_CHECKING:
    from fractions import Fraction

# Values of n the public functions accept.
_SUPPORTED_N = [1, 2]


def _supported_n(n) -> int:
    if not is_int(n):
        raise InputError(f"n must be an integer, got {quote(n)}")
    if n not in _SUPPORTED_N:
        raise InputError(
            f"unsupported n = {quote(n)}; the public Riemann-Roch functions are provided "
            f"for n in {_SUPPORTED_N}")
    return n


def _partitions(n: int, smallest: int = 1) -> Iterator[tuple[int, ...]]:
    """Partitions of n into parts >= smallest, ascending, in lexicographic order."""
    if n == 0:
        yield ()
    for first in range(smallest, n + 1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


@functools.cache
def chern_basis(n: int) -> tuple[tuple[str, tuple[int, ...]], ...]:
    """The degree-2n monomials in even Chern classes, one per partition of n.

    Each entry is (key, partition): the key in the external format (lowercase,
    caret for powers: "c2^2", "c2c4") and the k of each factor c_{2k}, in
    ascending order.  Entries run in lexicographic order of the partitions,
    from c2^n to c_{2n}.
    """
    basis = []
    for partition in _partitions(n):
        powers = collections.Counter(partition)
        key = "".join(f"c{2 * k}" + (f"^{m}" if m > 1 else "") for k, m in powers.items())
        basis.append((key, partition))
    return tuple(basis)


class ChernData(Frozen):
    """Formal Chern-number assignment for the degree-2n evaluation.

    The numbers are kept as (key, number) pairs in sorted key order, the order
    every output uses; ``values`` reads them into a new dict each time.
    """

    _fields = ("n", "values")

    def __init__(self, n: int, values: Mapping[str, int]):
        _supported_n(n)
        if not isinstance(values, Mapping):
            raise InputError("Chern numbers must map monomial keys to integers")
        basis_keys = [key for key, _ in chern_basis(n)]
        cleaned: dict[str, int] = {}
        for raw_key, value in dict(values).items():
            if not isinstance(raw_key, str):
                raise InputError(
                    f"Chern monomial keys must be strings, got {quote(raw_key)}")
            key = raw_key.strip().lower().replace(" ", "")
            if key not in basis_keys:
                raise InputError(f"unknown Chern monomial {quote(key)} for n = {n}; "
                                 f"the keys for n = {n} are {', '.join(basis_keys)}")
            if key in cleaned:
                raise InputError(f"Chern monomial {quote(key)} is given more than once")
            if not is_int(value):
                raise InputError(f"Chern number for {quote(key)} must be an integer")
            cleaned[key] = value
        vars(self).update(n=n, pairs=tuple(sorted(cleaned.items())))

    def _key(self) -> tuple:
        return (self.n, self.pairs)

    @property
    def values(self) -> dict[str, int]:
        return dict(self.pairs)

    def value(self, key: str) -> int:
        values = self.values
        if key not in values:
            raise InputError(f"Chern monomial {quote(key)} missing from data for n = {self.n}")
        return values[key]


# -- the multiplicative sequence ---------------------------------------------

def _convolve(a: list[int], b: list[int]) -> list[int]:
    """The product of two polynomials in y (or t) given as coefficient lists."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, c in enumerate(b, i):
                out[j] += x * c
    return out


def _pair_series(n: int, kind: str, m: int) -> list[list[int]]:
    """w^0..w^n coefficients of one pair's factor in w = u/m, normalised to 1 at w^0.

    As (2n+2)! divides m, the Todd denominator sum_k 2 u^k/(2k+2)! and cosh x =
    sum_k u^k/(2k)! have integer w^k coefficients for k <= n, 1 at k = 0, so
    the reciprocal and every product stay integral.  F(w) = x^2/(2 cosh x - 2)
    * g(x) has a polynomial constant term a0, so its logarithm would need
    rational functions of y.  F(a0 w)/a0 has constant term 1 and polynomial
    coefficients F_k a0^(k-1), and since the exponents of a degree-n term of
    prod_i F(w_i) over n factors sum to n, the two products have the same
    degree-n part.  Each w^k coefficient is a coefficient list in y (or t).
    """
    todd = [1]
    for k in range(1, n + 1):
        todd.append(-sum(2 * m ** j // math.factorial(2 * j + 2) * todd[k - j]
                         for j in range(1, k + 1)))
    cosh = [m ** k // math.factorial(2 * k) for k in range(n + 1)]
    series: list[list[int]] = []
    for k in range(n + 1):
        cosh_part = -2 * sum(todd[j] * cosh[k - j] for j in range(k + 1))
        if kind == "genus":  # g = (1 + y^2) - 2 y cosh x
            series.append([todd[k], cosh_part, todd[k]])
        else:  # g = t - 2 cosh x
            series.append([cosh_part, todd[k]])
    power = [1]
    normalised = [power]
    for k in range(1, n + 1):
        normalised.append(_convolve(series[k], power))
        power = _convolve(power, series[0])
    return normalised


@functools.cache
def _symbolic_coefficients(n: int, kind: str) -> tuple[tuple[str, tuple[tuple[int, Fraction], ...]], ...]:
    """The degree-2n integrand of ``kind`` per Chern monomial, for any n >= 1."""
    from fractions import Fraction

    scale = math.factorial(2 * n + 2)  # M: the series run in w = u/M
    series = _pair_series(n, kind, scale)
    # w d/dw log F = sum_k d_k w^k, from k F_k = sum_{j=1..k} d_j F_{k-j}, and
    # Newton's identities p_k = sum_{i<k} (-1)^(i-1) e_i p_{k-i} + (-1)^(k-1) k e_k.
    # For j < k, d_j F_{k-j} has as many coefficients as F_k.
    log_derivative: dict[int, list[int]] = {}
    power_sums: dict[int, dict[tuple[int, ...], int]] = {}
    for k in range(1, n + 1):
        d = [k * c for c in series[k]]
        p = {(k,): (-1) ** (k - 1) * k}
        for j in range(1, k):
            for i, c in enumerate(_convolve(log_derivative[j], series[k - j])):
                d[i] -= c
            for parts, c in power_sums[k - j].items():
                key = tuple(sorted(parts + (j,)))
                p[key] = p.get(key, 0) + (-1) ** (j - 1) * c
        log_derivative[k], power_sums[k] = d, p
    # The multiplicative sequence in L_m = m! K_m, from m K_m = sum_{j=1..m} d_j p_j K_{m-j}:
    # L_m = sum_{j=1..m} (m-1)!/(m-j)! d_j p_j L_{m-j}.  Each d_j L_{m-j}[parts] is
    # formed once and added, times each coefficient of p_j, under the merged partition.
    sequence: list[dict[tuple[int, ...], list[int]]] = [{(): [1]}]
    for m in range(1, n + 1):
        out: dict[tuple[int, ...], list[int]] = {}
        for j in range(1, m + 1):
            weight = math.perm(m - 1, j - 1)
            for parts, poly in sequence[m - j].items():
                product = _convolve(log_derivative[j], poly)
                for parts_p, c in power_sums[j].items():
                    total = out.setdefault(tuple(sorted(parts + parts_p)), [0] * len(product))
                    for i, x in enumerate(product):
                        total[i] += weight * c * x
        sequence.append(out)
    # K_n = L_n/n!, and e_k(w) = e_k(u)/M^k puts M^n under every degree-n monomial;
    # e_k -> (-1)^k c_{2k}: the signs of a degree-n monomial multiply to (-1)^n.
    denominator = math.factorial(n) * scale ** n
    return tuple((key, tuple((e, Fraction((-1) ** n * c, denominator))
                             for e, c in enumerate(sequence[n].get(partition, ())) if c))
                 for key, partition in chern_basis(n))


def _coefficients(n: int, kind: str) -> dict[str, dict[int, Fraction]]:
    _supported_n(n)
    return {key: dict(poly) for key, poly in _symbolic_coefficients(n, kind)}


def chi_minus_y_chern_coefficients(n: int) -> dict[str, dict[int, Fraction]]:
    """Per-Chern-monomial polynomials in y whose weighted sum is chi_{-y}.

    Exposed so callers can solve for unknown Chern numbers against a known
    genus (this is how the fourfold's c2^2 regression constant was derived).
    The y^0 slice is the Todd integrand, since chi_0 is the Todd genus.
    """
    return _coefficients(n, "genus")


def supertrace_chern_coefficients(n: int) -> dict[str, dict[int, Fraction]]:
    """Per-Chern-monomial polynomials in t whose weighted sum is S(t)."""
    return _coefficients(n, "trace")


def _coefficient_text(c: Fraction) -> str:
    """``str(c)``, or its numerator and denominator by ``quote`` past the digit limit."""
    try:
        return str(c)
    except ValueError as exc:
        if not is_digit_limit_error(exc):
            raise
        return f"{quote(c.numerator)}/{quote(c.denominator)}"


def _from_chern(n: int, data: ChernData, coefficients) -> LaurentPolynomial:
    """The sum of ``coefficients(n)`` weighted by ``data``, an integer polynomial.

    ``coefficients`` is the public function of the kind, so a wrapper around
    it from outside the package still sees every evaluation.
    """
    table = coefficients(n)
    if expect(data, ChernData).n != n:
        raise InputError(f"Chern data is for n = {data.n}, requested n = {n}")
    den = math.lcm(*(c.denominator for poly in table.values() for c in poly.values()))
    total: dict[int, int] = {}
    for key, poly in table.items():
        value = data.value(key)
        for e, c in poly.items():
            total[e] = total.get(e, 0) + value * c.numerator * (den // c.denominator)
    bad = sorted((e, c) for e, c in total.items() if c % den)
    if bad:
        from fractions import Fraction

        # 1.5 * SHORT keeps the lists that small data give whole, and the
        # error line under 200 characters.
        listed = ", ".join(f"exp {e}: {_coefficient_text(Fraction(c, den))}" for e, c in bad)
        raise InputError(
            "non-integral genus coefficients (inconsistent Chern data?): "
            + shorten(listed, 3 * SHORT // 2))
    return LaurentPolynomial({e: c // den for e, c in total.items() if c})


def chi_minus_y_from_chern(n: int, data: ChernData) -> LaurentPolynomial:
    """chi_{-y} as a polynomial in y, evaluated from Chern numbers.

    Must agree with the Hodge-side chi_y under y -> -y whenever the Chern
    data and the diamond describe the same manifold.
    """
    return _from_chern(n, data, chi_minus_y_chern_coefficients)


def supertrace_from_chern(n: int, data: ChernData) -> LaurentPolynomial:
    """The graded-trace polynomial S(t), degree n, from Chern numbers."""
    return _from_chern(n, data, supertrace_chern_coefficients)
