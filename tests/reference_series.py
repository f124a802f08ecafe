"""Reference computations for the tests, on plain integer dicts.

Two oracles, each from a formula the library does not use:

* the t = y + 1/y substitution (``compose``), as a plain integer convolution
  with no closed form;
* the Hodge diamonds of the Hilbert schemes S^[n] of a surface, in the
  partition form of Goettsche and Soergel (Math. Ann. 296, 1993) over
  Macdonald's product for the symmetric powers (Proc. Cambridge Philos.
  Soc. 58, 1962), where ``hkgenus.catalog`` runs a recurrence on Goettsche's
  product.  It is a formal identity in the table, so it holds for any 3 x 3
  table of integers, not only for tables of surfaces.
"""

from collections import Counter

from hkgenus.laurent import LaurentPolynomial
from hkgenus.riemann_roch import _partitions

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


def _times(a: dict, b: dict) -> dict:
    """Product of two polynomials in x and y, each a dict {(p, q): coefficient}."""
    out = {}
    for (p1, q1), c1 in a.items():
        for (p2, q2), c2 in b.items():
            key = (p1 + p2, q1 + q2)
            out[key] = out.get(key, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def symmetric_powers(rows, n_max: int) -> list[dict]:
    """e(S^(k)) for k = 0..n_max, with e(S) = sum (-1)^(p+q) h^{p,q} x^p y^q.

    Macdonald's product: sum_k e(S^(k)) z^k = prod_{p,q} (1 - x^p y^q z)^(-e_{p,q}).
    """
    powers = [{(0, 0): 1}] + [{} for _ in range(n_max)]
    for p, row in enumerate(rows):
        for q, h in enumerate(row):
            e = (-1) ** (p + q) * h
            # (1 - u)^-e = sum_j c_j u^j with c_j = e (e+1) ... (e+j-1) / j!, for either sign of e.
            binomials = [1]
            for j in range(1, n_max + 1):
                binomials.append(binomials[-1] * (e + j - 1) // j)
            updated = []
            for k in range(n_max + 1):
                term = {}
                for j in range(k + 1):
                    for (a, b), c in powers[k - j].items():
                        key = (a + p * j, b + q * j)
                        term[key] = term.get(key, 0) + binomials[j] * c
                updated.append({key: c for key, c in term.items() if c})
            powers = updated
    return powers


def hilbert_scheme_tables(rows, n_max: int) -> list[tuple]:
    """The diamonds of S^[1..n_max] for a 3 x 3 table ``rows``, each a tuple of rows.

    Goettsche-Soergel: e(S^[n]) = sum over partitions alpha of n of
    (xy)^(n - l(alpha)) prod_i e(S^(a_i)), with a_i the number of parts of
    alpha equal to i; entry (p, q) is (-1)^(p+q) times the coefficient of x^p y^q.
    """
    powers = symmetric_powers(rows, n_max)
    tables = []
    for n in range(1, n_max + 1):
        total = {}
        for alpha in _partitions(n):
            term = {(n - len(alpha), n - len(alpha)): 1}
            for count in Counter(alpha).values():
                term = _times(term, powers[count])
            for key, c in term.items():
                total[key] = total.get(key, 0) + c
        side = 2 * n + 1
        assert all(max(key) < side for key, c in total.items() if c)
        tables.append(tuple(tuple((-1) ** (p + q) * total.get((p, q), 0) for q in range(side))
                            for p in range(side)))
    return tables
