"""Independent oracles: every expected number is computed here from the table.

Nothing in this module imports hkgenus.  Laurent polynomials are plain
``{exponent: coefficient}`` dicts with zero coefficients dropped, so two
results compare with ``==`` exactly, as the library's own values do.

* The genus comes straight off the Hodge table:
  chi_y = sum_{p,q} (-1)^q h^{p,q} y^p, and N(y) = chi_{-y} / y^n.
* S(t) comes from N through the Lucas-type polynomials
  V_0 = 2, V_1 = t, V_{k+1} = t V_k - V_{k-1}, which satisfy
  V_k(y + 1/y) = y^k + y^-k.  With a_k the coefficient of y^k in N,
  S(t) = a_0 + sum_{k>=1} a_k V_k(t).  The library builds S from the sl(2)
  characters instead, so the two routes share no code.
* The Hilbert schemes of a K3-like surface with h^{1,1} = h follow from the
  one-variable Ellingsrud-Goettsche-Lehn product
  sum_m N(S[m]) q^m = prod_k [(1 - y^-1 q^k)^2 (1 - q^k)^h (1 - y q^k)^2]^-1,
  and their Euler numbers from prod_k (1 - q^k)^-(4 + h).  The library expands
  Goettsche's three-variable product instead.
"""

from __future__ import annotations

from math import comb

Poly = dict[int, int]


def _clean(poly: Poly) -> Poly:
    return {e: c for e, c in poly.items() if c}


def chi_y(rows) -> Poly:
    """chi_y of a Hodge table: the coefficient of y^p is sum_q (-1)^q h^{p,q}."""
    return _clean({p: sum(c if q % 2 == 0 else -c for q, c in enumerate(row))
                   for p, row in enumerate(rows)})


def chi_minus_y(rows) -> Poly:
    return {p: c if p % 2 == 0 else -c for p, c in chi_y(rows).items()}


def normalized_genus(rows) -> Poly:
    """chi_{-y} / y^n, palindromic for every valid hyper-Kahler table."""
    n = (len(rows) - 1) // 2
    return {p - n: c for p, c in chi_minus_y(rows).items()}


def evaluate(poly: Poly, t: int) -> int:
    """Value at an integer point; exponents must be nonnegative."""
    return sum(c * t**e for e, c in poly.items())


_LUCAS: list[Poly] = [{0: 2}, {1: 1}]


def lucas(k: int) -> Poly:
    """V_k as a polynomial in t."""
    while len(_LUCAS) <= k:
        prev, last = _LUCAS[-2], _LUCAS[-1]
        nxt = {e + 1: c for e, c in last.items()}
        for e, c in prev.items():
            nxt[e] = nxt.get(e, 0) - c
        _LUCAS.append(_clean(nxt))
    return _LUCAS[k]


def supertrace(normalized: Poly) -> Poly:
    """S(t) = a_0 + sum_{k>=1} a_k V_k(t), a_k the y^k coefficient of N."""
    out: Poly = {0: normalized.get(0, 0)}
    for k in range(1, max(normalized, default=0) + 1):
        a_k = normalized.get(k, 0)
        if a_k:
            for e, c in lucas(k).items():
                out[e] = out.get(e, 0) + a_k * c
    return _clean(out)


def supertrace_at(normalized: Poly, t: int) -> int:
    """S(t) at an integer trace, through the V_k recursion on numbers."""
    total = normalized.get(0, 0)
    v_prev, v = 2, t
    for k in range(1, max(normalized, default=0) + 1):
        total += normalized.get(k, 0) * v
        v_prev, v = v, t * v - v_prev
    return total


def primitive_rows(rows) -> list[list[int]]:
    """prim(p, q) = h^{p,q} - h^{p-2,q} for 0 <= p <= n."""
    n = (len(rows) - 1) // 2
    return [[rows[p][q] - (rows[p - 2][q] if p >= 2 else 0) for q in range(len(rows))]
            for p in range(n + 1)]


def table_defects(rows, strict: bool = False) -> list[str]:
    """Broken invariants of a hyper-Kahler Hodge table, by name; empty when valid."""
    side = len(rows)
    if side < 3 or side % 2 == 0 or any(len(r) != side for r in rows):
        return ["shape"]
    n = (side - 1) // 2
    found = set()
    for p in range(side):
        for q in range(side):
            h = rows[p][q]
            if h < 0:
                found.add("negative")
            if h != rows[2 * n - p][2 * n - q]:
                found.add("serre")
            if h != rows[q][p]:
                found.add("conjugation")
            if h != rows[2 * n - p][q]:
                found.add("column")
    if not found and any(v < 0 for row in primitive_rows(rows) for v in row):
        found.add("primitive")
    if strict and (rows[0][0], rows[1][0], rows[2][0]) != (1, 0, 1):
        found.add("irreducibility")
    return sorted(found)


def _times_inverse_power(series: list[Poly], shift: int, k: int, e: int) -> list[Poly]:
    """Multiply a q-series of y-polys by (1 - y^shift q^k)^-e, truncated."""
    top = len(series) - 1
    out: list[Poly] = [{} for _ in series]
    for m, poly in enumerate(series):
        for j in range((top - m) // k + 1):
            c = comb(e + j - 1, j)
            target = out[m + k * j]
            for ye, v in poly.items():
                target[ye + shift * j] = target.get(ye + shift * j, 0) + c * v
    return [_clean(p) for p in out]


def egl_normalized_genera(h: int, m_max: int) -> list[Poly]:
    """N(S[m]) for m = 0..m_max, S the K3-like surface with h^{1,1} = h."""
    series: list[Poly] = [{0: 1}] + [{} for _ in range(m_max)]
    for k in range(1, m_max + 1):
        for shift, e in ((-1, 2), (0, h), (1, 2)):
            if e:
                series = _times_inverse_power(series, shift, k, e)
    return series


def euler_numbers(h: int, m_max: int) -> list[int]:
    """Euler numbers of S[m], m = 0..m_max: prod_k (1 - q^k)^-(4 + h)."""
    series = [{0: 1}] + [{} for _ in range(m_max)]
    for k in range(1, m_max + 1):
        series = _times_inverse_power(series, 0, k, 4 + h)
    return [p.get(0, 0) for p in series]


def render(poly: Poly, var: str = "y") -> str:
    """The package's documented text form: descending exponents, no spaces."""
    if not poly:
        return "0"
    pieces: list[str] = []
    for e in sorted(poly, reverse=True):
        c = poly[e]
        sign = "-" if c < 0 else ("+" if pieces else "")
        mag = abs(c)
        if e == 0:
            body = str(mag)
        else:
            head = "" if mag == 1 else str(mag)
            body = f"{head}{var}" if e == 1 else f"{head}{var}^{e}"
        pieces.append(sign + body)
    return "".join(pieces)
