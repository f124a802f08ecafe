"""The sl(2) decomposition of hyper-Kahler cohomology, at multiplicity level.

Cup product with the holomorphic 2-form raises p by 2 within each column q of
the Hodge diamond; together with the contraction it generates an sl(2) action
whose decomposition theorem splits every column into irreducible strings.  The
primitive (highest weight) subspace sitting at (p, q), 0 <= p <= n, generates
the (n-p+1)-dimensional irreducible, and a straightforward count gives its
multiplicity:

    prim(p, q) = h^{p,q} - h^{p-2,q}    (with h^{p,q} = 0 for p < 0).

Negative values mean the table cannot come from a hyper-Kahler manifold.

The graded trace of an SL(2) element U on the decomposed cohomology, with
grading (-1)^{p+q}, is a polynomial S(t) in the trace t of U.  This module
computes S two independent ways (the primitive form and a telescoped rewrite
over the diamond itself), insists they agree, and verifies exactly that

    S(y + 1/y) = chi_{-y} / y^n

as Laurent polynomials, which proves the identity for every U simultaneously
because both sides depend on U only through its trace.  Specializing U to an
integer matrix gives the mapping-torus invariant of Rozansky-Witten type.

Both routes add weighted characters into one list of exact integer
coefficients, indexed by the exponent 0..n of t, and build a single polynomial
at the end (its constructor drops the zero entries).  The primitive route
forms each product weight * t_r as a polynomial before adding it; the rewrite
route adds weight * c for every term c t^e of t_r straight into the list, so
it builds no polynomial per row.

S(t) and the primitive table depend only on the diamond, so each is computed
and cross-checked once per diamond and kept on it; later calls (the value at
another element, the invariant, the decomposition) reuse the checked result.
Every call still runs the validation it asks for, and a diamond that fails a
check keeps nothing, so it fails again on every call.

Only multiplicities are represented here; the raising and lowering operators
themselves, and the form spaces they act on, are out of scope.
"""

from __future__ import annotations

import functools
import operator
from typing import TYPE_CHECKING, NamedTuple

from .boundary import Frozen, is_int, quote
from .errors import (
    InputError,
    InternalInconsistencyError,
    NegativePrimitiveError,
    ValidationError,
)
from .hodge import HodgeDiamond, ValidationLevel, list_violations
from .laurent import LaurentPolynomial, substitute_y_plus_yinv
from .sl2 import SL2Element, character

if TYPE_CHECKING:
    from .report import IdentityReport

# Attribute names under which a diamond keeps its checked primitive table and
# its cross-checked S(t).  Like the diamond's own stored scan they live in the
# instance ``__dict__``, outside the fields ``==``, ``hash`` and ``repr``
# read, and a diamond with equal rows starts without them.
# Threads racing on a new diamond each compute and store the same value.
_PRIMITIVE_TABLE = "_primitive_table"
_SUPERTRACE = "_supertrace"


def _accumulate(total: list[int], poly: LaurentPolynomial, weight: int) -> None:
    """Add ``weight * poly`` into ``total``, the coefficient list indexed by exponent."""
    for e, c in poly.terms():
        total[e] += weight * c


class PrimitiveTable(Frozen):
    """Multiplicities prim(p, q) of highest-weight vectors, 0 <= p <= n.

    Row p lists, across the 2n+1 columns q, how many copies of the
    (n-p+1)-dimensional irreducible start at (p, q).
    """

    _fields = ("n", "rows")

    def __init__(self, n: int, rows: tuple[tuple[int, ...], ...]):
        rows = tuple(tuple(r) for r in rows)
        vars(self).update(n=n, rows=rows)
        if not is_int(n):
            raise InputError(f"n must be an integer, got {quote(n)}")
        if n < 1:
            raise InputError(f"n must be positive, got {quote(n)}")
        if len(rows) != n + 1:
            raise InputError(f"expected {quote(n + 1)} rows, got {len(rows)}")
        for p, row in enumerate(rows):
            if len(row) != 2 * n + 1:
                raise InputError(
                    f"row {p} has length {len(row)}, expected {2 * n + 1}")
            if set(map(type, row)) == {int} and min(row) >= 0:
                continue  # exact nonnegative ints need no closer look
            for q, value in enumerate(row):
                if not is_int(value):
                    raise InputError(f"entry ({p}, {q}) is not an integer: {quote(value)}")
                if value < 0:
                    raise NegativePrimitiveError(p, q, value)

    def representation_dimension(self, p: int) -> int:
        """Dimension of the irreducible generated at row p."""
        return self.n - p + 1


def primitive_multiplicities(d: HodgeDiamond) -> PrimitiveTable:
    """The table prim(p, q) = h^{p,q} - h^{p-2,q} for 0 <= p <= n.

    Requires the symmetry invariants to hold; raises NegativePrimitiveError
    when any entry comes out negative (the input then lies outside the
    hyper-Kahler domain, a hard-Lefschetz violation for the 2-form).
    """
    symmetry = d.symmetry_violations()
    if symmetry:
        raise ValidationError(
            "primitive multiplicities need a symmetric, nonnegative table:\n"
            + list_violations(symmetry))
    table = getattr(d, _PRIMITIVE_TABLE, None)
    if table is None:
        table = PrimitiveTable(d.n, d.primitive_rows)
        object.__setattr__(d, _PRIMITIVE_TABLE, table)
    return table


def reconstruct_diamond(pt: PrimitiveTable) -> HodgeDiamond:
    """Rebuild the Hodge table from primitive multiplicities.

    For p <= n each irreducible string starting at (p - 2j, q) contributes one
    dimension, so h^{p,q} = sum_j prim(p-2j, q), built row by row as
    h^{p,q} = h^{p-2,q} + prim(p, q); rows past the middle are read through
    the column symmetry h^{p,q} = h^{2n-p,q}.  Exact inverse of
    :func:`primitive_multiplicities` on every valid input.
    """
    n = pt.n
    rows = list(pt.rows[:2])
    for p in range(2, n + 1):
        rows.append(tuple(map(operator.add, rows[p - 2], pt.rows[p])))
    rows.extend(rows[2 * n - p] for p in range(n + 1, 2 * n + 1))
    return HodgeDiamond(tuple(rows))


def supertrace_via_primitives(d: HodgeDiamond) -> LaurentPolynomial:
    """S(t) = sum_{q} sum_{p=0}^{n} (-1)^{p+q} t_{n-p+1} prim(p, q)."""
    pt = primitive_multiplicities(d)
    n = pt.n
    total = [0] * (n + 1)  # t_r, r <= n + 1, has exponents 0..n
    for p, row in enumerate(pt.rows):
        weight = (-1) ** p * (sum(row[0::2]) - sum(row[1::2]))
        for e, c in (character(n - p + 1) * weight).terms():
            total[e] += c
    return LaurentPolynomial(dict(enumerate(total)))


def supertrace_via_rewrite(d: HodgeDiamond) -> LaurentPolynomial:
    """S(t) = sum_{q} sum_{p=0}^{n} (-1)^{p+q} h^{p,q} (t_{n-p+1} - t_{n-p-1}).

    The telescoped form over the diamond itself, with t_r = 0 for r <= 0.
    Note the p = n term carries the sign (-1)^{n+q}; this convention is forced
    by the telescoping (and by the K3 case, whose middle term must contribute
    +20, not -20).

    Row p of the diamond gives one integer weight, (-1)^p sum_q (-1)^q h^{p,q};
    weight times each coefficient of t_{n-p+1}, and minus weight times each of
    t_{n-p-1}, are added straight into one coefficient list, so no polynomial is
    built per row and the rows are not regrouped by character.
    """
    n = d.n
    total = [0] * (n + 1)
    for p in range(n + 1):
        row = d.rows[p]
        weight = (-1) ** p * (sum(row[0::2]) - sum(row[1::2]))
        _accumulate(total, character(n - p + 1), weight)
        _accumulate(total, character(n - p - 1), -weight)
    return LaurentPolynomial(dict(enumerate(total)))


def supertrace_polynomial(d: HodgeDiamond) -> LaurentPolynomial:
    """S(t), computed by both routes and checked for exact agreement.

    The routes run and are compared on the first call for a diamond only; the
    agreed polynomial is then stored on the diamond and returned by later
    calls.  A diamond whose table fails a check stores nothing, so every call
    on it raises again.  Disagreement between the primitive form and the
    rewrite cannot be caused by input data and raises
    InternalInconsistencyError.
    """
    stored = getattr(d, _SUPERTRACE, None)
    if stored is not None:
        return stored
    primitive_form = supertrace_via_primitives(d)
    rewritten_form = supertrace_via_rewrite(d)
    if primitive_form != rewritten_form:
        raise InternalInconsistencyError(
            "supertrace forms disagree: "
            f"primitive {primitive_form.to_string('t')} vs "
            f"rewrite {rewritten_form.to_string('t')}")
    object.__setattr__(d, _SUPERTRACE, primitive_form)
    return primitive_form


@functools.cache
def _identity_report() -> type[IdentityReport]:
    """``IdentityReport``, imported on the first check: only a check loads ``dataclasses``."""
    from .report import IdentityReport
    return IdentityReport


def verify_supertrace_identity(d: HodgeDiamond) -> IdentityReport:
    """Check S(y + 1/y) = chi_{-y} / y^n as exact Laurent polynomials.

    A pass certifies the graded-trace identity for every SL(2) element at
    once, since both sides depend on the element only through its trace.
    """
    d.require_valid(ValidationLevel.STRUCTURAL)
    s_t = supertrace_polynomial(d)
    lhs = substitute_y_plus_yinv(s_t)
    rhs = d.normalized_genus()
    return _identity_report()(lhs == rhs, s_t, lhs, rhs, d.name)


def supertrace_value(d: HodgeDiamond, u: SL2Element) -> int:
    """The graded trace of u: S(trace(u)), always an integer."""
    return int(supertrace_polynomial(d).evaluate(u.trace))


class RozanskyWittenResult(NamedTuple):
    """The mapping-torus invariant for monodromy u, plus S(t) symbolically.

    The invariant depends on u only through its trace, hence is constant on
    conjugacy classes; the polynomial lets callers tabulate over them.
    """

    value: int
    supertrace: LaurentPolynomial
    trace: int


def rozansky_witten_invariant(d: HodgeDiamond, u: SL2Element) -> RozanskyWittenResult:
    """The mapping-torus invariant of the integer monodromy u.

    Requires STRICT validity: the invariant is only defined for irreducible
    compact hyper-Kahler Hodge structures.
    """
    d.require_valid(ValidationLevel.STRICT)
    s_t = supertrace_polynomial(d)
    return RozanskyWittenResult(int(s_t.evaluate(u.trace)), s_t, u.trace)
