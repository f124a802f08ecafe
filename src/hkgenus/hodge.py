"""Hodge diamonds of compact hyper-Kahler 2n-folds and the chi_y genus.

The diamond is the full table h^{p,q} = dim H^q(X, Omega_X^p) of a compact
complex manifold of complex dimension 2n (real dimension 4n).  Only this
dimension data is modeled, never the manifold, its metric or its 2-form.

A diamond coming from a compact hyper-Kahler X obeys three exact symmetries:

* Serre duality            h^{p,q} = h^{2n-p,2n-q}
* conjugation (Kahler)     h^{p,q} = h^{q,p}
* column symmetry          h^{p,q} = h^{2n-p,q}

The last one is special to the holomorphic symplectic situation: cup product
with the 2-form moves p by 2 while fixing q, and the resulting sl(2) action
reflects every column about its middle.  Validation comes in two levels:
STRUCTURAL checks the symmetries plus nonnegativity of the induced primitive
multiplicities, STRICT additionally pins the corner values that irreducibility
forces (h^{0,0} = 1, h^{1,0} = 0, h^{2,0} = 1).

The chi_y genus is the polynomial sum_{p,q} (-1)^q h^{p,q} y^p.  Its values at
y = -1, 0, 1 are the Euler characteristic, the Todd genus and the signature.
"""

from __future__ import annotations

import enum
import operator
from itertools import chain, islice
from typing import NamedTuple

from .boundary import Frozen, check_int_row, int_rows, is_int_table, quote
from .errors import InputError, ValidationError
from .laurent import LaurentPolynomial

MAX_LISTED = 20  # violations a failure message lists; it counts the rest


class ValidationLevel(enum.Enum):
    STRUCTURAL = "structural"
    STRICT = "strict"


class Violation(NamedTuple):
    """One violated invariant, located at table entry (p, q)."""

    kind: str
    p: int
    q: int
    message: str

    def __str__(self) -> str:
        return f"[{self.kind}] at (p={self.p}, q={self.q}): {self.message}"


class ValidationReport(NamedTuple):
    level: ValidationLevel
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        if self.ok:
            return f"pass ({self.level.value})"
        more = len(self.violations) - MAX_LISTED
        lines = [f"fail ({self.level.value}), {len(self.violations)} violation(s):"]
        lines += [f"  {v}" for v in self.violations[:MAX_LISTED]]
        return "\n".join(lines + [f"  ... and {more} more"] * (more > 0))


class ClassicalValues(NamedTuple):
    euler: int
    todd_genus: int
    signature: int


class HodgeDiamond(Frozen):
    """The (2n+1) x (2n+1) table h^{p,q}, rows indexed by p, columns by q.

    Construction enforces only the shape (square, odd side >= 3, integer
    entries) and that the name is a string or None; the symmetry and
    positivity invariants are checked explicitly through :meth:`validate` so
    that deliberately broken tables can be built and reported on.  The table
    is immutable, so every check reads the symmetry scan, the primitive
    differences and their negative entries, which ``Frozen._kept`` computes
    once per diamond and stores in ``vars(self)`` under ``_symmetry_scan``,
    ``_primitive_rows`` and ``_negative_primitives``; ``hkgenus.lefschetz``
    keeps the primitive table and S(t) under ``_primitive_table`` and
    ``_supertrace``.  None takes part in ``==``, ``hash`` or ``repr``.  A row
    p > n that is the same object as row 2n-p (as ``reconstruct_diamond``
    builds them) is not type-checked again.  Once column symmetry holds, rows
    p > n are copies of rows p <= n, so the scan's conjugation and sign checks
    and the genus read rows p <= n only.
    """

    _fields = ("rows", "name")

    def __init__(self, rows: tuple[tuple[int, ...], ...], name: str | None = None):
        if name is not None and not isinstance(name, str):
            raise InputError(f"diamond name must be a string or None, got {quote(name)}")
        rows = int_rows(rows)
        vars(self).update(rows=rows, name=name)
        side = len(rows)
        if side < 3 or side % 2 == 0:
            raise InputError(
                f"table side must be odd and at least 3 (real dimension 4n, n >= 1); got {side}")
        n = side // 2  # a row p > n that is the same object as row 2n-p is checked as that row
        checked = {p: row for p, row in enumerate(rows) if p <= n or row is not rows[2 * n - p]}
        if not is_int_table(checked.values(), side):
            for p, row in checked.items():
                check_int_row(p, row, side)

    def _key(self) -> tuple:
        return (self.rows,)  # the name takes no part in == or hash

    @property
    def n(self) -> int:
        """Half the complex dimension (the manifold has real dimension 4n)."""
        return (len(self.rows) - 1) // 2

    @property
    def side(self) -> int:
        return len(self.rows)

    def __str__(self) -> str:
        # Classic diamond rendering: antidiagonals p+q = const, top is (0,0).
        side = self.side
        cells = [[str(self.rows[p][d - p]) for p in range(max(0, d - side + 1), min(d, side - 1) + 1)]
                 for d in range(2 * side - 1)]
        width = max(len(s) for row in cells for s in row)
        lines = []
        for row in cells:
            pad = " " * ((side - len(row)) * (width + 1) // 2)
            lines.append(pad + " ".join(s.rjust(width) for s in row))
        return "\n".join(lines)

    # -- validation ----------------------------------------------------------

    def symmetry_violations(self) -> tuple[Violation, ...]:
        """Nonnegativity plus the three symmetries; no primitive check.

        The table is scanned on the first call only; later calls return the
        same tuple.
        """
        return self._kept("_symmetry_scan", HodgeDiamond._scan_symmetries)

    def _scan_symmetries(self) -> tuple[Violation, ...]:
        n, rows = self.n, self.rows
        # Whole-table comparisons settle the common case of a valid table.  Given
        # column symmetry (row p > n is row 2n-p), conjugation and nonnegativity of
        # rows p <= n imply both on every row, and with them Serre duality.
        if (rows[:n] == rows[:n:-1] and rows[:n + 1] == tuple(islice(zip(*rows), n + 1))
                and min(chain.from_iterable(rows[:n + 1])) >= 0):
            return ()
        found = [Violation("negative_entry", p, q, f"h^{{{p},{q}}} = {quote(h)} is negative")
                 for p, row in enumerate(rows) for q, h in enumerate(row) if h < 0]
        for p, row in enumerate(rows):
            for q, h in enumerate(row):
                if h == rows[2 * n - p][2 * n - q] == rows[q][p] == rows[2 * n - p][q]:
                    continue
                for kind, r, s in (("serre", 2 * n - p, 2 * n - q), ("conjugation", q, p),
                                   ("column_symmetry", 2 * n - p, q)):
                    if h != rows[r][s]:
                        found.append(Violation(kind, p, q, f"h^{{{p},{q}}} = {quote(h)} "
                                               f"!= {quote(rows[r][s])} = h^{{{r},{s}}}"))
        return tuple(found)

    @property
    def primitive_rows(self) -> tuple[tuple[int, ...], ...]:
        """The differences h^{p,q} - h^{p-2,q} for 0 <= p <= n, h^{p,q} = 0 for p < 0.

        On a table that passes :meth:`symmetry_violations` these are the
        primitive multiplicities of the sl(2) decomposition.
        """
        return self._kept("_primitive_rows", HodgeDiamond._primitive_differences)

    def _primitive_differences(self) -> tuple[tuple[int, ...], ...]:
        rows = self.rows
        return rows[:2] + tuple(
            tuple(map(operator.sub, rows[p], rows[p - 2]))
            for p in range(2, self.n + 1))

    def _find_negative_primitives(self) -> tuple[Violation, ...]:
        rows = self.primitive_rows
        return () if min(chain.from_iterable(rows)) >= 0 else tuple(
            Violation("negative_primitive", p, q,
                      f"h^{{{p},{q}}} - h^{{{p-2},{q}}} = {quote(value)} is negative")
            for p, row in enumerate(rows) for q, value in enumerate(row) if value < 0)

    def validate(self, level: ValidationLevel = ValidationLevel.STRUCTURAL) -> ValidationReport:
        """Check the invariants the stated level requires.

        STRUCTURAL: nonnegative entries, the three symmetries, and (when the
        symmetries hold) nonnegativity of every primitive multiplicity.
        STRICT: STRUCTURAL plus the irreducibility corner values.  Any other
        ``level``, such as the string ``"strict"``, raises InputError.
        """
        if not isinstance(level, ValidationLevel):
            raise InputError(f"level must be a ValidationLevel, got {quote(level)}")
        found = (self.symmetry_violations()
                 or self._kept("_negative_primitives", HodgeDiamond._find_negative_primitives))
        rows = self.rows
        if level is ValidationLevel.STRICT and (rows[0][0], rows[1][0], rows[2][0]) != (1, 0, 1):
            found += tuple(
                Violation("irreducibility", p, q,
                          f"h^{{{p},{q}}} = {quote(rows[p][q])}, irreducibility forces {want}")
                for (p, q, want) in ((0, 0, 1), (1, 0, 0), (2, 0, 1))
                if rows[p][q] != want)
        return ValidationReport(level, found)

    def require_valid(self, level: ValidationLevel = ValidationLevel.STRUCTURAL):
        report = self.validate(level)
        if not report.ok:
            raise ValidationError(report)

    # -- genus ---------------------------------------------------------------

    def _genus_coefficients(self) -> list[int]:
        """sum_q (-1)^q h^{p,q} for p = 0..2n, after STRUCTURAL validation."""
        self.require_valid(ValidationLevel.STRUCTURAL)
        half = [sum(row[0::2]) - sum(row[1::2]) for row in self.rows[:self.n + 1]]
        return half + half[-2::-1]  # validated column symmetry: row 2n-p is row p

    def chi_y(self) -> LaurentPolynomial:
        """The chi_y genus: coefficient of y^p is sum_q (-1)^q h^{p,q}.

        Requires STRUCTURAL validity; the result has degree at most 2n and
        equal leading and trailing coefficients (column symmetry).  Only rows
        p <= n are summed: validation checked that row 2n-p repeats row p.
        """
        return LaurentPolynomial(dict(enumerate(self._genus_coefficients())))

    def classical_values(self) -> ClassicalValues:
        """(Euler characteristic, Todd genus, signature) = chi_y at -1, 0, 1."""
        genus = self.chi_y()
        return ClassicalValues(
            euler=int(genus.evaluate(-1)),
            todd_genus=genus.coefficient(0),
            signature=int(genus.evaluate(1)),
        )

    def normalized_genus(self) -> LaurentPolynomial:
        """chi_{-y} / y^n, a palindromic Laurent polynomial in y.

        Palindromicity (invariance under y -> 1/y) is exactly the column
        symmetry h^{p,q} = h^{2n-p,q} read through the genus.  Built directly
        from the row sums of :meth:`chi_y`, which read rows p <= n only.
        """
        n, coefficients = self.n, self._genus_coefficients()
        coefficients[1::2] = [-c for c in coefficients[1::2]]
        return LaurentPolynomial(dict(zip(range(-n, n + 1), coefficients)))
