"""Exception hierarchy shared across the package.

Two families matter to callers: ``InputError`` covers everything a user can
cause (bad files, bad matrices, tables that fail validation), while
``InternalInconsistencyError`` marks states that no input should be able to
reach and always indicates a bug.  The CLI maps the former to exit code 1 and
the latter to exit code 3.
"""

from __future__ import annotations


class InputError(Exception):
    """Invalid input: parse failure, domain violation, or failed validation."""


class DimensionMismatchError(InputError):
    """A Hodge table whose shape is not a (2n+1) x (2n+1) square, n >= 1."""


class ValidationError(InputError):
    """A structurally well-shaped table that violates required invariants.

    Carries ``report``, the ValidationReport, when ``HodgeDiamond.require_valid`` raises it.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class NegativePrimitiveError(ValidationError):
    """A negative entry of a PrimitiveTable built from rows, raised only by its constructor.

    Such a table cannot arise from a compact hyper-Kahler manifold (it would
    violate hard Lefschetz for the symplectic form), so this is a property of
    the input, not a bug.
    """

    def __init__(self, p, q, value):
        from .boundary import quote  # boundary imports this module
        super().__init__(
            f"negative primitive multiplicity {quote(value)} at (p, q) = ({p}, {q})"
        )
        self.p = p
        self.q = q
        self.value = value


class UnknownManifoldError(InputError):
    """A built-in catalog lookup for a name that is not registered."""


class InternalInconsistencyError(Exception):
    """Two independently computed forms of the same quantity disagree.

    Never a data problem: valid and invalid inputs alike must either produce
    agreeing forms or fail earlier with an InputError.
    """
