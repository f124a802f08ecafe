"""``IdentityReport``, the one dataclass, so that ``dataclasses.replace`` can
perturb a report; ``verify_supertrace_identity`` imports it on its first call."""

from __future__ import annotations

from dataclasses import dataclass

from .laurent import LaurentPolynomial


@dataclass(frozen=True)
class IdentityReport:
    """Both sides of the supertrace identity, compared exactly."""

    passed: bool
    supertrace: LaurentPolynomial  # S(t), polynomial in the trace variable
    lhs: LaurentPolynomial         # S(y + 1/y)
    rhs: LaurentPolynomial         # chi_{-y} / y^n
    name: str | None = None
