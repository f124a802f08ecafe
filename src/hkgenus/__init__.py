"""Exact chi_y genus and SL(2) graded-trace toolkit for hyper-Kahler Hodge structures.

The package computes, in exact arbitrary-precision arithmetic with no
floating point anywhere:

* the chi_y genus of a Hodge diamond and its classical specializations
  (Euler characteristic, Todd genus, signature);
* the decomposition of cohomology under the sl(2) action attached to the
  holomorphic 2-form, at the level of primitive multiplicities;
* the graded-trace polynomial S(t) of an SL(2) element and the exact identity
  S(y + 1/y) = chi_{-y} / y^n, verified as Laurent-polynomial equality;
* mapping-torus invariants of integer monodromies (Rozansky-Witten type);
* the same genus and trace polynomials from formal Chern roots via a
  symbolic Riemann-Roch pipeline, for n = 1, 2;
* a derived catalog (K3 and Hilbert schemes K3[2..5]) plus JSON persistence.

See the demos/ directory for narrative walkthroughs of each capability and
the ``hkgenus`` command line for batch use.  ``series`` and ``sampling``,
which no command runs, and ``report`` (``IdentityReport``, the one dataclass)
load on first use of the module or of one of its names: a command line call
pays for none of them, nor for ``dataclasses`` unless it checks the identity.

Every module-level memo (the characters t_r, the built-in catalog, the
Goettsche expansions, the Riemann-Roch tables) is a ``functools.cache`` of a
pure function, whose ``cache_info()`` counts hits and misses; what one diamond
derives (its scan, primitive table and S(t)) it keeps by ``Frozen._kept``.
Values are deterministic and no lock is taken: threads racing on a cold entry
may compute it twice, and every caller still gets an equal value.
"""

import importlib

from .errors import InputError, InternalInconsistencyError, ValidationError
from .laurent import LaurentPolynomial, substitute_y_plus_yinv
from .hodge import (
    ClassicalValues,
    HodgeDiamond,
    ValidationLevel,
    ValidationReport,
    Violation,
)
from .sl2 import SL2Element, character, eigenvalue_polynomial, verify_character_identity
from .lefschetz import (
    PrimitiveTable,
    RozanskyWittenResult,
    primitive_multiplicities,
    reconstruct_diamond,
    rozansky_witten_invariant,
    supertrace_polynomial,
    supertrace_value,
    supertrace_via_primitives,
    supertrace_via_rewrite,
    verify_supertrace_identity,
)
from .riemann_roch import (
    ChernData,
    chi_minus_y_chern_coefficients,
    chi_minus_y_from_chern,
    supertrace_chern_coefficients,
    supertrace_from_chern,
)
from .catalog import (
    ManifoldRecord,
    builtin,
    builtin_names,
    goettsche_expand,
    load_manifold,
    save_manifold,
)

__version__ = "0.1.0"

_LAZY_MODULES = {
    "series": ("TruncatedSeries",),
    "sampling": ("random_primitive_table", "random_sl2", "random_structural_diamond"),
    "report": ("IdentityReport",),
}


def __getattr__(name: str):
    """Import a module of ``_LAZY_MODULES`` when it or one of its names is first asked for.

    The names are then stored here, so a later lookup is a plain attribute read.
    """
    for module_name, names in _LAZY_MODULES.items():
        if name == module_name or name in names:
            module = importlib.import_module(f"{__name__}.{module_name}")
            globals().update({public: getattr(module, public) for public in names})
            return globals()[name]
    from .boundary import quote
    raise AttributeError(f"module '{__name__}' has no attribute {quote(name)}")

__all__ = [
    "ChernData",
    "ClassicalValues",
    "HodgeDiamond",
    "InputError",
    "InternalInconsistencyError",
    "LaurentPolynomial",
    "ManifoldRecord",
    "PrimitiveTable",
    "RozanskyWittenResult",
    "SL2Element",
    "IdentityReport",
    "TruncatedSeries",
    "ValidationError",
    "ValidationLevel",
    "ValidationReport",
    "Violation",
    "builtin",
    "builtin_names",
    "character",
    "chi_minus_y_chern_coefficients",
    "chi_minus_y_from_chern",
    "eigenvalue_polynomial",
    "goettsche_expand",
    "load_manifold",
    "primitive_multiplicities",
    "random_primitive_table",
    "random_sl2",
    "random_structural_diamond",
    "reconstruct_diamond",
    "rozansky_witten_invariant",
    "save_manifold",
    "substitute_y_plus_yinv",
    "supertrace_chern_coefficients",
    "supertrace_from_chern",
    "supertrace_polynomial",
    "supertrace_value",
    "supertrace_via_primitives",
    "supertrace_via_rewrite",
    "verify_character_identity",
    "verify_supertrace_identity",
]
