"""Property-based tests: exact ring axioms and structural invariants."""

import enum
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hkgenus.catalog import builtin, builtin_names
from hkgenus.hodge import HodgeDiamond, ValidationLevel, Violation
from hkgenus.laurent import LaurentPolynomial, substitute_y_plus_yinv
from hkgenus.lefschetz import (
    primitive_multiplicities,
    reconstruct_diamond,
    verify_supertrace_identity,
)
from hkgenus.sampling import random_structural_diamond
from hkgenus.series import TruncatedSeries
from reference_series import Y_PLUS_YINV, compose

laurent_polys = st.dictionaries(
    st.integers(-6, 6), st.integers(-50, 50), max_size=6
).map(LaurentPolynomial)

trace_polys = st.dictionaries(
    st.integers(0, 6), st.integers(-50, 50), max_size=5
).map(LaurentPolynomial)

# Small coefficients and coefficients of more than 100 bits.
wide_coefficients = st.integers(-50, 50) | st.integers(-2**130, 2**130)
wide_laurent_polys = st.dictionaries(
    st.integers(-8, 8), wide_coefficients, max_size=6
).map(LaurentPolynomial)
wide_trace_polys = st.dictionaries(
    st.integers(0, 16), wide_coefficients, max_size=6
).map(LaurentPolynomial)


@given(laurent_polys, laurent_polys)
def test_multiplication_commutes(a, b):
    assert a * b == b * a


@given(laurent_polys, laurent_polys, laurent_polys)
def test_multiplication_associates(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(laurent_polys, laurent_polys, laurent_polys)
def test_distributivity(a, b, c):
    assert a * (b + c) == a * b + a * c


@given(laurent_polys)
def test_additive_inverse(a):
    assert a + (-a) == LaurentPolynomial.zero()


@given(laurent_polys, laurent_polys)
def test_degree_of_product_adds(a, b):
    if a and b:
        # Z has no zero divisors, so the bound is attained exactly.
        assert (a * b).degree() == a.degree() + b.degree()
        assert (a * b).valuation() == a.valuation() + b.valuation()


@given(trace_polys)
def test_eigenvalue_substitution_is_palindromic(p):
    image = substitute_y_plus_yinv(p)
    assert image.is_palindromic()
    # And it evaluates consistently at the unipotent point t = 2, y = 1.
    assert image.evaluate(1) == p.evaluate(2)


@given(wide_trace_polys)
def test_closed_form_substitution_matches_composition(p):
    assert substitute_y_plus_yinv(p) == compose(p, Y_PLUS_YINV)


@given(wide_laurent_polys, st.integers(-7, 7))
def test_evaluate_matches_rational_reference(p, value):
    if value == 0 and p.valuation() is not None and p.valuation() < 0:
        with pytest.raises(ZeroDivisionError):
            p.evaluate(value)
        return
    reference = sum((Fraction(c) * Fraction(value) ** e for e, c in p.terms()), Fraction(0))
    result = p.evaluate(value)
    assert result == reference
    assert type(result) is (int if reference.denominator == 1 else Fraction)


class Small(enum.IntEnum):
    ONE = 1
    TWO = 2


@given(st.sampled_from((True, False, 1.0, "1", None)), st.booleans())
def test_constructor_rejects_non_integers(bad, as_exponent):
    with pytest.raises(TypeError):
        LaurentPolynomial({bad: 1} if as_exponent else {1: bad})


def test_constructor_accepts_int_subclasses():
    assert LaurentPolynomial({Small.ONE: Small.TWO}) == LaurentPolynomial({1: 2})
    assert LaurentPolynomial({0: 0, 3: 4, Small.ONE: Small.TWO}) == \
        LaurentPolynomial({3: 4, 1: 2})
    assert LaurentPolynomial({2: 5}) * Small.TWO == LaurentPolynomial({2: 10})


@given(wide_laurent_polys, st.just(0) | st.integers(-2**200, 2**200))
def test_int_scalar_product_matches_constant_product(p, k):
    assert p * k == k * p == p * LaurentPolynomial.constant(k)
    assert all(type(c) is int and c != 0 for _, c in (p * k).terms())


series_terms = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    st.integers(-9, 9),
    max_size=5,
)


@given(series_terms, series_terms)
def test_series_multiplication_commutes(a, b):
    sa = TruncatedSeries(("x", "y"), (3, 3), a)
    sb = TruncatedSeries(("x", "y"), (3, 3), b)
    assert sa * sb == sb * sa


@given(series_terms, series_terms, series_terms)
@settings(max_examples=50)
def test_series_multiplication_associates_under_truncation(a, b, c):
    # Truncation discards only terms that can never re-enter (exponents are
    # nonnegative and only grow), so associativity survives it.
    sa = TruncatedSeries(("x", "y"), (3, 3), a)
    sb = TruncatedSeries(("x", "y"), (3, 3), b)
    sc = TruncatedSeries(("x", "y"), (3, 3), c)
    assert (sa * sb) * sc == sa * (sb * sc)


@given(st.integers(0, 10**9), st.integers(1, 40))
@settings(max_examples=40, deadline=None)
def test_reconstruction_inverts_the_decomposition(seed, n):
    diamond = random_structural_diamond(random.Random(seed), n)
    assert reconstruct_diamond(primitive_multiplicities(diamond)) == diamond


@given(st.integers(0, 10**9), st.integers(1, 4))
@settings(max_examples=150, deadline=None)
def test_random_diamonds_are_structural_and_satisfy_the_identity(seed, n):
    rng = random.Random(seed)
    diamond = random_structural_diamond(rng, n)
    assert diamond.validate(ValidationLevel.STRUCTURAL).ok
    assert reconstruct_diamond(primitive_multiplicities(diamond)) == diamond
    assert diamond.normalized_genus().is_palindromic()
    assert verify_supertrace_identity(diamond).passed


@given(st.integers(0, 10**9), st.integers(1, 6),
       st.sets(st.sampled_from(["serre", "conjugation", "column"])), st.booleans())
@settings(max_examples=150, deadline=None)
def test_symmetry_scan_is_empty_exactly_on_symmetric_nonnegative_tables(
        seed, n, closed_under, negative):
    # Move one cell of a valid table together with its images under some of
    # the three symmetries (all three: the table stays symmetric), or make
    # it negative, and compare with a cell-by-cell reference.
    rng = random.Random(seed)
    rows = [list(r) for r in random_structural_diamond(rng, n).rows]
    top = 2 * n
    maps = {"serre": lambda p, q: (top - p, top - q), "conjugation": lambda p, q: (q, p),
            "column": lambda p, q: (top - p, q)}
    orbit = {(rng.randint(0, top), rng.randint(0, top))}
    while True:
        grown = orbit | {maps[name](*cell) for name in closed_under for cell in orbit}
        if grown == orbit:
            break
        orbit = grown
    for p, q in orbit:
        rows[p][q] = -1 if negative else rows[p][q] + 1
    expected_ok = all(
        rows[p][q] >= 0 and rows[p][q] == rows[top - p][top - q] == rows[q][p] == rows[top - p][q]
        for p in range(top + 1) for q in range(top + 1))
    diamond = HodgeDiamond(tuple(map(tuple, rows)))
    assert (diamond.symmetry_violations() == ()) == expected_ok


def reference_scan(rows) -> list[Violation]:
    """Every cell of the table checked on its own: negative entries first, then
    each cell's Serre, conjugation and column-symmetry partners, in row order."""
    top = len(rows) - 1
    found = [Violation("negative_entry", p, q, f"h^{{{p},{q}}} = {h} is negative")
             for p, row in enumerate(rows) for q, h in enumerate(row) if h < 0]
    for p, row in enumerate(rows):
        for q, h in enumerate(row):
            for kind, r, s in (("serre", top - p, top - q), ("conjugation", q, p),
                               ("column_symmetry", top - p, q)):
                if h != rows[r][s]:
                    found.append(Violation(kind, p, q, f"h^{{{p},{q}}} = {h} != {rows[r][s]} = h^{{{r},{s}}}"))
    return found


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6])
@pytest.mark.parametrize("seed", range(8))
def test_scan_sees_a_lower_right_cell_moved_with_its_column_image(n, seed):
    # The cell (p, q) with p > n and q > n and its column-symmetry image
    # (2n - p, q) move together, so every row still equals its mirror row:
    # of the scan's whole-table comparisons only conjugation on rows p <= n
    # can see the change, and the cell-by-cell loop must then report it all.
    rng = random.Random(seed)
    rows = [list(r) for r in random_structural_diamond(rng, n).rows]
    top = 2 * n
    p, q = rng.randint(n + 1, top), rng.randint(n + 1, top)
    step = rng.choice((1, -1, 2))
    rows[p][q] += step
    rows[top - p][q] += step
    violations = HodgeDiamond(rows).symmetry_violations()
    assert violations
    assert list(violations) == reference_scan(rows)
    assert {v.kind for v in violations} >= {"serre", "conjugation"}


def genus_reference(d: HodgeDiamond) -> LaurentPolynomial:
    """chi_y summed over all 2n + 1 rows, with no use of the column symmetry."""
    return LaurentPolynomial({p: sum((-1) ** q * h for q, h in enumerate(row))
                              for p, row in enumerate(d.rows)})


def check_genus_shortcuts(d: HodgeDiamond) -> None:
    genus = d.chi_y()
    assert genus == genus_reference(d)
    assert d.normalized_genus() == genus.negate_variable().shifted(-d.n)


@given(st.integers(0, 10**9), st.integers(1, 8))
@settings(max_examples=100, deadline=None)
def test_genus_from_half_the_rows_is_the_all_rows_genus(seed, n):
    d = random_structural_diamond(random.Random(seed), n)
    check_genus_shortcuts(d)
    # Rows p > n of the reconstruction are the same objects as rows 2n - p.
    check_genus_shortcuts(reconstruct_diamond(primitive_multiplicities(d)))


@pytest.mark.parametrize("name", builtin_names())
def test_builtin_genus_from_half_the_rows_is_the_all_rows_genus(name):
    check_genus_shortcuts(builtin(name).diamond)
