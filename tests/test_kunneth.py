"""A product oracle for the whole identity path: Künneth on Hodge tables.

The Hodge numbers of X x Y are the convolution
h^{p,q}_{X x Y} = sum_{a,b} h_X^{a,b} h_Y^{p-a,q-b}.  Both chi_{-y} and y^n
multiply, so S_{X x Y}(t) = S_X(t) S_Y(t), a route to S(t) that neither of
the library's two routes takes.  The sl(2) strings multiply by
Clebsch-Gordan, V_a (x) V_b = sum_{j < min(a, b)} V_{a+b-1-2j}, which gives
the primitive table of the product without any subtraction.

Disjoint unions are the additive oracle: the Hodge numbers of A + k B (A and k
copies of B, of the same dimension) add cell by cell, and so do chi_y, S(t),
the primitive table and every graded trace, since each is linear in the table.
"""

import random

import pytest

from hkgenus.catalog import builtin
from hkgenus.errors import ValidationError
from hkgenus.hodge import HodgeDiamond, ValidationLevel
from hkgenus.laurent import LaurentPolynomial
from hkgenus.lefschetz import (
    primitive_multiplicities,
    rozansky_witten_invariant,
    supertrace_polynomial,
    supertrace_value,
    verify_supertrace_identity,
)
from hkgenus.sampling import random_sl2, random_structural_diamond
from hkgenus.sl2 import SL2Element
from reference_series import naive_convolution

K3 = builtin("K3").diamond
K3_2 = builtin("K3[2]").diamond
ABELIAN_SURFACE = HodgeDiamond(((1, 2, 1), (2, 4, 2), (1, 2, 1)))


def kunneth(x: HodgeDiamond, y: HodgeDiamond) -> HodgeDiamond:
    """The Hodge table of X x Y, summed cell by cell."""
    side = x.side + y.side - 1
    rows = [[0] * side for _ in range(side)]
    for a, x_row in enumerate(x.rows):
        for b, h_x in enumerate(x_row):
            for c, y_row in enumerate(y.rows):
                for d, h_y in enumerate(y_row):
                    rows[a + c][b + d] += h_x * h_y
    return HodgeDiamond(rows)


def clebsch_gordan(x: HodgeDiamond, y: HodgeDiamond) -> list[list[int]]:
    """Primitive rows of X x Y from those of the factors.

    prim_X(p1, q1) starts a string of dimension a = n_X - p1 + 1, and
    prim_Y(p2, q2) one of dimension b = n_Y - p2 + 1; their tensor product
    starts strings at (p1 + p2 + 2j, q1 + q2) for j < min(a, b).
    """
    n_x, n_y = x.n, y.n
    n = n_x + n_y
    rows = [[0] * (2 * n + 1) for _ in range(n + 1)]
    for p1, x_row in enumerate(primitive_multiplicities(x).rows):
        for q1, m1 in enumerate(x_row):
            for p2, y_row in enumerate(primitive_multiplicities(y).rows):
                for q2, m2 in enumerate(y_row):
                    for j in range(min(n_x - p1 + 1, n_y - p2 + 1)):
                        rows[p1 + p2 + 2 * j][q1 + q2] += m1 * m2
    return rows


def supertrace_product(x: HodgeDiamond, y: HodgeDiamond) -> LaurentPolynomial:
    s_x, s_y = supertrace_polynomial(x), supertrace_polynomial(y)
    return LaurentPolynomial(naive_convolution(dict(s_x.terms()), dict(s_y.terms())))


def test_products_of_random_diamonds_satisfy_the_identity():
    rng = random.Random(2026)
    for _ in range(200):
        x = random_structural_diamond(rng, rng.randint(1, 6))
        y = random_structural_diamond(rng, rng.randint(1, 6))
        product = kunneth(x, y)
        assert product.n == x.n + y.n
        assert product.validate(ValidationLevel.STRUCTURAL).ok
        assert verify_supertrace_identity(product).passed
        assert supertrace_polynomial(product) == supertrace_product(x, y)
        assert [list(r) for r in primitive_multiplicities(product).rows] == clebsch_gordan(x, y)
        u = random_sl2(rng)
        assert supertrace_value(product, u) == supertrace_value(x, u) * supertrace_value(y, u)


def test_k3_times_k3_2_is_structural_but_not_irreducible():
    product = kunneth(K3, K3_2)
    assert product.n == 3
    assert supertrace_polynomial(product) == LaurentPolynomial({3: 6, 2: 144, 1: 1296, 0: 4560})
    assert supertrace_polynomial(product) == supertrace_product(K3, K3_2)
    assert product.validate(ValidationLevel.STRUCTURAL).ok
    assert not product.validate(ValidationLevel.STRICT).ok
    assert verify_supertrace_identity(product).passed
    with pytest.raises(ValidationError):
        rozansky_witten_invariant(product, random_sl2(random.Random(21)))


def test_odd_cohomology_gives_a_zero_supertrace():
    # h^{1,0} = 2 on the abelian surface, so A x K3 has real odd cells.
    product = kunneth(ABELIAN_SURFACE, K3)
    assert product.validate(ValidationLevel.STRUCTURAL).ok
    assert supertrace_polynomial(product) == LaurentPolynomial()
    assert verify_supertrace_identity(product).passed
    assert [list(r) for r in primitive_multiplicities(product).rows] == \
        clebsch_gordan(ABELIAN_SURFACE, K3)


def diamond_sum(a: HodgeDiamond, b: HodgeDiamond, k: int = 1) -> HodgeDiamond:
    """The Hodge table of A and k copies of B, summed cell by cell."""
    return HodgeDiamond([[x + k * y for x, y in zip(a_row, b_row)]
                         for a_row, b_row in zip(a.rows, b.rows)])


def test_sums_of_random_diamonds_add_every_derived_value():
    # Each sum is a fresh diamond, so nothing a summand keeps can leak into it.
    rng = random.Random(2026)
    for _ in range(300):
        n = rng.randint(1, 20)
        a, b = random_structural_diamond(rng, n), random_structural_diamond(rng, n)
        u = random_sl2(rng)
        for k in (1, 2, 10**30):
            total = diamond_sum(a, b, k)
            assert total.validate(ValidationLevel.STRUCTURAL).ok
            assert verify_supertrace_identity(total).passed
            assert total.chi_y() == a.chi_y() + k * b.chi_y()
            assert supertrace_polynomial(total) == (
                supertrace_polynomial(a) + k * supertrace_polynomial(b))
            assert [list(r) for r in primitive_multiplicities(total).rows] == [
                [x + k * y for x, y in zip(a_row, b_row)]
                for a_row, b_row in zip(primitive_multiplicities(a).rows,
                                        primitive_multiplicities(b).rows)]
            assert supertrace_value(total, u) == (
                supertrace_value(a, u) + k * supertrace_value(b, u))


def test_k3_2_beside_k3_times_k3():
    union = diamond_sum(K3_2, kunneth(K3, K3))
    assert supertrace_polynomial(union) == LaurentPolynomial({2: 7, 1: 122, 0: 628})
    assert primitive_multiplicities(union).rows == (
        (2, 0, 3, 0, 2), (0, 61, 0, 61, 0), (1, 0, 633, 0, 1))
    assert supertrace_value(union, SL2Element.from_string("2,1;1,1")) == 1057
    assert verify_supertrace_identity(union).passed
