"""Unit tests for SL(2) elements and irreducible characters."""

import random

import pytest

from hkgenus.errors import InputError
from hkgenus.laurent import LaurentPolynomial
from hkgenus.sampling import random_sl2
from hkgenus.sl2 import (
    SL2Element,
    _character,
    character,
    eigenvalue_polynomial,
    verify_character_identity,
)


def test_trace_examples():
    assert SL2Element.identity().trace == 2
    assert SL2Element(0, -1, 1, 0).trace == 0
    assert SL2Element(2, 1, 1, 1).trace == 3


def test_determinant_enforced_at_construction():
    with pytest.raises(InputError):
        SL2Element(1, 0, 0, 2)
    with pytest.raises(InputError):
        SL2Element(0, 1, 1, 0)  # determinant -1
    with pytest.raises(InputError):
        SL2Element(1, 0, 0, True)


def test_matrix_parsing():
    assert SL2Element.from_string("0,-1;1,0") == SL2Element(0, -1, 1, 0)
    assert SL2Element.from_string(" 2 , 1 ; 1 , 1 ") == SL2Element(2, 1, 1, 1)
    for bad in ("1,0,0,1", "1,0;0", "1,x;0,1", "1;0"):
        with pytest.raises(InputError):
            SL2Element.from_string(bad)


def test_group_operations():
    u = SL2Element(2, 1, 1, 1)
    assert u @ u.inverse() == SL2Element.identity()
    v = SL2Element(1, 3, 0, 1)
    assert u.conjugate_by(v).trace == u.trace


def test_a_product_with_a_non_element_is_a_type_error():
    u = SL2Element(2, 1, 1, 1)
    for other in (5, (1, 0, 0, 1), "1,0;0,1"):
        with pytest.raises(TypeError, match="unsupported operand type"):
            u @ other
        with pytest.raises(TypeError, match="unsupported operand type"):
            other @ u


def test_character_base_cases_and_convention():
    assert character(1) == LaurentPolynomial.one()
    assert character(2) == LaurentPolynomial({1: 1})
    assert character(0) == LaurentPolynomial()
    assert character(-3) == LaurentPolynomial()

    class Count(int):
        pass

    assert character(Count(3)) == character(3) and character(Count(-1)) == LaurentPolynomial()


def test_closed_form_matches_the_defining_recursion_from_cold():
    # The recursion t_{r+1} = t t_r - t_{r-1} is built here from LaurentPolynomial
    # shifts and differences alone; the characters are built cold and out of order.
    recursion = [LaurentPolynomial(), LaurentPolynomial.one()]
    while len(recursion) <= 300:
        recursion.append(recursion[-1].shifted(1) - recursion[-2])
    order = list(range(1, 301))
    random.Random(16).shuffle(order)
    _character.cache_clear()
    for r in order:
        assert character(r) == recursion[r], r
    assert _character.cache_info().currsize == 300
    assert character(0) == character(-3) == LaurentPolynomial()
    for bad in (1.5, True):
        with pytest.raises(InputError) as info:
            character(bad)
        assert str(info.value) == f"representation dimension must be an integer, got {bad}"


def test_character_recursion_examples():
    assert character(3) == LaurentPolynomial({2: 1, 0: -1})
    assert character(4) == LaurentPolynomial({3: 1, 1: -2})


def test_character_degree():
    for r in range(1, 20):
        assert character(r).degree() == r - 1


def test_character_at_two_is_dimension():
    # Unipotent limit: every eigenvalue 1, so the trace is the dimension.
    for r in range(1, 30):
        assert character(r).evaluate(2) == r


def test_character_at_zero_cycles_mod_four():
    expected = {1: 1, 2: 0, 3: -1, 0: 0}
    for r in range(1, 30):
        assert character(r).evaluate(0) == expected[r % 4]


def test_character_identity_small_cases():
    assert verify_character_identity(1)
    assert verify_character_identity(2)
    with pytest.raises(InputError):
        verify_character_identity(0)


def test_eigenvalue_polynomial():
    assert eigenvalue_polynomial(SL2Element.identity()) == LaurentPolynomial(
        {2: 1, 1: -2, 0: 1})
    assert eigenvalue_polynomial(SL2Element(0, -1, 1, 0)) == LaurentPolynomial(
        {2: 1, 0: 1})
    assert eigenvalue_polynomial(SL2Element(2, 1, 1, 1)) == LaurentPolynomial(
        {2: 1, 1: -3, 0: 1})


def test_eigenvalue_polynomial_constant_term_is_determinant():
    rng = random.Random(5)
    for _ in range(50):
        u = random_sl2(rng)
        poly = eigenvalue_polynomial(u)
        assert poly.coefficient(0) == 1
        assert poly.coefficient(2) == 1
        assert poly.coefficient(1) == -u.trace


def test_random_words_have_determinant_one():
    rng = random.Random(17)
    for _ in range(100):
        u = random_sl2(rng, length=rng.randint(0, 12))
        assert u.a * u.d - u.b * u.c == 1
