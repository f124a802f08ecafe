"""Unit tests for exact Laurent polynomial arithmetic."""

import collections
import doctest
import random
import types
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import hkgenus.laurent
from hkgenus.errors import InputError
from hkgenus.laurent import LaurentPolynomial, substitute_y_plus_yinv
from reference_series import compose, naive_convolution


def test_canonical_form_never_stores_zeros():
    p = LaurentPolynomial({0: 1, 2: 3})
    q = LaurentPolynomial({0: -1, 2: -3})
    assert not dict((p + q).terms())
    assert (p + q) == LaurentPolynomial()
    assert LaurentPolynomial({5: 0, 1: 2}) == LaurentPolynomial({1: 2})


def test_substitute_degree_one():
    assert substitute_y_plus_yinv(LaurentPolynomial({1: 1})) == LaurentPolynomial({1: 1, -1: 1})


def test_substitute_square():
    expected = LaurentPolynomial({2: 1, 0: 2, -2: 1})
    assert substitute_y_plus_yinv(LaurentPolynomial({2: 1})) == expected


def test_substitute_supertrace_example():
    # 3t^2 + 42t + 228 -> 3y^2 + 42y + 234 + 42/y + 3/y^2, by hand expansion.
    p = LaurentPolynomial({2: 3, 1: 42, 0: 228})
    expected = LaurentPolynomial({2: 3, 1: 42, 0: 234, -1: 42, -2: 3})
    assert substitute_y_plus_yinv(p) == expected


def test_substitute_rejects_negative_exponents():
    with pytest.raises(InputError) as info:
        substitute_y_plus_yinv(LaurentPolynomial({-1: 1}))
    assert str(info.value) == "substitution requires a polynomial with nonnegative exponents"


def test_substitute_always_palindromic():
    rng = random.Random(7)
    for _ in range(100):
        p = LaurentPolynomial(
            {rng.randint(0, 7): rng.randint(-20, 20) for _ in range(rng.randint(0, 6))})
        assert substitute_y_plus_yinv(p).is_palindromic()


def test_compose_against_direct_expansion():
    inner = LaurentPolynomial({1: 2, 0: -1})          # 2y - 1
    outer = LaurentPolynomial({3: 1, 1: -4, 0: 2})    # v^3 - 4v + 2
    # (2y - 1)^3 - 4(2y - 1) + 2 = 8y^3 - 12y^2 + 6y - 1 - 8y + 4 + 2
    assert compose(outer, inner) == LaurentPolynomial({3: 8, 2: -12, 1: -2, 0: 5})
    assert compose(LaurentPolynomial(), inner) == LaurentPolynomial()
    with pytest.raises(ValueError):
        compose(LaurentPolynomial({-1: 1}), inner)


def test_naive_convolution_by_hand():
    # (y + y^-1)(y - y^-1) = y^2 - y^-2; (2y^-1 + 5y^3)(y^-4 + 7y^2) by hand.
    assert naive_convolution({1: 1, -1: 1}, {1: 1, -1: -1}) == {2: 1, -2: -1}
    assert naive_convolution({-1: 2, 3: 5}, {-4: 1, 2: 7}) == {-5: 2, 1: 14, -1: 5, 5: 35}
    assert naive_convolution({0: 3}, {}) == {}


def test_evaluate_exactly():
    p = LaurentPolynomial({1: 2, 0: 20, -1: 2})
    assert p.evaluate(1) == 24
    assert p.evaluate(-1) == 16
    assert p.evaluate(2) == 25  # 4 + 20 + 1
    with pytest.raises(ZeroDivisionError):
        p.evaluate(0)


def _term_by_term(p: LaurentPolynomial, value: int):
    """Sum of c * value^e over the terms, each negative power as an exact Fraction."""
    total = sum((Fraction(c, value**-e) if e < 0 else c * value**e for e, c in p.terms()),
                Fraction(0))
    return int(total) if total.denominator == 1 else total


@given(st.dictionaries(st.integers(-12, 40), st.integers(-10**30, 10**30), max_size=12),
       st.sampled_from([0, 1, -1]) | st.integers(-10**6, 10**6))
@example({-3: 5, 0: -1, 7: 2}, 0)
@example({-1: 1}, -1)
@example({}, 0)
def test_evaluate_by_horner_matches_the_term_by_term_sum(terms, value):
    p = LaurentPolynomial(terms)
    if value == 0 and any(e < 0 for e, _ in p.terms()):
        with pytest.raises(ZeroDivisionError):
            p.evaluate(value)
        return
    got, want = p.evaluate(value), _term_by_term(p, value)
    assert got == want and type(got) is type(want)


def test_evaluate_is_ring_homomorphism():
    rng = random.Random(99)
    for _ in range(50):
        a = LaurentPolynomial({rng.randint(0, 5): rng.randint(-9, 9) for _ in range(4)})
        b = LaurentPolynomial({rng.randint(0, 5): rng.randint(-9, 9) for _ in range(4)})
        v = rng.randint(-3, 3)
        product = LaurentPolynomial(naive_convolution(dict(a.terms()), dict(b.terms())))
        assert product.evaluate(v) == a.evaluate(v) * b.evaluate(v)
        assert (a + b).evaluate(v) == a.evaluate(v) + b.evaluate(v)


def test_variable_transforms():
    p = LaurentPolynomial({2: 3, 1: -1, -1: 5})
    assert p.negate_variable() == LaurentPolynomial({2: 3, 1: 1, -1: -5})
    assert p.shifted(2) == LaurentPolynomial({4: 3, 3: -1, 1: 5})


def test_palindromic_predicate():
    assert LaurentPolynomial({1: 2, 0: 20, -1: 2}).is_palindromic()
    assert not LaurentPolynomial({1: 2, -1: 3}).is_palindromic()
    assert LaurentPolynomial().is_palindromic()


def test_degree_and_valuation_of_zero():
    zero = LaurentPolynomial()
    assert zero.degree() is None
    assert zero.valuation() is None
    assert not zero


def test_rejects_bool_and_nonint():
    with pytest.raises(TypeError):
        LaurentPolynomial({0: True})
    with pytest.raises(TypeError):
        LaurentPolynomial({0: 1.5})


@pytest.mark.parametrize("terms, bad", [
    ({1: 0.0}, "0.0"),              # a zero is checked before it is dropped
    ({1: False}, "False"),
    ({True: 1}, "True"),
    ({0: 1, 1: 2.0}, "2.0"),        # one bad term among ints
    ({0: 0, 1: 2, "x": 1.5}, "'x'"),  # the exponent is checked before its coefficient
])
def test_constructor_error_names_the_first_bad_term(terms, bad):
    with pytest.raises(TypeError) as info:
        LaurentPolynomial(terms)
    assert str(info.value) == f"expected an integer, got {bad}"


def test_constructor_keeps_no_reference_to_its_argument():
    terms = {2: 3, 0: 1}
    p = LaurentPolynomial(terms)
    terms[2] = 99
    terms[5] = 1
    del terms[0]
    assert p == LaurentPolynomial({0: 1, 2: 3})
    assert list(p.terms()) == [(0, 1), (2, 3)]
    assert repr(p) == "LaurentPolynomial({0: 1, 2: 3})"


def test_constructor_takes_mappings_and_pairs():
    expected = LaurentPolynomial({-1: 2, 3: -4})
    assert LaurentPolynomial(types.MappingProxyType({-1: 2, 3: -4, 7: 0})) == expected
    assert LaurentPolynomial(collections.OrderedDict([(3, -4), (-1, 2)])) == expected
    assert LaurentPolynomial(collections.Counter({-1: 2, 3: -4})) == expected
    assert LaurentPolynomial([(-1, 2), (3, -4), (0, 0)]) == expected
    assert LaurentPolynomial(iter([(3, -4), (-1, 2)])) == expected
    assert LaurentPolynomial() == LaurentPolynomial({}) == LaurentPolynomial([])
    with pytest.raises(TypeError):
        LaurentPolynomial(types.MappingProxyType({1: 2.0}))


def test_scalar_product_rejects_bool():
    p = LaurentPolynomial({0: 3, 2: -1})
    with pytest.raises(TypeError):
        p * True
    with pytest.raises(TypeError):
        True * p


def test_only_integer_scaling_is_a_product():
    p = LaurentPolynomial({0: 3, 2: -1})
    q = LaurentPolynomial({1: 1})
    for product in (lambda: p * q, lambda: q * p, lambda: p * p, lambda: p ** 2,
                    lambda: p ** -1):
        with pytest.raises(TypeError):
            product()
    assert not hasattr(LaurentPolynomial, "variable")


def test_to_string_descending_order():
    p = LaurentPolynomial({2: 3, 1: 42, 0: 234, -1: 42, -2: 3})
    assert p.to_string("y") == "3y^2+42y+234+42y^-1+3y^-2"
    assert LaurentPolynomial({2: 2, 1: -20, 0: 2}).to_string("y") == "2y^2-20y+2"
    assert LaurentPolynomial({1: 2, 0: 20}).to_string("t") == "2t+20"
    assert LaurentPolynomial({1: 1, 0: -1}).to_string("y") == "y-1"
    assert LaurentPolynomial({1: -1}).to_string("y") == "-y"
    assert LaurentPolynomial().to_string("y") == "0"


def test_big_integer_coefficients():
    big = 10**40
    p = LaurentPolynomial({0: big})
    assert (p * big).coefficient(0) == (big * p).coefficient(0) == 10**80


def test_module_examples_run():
    result = doctest.testmod(hkgenus.laurent)
    assert result.attempted > 0 and result.failed == 0


def test_a_polynomial_equals_only_a_polynomial():
    assert LaurentPolynomial({0: 3}) != 3 and not LaurentPolynomial({0: 3}) == 3
    assert LaurentPolynomial() != 0 and LaurentPolynomial.one() != 1
    a, b = LaurentPolynomial({0: 3, 2: -1}), LaurentPolynomial([(2, -1), (0, 3), (1, 0)])
    assert a == b and hash(a) == hash(b)
    assert hash(LaurentPolynomial({0: 3})) == hash(LaurentPolynomial({0: 3, 5: 0}))


@pytest.mark.parametrize("combine", [
    lambda p: p + 1, lambda p: 1 + p, lambda p: p - 1, lambda p: 1 - p, lambda p: sum([p, p]),
])
def test_a_polynomial_adds_and_subtracts_only_a_polynomial(combine):
    with pytest.raises(TypeError):
        combine(LaurentPolynomial.one())
