"""Unit tests for exact Laurent polynomial arithmetic."""

import collections
import doctest
import random
import types

import pytest

import hkgenus.laurent
from hkgenus.laurent import LaurentPolynomial, substitute_y_plus_yinv
from reference_series import compose

Y = LaurentPolynomial.variable()


def naive_convolution(a: dict, b: dict) -> dict:
    """Independent double-loop product oracle over coefficient dicts."""
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c != 0}


def test_difference_of_squares():
    assert (Y + Y**-1) * (Y - Y**-1) == LaurentPolynomial({2: 1, -2: -1})


def test_multiplicative_identity():
    p = LaurentPolynomial({3: 7, -2: -5, 0: 1})
    assert p * LaurentPolynomial.one() == p
    assert LaurentPolynomial.one() * p == p


def test_mul_matches_convolution_oracle():
    rng = random.Random(20240817)
    for _ in range(200):
        a = {rng.randint(-6, 6): rng.randint(-9, 9) for _ in range(rng.randint(0, 8))}
        b = {rng.randint(-6, 6): rng.randint(-9, 9) for _ in range(rng.randint(0, 8))}
        product = LaurentPolynomial(a) * LaurentPolynomial(b)
        expected = naive_convolution(
            dict(LaurentPolynomial(a).terms()), dict(LaurentPolynomial(b).terms()))
        assert product == LaurentPolynomial(expected)


def test_mul_degree_bounds():
    a = LaurentPolynomial({-1: 2, 3: 5})
    b = LaurentPolynomial({-4: 1, 2: 7})
    product = a * b
    assert product.degree() == 5
    assert product.valuation() == -5


def test_canonical_form_never_stores_zeros():
    p = LaurentPolynomial({0: 1, 2: 3})
    q = LaurentPolynomial({0: -1, 2: -3})
    assert not dict((p + q).terms())
    assert (p + q) == LaurentPolynomial.zero()
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
    with pytest.raises(ValueError):
        substitute_y_plus_yinv(LaurentPolynomial({-1: 1}))


def test_substitute_always_palindromic():
    rng = random.Random(7)
    for _ in range(100):
        p = LaurentPolynomial(
            {rng.randint(0, 7): rng.randint(-20, 20) for _ in range(rng.randint(0, 6))})
        assert substitute_y_plus_yinv(p).is_palindromic()


def test_compose_against_direct_expansion():
    inner = LaurentPolynomial({1: 2, 0: -1})          # 2y - 1
    outer = LaurentPolynomial({3: 1, 1: -4, 0: 2})    # v^3 - 4v + 2
    expected = inner**3 - 4 * inner + 2
    assert compose(outer, inner) == expected


def test_evaluate_exactly():
    p = LaurentPolynomial({1: 2, 0: 20, -1: 2})
    assert p.evaluate(1) == 24
    assert p.evaluate(-1) == 16
    assert p.evaluate(2) == 25  # 4 + 20 + 1
    with pytest.raises(ZeroDivisionError):
        p.evaluate(0)


def test_evaluate_is_ring_homomorphism():
    rng = random.Random(99)
    for _ in range(50):
        a = LaurentPolynomial({rng.randint(0, 5): rng.randint(-9, 9) for _ in range(4)})
        b = LaurentPolynomial({rng.randint(0, 5): rng.randint(-9, 9) for _ in range(4)})
        v = rng.randint(-3, 3)
        assert (a * b).evaluate(v) == a.evaluate(v) * b.evaluate(v)
        assert (a + b).evaluate(v) == a.evaluate(v) + b.evaluate(v)


def test_variable_transforms():
    p = LaurentPolynomial({2: 3, 1: -1, -1: 5})
    assert p.negate_variable() == LaurentPolynomial({2: 3, 1: 1, -1: -5})
    assert p.shifted(2) == LaurentPolynomial({4: 3, 3: -1, 1: 5})


def test_palindromic_predicate():
    assert LaurentPolynomial({1: 2, 0: 20, -1: 2}).is_palindromic()
    assert not LaurentPolynomial({1: 2, -1: 3}).is_palindromic()
    assert LaurentPolynomial.zero().is_palindromic()


def test_degree_and_valuation_of_zero():
    zero = LaurentPolynomial.zero()
    assert zero.degree() is None
    assert zero.valuation() is None
    assert not zero


def test_pow():
    assert (Y + 1) ** 3 == LaurentPolynomial({3: 1, 2: 3, 1: 3, 0: 1})
    assert Y**-2 == LaurentPolynomial({-2: 1})
    with pytest.raises(ValueError):
        (Y + 1) ** -1


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
    assert LaurentPolynomial() == LaurentPolynomial({}) == LaurentPolynomial.zero()
    with pytest.raises(TypeError):
        LaurentPolynomial(types.MappingProxyType({1: 2.0}))


def test_scalar_product_rejects_bool():
    p = LaurentPolynomial({0: 3, 2: -1})
    with pytest.raises(TypeError):
        p * True
    with pytest.raises(TypeError):
        True * p


def test_to_string_descending_order():
    p = LaurentPolynomial({2: 3, 1: 42, 0: 234, -1: 42, -2: 3})
    assert p.to_string("y") == "3y^2+42y+234+42y^-1+3y^-2"
    assert LaurentPolynomial({2: 2, 1: -20, 0: 2}).to_string("y") == "2y^2-20y+2"
    assert LaurentPolynomial({1: 2, 0: 20}).to_string("t") == "2t+20"
    assert LaurentPolynomial({1: 1, 0: -1}).to_string("y") == "y-1"
    assert LaurentPolynomial({1: -1}).to_string("y") == "-y"
    assert LaurentPolynomial.zero().to_string("y") == "0"


def test_big_integer_coefficients():
    big = 10**40
    p = LaurentPolynomial({0: big})
    assert (p * p).coefficient(0) == 10**80


def test_module_examples_run():
    result = doctest.testmod(hkgenus.laurent)
    assert result.attempted > 0 and result.failed == 0
