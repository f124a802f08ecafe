"""Unit tests for the symbolic Riemann-Roch pipeline."""

from fractions import Fraction

import pytest

from hkgenus.catalog import builtin
from hkgenus.errors import InputError
from hkgenus.laurent import LaurentPolynomial, substitute_y_plus_yinv
from hkgenus.lefschetz import supertrace_polynomial
from hkgenus.riemann_roch import (
    ChernData,
    _symbolic_coefficients,
    chern_basis,
    chi_minus_y_chern_coefficients,
    chi_minus_y_from_chern,
    load_chern_data,
    parse_monomial_key,
    save_chern_data,
    supertrace_chern_coefficients,
    supertrace_from_chern,
)

K3_CHERN = ChernData(1, {"c2": 24})
K3_2_CHERN = ChernData(2, {"c2^2": 828, "c4": 324})


# The n = 1, 2 tables of the x-root series and Gaussian elimination that the
# multiplicative sequence replaced, pinned bit for bit: values, their type and
# the order of the keys.
GOLDEN_GENUS = {
    1: {"c2": {0: Fraction(1, 12), 1: Fraction(5, 6), 2: Fraction(1, 12)}},
    2: {"c2^2": {0: Fraction(1, 240), 1: Fraction(-1, 60), 2: Fraction(1, 40),
                 3: Fraction(-1, 60), 4: Fraction(1, 240)},
        "c4": {0: Fraction(-1, 720), 1: Fraction(31, 180), 2: Fraction(79, 120),
               3: Fraction(31, 180), 4: Fraction(-1, 720)}},
}
GOLDEN_TRACE = {
    1: {"c2": {0: Fraction(5, 6), 1: Fraction(1, 12)}},
    2: {"c2^2": {0: Fraction(1, 60), 1: Fraction(-1, 60), 2: Fraction(1, 240)},
        "c4": {0: Fraction(119, 180), 1: Fraction(31, 180), 2: Fraction(-1, 720)}},
}


def _exact_items(table):
    # Key order and value types, which == on dicts ignores.
    return [(key, type(c), e, c) for key, poly in table.items() for e, c in poly.items()]


@pytest.mark.parametrize("n", [1, 2])
def test_coefficient_tables_match_golden(n):
    for got, want in ((chi_minus_y_chern_coefficients(n), GOLDEN_GENUS[n]),
                      (supertrace_chern_coefficients(n), GOLDEN_TRACE[n])):
        assert got == want
        assert _exact_items(got) == _exact_items(want)


def test_chern_basis_follows_the_partitions():
    assert chern_basis(1) == (("c2", (1,)),)
    assert chern_basis(2) == (("c2^2", (1, 1)), ("c4", (2,)))
    assert [key for key, _ in chern_basis(3)] == ["c2^3", "c2c4", "c6"]
    assert [key for key, _ in chern_basis(4)] == ["c2^4", "c2^2c4", "c2c6", "c4^2", "c8"]
    # Partition counts p(n), each partition once and summing to n.
    for n, count in enumerate((1, 2, 3, 5, 7, 11, 15, 22), start=1):
        partitions = [partition for _, partition in chern_basis(n)]
        assert len(set(partitions)) == count
        assert all(sum(partition) == n for partition in partitions)


def test_todd_top_in_chern_basis():
    # chi_0 is the Todd genus, so the y^0 slice of the chi_{-y} integrand is the
    # classical Todd integrand for c1 = c3 = 0: td_2 = c2/12 and
    # td_4 = (3 c2^2 - c4)/720, recovered from the pair series alone.
    def todd(n):
        return {key: poly[0] for key, poly in chi_minus_y_chern_coefficients(n).items()}

    assert todd(1) == {"c2": Fraction(1, 12)}
    assert todd(2) == {"c2^2": Fraction(3, 720), "c4": Fraction(-1, 720)}


def test_todd_genus_evaluations_match_hodge_side():
    # chi(O) = n + 1 for a hyper-Kahler 4n-manifold.
    for n, data in ((1, K3_CHERN), (2, K3_2_CHERN)):
        coefficients = chi_minus_y_chern_coefficients(n)
        assert sum(poly[0] * data.value(key) for key, poly in coefficients.items()) == n + 1


def test_k3_3_chern_numbers_reproduce_the_hodge_side():
    # Ellingsrud-Goettsche-Lehn (J. Algebraic Geom. 10, 2001): K3[3] has
    # c2^3 = 36800, c2c4 = 14720, c6 = 3200.  n = 3 is the first dimension with
    # a mixed monomial; the public functions stop at n = 2, so this reads the
    # private tables.
    chern = {"c2^3": 36800, "c2c4": 14720, "c6": 3200}
    diamond = builtin("K3[3]").diamond

    def evaluate(kind):
        total = {}
        for key, poly in _symbolic_coefficients(3, kind):
            for exponent, c in poly:
                total[exponent] = total.get(exponent, 0) + chern[key] * c
        assert all(c.denominator == 1 for c in total.values())
        return LaurentPolynomial({e: int(c) for e, c in total.items()})

    assert [key for key, _ in _symbolic_coefficients(3, "genus")] == list(chern)
    assert evaluate("genus") == diamond.chi_y().negate_variable()
    assert evaluate("trace") == supertrace_polynomial(diamond)


def test_chi_k3_matches_hodge_side():
    expected = builtin("K3").diamond.chi_y().negate_variable()
    assert chi_minus_y_from_chern(1, K3_CHERN) == expected
    assert chi_minus_y_from_chern(1, K3_CHERN) == LaurentPolynomial({0: 2, 1: 20, 2: 2})


def test_supertrace_k3_matches_hodge_side():
    assert supertrace_from_chern(1, K3_CHERN) == supertrace_polynomial(builtin("K3").diamond)


def test_flat_torus_chern_data_gives_zero():
    zero = ChernData(1, {"c2": 0})
    assert chi_minus_y_from_chern(1, zero) == LaurentPolynomial.zero()
    assert supertrace_from_chern(1, zero) == LaurentPolynomial.zero()


def test_all_zero_chern_data_gives_zero_for_fourfolds():
    # Top-degree extraction of a degree-<2n expression: nothing survives.
    zero = ChernData(2, {"c2^2": 0, "c4": 0})
    assert chi_minus_y_from_chern(2, zero) == LaurentPolynomial.zero()
    assert supertrace_from_chern(2, zero) == LaurentPolynomial.zero()


def test_fourfold_agreements_with_frozen_constants():
    d = builtin("K3[2]").diamond
    assert chi_minus_y_from_chern(2, K3_2_CHERN) == d.chi_y().negate_variable()
    assert supertrace_from_chern(2, K3_2_CHERN) == supertrace_polynomial(d)


def test_derive_c2sq_for_k3_2():
    # Re-derivation of the frozen regression constant: with c4 = 324 pinned by
    # the Euler oracle, the symbolic system against the Hodge-side genus has
    # the single solution c2^2 = 828, consistent across all five coefficients.
    coefficients = chi_minus_y_chern_coefficients(2)
    target = builtin("K3[2]").diamond.chi_y().negate_variable()
    c4 = 324
    solutions = set()
    for exponent, a in coefficients["c2^2"].items():
        residual = (Fraction(target.coefficient(exponent))
                    - c4 * coefficients["c4"].get(exponent, Fraction(0)))
        solutions.add(residual / a)
    assert solutions == {Fraction(828)}


def test_substitution_consistency():
    # y^n * S((1+y^2)/y) equals chi_{-y}, the exact bridge between the forms.
    for n, data in ((1, K3_CHERN), (2, K3_2_CHERN)):
        s_t = supertrace_from_chern(n, data)
        chi = chi_minus_y_from_chern(n, data)
        assert substitute_y_plus_yinv(s_t).shifted(n) == chi


def test_chi_is_palindromic_after_centering():
    for n, data in ((1, K3_CHERN), (2, K3_2_CHERN)):
        assert chi_minus_y_from_chern(n, data).shifted(-n).is_palindromic()


def test_missing_monomial_rejected():
    with pytest.raises(InputError, match="missing"):
        chi_minus_y_from_chern(2, ChernData(2, {"c4": 324}))


def test_unsupported_n_rejected():
    for coefficients in (chi_minus_y_chern_coefficients, supertrace_chern_coefficients):
        with pytest.raises(InputError, match=r"for n in \[1, 2\]"):
            coefficients(3)
    with pytest.raises(InputError):
        ChernData(3, {})
    with pytest.raises(InputError) as error:
        ChernData(10 ** 4000, {})
    assert len(str(error.value)) < 200
    with pytest.raises(InputError):
        chi_minus_y_from_chern(2, K3_CHERN)  # data dimension mismatch


def test_non_integral_result_rejected():
    with pytest.raises(InputError, match="non-integral"):
        chi_minus_y_from_chern(1, ChernData(1, {"c2": 25}))


def test_monomial_key_validation():
    assert parse_monomial_key("c2^2") == (2, 2)
    assert parse_monomial_key("C4") == (4,)
    with pytest.raises(InputError):
        parse_monomial_key("c3")  # odd classes vanish
    with pytest.raises(InputError):
        parse_monomial_key("c2^0")
    with pytest.raises(InputError):
        parse_monomial_key("x2")
    with pytest.raises(InputError):
        ChernData(1, {"c2^2": 1})  # degree 4 monomial in degree 2 data
    with pytest.raises(InputError):
        ChernData(1, {"c2": 1.5})


def test_chern_data_file_round_trip(tmp_path):
    path = tmp_path / "fourfold.chern.json"
    save_chern_data(K3_2_CHERN, path)
    assert load_chern_data(path) == K3_2_CHERN
    content = path.read_text(encoding="utf-8")
    assert '"n": 2' in content and '"c2^2": 828' in content


def test_chern_data_file_parse_error_reports_position(tmp_path):
    path = tmp_path / "broken.chern.json"
    path.write_text('{"n": 2,\n  "chern": }\n', encoding="utf-8")
    with pytest.raises(InputError, match="line 2"):
        load_chern_data(path)


@pytest.mark.parametrize("n", [1.0, True, "1", None])
def test_chern_data_n_must_be_an_int(n):
    with pytest.raises(InputError, match="n must be an integer"):
        ChernData(n, {"c2": 24})


def test_chern_data_file_with_float_n_rejected(tmp_path):
    path = tmp_path / "float.chern.json"
    path.write_text('{"n": 1.0, "chern": {"c2": 24}}', encoding="utf-8")
    with pytest.raises(InputError, match="n must be an integer"):
        load_chern_data(path)


def test_keys_normalising_to_one_monomial_rejected():
    with pytest.raises(InputError, match="more than once"):
        ChernData(1, {" C2 ": 24, "c2": 25})
    with pytest.raises(InputError, match="more than once"):
        ChernData(2, {"c2^2": 828, "C2^2": 828, "c4": 324})


def test_non_string_key_rejected():
    with pytest.raises(InputError, match="must be strings"):
        ChernData(1, {1: 24})
