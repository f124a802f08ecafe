"""Unit tests for the symbolic Riemann-Roch pipeline."""

import collections
import hashlib
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hkgenus.catalog import builtin, builtin_names, load_manifold
from hkgenus.cli import _CHERN_FLAGS
from hkgenus.errors import InputError
from hkgenus.laurent import LaurentPolynomial, substitute_y_plus_yinv
from hkgenus.lefschetz import supertrace_polynomial
from hkgenus.riemann_roch import (
    ChernData,
    _symbolic_coefficients,
    chern_basis,
    chi_minus_y_chern_coefficients,
    chi_minus_y_from_chern,
    supertrace_chern_coefficients,
    supertrace_from_chern,
)
from hkgenus.sampling import random_structural_diamond

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


# The n = 3, 4 tables of the multiplicative sequence as computed with Fraction
# arithmetic throughout, pinned the same way; n = 5..10 by a digest of their repr.
F = Fraction
GOLDEN_SYMBOLIC = {
    (3, "genus"): (
        ("c2^3", ((0, F(1, 6048)), (1, F(-1, 1008)), (2, F(5, 2016)), (3, F(-5, 1512)),
            (4, F(5, 2016)), (5, F(-1, 1008)), (6, F(1, 6048)))),
        ("c2c4", ((0, F(-1, 6720)), (1, F(17, 3360)), (2, F(-127, 6720)), (3, F(47, 1680)),
            (4, F(-127, 6720)), (5, F(17, 3360)), (6, F(-1, 6720)))),
        ("c6", ((0, F(1, 30240)), (1, F(41, 5040)), (2, F(2189, 10080)), (3, F(4153, 7560)),
            (4, F(2189, 10080)), (5, F(41, 5040)), (6, F(1, 30240)))),
    ),
    (3, "trace"): (
        ("c2^3", ((0, F(-1, 756)), (1, F(1, 504)), (2, F(-1, 1008)), (3, F(1, 6048)))),
        ("c2c4", ((0, F(1, 56)), (1, F(-31, 1680)), (2, F(17, 3360)), (3, F(-1, 6720)))),
        ("c6", ((0, F(403, 756)), (1, F(547, 2520)), (2, F(41, 5040)), (3, F(1, 30240)))),
    ),
    (4, "genus"): (
        ("c2^4", ((0, F(1, 172800)), (1, F(-1, 21600)), (2, F(7, 43200)), (3, F(-7, 21600)),
            (4, F(7, 17280)), (5, F(-7, 21600)), (6, F(7, 43200)), (7, F(-1, 21600)),
            (8, F(1, 172800)))),
        ("c2^2c4", ((0, F(-17, 1814400)), (1, F(109, 453600)), (2, F(-569, 453600)),
            (3, F(1363, 453600)), (4, F(-719, 181440)), (5, F(1363, 453600)),
            (6, F(-569, 453600)), (7, F(109, 453600)), (8, F(-17, 1814400)))),
        ("c2c6", ((0, F(13, 3628800)), (1, F(227, 453600)), (2, F(991, 907200)),
            (3, F(-4051, 453600)), (4, F(5323, 362880)), (5, F(-4051, 453600)),
            (6, F(991, 907200)), (7, F(227, 453600)), (8, F(13, 3628800)))),
        ("c4^2", ((0, F(1, 725760)), (1, F(-31, 90720)), (2, F(367, 181440)),
            (3, F(-457, 90720)), (4, F(487, 72576)), (5, F(-457, 90720)), (6, F(367, 181440)),
            (7, F(-31, 90720)), (8, F(1, 725760)))),
        ("c8", ((0, F(-1, 1209600)), (1, F(31, 151200)), (2, F(7193, 302400)),
            (3, F(35737, 151200)), (4, F(57977, 120960)), (5, F(35737, 151200)),
            (6, F(7193, 302400)), (7, F(31, 151200)), (8, F(-1, 1209600)))),
    ),
    (4, "trace"): (
        ("c2^4", ((0, F(1, 10800)), (1, F(-1, 5400)), (2, F(1, 7200)), (3, F(-1, 21600)),
            (4, F(1, 172800)))),
        ("c2^2c4", ((0, F(-167, 113400)), (1, F(37, 16200)), (2, F(-23, 18900)),
            (3, F(109, 453600)), (4, F(-17, 1814400)))),
        ("c2c6", ((0, F(2833, 226800)), (1, F(-169, 16200)), (2, F(163, 151200)),
            (3, F(227, 453600)), (4, F(13, 3628800)))),
        ("c4^2", ((0, F(121, 45360)), (1, F(-13, 3240)), (2, F(61, 30240)),
            (3, F(-31, 90720)), (4, F(1, 725760)))),
        ("c8", ((0, F(32639, 75600)), (1, F(1273, 5400)), (2, F(1199, 50400)),
            (3, F(31, 151200)), (4, F(-1, 1209600)))),
    ),
}
GOLDEN_SYMBOLIC_SHA256 = {
    (5, "genus"): "0e0d8e70409af548db4fec7550bf3fd0d284253fb20759e218063f5f80a871d7",
    (5, "trace"): "f206d83d86ca60858e5d6a2af7adfeb39675ab7c28c216716585376aa7f13680",
    (6, "genus"): "0efd881cec7ae5e9797f283e3f38939fa4349573a3e438986715ce5c92f1f2d3",
    (6, "trace"): "3e0a1c1e183105e4b1de3a91cda3229ea9510c589757096122787aa2dc85b06a",
    (7, "genus"): "0a562c910ea82cd89e0d062fc14581bf81851c01434b17606c78db1413ca5dd6",
    (7, "trace"): "331fa4385e5a39f4e8cf8c7db4e1600d820c724d320cc469ebcbb2d49ee774e9",
    (8, "genus"): "3e13d019bba6926683d51bb8d1dcb532a9b6c1be3a34e661f88a7bb7e6c6571b",
    (8, "trace"): "c1f04e938d581082e4a069a1d8f77e3c048f2f01c2da77c0557df7baf26ea067",
    (9, "genus"): "8998e6a5780379a1f78104c952887d060bf40ea081ea0523071eb739d789d3b4",
    (9, "trace"): "0b755255ad23883794ef7c54d73cbff225c51779d9e5b1b6e26f1a4982344847",
    (10, "genus"): "aba6783e6e2350ef1cded4a86eb11f80b437072e5b1d030108af8556647fd44f",
    (10, "trace"): "bc3c8fbc2dd6adb1ec02e9e652d7c0cfc26adf04375ae05481a0bd39a2c42ba3",
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


@pytest.mark.parametrize("n, kind", sorted(GOLDEN_SYMBOLIC))
def test_symbolic_coefficients_match_golden(n, kind):
    got = _symbolic_coefficients(n, kind)
    assert got == GOLDEN_SYMBOLIC[n, kind]
    assert all(type(c) is Fraction for _, poly in got for _, c in poly)


@pytest.mark.parametrize("n, kind", sorted(GOLDEN_SYMBOLIC_SHA256))
def test_symbolic_coefficients_match_digest(n, kind):
    digest = hashlib.sha256(repr(_symbolic_coefficients(n, kind)).encode()).hexdigest()
    assert digest == GOLDEN_SYMBOLIC_SHA256[n, kind]


def test_genus_and_trace_integrands_agree_per_monomial():
    # Per Chern monomial, the chi_{-y} coefficients are palindromic of degree
    # 2n, and y^n * sum_k a_k (y + 1/y)^k over the S(t) coefficients a_k gives
    # them back: the substitution bridge holds before any Chern data enter.
    for n in range(1, 9):
        genus = _symbolic_coefficients(n, "genus")
        trace = _symbolic_coefficients(n, "trace")
        assert [key for key, _ in genus] == [key for key, _ in trace]
        for (key, g), (_, a) in zip(genus, trace):
            g = dict(g)
            assert set(g) <= set(range(2 * n + 1)), key
            assert all(g.get(e, 0) == g.get(2 * n - e, 0) for e in g), key
            substituted = collections.Counter()
            for k, a_k in a:
                for i in range(k + 1):
                    substituted[n + k - 2 * i] += a_k * math.comb(k, i)
            assert {e: c for e, c in substituted.items() if c} == g, key


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
    assert chi_minus_y_from_chern(1, zero) == LaurentPolynomial()
    assert supertrace_from_chern(1, zero) == LaurentPolynomial()


def test_all_zero_chern_data_gives_zero_for_fourfolds():
    # Top-degree extraction of a degree-<2n expression: nothing survives.
    zero = ChernData(2, {"c2^2": 0, "c4": 0})
    assert chi_minus_y_from_chern(2, zero) == LaurentPolynomial()
    assert supertrace_from_chern(2, zero) == LaurentPolynomial()


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
    # A key is accepted exactly when it folds to a chern_basis(n) key; every
    # other key gets the one error, which lists the keys of that n.
    for n, keys, listed in ((1, ("x2", "c3", "c2^0", "c2c", "c2c3", "c2^0c4", "c2^2", "c4",
                                 "c2c2c2x", "c2^1000000000"), "c2"),
                            (2, ("c2", "c2c4", "c2c2", "c2^02", "c4^1"), "c2^2, c4")):
        for key in keys:
            with pytest.raises(InputError) as error:
                ChernData(n, {key: 1})
            assert str(error.value) == (f"unknown Chern monomial '{key}' for n = {n}; "
                                        f"the keys for n = {n} are {listed}")
    assert ChernData(2, {" C2^2": 828, "c 4 ": 324}).values == {"c2^2": 828, "c4": 324}
    with pytest.raises(InputError, match="^Chern number for 'c2' must be an integer$"):
        ChernData(1, {"c2": 1.5})


FOLDABLE = "c0123456789^ C\u0662"


@st.composite
def chern_keys(draw):
    """Text over FOLDABLE, or a basis key of n <= 2 with cases and spaces changed."""
    if draw(st.booleans()):
        return draw(st.text(FOLDABLE, max_size=8))
    key = draw(st.sampled_from(["c2", "c2^2", "c4"]))
    return "".join(draw(st.sampled_from([ch, ch.upper(), " " + ch, ch + " "])) for ch in key)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([1, 2]), chern_keys())
@example(1, "c\u0662")
@example(2, "c2^02")
@example(2, "c4c2")
def test_a_key_is_accepted_exactly_when_it_folds_to_a_basis_key(n, key):
    folded = key.strip().lower().replace(" ", "")
    if folded in {basis_key for basis_key, _ in chern_basis(n)}:
        assert ChernData(n, {key: 24}).values == {folded: 24}
    else:
        with pytest.raises(InputError):
            ChernData(n, {key: 24})


def test_rr_flags_name_the_basis_keys_of_n_1_and_2():
    assert {key for _, key, _ in _CHERN_FLAGS} == {
        key for n in (1, 2) for key, _ in chern_basis(n)}


K3_FILE = '{"name": "K3", "n": %s, "hodge": [[1, 0, 1], [0, 20, 0], [1, 0, 1]],\n  "chern": %s}\n'


def test_chern_data_file_parse_error_reports_position(tmp_path):
    path = tmp_path / "broken.hodge.json"
    path.write_text(K3_FILE % (1, ""), encoding="utf-8")
    with pytest.raises(InputError, match="line 2"):
        load_manifold(path)


@pytest.mark.parametrize("n", [1.0, True, "1", None])
def test_chern_data_n_must_be_an_int(n):
    with pytest.raises(InputError, match="n must be an integer"):
        ChernData(n, {"c2": 24})


def test_chern_data_file_with_float_n_rejected(tmp_path):
    path = tmp_path / "float.hodge.json"
    path.write_text(K3_FILE % ("1.0", '{"c2": 24}'), encoding="utf-8")
    with pytest.raises(InputError, match='"n" must be a positive integer'):
        load_manifold(path)


def test_keys_normalising_to_one_monomial_rejected():
    with pytest.raises(InputError, match="more than once"):
        ChernData(1, {" C2 ": 24, "c2": 25})
    with pytest.raises(InputError, match="more than once"):
        ChernData(2, {"c2^2": 828, "C2^2": 828, "c4": 324})


def test_non_string_key_rejected():
    with pytest.raises(InputError, match="must be strings"):
        ChernData(1, {1: 24})


@pytest.mark.parametrize("values", [[1, 2], None, "c2", 24])
def test_chern_numbers_must_be_a_mapping(values):
    with pytest.raises(InputError, match="^Chern numbers must map monomial keys to integers$"):
        ChernData(1, values)


def test_mixed_monomial_keys_round_trip_the_basis():
    # Each basis key is already folded, so ChernData can accept it, and it
    # spells its partition: c_{2k}^m for each part k of multiplicity m.
    for n in range(1, 9):
        for key, partition in chern_basis(n):
            assert key == key.strip().lower().replace(" ", "")
            read = []
            for factor in key.split("c")[1:]:
                index, _, power = factor.partition("^")
                read += [int(index) // 2] * int(power or 1)
            assert tuple(read) == partition
    for n in (1, 2):
        keys = [key for key, _ in chern_basis(n)]
        assert list(ChernData(n, dict.fromkeys(keys, 0)).values) == keys


def libgober_wood(n, chi):
    """sum_p (-1)^p (6 (p - n)^2 - n) chi^p for chi_y = sum_p chi^p y^p.

    Libgober and Wood (J. Differential Geom. 32, 1990): zero on the genus of
    every compact complex 2n-fold with c_1 = 0, so on every hyper-Kahler one.
    """
    return sum((-1) ** p * (6 * (p - n) ** 2 - n) * c for p, c in chi.items())


def test_libgober_wood_relation_holds_on_every_hyperkahler_genus():
    for name in builtin_names():
        d = builtin(name).diamond
        assert libgober_wood(d.n, dict(d.chi_y().terms())) == 0, name
    # Every Chern monomial's chi_{-y} column, read as chi_y.
    for n in range(1, 9):
        for key, column in _symbolic_coefficients(n, "genus"):
            assert libgober_wood(n, {p: (-1) ** p * c for p, c in column}) == 0, (n, key)
    # STRUCTURAL checks symmetries only, so a random valid table fails it.
    rng = random.Random(7)
    for n in range(1, 6):
        d = random_structural_diamond(rng, n)
        assert libgober_wood(n, dict(d.chi_y().terms())) != 0, n


def rank(rows):
    """Rank of a matrix of Fractions, by exact row reduction."""
    rows, r = [list(row) for row in rows], 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for i in range(r + 1, len(rows)):
            factor = rows[i][col] / rows[r][col]
            rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        r += 1
    return r


def test_libgober_wood_vector_spans_the_left_kernel():
    # The y^0..y^n coefficients of chi_{-y} (the palindromic half) against the
    # Chern monomials have rank n: of the n + 1 coefficients, exactly one
    # linear relation holds on every column, and the test above shows it is
    # the Libgober-Wood one.
    for n in range(1, 9):
        columns = [dict(column) for _, column in _symbolic_coefficients(n, "genus")]
        matrix = [[Fraction(column.get(p, 0)) for column in columns] for p in range(n + 1)]
        assert rank(matrix) == n, n
