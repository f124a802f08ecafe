"""Unit tests for the multiplicity-level decomposition and the graded trace."""

import functools
import math
import random

import pytest

import hkgenus.lefschetz
from hkgenus.catalog import builtin, builtin_names
from hkgenus.errors import (
    InputError,
    InternalInconsistencyError,
    NegativePrimitiveError,
    ValidationError,
)
from hkgenus.hodge import HodgeDiamond
from hkgenus.laurent import LaurentPolynomial
from hkgenus.lefschetz import (
    PrimitiveTable,
    primitive_multiplicities,
    reconstruct_diamond,
    rozansky_witten_invariant,
    supertrace_polynomial,
    supertrace_value,
    supertrace_via_primitives,
    supertrace_via_rewrite,
    verify_supertrace_identity,
)
from hkgenus.sampling import random_sl2, random_structural_diamond
from hkgenus.sl2 import SL2Element, character

K3 = builtin("K3").diamond
K3_2 = builtin("K3[2]").diamond
TORUS = HodgeDiamond(((1, 2, 1), (2, 4, 2), (1, 2, 1)))


def test_k3_primitive_rows_have_no_subtraction():
    table = primitive_multiplicities(K3)
    assert table.rows[0] == (1, 0, 1)   # prim(0,q) = h^{0,q}
    assert table.rows[1] == (0, 20, 0)  # prim(1,q) = h^{1,q}


def test_k3_2_primitive_subtractions():
    table = primitive_multiplicities(K3_2)
    assert table.rows[2][0] == K3_2.rows[2][0] - K3_2.rows[0][0] == 0
    assert table.rows[2][2] == 232 - 1 == 231


def test_negative_primitive_detected():
    # Symmetric 5x5 table with h^{0,0} = 1 but h^{2,0} = 0: not symplectic.
    rows = [[0] * 5 for _ in range(5)]
    for p, q in ((0, 0), (0, 4), (4, 0), (4, 4)):
        rows[p][q] = 1
    diamond = HodgeDiamond(tuple(tuple(r) for r in rows))
    assert diamond.validate().summary() == (
        "fail (structural), 2 violation(s):\n"
        "  [negative_primitive] at (p=2, q=0): h^{2,0} - h^{0,0} = -1 is negative\n"
        "  [negative_primitive] at (p=2, q=4): h^{2,4} - h^{0,4} = -1 is negative")
    with pytest.raises(NegativePrimitiveError) as info:
        primitive_multiplicities(diamond)
    assert (info.value.p, info.value.q, info.value.value) == (2, 0, -1)
    assert str(info.value) == "negative primitive multiplicity -1 at (p, q) = (2, 0)"


def test_primitive_requires_symmetric_table():
    rows = ((1, 0, 0), (0, 0, 0), (0, 0, 1))
    with pytest.raises(ValidationError) as info:
        primitive_multiplicities(HodgeDiamond(rows))
    assert type(info.value) is ValidationError
    assert str(info.value) == (
        "primitive multiplicities need a symmetric, nonnegative table:\n"
        "  [column_symmetry] at (p=0, q=0): h^{0,0} = 1 != 0 = h^{2,0}\n"
        "  [column_symmetry] at (p=0, q=2): h^{0,2} = 0 != 1 = h^{2,2}\n"
        "  [column_symmetry] at (p=2, q=0): h^{2,0} = 0 != 1 = h^{0,0}\n"
        "  [column_symmetry] at (p=2, q=2): h^{2,2} = 1 != 0 = h^{0,2}")


def test_primitive_table_rejects_negative_entries():
    with pytest.raises(NegativePrimitiveError):
        PrimitiveTable(1, ((1, 0, 1), (0, -1, 0)))


@pytest.mark.parametrize("n, message", [
    (True, "n must be an integer, got True"),
    ("1", "n must be an integer, got '1'"),
    (1.0, "n must be an integer, got 1.0"),
    (0, "n must be positive, got 0"),
])
def test_primitive_table_refuses_a_non_int_n(n, message):
    with pytest.raises(InputError) as info:
        PrimitiveTable(n, ((1, 0, 1), (0, 0, 0)))
    assert str(info.value) == message


class Count(int):
    pass


def test_primitive_table_checks_entries_in_order():
    assert PrimitiveTable(1, ((1, 0, 1), (0, Count(2), 0))).rows[1][1] == 2
    cases = [
        (((1, 0, 1), (0, True, 0)), InputError, "entry (1, 1) is not an integer: True"),
        (((1, 0, 1), (0, 2.0, 0)), InputError, "entry (1, 1) is not an integer: 2.0"),
        (((1, -1, "x"), (0, 0, 0)), NegativePrimitiveError,
         "negative primitive multiplicity -1 at (p, q) = (0, 1)"),
        (((1, "x", -1), (0, 0, 0)), InputError, "entry (0, 1) is not an integer: 'x'"),
        (((1, 0, 1), (0, 0, Count(-3))), NegativePrimitiveError,
         "negative primitive multiplicity -3 at (p, q) = (1, 2)"),
        (((1, 0, 1), (0, 5, False)), InputError, "entry (1, 2) is not an integer: False"),
        (((1, 0, 1), (0, 5, -2)), NegativePrimitiveError,
         "negative primitive multiplicity -2 at (p, q) = (1, 2)"),
        (((1, 0, -1), (2, 5, 1.0)), NegativePrimitiveError,
         "negative primitive multiplicity -1 at (p, q) = (0, 2)"),
    ]
    for rows, error, message in cases:
        with pytest.raises(error) as info:
            PrimitiveTable(1, rows)
        assert str(info.value) == message


def test_each_diamond_is_scanned_once(monkeypatch):
    computed = []
    for name in ("_symmetry_scan", "primitive_rows"):
        original = HodgeDiamond.__dict__[name].func

        def counting(self, name=name, original=original):
            computed.append((name, self))
            return original(self)

        prop = functools.cached_property(counting)
        prop.__set_name__(HodgeDiamond, name)
        monkeypatch.setattr(HodgeDiamond, name, prop)
    rng = random.Random(2024)
    diamond = random_structural_diamond(rng, 6)
    assert verify_supertrace_identity(diamond).passed
    supertrace_value(diamond, random_sl2(rng))
    primitive_multiplicities(diamond)
    assert sorted(computed, key=lambda c: c[0]) == [
        ("_symmetry_scan", diamond), ("primitive_rows", diamond)]
    # STRICT and STRUCTURAL validation share the scan.
    computed.clear()
    k3_2 = HodgeDiamond(K3_2.rows)
    rozansky_witten_invariant(k3_2, SL2Element(2, 1, 1, 1))
    verify_supertrace_identity(k3_2)
    assert sorted(computed, key=lambda c: c[0]) == [
        ("_symmetry_scan", k3_2), ("primitive_rows", k3_2)]


def count_route_calls(monkeypatch):
    """Count runs of both S(t) routes and constructions of PrimitiveTable."""
    calls = {"primitives": 0, "rewrite": 0, "table": 0}
    for key, name in (("primitives", "supertrace_via_primitives"),
                      ("rewrite", "supertrace_via_rewrite")):
        original = getattr(hkgenus.lefschetz, name)

        def counting(d, key=key, original=original):
            calls[key] += 1
            return original(d)

        monkeypatch.setattr(hkgenus.lefschetz, name, counting)
    init = PrimitiveTable.__init__

    def counting_init(self, *args):
        calls["table"] += 1
        init(self, *args)

    monkeypatch.setattr(PrimitiveTable, "__init__", counting_init)
    return calls


def test_supertrace_and_primitive_table_are_built_once_per_diamond(monkeypatch):
    calls = count_route_calls(monkeypatch)
    d = HodgeDiamond(builtin("K3[3]").diamond.rows)
    u = SL2Element(2, 1, 1, 1)
    report = verify_supertrace_identity(d)
    value = supertrace_value(d, u)
    result = rozansky_witten_invariant(d, u)
    table = primitive_multiplicities(d)
    assert calls == {"primitives": 1, "rewrite": 1, "table": 1}
    for _ in range(3):
        assert verify_supertrace_identity(d) == report
        assert supertrace_value(d, u) == value == result.value
        assert rozansky_witten_invariant(d, u) == result
        assert primitive_multiplicities(d) is table
    assert calls == {"primitives": 1, "rewrite": 1, "table": 1}
    assert supertrace_polynomial(d) is report.supertrace is result.supertrace


def test_warm_rewrite_route_builds_only_its_result(monkeypatch):
    # Rows p = n - 1 and n ask for t_0 and t_-1: one shared zero, built at import.
    init = LaurentPolynomial.__init__
    built = []

    def counted(self, *args):
        built.append(args)
        init(self, *args)

    for d in (K3, K3_2, builtin("K3[5]").diamond):
        expected = supertrace_via_rewrite(d)  # characters cached
        built.clear()
        monkeypatch.setattr(LaurentPolynomial, "__init__", counted)
        assert supertrace_via_rewrite(d) == expected
        monkeypatch.undo()
        assert len(built) == 1, d.name
    assert character(0) is character(-3) == LaurentPolynomial.zero()
    with pytest.raises(AttributeError):
        character(0)._terms = {1: 1}


def test_failing_diamonds_store_nothing_and_fail_alike(monkeypatch):
    calls = count_route_calls(monkeypatch)
    corrupted = [list(r) for r in builtin("K3[2]").diamond.rows]
    corrupted[0][1] += 1  # breaks Serre and conjugation symmetry
    negative = [[0] * 5 for _ in range(5)]
    for p, q in ((0, 0), (0, 4), (4, 0), (4, 4)):
        negative[p][q] = 1  # symmetric, but prim(2, 0) = -1
    u = SL2Element(2, 1, 1, 1)
    calls_by_name = {
        "verify": verify_supertrace_identity,
        "polynomial": supertrace_polynomial,
        "value": lambda d: supertrace_value(d, u),
        "rw": lambda d: rozansky_witten_invariant(d, u),
        "primitive": primitive_multiplicities,
    }
    for rows in (corrupted, negative):
        for name, call in calls_by_name.items():
            errors = []
            for d in (HodgeDiamond(rows),) * 3 + (HodgeDiamond(rows),):
                with pytest.raises(ValidationError) as info:
                    call(d)
                errors.append((type(info.value), str(info.value)))
            assert errors == [errors[0]] * 4, name
    # Nothing was kept, so every call that gets past validation starts the
    # work again: "polynomial" and "value" run the primitive route on both
    # tables, and on the negative table they and "primitive" build the table.
    assert calls == {"primitives": 2 * 2 * 4, "rewrite": 0, "table": 3 * 4}


def test_disagreeing_routes_store_nothing(monkeypatch):
    d = HodgeDiamond(K3.rows)
    rewrite = hkgenus.lefschetz.supertrace_via_rewrite
    monkeypatch.setattr(hkgenus.lefschetz, "supertrace_via_rewrite",
                        lambda d: LaurentPolynomial.zero())
    for _ in range(2):
        with pytest.raises(InternalInconsistencyError):
            supertrace_polynomial(d)
    monkeypatch.setattr(hkgenus.lefschetz, "supertrace_via_rewrite", rewrite)
    assert supertrace_polynomial(d) == LaurentPolynomial({1: 2, 0: 20})


def test_stored_supertrace_belongs_to_one_diamond(monkeypatch):
    # Plant a wrong S(t) on one diamond through agreeing patched routes; an
    # equal diamond (== ignores what is stored) must compute its own.
    planted = LaurentPolynomial({5: 1})
    first = HodgeDiamond(K3.rows, name="first")
    for name in ("supertrace_via_primitives", "supertrace_via_rewrite"):
        monkeypatch.setattr(hkgenus.lefschetz, name, lambda d: planted)
    assert supertrace_polynomial(first) is planted
    monkeypatch.undo()
    assert repr(first) == repr(HodgeDiamond(K3.rows, name="first"))
    for other in (HodgeDiamond(K3.rows, name="first"), HodgeDiamond(first.rows, "other")):
        assert other == first and hash(other) == hash(first)
        assert supertrace_polynomial(other) == LaurentPolynomial({1: 2, 0: 20})
        assert supertrace_value(other, SL2Element.identity()) == 24
        assert verify_supertrace_identity(other).passed
    assert supertrace_polynomial(first) is planted


def test_round_trip_on_catalog():
    for name in builtin_names():
        d = builtin(name).diamond
        assert reconstruct_diamond(primitive_multiplicities(d)) == d


def test_single_block_reconstruction():
    # One 2-dimensional string at column 0 (and its q-mirror): rows p = 0, 2.
    table = PrimitiveTable(1, ((1, 0, 1), (0, 0, 0)))
    diamond = reconstruct_diamond(table)
    assert diamond.rows == ((1, 0, 1), (0, 0, 0), (1, 0, 1))
    assert diamond.validate().ok


def test_round_trip_on_random_tables():
    rng = random.Random(2024)
    for _ in range(100):
        d = random_structural_diamond(rng, rng.randint(1, 4))
        assert reconstruct_diamond(primitive_multiplicities(d)) == d


def test_supertrace_closed_forms():
    assert supertrace_polynomial(K3) == LaurentPolynomial({1: 2, 0: 20})
    assert supertrace_polynomial(K3_2) == LaurentPolynomial({2: 3, 1: 42, 0: 228})


def test_supertrace_both_routes_agree():
    rng = random.Random(31)
    diamonds = [builtin(name).diamond for name in builtin_names()]
    diamonds += [random_structural_diamond(rng, rng.randint(1, 4)) for _ in range(50)]
    for d in diamonds:
        assert supertrace_via_primitives(d) == supertrace_via_rewrite(d)


def test_supertrace_routes_at_n_one():
    rng = random.Random(1)
    diamonds = [K3, TORUS] + [random_structural_diamond(rng, 1) for _ in range(30)]
    for d in diamonds:
        # (-1)^q-signed row sums: S(t) = w_0 t_2 - w_1 t_1.
        w = [sum((-1) ** q * h for q, h in enumerate(row)) for row in d.rows[:2]]
        expected = LaurentPolynomial({1: w[0], 0: -w[1]})
        assert supertrace_via_primitives(d) == supertrace_via_rewrite(d) == expected
        assert verify_supertrace_identity(d).passed


@pytest.mark.parametrize("n", [1, 2, 5])
def test_all_zero_table_has_zero_supertrace(n):
    d = HodgeDiamond(tuple((0,) * (2 * n + 1) for _ in range(2 * n + 1)))
    assert supertrace_via_primitives(d) == supertrace_via_rewrite(d) == LaurentPolynomial.zero()
    report = verify_supertrace_identity(d)
    assert report.passed
    assert report.supertrace == report.lhs == report.rhs == LaurentPolynomial.zero()


def test_routes_store_no_zero_coefficient():
    # h^{p,q} = 1 on even (p, q) only: prim is nonzero on row 0 alone, so S(t)
    # = (n+1) t_{n+1}, whose exponents skip every other slot of the list.
    rng = random.Random(3)
    diamonds = [HodgeDiamond(tuple(tuple(int(p % 2 == q % 2 == 0) for q in range(2 * n + 1))
                                   for p in range(2 * n + 1))) for n in range(1, 7)]
    for d in diamonds:
        assert supertrace_via_rewrite(d) == (d.n + 1) * character(d.n + 1)
    diamonds += [K3, K3_2] + [random_structural_diamond(rng, rng.randint(1, 8)) for _ in range(50)]
    diamonds.append(HodgeDiamond(((0, 0, 0), (0, 0, 0), (0, 0, 0))))
    for d in diamonds:
        for route in (supertrace_via_primitives, supertrace_via_rewrite):
            assert 0 not in dict(route(d).terms()).values()


def test_supertrace_by_brute_force_summation():
    # Independent oracle: sum (-1)^{p+q} t_{n-p+1} prim(p,q) with its own
    # character table, recomputed here from the recursion.
    def chars(up_to):
        table = {0: LaurentPolynomial.zero(), 1: LaurentPolynomial.one()}
        for r in range(2, up_to + 1):
            table[r] = table[r - 1].shifted(1) - table[r - 2]
        return table

    for d in (K3, K3_2, builtin("K3[3]").diamond):
        n = d.n
        table = chars(n + 1)
        prim = primitive_multiplicities(d)
        total = LaurentPolynomial.zero()
        for p in range(n + 1):
            for q in range(2 * n + 1):
                total = total + table[n - p + 1] * ((-1) ** (p + q) * prim.rows[p][q])
        assert supertrace_polynomial(d) == total


def sym_power(u: SL2Element, k: int) -> list[list[int]]:
    """The integer matrix of u acting on degree-k forms in x, y.

    u sends x to a x + c y and y to b x + d y; column i is the image of the
    basis monomial x^i y^(k-i), that is (a x + c y)^i (b x + d y)^(k-i),
    written in the same basis.
    """
    def power(s, t, m):  # coefficients of (s x + t y)^m by power of x
        return [math.comb(m, j) * s**j * t**(m - j) for j in range(m + 1)]

    columns = []
    for i in range(k + 1):
        left, right = power(u.a, u.c, i), power(u.b, u.d, k - i)
        column = [0] * (k + 1)
        for j, lc in enumerate(left):
            for l, rc in enumerate(right):
                column[j + l] += lc * rc
        columns.append(column)
    return [[columns[i][j] for i in range(k + 1)] for j in range(k + 1)]


def literal_supertrace(d: HodgeDiamond, u: SL2Element) -> int:
    """sum (-1)^{p+q} prim(p, q) tr Sym^{n-p}(u), from matrix traces alone."""
    n, rows = d.n, d.rows
    total = 0
    for p in range(n + 1):
        trace = sum(sym_power(u, n - p)[i][i] for i in range(n - p + 1))
        for q in range(2 * n + 1):
            prim = rows[p][q] - (rows[p - 2][q] if p >= 2 else 0)
            total += (-1) ** (p + q) * prim * trace
    return total


ELEMENTS = [SL2Element.identity(), SL2Element(-1, 0, 0, -1), SL2Element(1, 1, 0, 1),
            SL2Element(0, -1, 1, 0), SL2Element(1, -1, 1, 0), SL2Element(2, 1, 1, 1),
            SL2Element(-3, 2, -5, 3), SL2Element(7, 5, 4, 3)]


def test_sym_powers_form_a_representation():
    rng = random.Random(12)
    for _ in range(20):
        u, v, k = random_sl2(rng), random_sl2(rng), rng.randint(0, 6)
        su, sv, suv = sym_power(u, k), sym_power(v, k), sym_power(u @ v, k)
        product = [[sum(su[i][m] * sv[m][j] for m in range(k + 1)) for j in range(k + 1)]
                   for i in range(k + 1)]
        assert product == suv
    assert sym_power(SL2Element.identity(), 3) == [[int(i == j) for j in range(4)]
                                                  for i in range(4)]


def test_supertrace_is_the_literal_graded_trace_of_sym_powers():
    # The paper's super trace of an SL(2) element read literally: matrix
    # traces of Sym^k(u), no character recursion.  Checks every S(t) kernel
    # against an oracle that shares none of their code.
    rng = random.Random(2024)
    catalog = [builtin(f"K3[{m}]" if m > 1 else "K3").diamond for m in range(1, 6)]
    randoms = [random_structural_diamond(rng, rng.randint(1, 6)) for _ in range(30)]
    elements = ELEMENTS + [random_sl2(rng) for _ in range(4)]
    for d in catalog + randoms:
        for u in elements:
            assert supertrace_value(d, u) == literal_supertrace(d, u)
    for d in catalog:  # the invariant needs STRICT validity
        for u in elements:
            assert rozansky_witten_invariant(d, u).value == literal_supertrace(d, u)


def test_supertrace_at_two_is_euler():
    for name in builtin_names():
        d = builtin(name).diamond
        assert supertrace_polynomial(d).evaluate(2) == d.classical_values().euler


def test_halved_duality_form_with_consistent_middle_sign():
    # chi_{-y}/y^n rearranged over the first half of the diamond; the middle
    # term must carry (-1)^{n+q} (on K3 it contributes +20, not -20).
    for d in (K3, K3_2, builtin("K3[4]").diamond):
        n = d.n
        total = LaurentPolynomial.zero()
        for p in range(n):
            weight = sum((-1) ** (p + q) * d.rows[p][q] for q in range(2 * n + 1))
            total = total + LaurentPolynomial({p - n: 1, n - p: 1}) * weight
        middle = sum((-1) ** (n + q) * d.rows[n][q] for q in range(2 * n + 1))
        total = total + middle
        assert total == d.normalized_genus()


def test_form_disagreement_is_an_internal_error(monkeypatch):
    # No input can cause the two routes to differ; force it to check the guard.
    # The routes run on the first call for a diamond only, so use a fresh one.
    monkeypatch.setattr(hkgenus.lefschetz, "supertrace_via_rewrite",
                        lambda d: LaurentPolynomial.zero())
    with pytest.raises(InternalInconsistencyError):
        supertrace_polynomial(HodgeDiamond(K3.rows))


def test_verify_theorem_k3_sides():
    report = verify_supertrace_identity(K3)
    assert report.passed
    assert report.lhs == LaurentPolynomial({1: 2, 0: 20, -1: 2})
    assert report.rhs == report.lhs
    assert report.supertrace == LaurentPolynomial({1: 2, 0: 20})


def test_verify_theorem_k3_2_sides():
    report = verify_supertrace_identity(K3_2)
    assert report.passed
    assert report.lhs == LaurentPolynomial({2: 3, 1: 42, 0: 234, -1: 42, -2: 3})


def test_supertrace_value_examples():
    assert supertrace_value(K3, SL2Element.identity()) == 24
    assert supertrace_value(K3, SL2Element(-1, 0, 0, -1)) == 16
    assert supertrace_value(K3, SL2Element(0, -1, 1, 0)) == 20


def test_rw_invariant_examples():
    assert rozansky_witten_invariant(K3, SL2Element.identity()).value == 24
    # Parabolic element has trace 2, same invariant as the identity.
    assert rozansky_witten_invariant(K3, SL2Element(1, 1, 0, 1)).value == 24
    result = rozansky_witten_invariant(K3_2, SL2Element(2, 1, 1, 1))
    assert result.trace == 3
    assert result.value == 3 * 9 + 42 * 3 + 228 == 381
    assert result.supertrace == LaurentPolynomial({2: 3, 1: 42, 0: 228})


def test_rw_invariant_requires_strict_validity():
    with pytest.raises(ValidationError):
        rozansky_witten_invariant(TORUS, SL2Element.identity())


def test_rw_conjugacy_invariance():
    rng = random.Random(64)
    u = SL2Element(2, 1, 1, 1)
    base = rozansky_witten_invariant(K3, u).value
    for _ in range(50):
        g = random_sl2(rng)
        assert rozansky_witten_invariant(K3, u.conjugate_by(g)).value == base


def test_column_dimension_sum_rule():
    # Total dimension of column q equals sum_p (n-p+1) * prim(p,q).
    rng = random.Random(8)
    diamonds = [K3, K3_2] + [random_structural_diamond(rng, rng.randint(1, 4))
                             for _ in range(25)]
    for d in diamonds:
        n = d.n
        prim = primitive_multiplicities(d)
        for q in range(2 * n + 1):
            column_total = sum(d.rows[p][q] for p in range(2 * n + 1))
            weighted = sum((n - p + 1) * prim.rows[p][q] for p in range(n + 1))
            assert column_total == weighted
