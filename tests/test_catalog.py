"""Unit tests for the built-in catalog, the product expansion and JSON io."""

from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hkgenus.catalog import (
    MAX_HILBERT_POINTS,
    ManifoldRecord,
    _goettsche_tables,
    _log_derivative_terms,
    builtin,
    builtin_names,
    goettsche_expand,
    load_manifold,
    record_to_json_dict,
    save_manifold,
)
from hkgenus.errors import (
    DimensionMismatchError,
    InputError,
    InternalInconsistencyError,
    UnknownManifoldError,
    ValidationError,
)
from hkgenus.hodge import HodgeDiamond, ValidationLevel
from hkgenus.lefschetz import supertrace_polynomial, verify_supertrace_identity
from hkgenus.riemann_roch import ChernData
from reference_series import hilbert_scheme_tables, symmetric_powers


def test_builtin_names_in_catalog_order():
    assert builtin_names() == ("K3", "K3[2]", "K3[3]", "K3[4]", "K3[5]")


def test_k3_seed_values():
    record = builtin("K3")
    assert record.diamond.rows == ((1, 0, 1), (0, 20, 0), (1, 0, 1))
    assert record.diamond.classical_values() == (24, 2, -16)
    assert record.chern is not None and record.chern.value("c2") == 24
    # Noether consistency: Todd genus = c2 / 12.
    assert record.diamond.classical_values().todd_genus == record.chern.value("c2") // 12


def test_k3_2_expected_entries():
    d = builtin("K3[2]").diamond
    assert d.rows[1][1] == 21
    assert d.rows[2][2] == 232
    assert d.classical_values().euler == 324


def test_unknown_names_rejected():
    with pytest.raises(UnknownManifoldError):
        builtin("K3[1]")  # alias of K3 is deliberately not registered
    with pytest.raises(UnknownManifoldError):
        builtin("Kum2")


def test_first_coefficient_reproduces_the_surface():
    k3 = builtin("K3").diamond
    expanded = goettsche_expand(k3, 2)
    assert expanded[0] == k3


def test_all_expansions_strict_valid():
    expanded = goettsche_expand(builtin("K3").diamond, 5)
    assert len(expanded) == 5
    for diamond in expanded:
        assert diamond.validate(ValidationLevel.STRICT).ok


def dense_euler_expansion(euler: int, order: int) -> list[int]:
    """Independent oracle: prod_k (1 - z^k)^{-euler} as a dense list."""
    series = [0] * (order + 1)
    series[0] = 1
    for k in range(1, order + 1):
        # Multiply by (1 - z^k)^{-euler} one binomial factor at a time.
        factor = [0] * (order + 1)
        for j in range(0, order // k + 1):
            factor[j * k] = comb(euler + j - 1, j)
        series = [
            sum(series[i] * factor[m - i] for i in range(m + 1))
            for m in range(order + 1)
        ]
    return series


def reference_tables(base: HodgeDiamond, n_max: int) -> list[tuple]:
    """F_1..F_n_max in the partition form of ``reference_series``, not Goettsche's product."""
    return hilbert_scheme_tables(base.rows, n_max)


def test_euler_specialization_matches_one_variable_expansion():
    # The signed sum of each table, x = y = -1 in the product, is the
    # one-variable Euler expansion term by term.
    n_max = 5
    expected = dense_euler_expansion(24, n_max)
    for m, rows in enumerate(reference_tables(builtin("K3").diamond, n_max), start=1):
        assert sum((-1) ** (p + q) * h for p, row in enumerate(rows)
                   for q, h in enumerate(row)) == expected[m]
    assert expected[2] == 324


@pytest.mark.parametrize("rows, euler", [
    (((1, 0, 1), (0, 20, 0), (1, 0, 1)), 24),
    (((1, 0, 0), (0, 1, 0), (0, 0, 1)), 3),
    (((1, 2, 1), (2, 4, 2), (1, 2, 1)), 0),
], ids=["K3", "plane", "abelian"])
def test_symmetric_powers_have_the_euler_numbers_of_macdonald(rows, euler):
    # x = y = 1 turns e(S^(k)) into the Euler number of the k-th symmetric
    # power, the z^k coefficient of (1 - z)^-e(S); an abelian surface has 0.
    powers = symmetric_powers(rows, 6)
    assert [sum(p.values()) for p in powers] == [1] + [comb(euler + k - 1, k) for k in range(1, 7)]


# Symmetric surface tables ((a,b,a),(b,c,b),(a,b,a)): STRICT holds exactly when
# a = 1 and b = 0, so half the draws are K3-like and the rest must be refused.
k3_like_bases = st.integers(0, 10**6).map(lambda h: (1, 0, h))
symmetric_bases = st.tuples(st.integers(0, 10**6), st.integers(0, 10**6), st.integers(0, 10**6))


@settings(max_examples=40, deadline=None)
@given(k3_like_bases | symmetric_bases, st.integers(1, MAX_HILBERT_POINTS))
@example((1, 0, 20), 5)
@example((1, 0, 10**6), 5)
@example((1, 0, 0), 4)
@example((1, 0, 0), 5)
@example((2, 0, 20), 3)
def test_expansion_matches_the_partition_form(entries, n_max):
    a, b, c = entries
    base = HodgeDiamond(((a, b, a), (b, c, b), (a, b, a)), name="S")
    expected = reference_tables(base, n_max)
    if not all(HodgeDiamond(rows).validate(ValidationLevel.STRICT).ok for rows in expected):
        # z^1 is the base itself, so the base is refused before any expansion.
        with pytest.raises(ValidationError, match=r"fail \(strict\)"):
            goettsche_expand(base, n_max)
        return
    got = goettsche_expand(base, n_max)
    assert [d.rows for d in got] == expected
    assert [d.name for d in got] == [f"S[{m}]" for m in range(1, n_max + 1)]


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(-10**6, 10**6) | st.just(0), min_size=9, max_size=9),
       st.integers(1, MAX_HILBERT_POINTS))
@example([1, 7, 1, 7, 20, 7, 1, 7, 1], 5)
@example([1, -7, 1, -7, 20, -7, 1, -7, 1], 5)
def test_recurrence_matches_the_partition_form_on_any_surface_table(entries, n_max):
    # Tables with h^{p,q} != 0 for odd p + q, or negative entries, never pass
    # STRICT, so only this test sees the recurrence's odd-sign terms.  The
    # second example's negative odd cells give tables with negative entries,
    # which the recurrence's nonzero-entry lists must keep on every run.
    base = HodgeDiamond(tuple(tuple(entries[3 * p:3 * p + 3]) for p in range(3)))
    assert list(_goettsche_tables(base, n_max)) == reference_tables(base, n_max)


def test_a_remainder_in_the_recurrence_is_an_internal_inconsistency(monkeypatch):
    def off_by_one(base, n_max):
        terms = _log_derivative_terms(base, n_max)
        a, b, c = terms[2][0]
        terms[2][0] = (a, b, c + 1)
        return terms

    monkeypatch.setattr("hkgenus.catalog._log_derivative_terms", off_by_one)
    base = HodgeDiamond(((1, 0, 1), (0, 21, 0), (1, 0, 1)))
    with pytest.raises(InternalInconsistencyError, match="2 does not divide entry"):
        list(_goettsche_tables(base, 2))


def test_an_emitted_diamond_that_fails_strict_is_an_internal_inconsistency(monkeypatch):
    def doubled_corner(base, n_max):
        yield ((2, 0, 1), (0, 23, 0), (1, 0, 2))

    monkeypatch.setattr("hkgenus.catalog._goettsche_tables", doubled_corner)
    base = HodgeDiamond(((1, 0, 1), (0, 23, 0), (1, 0, 1)), name="patched")
    with pytest.raises(InternalInconsistencyError, match=r"invalid diamond at z\^1"):
        goettsche_expand(base, 1)


def egl_normalized_genera(h: int, m_max: int) -> list[dict[int, int]]:
    """prod_k [(1 - y^-1 q^k)^2 (1 - q^k)^h (1 - y q^k)^2]^-1 up to q^m_max.

    Independent of the three-variable product: entry m is chi_{-y}/y^m of the
    Hilbert scheme of m points on the surface with h^{1,1} = h, as a dict from
    y-exponent to coefficient.
    """
    series: list[dict[int, int]] = [{0: 1}] + [{} for _ in range(m_max)]
    for k in range(1, m_max + 1):
        for shift, power in ((-1, 2), (0, h), (1, 2)):
            # Multiply by (1 - y^shift q^k)^-power = sum_i C(power+i-1, i) y^(i shift) q^(i k).
            updated: list[dict[int, int]] = [{} for _ in range(m_max + 1)]
            for m, poly in enumerate(series):
                for i in range(0, (m_max - m) // k + 1):
                    binom = comb(power + i - 1, i) if power else int(i == 0)
                    target = updated[m + i * k]
                    for e, coefficient in poly.items():
                        target[e + i * shift] = target.get(e + i * shift, 0) + binom * coefficient
            series = [{e: c for e, c in poly.items() if c} for poly in updated]
    return series


@pytest.mark.parametrize("h", [0, 20, 777, 10**6])
def test_normalized_genera_match_the_egl_product(h):
    base = HodgeDiamond(((1, 0, 1), (0, h, 0), (1, 0, 1)))
    expected = egl_normalized_genera(h, MAX_HILBERT_POINTS)
    for m, diamond in enumerate(goettsche_expand(base, MAX_HILBERT_POINTS), start=1):
        assert dict(diamond.normalized_genus().terms()) == expected[m]


def character_trace_product(h: int, m_max: int) -> list[dict[int, int]]:
    """prod_k (1 - t q^k + q^{2k})^-2 (1 - q^k)^-h up to q^m_max.

    Entry m is S(t) of the Hilbert scheme of m points on the surface with
    h^{1,1} = h, as a dict from t-exponent to coefficient.  The characters
    come from their own Chebyshev recursion, since 1/(1 - t q + q^2) is
    sum_m t_{m+1} q^m with t_{m+2} = t t_{m+1} - t_m; no diamond is used.
    """
    characters: list[dict[int, int]] = [{0: 1}, {1: 1}]
    while len(characters) <= m_max:
        step = {e + 1: c for e, c in characters[-1].items()}
        for e, c in characters[-2].items():
            step[e] = step.get(e, 0) - c
        characters.append({e: c for e, c in step.items() if c})
    binomials = [{0: comb(h + i - 1, i) if h else int(i == 0)} for i in range(m_max + 1)]
    series: list[dict[int, int]] = [{0: 1}] + [{} for _ in range(m_max)]
    for k in range(1, m_max + 1):
        for factor in (characters, characters, binomials):
            # Multiply by sum_i factor[i] q^(i k).
            updated: list[dict[int, int]] = [{} for _ in range(m_max + 1)]
            for m, poly in enumerate(series):
                for i in range(0, (m_max - m) // k + 1):
                    target = updated[m + i * k]
                    for e, c in poly.items():
                        for f, d in factor[i].items():
                            target[e + f] = target.get(e + f, 0) + c * d
            series = [{e: c for e, c in poly.items() if c} for poly in updated]
    return series


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**9))
@example(0)
@example(1)
@example(20)
@example(10**6)
def test_supertraces_match_the_character_product(h):
    # The EGL product at t = y + 1/y: the paper's chi_y-as-supertrace claim
    # over the whole Hilbert-scheme family, from SL(2) characters alone.
    base = HodgeDiamond(((1, 0, 1), (0, h, 0), (1, 0, 1)))
    expected = character_trace_product(h, MAX_HILBERT_POINTS)
    for m, diamond in enumerate(goettsche_expand(base, MAX_HILBERT_POINTS), start=1):
        assert dict(supertrace_polynomial(diamond).terms()) == expected[m]


def test_k3_5_supertrace_from_the_character_product():
    assert character_trace_product(20, 5)[5] == {
        5: 6, 4: 108, 3: 1032, 2: 6696, 1: 30336, 0: 78624}
    assert supertrace_polynomial(builtin("K3[5]").diamond).to_string("t") == (
        "6t^5+108t^4+1032t^3+6696t^2+30336t+78624")


@pytest.mark.parametrize("h", [0, 20, 10**6])
def test_geometric_diamonds_past_the_catalog_scale(h):
    # The recurrence runs past MAX_HILBERT_POINTS here, so the identity is
    # checked on Hilbert schemes of up to 12 points on a K3-type surface.
    n_max = 12
    base = HodgeDiamond(((1, 0, 1), (0, h, 0), (1, 0, 1)))
    tables = list(_goettsche_tables(base, n_max))
    assert tables == reference_tables(base, n_max)
    traces = character_trace_product(h, n_max)
    eulers = dense_euler_expansion(h + 4, n_max)
    for m, rows in enumerate(tables, start=1):
        diamond = HodgeDiamond(rows)
        assert diamond.validate(ValidationLevel.STRICT).ok
        assert verify_supertrace_identity(diamond).passed
        assert dict(supertrace_polynomial(diamond).terms()) == traces[m]
        assert diamond.classical_values().euler == eulers[m]
    if h == 20:
        assert supertrace_polynomial(HodgeDiamond(tables[7])).to_string("t") == (
            "9t^8+174t^7+1821t^6+13638t^5+80940t^4+395886t^3+1589391t^2+4892934t+8995479")


PLANE_BETTI = {
    1: (1, 1, 1),
    2: (1, 2, 3, 2, 1),
    3: (1, 2, 5, 6, 5, 2, 1),
    4: (1, 2, 6, 10, 13, 10, 6, 2, 1),
    5: (1, 2, 6, 12, 21, 24, 21, 12, 6, 2, 1),
}


@pytest.mark.parametrize("n", sorted(PLANE_BETTI))
def test_hilbert_schemes_of_the_plane_have_the_betti_numbers_of_ellingsrud_stromme(n):
    # Ellingsrud and Stromme (Invent. Math. 87, 1987) count the cells of
    # (P^2)^[n]; all its cohomology is algebraic, so the diamond is diagonal.
    # Neither the partition form nor the recurrence is how they were found.
    plane = HodgeDiamond(((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    expected = tuple(tuple(b if p == q else 0 for q in range(2 * n + 1))
                     for p, b in enumerate(PLANE_BETTI[n]))
    assert reference_tables(plane, n)[n - 1] == expected
    assert list(_goettsche_tables(plane, n))[n - 1] == expected


def test_builtin_eulers_match_one_variable_expansion():
    expected = dense_euler_expansion(24, 5)
    for m in range(1, 6):
        name = "K3" if m == 1 else f"K3[{m}]"
        assert builtin(name).diamond.classical_values().euler == expected[m]


def test_expansion_names_follow_the_base_passed_in():
    # Diamond equality ignores names, so equal tables share no cached names.
    k3 = builtin("K3").diamond
    assert [d.name for d in goettsche_expand(k3, 2)] == ["K3[1]", "K3[2]"]
    assert [d.name for d in goettsche_expand(HodgeDiamond(k3.rows, "S"), 2)] == ["S[1]", "S[2]"]
    assert [d.name for d in goettsche_expand(HodgeDiamond(k3.rows, None), 2)] == [
        "surface[1]", "surface[2]"]
    assert [d.name for d in goettsche_expand(k3, 2)] == ["K3[1]", "K3[2]"]
    assert goettsche_expand(k3, 2) is goettsche_expand(k3, 2)


def test_expand_argument_validation():
    k3 = builtin("K3").diamond
    with pytest.raises(InputError):
        goettsche_expand(builtin("K3[2]").diamond, 2)  # base must be a surface
    with pytest.raises(InputError):
        goettsche_expand(k3, 0)
    with pytest.raises(InputError):
        goettsche_expand(k3, 6)  # truncation order above the supported scale


@pytest.mark.parametrize("rows", [
    ((1, 0, 0), (0, 1, 0), (0, 0, 1)),  # the projective plane
    ((1, 0, 1), (0, -5, 0), (1, 0, 1)),
    ((1, 2, 1), (2, 4, 2), (1, 2, 1)),  # the flat 4-torus
    ((1, 0, 1), (0, 20, 0), (1, 0, 2)),
])
def test_a_base_that_fails_strict_is_an_input_error(rows):
    base = HodgeDiamond(rows)
    before = goettsche_expand.cache_info()
    with pytest.raises(ValidationError) as info:
        goettsche_expand(base, 2)
    assert str(info.value) == base.validate(ValidationLevel.STRICT).summary()
    assert goettsche_expand.cache_info() == before  # refused before the cache lookup


@pytest.mark.parametrize("n_max", [2.0, "2", None, True, False])
def test_expand_refuses_a_non_int_truncation_order(n_max):
    # True and 1 would share a cache key, so the check comes before the cache.
    with pytest.raises(InputError) as error:
        goettsche_expand(builtin("K3").diamond, n_max)
    assert str(error.value) == f"n_max must be between 1 and 5, got {n_max!r}"


def test_save_load_round_trip(tmp_path):
    for name in builtin_names():
        record = builtin(name)
        path = tmp_path / f"{name.replace('[', '_').replace(']', '')}.hodge.json"
        save_manifold(record, path)
        loaded = load_manifold(path)
        assert loaded == record
        # Bit-exact canonical serialization.
        again = tmp_path / "again.hodge.json"
        save_manifold(loaded, again)
        assert path.read_bytes() == again.read_bytes()


def test_serialization_is_canonical():
    obj = record_to_json_dict(builtin("K3"))
    assert obj["name"] == "K3"
    assert obj["n"] == 1
    assert obj["hodge"] == [[1, 0, 1], [0, 20, 0], [1, 0, 1]]
    assert obj["chern"] == {"c2": 24}
    # Chern data keep the sorted key order they get on construction.
    shuffled = ManifoldRecord(name="K3[2]", diamond=builtin("K3[2]").diamond,
                              chern=ChernData(2, {"C4": 324, "c2^2": 828}))
    assert list(record_to_json_dict(shuffled)["chern"]) == ["c2^2", "c4"]


def test_load_rejects_negative_entry(tmp_path):
    path = tmp_path / "bad.hodge.json"
    path.write_text(
        '{"name": "bad", "n": 1, "hodge": [[1, 0, 1], [0, -20, 0], [1, 0, 1]]}',
        encoding="utf-8")
    with pytest.raises(ValidationError) as info:
        load_manifold(path)
    assert "(p=1, q=1)" in str(info.value)


def test_load_rejects_even_side_table(tmp_path):
    path = tmp_path / "even.hodge.json"
    path.write_text(
        '{"name": "even", "n": 1, "hodge": [[1, 0], [0, 1]]}', encoding="utf-8")
    with pytest.raises(DimensionMismatchError):
        load_manifold(path)


def test_load_rejects_n_mismatch(tmp_path):
    path = tmp_path / "mismatch.hodge.json"
    path.write_text(
        '{"name": "m", "n": 2, "hodge": [[1, 0, 1], [0, 20, 0], [1, 0, 1]]}',
        encoding="utf-8")
    with pytest.raises(InputError, match="implies n = 1"):
        load_manifold(path)


def test_load_reports_parse_position(tmp_path):
    path = tmp_path / "syntax.hodge.json"
    path.write_text('{"name": "x",\n "n": 1,\n "hodge": [[1,0,1],]}', encoding="utf-8")
    with pytest.raises(InputError, match=r"line 3"):
        load_manifold(path)


def test_load_missing_keys(tmp_path):
    path = tmp_path / "missing.hodge.json"
    path.write_text('{"name": "x", "n": 1}', encoding="utf-8")
    with pytest.raises(InputError, match='"hodge"'):
        load_manifold(path)


def test_strict_level_gate_on_load(tmp_path):
    torus = ManifoldRecord(
        name="torus4", diamond=HodgeDiamond(((1, 2, 1), (2, 4, 2), (1, 2, 1))))
    path = tmp_path / "torus.hodge.json"
    save_manifold(torus, path)
    assert load_manifold(path).name == "torus4"
    with pytest.raises(ValidationError):
        load_manifold(path, ValidationLevel.STRICT)


def test_big_integers_round_trip(tmp_path):
    scale = 10**30
    rows = tuple(tuple(scale * v for v in row)
                 for row in ((1, 0, 1), (0, 20, 0), (1, 0, 1)))
    record = ManifoldRecord(name="huge", diamond=HodgeDiamond(rows))
    path = tmp_path / "huge.hodge.json"
    save_manifold(record, path)
    loaded = load_manifold(path)
    assert loaded.diamond.rows[1][1] == 20 * scale


def test_float_entries_rejected(tmp_path):
    path = tmp_path / "float.hodge.json"
    path.write_text(
        '{"name": "f", "n": 1, "hodge": [[1, 0, 1], [0, 20.0, 0], [1, 0, 1]]}',
        encoding="utf-8")
    with pytest.raises(InputError):
        load_manifold(path)


def test_provenance_round_trips(tmp_path):
    record = builtin("K3[3]")
    assert record.provenance
    path = tmp_path / "k3_3.hodge.json"
    save_manifold(record, path)
    assert load_manifold(path).provenance == record.provenance
