"""Unit tests for Hodge diamonds, validation levels and the chi_y genus."""

import json

import pytest

from hkgenus.catalog import builtin, load_manifold
from hkgenus.errors import InputError, ValidationError
from hkgenus.hodge import HodgeDiamond, ValidationLevel, Violation
from hkgenus.laurent import LaurentPolynomial

K3_ROWS = ((1, 0, 1), (0, 20, 0), (1, 0, 1))

# The flat 4-torus table h^{p,q} = C(2,p) C(2,q): symmetric but reducible.
TORUS_ROWS = ((1, 2, 1), (2, 4, 2), (1, 2, 1))


def test_k3_strict_pass():
    report = HodgeDiamond(K3_ROWS).validate(ValidationLevel.STRICT)
    assert report.ok
    assert report.summary().startswith("pass")


def test_symmetric_perturbation_is_not_detected():
    # h^{1,1} 20 -> 19 keeps every symmetry intact, so validation passes:
    # the symmetry checks alone do not pin the diamond.
    perturbed = HodgeDiamond(((1, 0, 1), (0, 19, 0), (1, 0, 1)))
    assert perturbed.validate(ValidationLevel.STRUCTURAL).ok


def test_strict_rejects_doubled_corner():
    doubled = HodgeDiamond(tuple(tuple(2 * v for v in row) for row in K3_ROWS))
    report = doubled.validate(ValidationLevel.STRICT)
    assert not report.ok
    assert any(v.kind == "irreducibility" and (v.p, v.q) == (0, 0)
               for v in report.violations)
    # STRUCTURAL does not care about the corner normalization.
    assert doubled.validate(ValidationLevel.STRUCTURAL).ok


def test_degenerate_diagonal_table_fails_structural():
    # Nonzero only at (0,0) and (2n,2n): column symmetry forces h^{2n,0} = h^{0,0}.
    rows = ((1, 0, 0), (0, 0, 0), (0, 0, 1))
    report = HodgeDiamond(rows).validate(ValidationLevel.STRUCTURAL)
    assert not report.ok
    assert any(v.kind in ("column_symmetry", "serre") for v in report.violations)
    with pytest.raises(ValidationError):
        HodgeDiamond(rows).chi_y()


def test_torus_structural_only():
    torus = HodgeDiamond(TORUS_ROWS)
    assert torus.validate(ValidationLevel.STRUCTURAL).ok
    strict = torus.validate(ValidationLevel.STRICT)
    assert not strict.ok
    assert any(v.kind == "irreducibility" and (v.p, v.q) == (1, 0)
               for v in strict.violations)
    assert torus.chi_y() == LaurentPolynomial()
    assert torus.classical_values() == (0, 0, 0)


def test_chi_y_k3():
    genus = HodgeDiamond(K3_ROWS).chi_y()
    assert genus == LaurentPolynomial({0: 2, 1: -20, 2: 2})
    assert genus.to_string("y") == "2y^2-20y+2"


def test_chi_y_k3_2():
    genus = builtin("K3[2]").diamond.chi_y()
    assert genus == LaurentPolynomial({0: 3, 1: -42, 2: 234, 3: -42, 4: 3})


def test_classical_values():
    assert HodgeDiamond(K3_ROWS).classical_values() == (24, 2, -16)
    assert builtin("K3[2]").diamond.classical_values() == (324, 3, 156)


def test_euler_is_alternating_betti_sum():
    for name in ("K3", "K3[3]"):
        d = builtin(name).diamond
        expected = sum(
            (-1) ** (p + q) * d.rows[p][q]
            for p in range(d.side) for q in range(d.side))
        assert d.classical_values().euler == expected


def test_chi_y_end_coefficients_equal():
    for name in ("K3", "K3[2]", "K3[4]"):
        genus = builtin(name).diamond.chi_y()
        n = builtin(name).diamond.n
        assert genus.coefficient(0) == genus.coefficient(2 * n)


def test_normalized_genus_k3():
    d = HodgeDiamond(K3_ROWS)
    assert d.normalized_genus() == LaurentPolynomial({1: 2, 0: 20, -1: 2})


def test_normalized_genus_k3_2():
    d = builtin("K3[2]").diamond
    assert d.normalized_genus() == LaurentPolynomial(
        {2: 3, 1: 42, 0: 234, -1: 42, -2: 3})


def test_normalized_genus_palindromic_and_euler_at_one():
    for name in ("K3", "K3[2]", "K3[3]", "K3[4]", "K3[5]"):
        d = builtin(name).diamond
        normalized = d.normalized_genus()
        assert normalized.is_palindromic()
        assert normalized.evaluate(1) == d.classical_values().euler


def test_dimension_errors_are_hard_errors():
    side = "table side must be odd and at least 3 (real dimension 4n, n >= 1); got {}"
    cases = [
        (((1, 0), (0, 1)), side.format(2)),  # even side
        (((1,),), side.format(1)),  # n = 0 is rejected
        (((1, 0, 1), (0, 20), (1, 0, 1)), "row 1 has length 2, expected 3"),  # ragged row
        (((1, 0, 1), (0, 20.0, 0), (1, 0, 1)), "entry (1, 1) is not an integer: 20.0"),
    ]
    for rows, message in cases:
        with pytest.raises(InputError) as info:
            HodgeDiamond(rows)
        assert type(info.value) is InputError
        assert str(info.value) == message


def test_entry_type_errors_name_the_first_bad_entry():
    class Count(int):
        pass

    assert HodgeDiamond(((1, 0, 1), (0, Count(20), 0), (1, 0, 1))).rows[1][1] == 20
    row = (0, 0, 0.5, 0, 0)
    cases = [
        (((1, 0, 1), (0, True, 0), (1, 0, 1)), "entry (1, 1) is not an integer: True"),
        (((1, 0, 1), (0, 20, 0), (1, None, "x")), "entry (2, 1) is not an integer: None"),
        (((1, 0, 1), (0, 20, 0), (1, 0)), "row 2 has length 2, expected 3"),
        (((1, 0.5, 1), (0, 20, 0), (1, 0)), "entry (0, 1) is not an integer: 0.5"),
        (((1, 0, 1), (0, 20, False), (1, 0, 1)), "entry (1, 2) is not an integer: False"),
        (((1, 0, 1), (0, 20, 0), (1, -1, 1.0)), "entry (2, 2) is not an integer: 1.0"),
        # Equal to its mirror row 0 but not the same object: still checked.
        (((1, 0, 1), (0, 20, 0), (1.0, 0, 1)), "entry (2, 0) is not an integer: 1.0"),
        # Row 3 is the same object as row 4, but its mirror row is row 1: checked.
        (((1, 0, 1, 0, 1), (0,) * 5, (1, 0, 1, 0, 1), row, row), "entry (3, 2) is not an integer: 0.5"),
    ]
    for rows, message in cases:
        with pytest.raises(InputError) as info:
            HodgeDiamond(rows)
        assert type(info.value) is InputError
        assert str(info.value) == message


def test_negative_entry_reported_with_location():
    rows = ((1, 0, 1), (0, -20, 0), (1, 0, 1))
    report = HodgeDiamond(rows).validate(ValidationLevel.STRUCTURAL)
    assert any(v.kind == "negative_entry" and (v.p, v.q) == (1, 1)
               for v in report.violations)


def test_corrupted_diamond_reports_the_same_violations_on_every_call():
    rows = [list(r) for r in K3_ROWS]
    rows[0][1] = 1  # breaks conjugation and column symmetry
    corrupted = HodgeDiamond(rows)
    raised = []
    for _ in range(2):
        with pytest.raises(ValidationError) as info:
            corrupted.require_valid()
        raised.append(info.value)
    first, again = raised
    assert str(first) == str(again)
    assert first.report.violations is again.report.violations
    # The reused scan is the one a fresh copy of the table computes.
    assert first.report == HodgeDiamond(rows).validate()
    with pytest.raises(ValidationError) as info:
        corrupted.chi_y()
    assert info.value.report.violations is corrupted.symmetry_violations()


def test_cached_scans_are_not_part_of_equality_or_hash():
    validated = HodgeDiamond(K3_ROWS)
    assert validated.validate(ValidationLevel.STRICT).ok
    fresh = HodgeDiamond(K3_ROWS)
    assert validated == fresh
    assert hash(validated) == hash(fresh)
    assert repr(validated) == repr(fresh) == f"HodgeDiamond(rows={K3_ROWS!r}, name=None)"
    # The stored scans are on the validated diamond only, and no field shows them.
    assert {"_symmetry_scan", "_negative_primitives"} <= vars(validated).keys()
    assert vars(fresh).keys() == {"rows", "name"}


def test_strict_report_extends_the_structural_one():
    # Fails Serre duality and two of the three corner values.
    broken = HodgeDiamond(((2, 0, 2), (0, 40, 0), (2, 0, 3)))
    structural = broken.validate(ValidationLevel.STRUCTURAL)
    strict = broken.validate(ValidationLevel.STRICT)
    assert strict.level is ValidationLevel.STRICT
    assert broken.validate(ValidationLevel.STRICT) == strict
    assert strict.violations[:len(structural.violations)] == structural.violations
    assert [v.kind for v in strict.violations[len(structural.violations):]] == [
        "irreducibility", "irreducibility"]


def test_name_is_a_label_not_content():
    named = HodgeDiamond(K3_ROWS, name="K3")
    anonymous = HodgeDiamond(K3_ROWS)
    assert named == anonymous
    assert hash(named) == hash(anonymous)
    assert HodgeDiamond(named.rows, None) == anonymous


def test_pretty_print_shape():
    text = str(HodgeDiamond(K3_ROWS))
    lines = text.splitlines()
    assert len(lines) == 5  # antidiagonals of a 3x3 table
    assert lines[0].strip() == "1"
    assert lines[2].split() == ["1", "20", "1"]
    # Each antidiagonal is centred: its cells right-aligned to the widest entry.
    assert lines == ["    1", "  0  0", " 1 20  1", "  0  0", "    1"]
    assert str(builtin("K3[2]").diamond).splitlines() == [
        "          1",
        "        0   0",
        "      1  21   1",
        "    0   0   0   0",
        "  1  21 232  21   1",
        "    0   0   0   0",
        "      1  21   1",
        "        0   0",
        "          1",
    ]


@pytest.mark.parametrize("level", ["strict", "STRICT", "structural", None, 1])
def test_a_level_that_is_not_a_validation_level_is_refused(level, tmp_path):
    # The torus passes STRUCTURAL and fails STRICT, so a level read as
    # STRUCTURAL, or left unchecked, would let it through in silence.
    torus = HodgeDiamond(TORUS_ROWS)
    message = f"level must be a ValidationLevel, got {level!r}"
    with pytest.raises(InputError) as info:
        torus.require_valid(level)
    assert str(info.value) == message
    with pytest.raises(InputError) as info:
        torus.validate(level)
    assert str(info.value) == message
    path = tmp_path / "torus.json"
    path.write_text(json.dumps({"name": "T4", "n": 1, "hodge": [list(r) for r in TORUS_ROWS]}))
    with pytest.raises(InputError) as info:
        load_manifold(path, level=level)
    assert str(info.value) == message
    assert load_manifold(path).diamond.rows == TORUS_ROWS
    with pytest.raises(ValidationError):
        load_manifold(path, level=ValidationLevel.STRICT)


def test_shared_row_objects_make_the_same_table_as_copies():
    corner = (1, 0, 1)
    shared = HodgeDiamond((corner, (0, 20, 0), corner))
    assert shared.rows[0] is shared.rows[2]
    row = (1, 2, 3, 2, 1)
    reused = HodgeDiamond((row, row, (2, 4, 6, 4, 2), row, row))
    for table, copies in ((shared, [[1, 0, 1], [0, 20, 0], [1, 0, 1]]),
                          (reused, [list(row), list(row), [2, 4, 6, 4, 2], list(row), list(row)])):
        copied = HodgeDiamond(copies)  # each list becomes its own tuple
        assert len({id(r) for r in copied.rows}) == copied.side
        assert table == copied
        assert hash(table) == hash(copied)
        assert repr(table) == repr(copied)
        assert table.validate() == copied.validate()


@pytest.mark.parametrize("bad, shown", [(1.0, "1.0"), (True, "True"), ("x", "'x'"), (None, "None")])
@pytest.mark.parametrize("p", [0, 2, 4])  # the first row, the middle row, an unshared row p > n
def test_one_bad_cell_is_named_in_any_row(p, bad, shown):
    # The whole-table type pass only says that some cell is bad; the message
    # still names the first bad cell in row order, as the per-row rule words it.
    rows = [list(row) for row in builtin("K3[2]").diamond.rows]
    rows[p][1] = bad
    with pytest.raises(InputError) as info:
        HodgeDiamond(rows)
    assert str(info.value) == f"entry ({p}, 1) is not an integer: {shown}"


def test_the_first_failing_row_is_named_whatever_the_failure():
    class Count(int):
        pass

    good = [list(row) for row in builtin("K3[2]").diamond.rows]
    rows = [list(row) for row in good]
    rows[1][2], rows[3] = 2.5, rows[3][:4]  # a bad cell, then a short row
    with pytest.raises(InputError) as info:
        HodgeDiamond(rows)
    assert str(info.value) == "entry (1, 2) is not an integer: 2.5"
    rows = [list(row) for row in good]
    rows[1], rows[3][2] = rows[1][:4], 2.5  # a short row, then a bad cell
    with pytest.raises(InputError) as info:
        HodgeDiamond(rows)
    assert str(info.value) == "row 1 has length 4, expected 5"
    for p in (0, 2, 4):
        rows = [list(row) for row in good]
        rows[p][0] = Count(1)  # an int subclass fails the type pass but is an integer
        assert HodgeDiamond(rows).rows[p][0] == 1


@pytest.mark.parametrize("bad_row, message", [
    ((0, 20.0, 0, 20, 0), "entry (1, 1) is not an integer: 20.0"),
    ((0, 20, 0, 20), "row 1 has length 4, expected 5"),
    ((0, None, True, 0, 0), "entry (1, 1) is not an integer: None"),
])
def test_a_shared_bad_row_is_reported_at_its_first_position(bad_row, message):
    good = (1, 0, 1, 0, 1)
    shared = (good, bad_row, good, bad_row, good)
    copies = [list(good), list(bad_row), list(good), list(bad_row), list(good)]
    for rows in (shared, copies):
        with pytest.raises(InputError) as info:
            HodgeDiamond(rows)
        assert type(info.value) is InputError
        assert str(info.value) == message


# STRICT reports on tables that fail only a corner, only a primitive, or both:
# the early exits on a clean table must leave what a failing table reports.
EARLY_EXIT_REPORTS = {
    "corner": (
        ((1, 1, 1), (1, 20, 1), (1, 1, 1)),
        (Violation("irreducibility", 1, 0, "h^{1,0} = 1, irreducibility forces 0"),)),
    "primitive": (
        ((1, 0, 1, 0, 1), (0, 21, 0, 21, 0), (1, 0, 0, 0, 1), (0, 21, 0, 21, 0), (1, 0, 1, 0, 1)),
        (Violation("negative_primitive", 2, 2, "h^{2,2} - h^{0,2} = -1 is negative"),)),
    "both": (
        ((2, 0, 2, 0, 2), (0, 21, 0, 21, 0), (2, 0, 1, 0, 2), (0, 21, 0, 21, 0), (2, 0, 2, 0, 2)),
        (Violation("negative_primitive", 2, 2, "h^{2,2} - h^{0,2} = -1 is negative"),
         Violation("irreducibility", 0, 0, "h^{0,0} = 2, irreducibility forces 1"),
         Violation("irreducibility", 2, 0, "h^{2,0} = 2, irreducibility forces 1"))),
}


@pytest.mark.parametrize("kind", sorted(EARLY_EXIT_REPORTS))
def test_strict_reports_what_fails_and_nothing_else(kind):
    rows, violations = EARLY_EXIT_REPORTS[kind]
    assert HodgeDiamond(rows).validate(ValidationLevel.STRICT).violations == violations
