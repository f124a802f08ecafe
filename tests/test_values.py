"""Value semantics of the package's record and validated value classes.

For each class: the exact ``repr``, ``==`` and ``hash`` over its compared
fields, refusal of assignment and deletion, keyword construction, and the type
and text of every error its constructor raises.
"""

import copy
import dataclasses
import hashlib
import pickle

import pytest

from hkgenus import (
    ChernData,
    HodgeDiamond,
    LaurentPolynomial,
    ManifoldRecord,
    NegativePrimitiveError,
    PrimitiveTable,
    RozanskyWittenResult,
    SL2Element,
    ValidationLevel,
    ValidationReport,
    Violation,
    builtin,
    builtin_names,
    primitive_multiplicities,
    rozansky_witten_invariant,
    verify_supertrace_identity,
)
from hkgenus.errors import DimensionMismatchError, InputError

K3_ROWS = ((1, 0, 1), (0, 20, 0), (1, 0, 1))
K3_PROVENANCE = ("seed surface: corners forced by irreducibility, h^{1,1} = 20 "
                 "from Euler = c2 = 24 (Noether, chi(O) = 2)")
S_T = LaurentPolynomial({0: 20, 1: 2})


def literal_values():
    """One value of each class, built from literals by keyword, with its fields."""
    diamond = HodgeDiamond(rows=K3_ROWS, name="K3")
    violation = Violation(kind="serre", p=0, q=0, message="h^{0,0} = 2 != 3 = h^{2,2}")
    return [
        (diamond, ("rows",)),
        (PrimitiveTable(n=1, rows=((1, 0, 1), (0, 20, 0))), ("n", "rows")),
        (SL2Element(a=2, b=1, c=1, d=1), ("a", "b", "c", "d")),
        (ChernData(n=1, values={"c2": 24}), ("n", "values")),
        (violation, ("kind", "p", "q", "message")),
        (ValidationReport(level=ValidationLevel.STRICT, violations=(violation,)),
         ("level", "violations")),
        (RozanskyWittenResult(value=24, supertrace=S_T, trace=2),
         ("value", "supertrace", "trace")),
        (ManifoldRecord(name="K3", diamond=diamond), ("name", "diamond", "chern", "provenance")),
    ]


def test_repr_of_literal_values():
    assert [repr(value) for value, _ in literal_values()] == [
        "HodgeDiamond(rows=((1, 0, 1), (0, 20, 0), (1, 0, 1)), name='K3')",
        "PrimitiveTable(n=1, rows=((1, 0, 1), (0, 20, 0)))",
        "SL2Element(a=2, b=1, c=1, d=1)",
        "ChernData(n=1, values={'c2': 24})",
        "Violation(kind='serre', p=0, q=0, message='h^{0,0} = 2 != 3 = h^{2,2}')",
        "ValidationReport(level=<ValidationLevel.STRICT: 'strict'>, violations=("
        "Violation(kind='serre', p=0, q=0, message='h^{0,0} = 2 != 3 = h^{2,2}'),))",
        "RozanskyWittenResult(value=24, supertrace=LaurentPolynomial({0: 20, 1: 2}), trace=2)",
        "ManifoldRecord(name='K3', diamond=HodgeDiamond(rows=((1, 0, 1), (0, 20, 0), "
        "(1, 0, 1)), name='K3'), chern=None, provenance='')",
    ]


def test_repr_of_catalog_values():
    record = builtin("K3")
    assert repr(record) == (
        "ManifoldRecord(name='K3', diamond=HodgeDiamond(rows=((1, 0, 1), (0, 20, 0), "
        "(1, 0, 1)), name='K3'), chern=ChernData(n=1, values={'c2': 24}), "
        f"provenance={K3_PROVENANCE!r})")
    u = SL2Element(2, 1, 1, 1)
    assert repr(rozansky_witten_invariant(record.diamond, u)) == (
        "RozanskyWittenResult(value=26, supertrace=LaurentPolynomial({0: 20, 1: 2}), trace=3)")
    assert repr(primitive_multiplicities(record.diamond)) == (
        "PrimitiveTable(n=1, rows=((1, 0, 1), (0, 20, 0)))")
    broken = HodgeDiamond(((2, 0, 2), (0, 40, 0), (2, 0, 3)))
    assert repr(broken.validate(ValidationLevel.STRUCTURAL)) == (
        "ValidationReport(level=<ValidationLevel.STRUCTURAL: 'structural'>, violations=("
        "Violation(kind='serre', p=0, q=0, message='h^{0,0} = 2 != 3 = h^{2,2}'), "
        "Violation(kind='column_symmetry', p=0, q=2, message='h^{0,2} = 2 != 3 = h^{2,2}'), "
        "Violation(kind='serre', p=2, q=2, message='h^{2,2} = 3 != 2 = h^{0,0}'), "
        "Violation(kind='column_symmetry', p=2, q=2, message='h^{2,2} = 3 != 2 = h^{0,2}')))")
    # Every built-in: the record, its STRICT report, primitive table,
    # invariant at u and classical values, 3909 characters in all.
    parts = []
    for name in builtin_names():
        record = builtin(name)
        d = record.diamond
        parts += [repr(record), repr(d.validate(ValidationLevel.STRICT)),
                  repr(primitive_multiplicities(d)), repr(rozansky_witten_invariant(d, u)),
                  repr(d.classical_values())]
    text = "\n".join(parts)
    assert len(text) == 3909
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "4ddb76ace5ff596b4599dee25173640d00e64e0c417e0defb7832638989b5fa2")


def test_equality_and_hash_follow_the_compared_fields():
    for value, compared in literal_values():
        twin = type(value)(**{name: getattr(value, name) for name in arguments_of(value)})
        assert twin == value and not twin != value
        if type(value) is not RozanskyWittenResult:  # a LaurentPolynomial does not pickle
            assert pickle.loads(pickle.dumps(value)) == copy.deepcopy(value) == value
        key = tuple(getattr(value, name) for name in compared)
        if type(value) is ChernData:
            continue  # its values are a dict
        assert hash(twin) == hash(value) == hash(key), type(value).__name__
    with pytest.raises(TypeError, match="unhashable type: 'dict'"):
        hash(ChernData(1, {"c2": 24}))
    with pytest.raises(TypeError, match="unhashable type: 'dict'"):
        hash(builtin("K3"))


def arguments_of(value):
    """Every constructor argument of ``value``'s class, by name."""
    return {
        HodgeDiamond: ("rows", "name"),
        PrimitiveTable: ("n", "rows"),
        SL2Element: ("a", "b", "c", "d"),
        ChernData: ("n", "values"),
        Violation: ("kind", "p", "q", "message"),
        ValidationReport: ("level", "violations"),
        RozanskyWittenResult: ("value", "supertrace", "trace"),
        ManifoldRecord: ("name", "diamond", "chern", "provenance"),
    }[type(value)]


def test_values_differ_when_a_compared_field_differs():
    assert HodgeDiamond(K3_ROWS) != HodgeDiamond(((1, 0, 1), (0, 21, 0), (1, 0, 1)))
    assert PrimitiveTable(1, ((1, 0, 1), (0, 20, 0))) != PrimitiveTable(1, ((1, 0, 1), (0, 21, 0)))
    assert SL2Element(2, 1, 1, 1) != SL2Element(1, 1, 0, 1)
    assert ChernData(1, {"c2": 24}) != ChernData(1, {"c2": 25})
    assert Violation("serre", 0, 0, "m") != Violation("serre", 0, 1, "m")
    assert (ValidationReport(ValidationLevel.STRICT, ())
            != ValidationReport(ValidationLevel.STRUCTURAL, ()))
    assert RozanskyWittenResult(24, S_T, 2) != RozanskyWittenResult(24, S_T, 3)
    d = HodgeDiamond(K3_ROWS)
    assert ManifoldRecord("K3", d) != ManifoldRecord("K3", d, provenance="x")
    # The validated values compare equal only to their own class.
    for value in (d, PrimitiveTable(1, ((1, 0, 1), (0, 20, 0))), SL2Element(1, 0, 0, 1),
                  ChernData(1, {"c2": 24})):
        fields = tuple(getattr(value, name) for name in arguments_of(value))
        assert value != fields and value != object()


def test_hodge_diamond_ignores_its_name():
    a, b = HodgeDiamond(K3_ROWS, name="a"), HodgeDiamond(K3_ROWS, name="b")
    c = HodgeDiamond(K3_ROWS)
    assert a == b == c
    assert hash(a) == hash(b) == hash(c) == hash((K3_ROWS,))
    assert repr(a) != repr(b)
    assert builtin("K3").diamond == HodgeDiamond([[1, 0, 1], [0, 20, 0], [1, 0, 1]])


def test_assignment_and_deletion_are_refused():
    for value, _ in literal_values():
        before = repr(value)
        for name in (*arguments_of(value), "extra"):
            with pytest.raises(AttributeError):
                setattr(value, name, 1)
            with pytest.raises(AttributeError):
                delattr(value, name)
        assert not hasattr(value, "extra")
        assert repr(value) == before


def test_constructors_normalize_their_fields():
    d = HodgeDiamond(rows=[[1, 0, 1], [0, 20, 0], [1, 0, 1]])
    assert d.rows == K3_ROWS and type(d.rows[0]) is tuple and d.name is None
    table = PrimitiveTable(n=1, rows=[[1, 0, 1], [0, 20, 0]])
    assert table.rows == ((1, 0, 1), (0, 20, 0))
    chern = ChernData(n=2, values={" C4 ": 324, "c2^2": 828})
    assert list(chern.values.items()) == [("c2^2", 828), ("c4", 324)]
    record = ManifoldRecord("K3", d)
    assert (record.chern, record.provenance) == (None, "")


@pytest.mark.parametrize("build, error, text", [
    (lambda: HodgeDiamond(((1, 0), (0, 1))), DimensionMismatchError,
     "table side must be odd and at least 3 (real dimension 4n, n >= 1); got 2"),
    (lambda: HodgeDiamond(((1, 0, 1), (0, 20), (1, 0, 1))), DimensionMismatchError,
     "row 1 has length 2, expected 3"),
    (lambda: HodgeDiamond(((1, 0, 1), (0, 20.0, 0), (1, 0, 1))), DimensionMismatchError,
     "entry (1, 1) is not an integer: 20.0"),
    (lambda: HodgeDiamond(rows=((1, 0, 1), (0, True, 0), (1, 0, 1))), DimensionMismatchError,
     "entry (1, 1) is not an integer: True"),
    (lambda: PrimitiveTable("1", ((1, 0, 1), (0, 20, 0))), InputError,
     "n must be an integer, got '1'"),
    (lambda: PrimitiveTable(0, ()), InputError, "n must be positive, got 0"),
    (lambda: PrimitiveTable(1, ((1, 0, 1),)), InputError, "expected 2 rows, got 1"),
    (lambda: PrimitiveTable(1, ((1, 0, 1), (0, 20))), InputError,
     "row 1 has length 2, expected 3"),
    (lambda: PrimitiveTable(1, ((1, 0, 1), (0, "x", 0))), InputError,
     "entry (1, 1) is not an integer: 'x'"),
    (lambda: PrimitiveTable(n=1, rows=((1, 0, 1), (0, -3, 0))), NegativePrimitiveError,
     "negative primitive multiplicity -3 at (p, q) = (1, 1)"),
    (lambda: SL2Element(1, 0, 0, 1.0), InputError, "matrix entry d must be an integer, got 1.0"),
    (lambda: SL2Element(a=True, b=0, c=0, d=1), InputError,
     "matrix entry a must be an integer, got True"),
    (lambda: SL2Element(1, 0, 0, 2), InputError, "determinant must be 1, got 2"),
    (lambda: ChernData(3, {}), InputError,
     "unsupported n = 3; the public Riemann-Roch functions are provided for n in [1, 2]"),
    (lambda: ChernData(1, [("c2", 24)]), InputError,
     "Chern numbers must map monomial keys to integers"),
    (lambda: ChernData(1, {2: 24}), InputError, "Chern monomial keys must be strings, got 2"),
    (lambda: ChernData(1, {"c4": 24}), InputError,
     "unknown Chern monomial 'c4' for n = 1; the keys for n = 1 are c2"),
    (lambda: ChernData(n=1, values={"c2": 24, "C2": 24}), InputError,
     "Chern monomial 'c2' is given more than once"),
    (lambda: ChernData(1, {"c2": "24"}), InputError, "Chern number for 'c2' must be an integer"),
])
def test_every_validation_error_keeps_its_type_and_text(build, error, text):
    with pytest.raises(InputError) as info:
        build()
    assert type(info.value) is error
    assert str(info.value) == text


def test_identity_report_is_a_dataclass_that_replace_perturbs():
    # The one dataclass left: the benchmark's own tests perturb a report with
    # ``dataclasses.replace``.
    report = verify_supertrace_identity(builtin("K3").diamond)
    one = LaurentPolynomial.one()
    perturbed = dataclasses.replace(report, rhs=report.rhs + one, passed=False)
    assert type(perturbed) is type(report)
    assert (perturbed.supertrace, perturbed.lhs, perturbed.name) == (
        report.supertrace, report.lhs, "K3")
    assert perturbed.rhs == LaurentPolynomial({-1: 2, 0: 21, 1: 2}) and report.passed
    assert repr(report) == (
        "IdentityReport(passed=True, supertrace=LaurentPolynomial({0: 20, 1: 2}), "
        "lhs=LaurentPolynomial({-1: 2, 0: 20, 1: 2}), rhs=LaurentPolynomial({-1: 2, 0: 20, 1: 2}), "
        "name='K3')")
    with pytest.raises(dataclasses.FrozenInstanceError):
        report.passed = False
