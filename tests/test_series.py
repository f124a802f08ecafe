"""Unit tests for truncated multivariate series."""

import random

import pytest

from hkgenus.series import TruncatedSeries

V1 = ("z",)


def naive_mul(a: dict, b: dict, limits) -> dict:
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(u + v for u, v in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {
        e: c for e, c in out.items()
        if c != 0 and all(x <= l for x, l in zip(e, limits))
    }


def test_truncated_mul_matches_full_mul_then_truncate():
    rng = random.Random(11)
    vars_ = ("x", "y")
    limits = (4, 4)
    for _ in range(100):
        a = {(rng.randint(0, 4), rng.randint(0, 4)): rng.randint(-5, 5)
             for _ in range(rng.randint(1, 5))}
        b = {(rng.randint(0, 4), rng.randint(0, 4)): rng.randint(-5, 5)
             for _ in range(rng.randint(1, 5))}
        sa = TruncatedSeries(vars_, limits, a)
        sb = TruncatedSeries(vars_, limits, b)
        expected = naive_mul(dict(sa.terms()), dict(sb.terms()), limits)
        assert sa * sb == TruncatedSeries(vars_, limits, expected)


def test_construction_truncates_and_cleans():
    s = TruncatedSeries(V1, (2,), {(3,): 5, (1,): 0, (2,): 7})
    assert dict(s.terms()) == {(2,): 7}


def test_incompatible_series_rejected():
    a = TruncatedSeries(("x",), (2,), {(1,): 1})
    b = TruncatedSeries(("y",), (2,), {(1,): 1})
    with pytest.raises(ValueError):
        a * b
