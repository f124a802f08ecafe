"""Tests of the benchmark itself: the oracles agree with the package on good
output and catch a one-unit perturbation of each checked quantity.

Run with ``python -m pytest bench``.
"""

import dataclasses
import json
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracles  # noqa: E402
from cli_session import Expect, check_hostile, check_output  # noqa: E402
from common import REF_S, HostSpeed, Outcome, Stopwatch, import_hkgenus  # noqa: E402
from identity_sweep import IdentitySweep  # noqa: E402
from series_expand import SeriesExpand, clear_caches  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402

hk = import_hkgenus()


def _ready(workload_type, seed=7):
    workload = workload_type(seed)
    workload.setup(Stopwatch())
    return workload


def _first(workload, kind_prefix):
    while True:
        op = workload.next_op()
        if op.kind.startswith(kind_prefix):
            return op


# -- the oracles agree with the package ----------------------------------------

def test_supertrace_oracle_matches_the_package():
    rng = random.Random(3)
    for _ in range(60):
        d = hk.random_structural_diamond(rng, rng.randint(1, 12))
        u = hk.random_sl2(rng)
        normalized = oracles.normalized_genus(d.rows)
        assert oracles.supertrace_at(normalized, u.trace) == hk.supertrace_value(d, u)
        assert oracles.supertrace(normalized) == dict(hk.supertrace_polynomial(d).terms())
        assert normalized == dict(d.normalized_genus().terms())


def test_egl_and_euler_products_match_the_goettsche_expansion():
    for h in (0, 3, 20, 777):
        base = hk.HodgeDiamond(((1, 0, 1), (0, h, 0), (1, 0, 1)))
        egl = oracles.egl_normalized_genera(h, 5)
        euler = oracles.euler_numbers(h, 5)
        for m, d in enumerate(hk.goettsche_expand(base, 5), start=1):
            assert oracles.normalized_genus(d.rows) == egl[m]
            assert oracles.evaluate(oracles.chi_y(d.rows), -1) == euler[m]
            assert oracles.table_defects(d.rows, strict=True) == []


def test_render_matches_the_package_format():
    for d in (hk.builtin(name).diamond for name in hk.builtin_names()):
        assert oracles.render(oracles.chi_y(d.rows)) == d.chi_y().to_string("y")
        s = hk.supertrace_polynomial(d)
        assert oracles.render(dict(s.terms()), "t") == s.to_string("t")


# -- each oracle catches a one-unit perturbation --------------------------------

def test_identity_check_catches_one_unit_perturbations():
    workload = _ready(IdentitySweep)
    op = _first(workload, "accept")
    outcome = workload.execute(op)
    assert workload.check(op, outcome) is None
    report, value, table, back = outcome.value
    one = hk.LaurentPolynomial.one()
    perturbed = [
        (dataclasses.replace(report, rhs=report.rhs + one), value, table, back),
        (dataclasses.replace(report, lhs=report.lhs + one), value, table, back),
        (dataclasses.replace(report, supertrace=report.supertrace + one), value, table, back),
        (report, value + 1, table, back),
        (report, value, hk.PrimitiveTable(table.n, [list(r) for r in table.rows[:-1]]
                                          + [[v + 1 for v in table.rows[-1]]]), back),
    ]
    for value_ in perturbed:
        assert workload.check(op, Outcome(outcome.latency, value_)) is not None


def test_identity_check_requires_the_reject():
    workload = _ready(IdentitySweep)
    op = _first(workload, "reject")
    assert workload.check(op, workload.execute(op)) is None
    assert workload.check(op, Outcome(0.0, None)) == "corrupted table accepted"


def test_goettsche_check_catches_one_unit_perturbations():
    workload = _ready(SeriesExpand)
    op = _first(workload, "goettsche")
    outcome = workload.execute(op)
    assert workload.check(op, outcome) is None
    diamonds = list(outcome.value)
    d = diamonds[-1]
    rows = [list(r) for r in d.rows]
    rows[d.n][d.n] += 1  # keeps every symmetry, so only the genus oracle can see it
    diamonds[-1] = hk.HodgeDiamond(rows)
    assert "EGL" in workload.check(op, Outcome(0.0, tuple(diamonds)))
    h, m = op.meta["h"], d.n
    assert oracles.evaluate(oracles.chi_y(rows), -1) != oracles.euler_numbers(h, m)[m]


def test_rr_check_catches_one_unit_perturbations():
    workload = _ready(SeriesExpand)
    op = _first(workload, "rr")
    outcome = workload.execute(op)
    assert op.meta["caches_cleared"] >= 2
    assert workload.check(op, outcome) is None
    chi, supertrace = outcome.value
    one = hk.LaurentPolynomial.one()
    for value in ((chi + one, supertrace), (chi, supertrace + one)):
        assert workload.check(op, Outcome(0.0, value)) is not None


def test_cli_output_check_catches_one_unit_perturbations():
    payload = {"command": "chi", "name": "K3", "n": 1, "chi_y": "2y^2-20y+2",
               "chi_minus_y": "2y^2+20y+2", "euler": 24, "todd": 2, "signature": -16}
    expect = Expect(payload, ["2y^2-20y+2", "2y^2+20y+2", 24, 2, -16])
    assert check_output(expect, "json", json.dumps(payload)) is None
    assert check_output(expect, "json", json.dumps({**payload, "euler": 25})) is not None
    text = ("manifold: K3 (n=1)\nchi_y      = 2y^2-20y+2\nchi_{-y}   = 2y^2+20y+2\n"
            "euler      = 24\ntodd       = 2\nsignature  = -16")
    assert check_output(expect, "text", text) is None
    assert check_output(expect, "text", text.replace("-20y", "-21y")) is not None
    assert check_output(expect, "text", text.replace("= -16", "= -15")) is not None
    table = Expect({}, sequence=[1, 0, 1, 0, 19, 0])
    assert check_output(table, "csv", "p,d,q,m\n0,2,0,1\n0,2,1,0\n0,2,2,1\n1,1,0,0\n1,1,1,19\n1,1,2,0") \
        is None
    assert check_output(table, "csv", "p,d,q,m\n0,2,0,1\n0,2,1,0\n0,2,2,1\n1,1,0,0\n1,1,1,18\n1,1,2,0") \
        is not None


def test_hostile_check_demands_one_short_error_line():
    assert check_hostile(1, "", "error: determinant must be 1, got 4\n") is None
    assert check_hostile(1, "", "error: fail (structural), 2 violation(s):\n  [serre] ...\n") is None
    assert check_hostile(1, "", "Traceback (most recent call last):\n  ...\n") == "traceback"
    assert check_hostile(1, "", "error: " + "7" * 300 + "\n").startswith("error line of")
    assert check_hostile(0, "ok\n", "") == "exit code 0"
    assert check_hostile(1, "", "error: a\nerror: b\n") == "no single error: line"


# -- the tracer ------------------------------------------------------------------

def test_tracer_catches_calls_between_modules_and_uninstalls_cleanly():
    d = hk.random_structural_diamond(random.Random(5), 6)
    original = hk.lefschetz.character
    tracer = Tracer()
    tracer.install(hk)
    assert hk.lefschetz.character is not original
    tracer.op_begin(0)
    hk.verify_supertrace_identity(d)
    stats = tracer.op_end()
    tracer.uninstall()
    assert hk.lefschetz.character is original
    names = [span[0] for span in tracer.spans]
    assert names.count("hodge.HodgeDiamond.symmetry_violations") == 3
    assert "sl2.character" in names and "laurent.substitute_y_plus_yinv" in names
    assert stats["laurent.construct"] > 0 and stats["laurent.mul"] > 0
    assert all(t >= 0 for t in self_times(tracer.spans))
    verify = names.index("lefschetz.verify_supertrace_identity")
    assert tracer.spans[verify][4] == 6  # n of the diamond


def test_cache_clearing_finds_caches_by_attribute():
    hk.chi_minus_y_from_chern(1, hk.builtin("K3").chern)
    assert clear_caches(hk.riemann_roch) >= 2
    assert all(v.cache_info().currsize == 0 for v in vars(hk.riemann_roch).values()
               if hasattr(v, "cache_info"))


# -- host-speed scaling ------------------------------------------------------------

def test_host_speed_scales_by_the_nearest_kernel_times():
    speed = HostSpeed()
    speed.stamps.extend(float(t) for t in range(40))
    speed.times.extend([REF_S] * 20 + [2 * REF_S] * 20)  # the host halves its speed at t = 20
    assert speed.factor(3.5) == 1.0
    assert speed.factor(36.0) == 0.5
    assert speed.factor(-5.0) == 1.0 and speed.factor(99.0) == 0.5  # the edges use the end windows
    speed.times[2] = 50 * REF_S  # one disturbed sample does not move the median
    assert speed.factor(3.5) == 1.0
