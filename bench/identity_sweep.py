"""identity-sweep: the supertrace identity and the decomposition on random diamonds.

One op takes a seeded ``random_structural_diamond`` and runs
``verify_supertrace_identity``, ``supertrace_value`` at a seeded
``random_sl2``, and the ``primitive_multiplicities`` -> ``reconstruct_diamond``
round trip.  Sizes n = 5, 10, 20, 40 come in the ratio 8:4:2:1 and one op in
ten gets a copy with one off-centre cell moved by one, which breaks Serre
symmetry and must raise ``ValidationError`` from the first call.

Ops are dealt in shuffled blocks of 30 with a fixed composition: which sizes
get the corrupted copy (n = 5, 5, 10, the nearest split of three to 8:4:2:1)
is fixed too, since a refused n = 40 op costs a fraction of an accepted one.
Every block then does the same work, whatever the seed.
"""

from __future__ import annotations

import random

import oracles
from common import (HostSpeed, Op, Outcome, Stopwatch, first_catalog_call, import_hkgenus,
                    timed_call)

#: (n, corrupted) for the 30 ops of one block.
BLOCK = (((5, False),) * 14 + ((10, False),) * 7 + ((20, False),) * 4 + ((40, False),) * 2
         + ((5, True), (5, True), (10, True)))


class IdentitySweep:
    name = "identity-sweep"
    in_process = True

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = random.Random(f"identity-sweep:{seed}")
        self.hk = None
        self._deal: list[tuple[int, bool]] = []
        self._count = 0

    def setup(self, clock: Stopwatch, tracer=None):
        with clock:
            self.hk = import_hkgenus()
            first_catalog_call(self.hk, tracer)
        warm_rng = random.Random(f"identity-sweep:{self.seed}:setup")
        warm = [self._make(warm_rng, -1, n, False) for n in (5, 10, 20, 40)]
        warm.append(self._make(warm_rng, -1, 5, True))
        with clock:
            for op in warm:
                self.execute(op)

    def host_speed(self) -> HostSpeed:
        return HostSpeed(every_s=0.02)

    def next_op(self) -> Op:
        if not self._deal:
            self._deal = list(BLOCK)
            self.rng.shuffle(self._deal)
        n, reject = self._deal.pop()
        op = self._make(self.rng, self._count, n, reject)
        self._count += 1
        return op

    def _make(self, rng, index, n, reject) -> Op:
        hk = self.hk
        diamond = hk.random_structural_diamond(rng, n)
        u = hk.random_sl2(rng)
        rows = [list(r) for r in diamond.rows]
        if reject:
            p, q = n, n
            while (p, q) == (n, n):
                p, q = rng.randrange(2 * n + 1), rng.randrange(2 * n + 1)
            rows[p][q] += rng.choice((1, -1))
            diamond = hk.HodgeDiamond(rows)
            return Op(index, f"reject-n{n}", (diamond, u), reject=True, meta={"n": n})
        normalized = oracles.normalized_genus(rows)
        expected = {
            "normalized": normalized,
            "supertrace": oracles.supertrace(normalized),
            "value": oracles.supertrace_at(normalized, u.trace),
            "primitive": oracles.primitive_rows(rows),
            "rows": rows,
        }
        return Op(index, f"accept-n{n}", (diamond, u), expected, meta={"n": n})

    def _call(self, diamond, u):
        hk = self.hk
        report = hk.verify_supertrace_identity(diamond)
        value = hk.supertrace_value(diamond, u)
        table = hk.primitive_multiplicities(diamond)
        return report, value, table, hk.reconstruct_diamond(table)

    def execute(self, op: Op, tracer=None) -> Outcome:
        return timed_call(self.hk, tracer, op.index, self._call, *op.args)

    def check(self, op: Op, outcome: Outcome) -> str | None:
        if op.reject:
            if isinstance(outcome.error, self.hk.ValidationError):
                return None
            if outcome.error is None:
                return "corrupted table accepted"
            return f"corrupted table raised {type(outcome.error).__name__}"
        if outcome.error is not None:
            return f"raised {type(outcome.error).__name__}: {str(outcome.error)[:80]}"
        report, value, table, back = outcome.value
        want = op.expected
        if not report.passed:
            return "identity reported as failing"
        if dict(report.rhs.terms()) != want["normalized"]:
            return "rhs differs from chi_{-y}/y^n of the table"
        if dict(report.lhs.terms()) != want["normalized"]:
            return "lhs differs from chi_{-y}/y^n of the table"
        if dict(report.supertrace.terms()) != want["supertrace"]:
            return "S(t) differs from a_0 + sum a_k V_k(t)"
        if value != want["value"]:
            return "supertrace_value differs from the V_k oracle"
        if [list(r) for r in table.rows] != want["primitive"]:
            return "primitive multiplicities differ"
        if [list(r) for r in back.rows] != want["rows"]:
            return "reconstruct_diamond did not return the input table"
        return None

