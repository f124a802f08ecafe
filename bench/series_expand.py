"""series-expand: cold Goettsche expansions and cold Riemann-Roch coefficients.

Five op kinds in equal shares, dealt in shuffled blocks of five:

* ``goettsche-3/4/5``: ``goettsche_expand(base, n_max)`` on the K3-like
  surface ((1,0,1),(0,h,0),(1,0,1)), h log-uniform on 0..10^6, so coefficients
  run from a few bits to about 100.  ``goettsche_expand.cache_clear()`` runs
  before each op.  Every emitted table is checked against the one-variable EGL
  product and the Euler product, and for the STRICT invariants.
* ``rr-1/rr-2``: ``chi_minus_y_from_chern`` and ``supertrace_from_chern`` on
  the catalog Chern data of K3 and K3[2], with every memo cache of
  ``hkgenus.riemann_roch`` cleared first.  The caches are found by their
  ``cache_clear`` attribute, not by name, so a renamed cache cannot make the
  op warm unnoticed; the count is kept as ``caches_cleared``.
"""

from __future__ import annotations

import math
import random

import oracles
from common import (HostSpeed, Op, Outcome, Stopwatch, first_catalog_call, import_hkgenus,
                    timed_call)

KINDS = ("goettsche-3", "goettsche-4", "goettsche-5", "rr-1", "rr-2")
RR_MANIFOLDS = {1: "K3", 2: "K3[2]"}
H_MAX = 10**6


def clear_caches(module) -> int:
    """Clear every memo cache among the module's attributes; return how many."""
    caches = {id(v): v for v in vars(module).values() if callable(getattr(v, "cache_clear", None))}
    for cache in caches.values():
        cache.cache_clear()
    return len(caches)


class SeriesExpand:
    name = "series-expand"
    in_process = True

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = random.Random(f"series-expand:{seed}")
        self.hk = None
        self._deal: list[str] = []
        self._count = 0
        self._rr: dict = {}

    def setup(self, clock: Stopwatch, tracer=None):
        with clock:
            self.hk = import_hkgenus()
            first_catalog_call(self.hk, tracer)
        for n, name in RR_MANIFOLDS.items():
            record = self.hk.builtin(name)
            rows = [list(r) for r in record.diamond.rows]
            normalized = oracles.normalized_genus(rows)
            defect = None
            if normalized != oracles.egl_normalized_genera(20, n)[n]:
                defect = f"catalog table of {name} differs from the EGL product"
            expected = {"chi": oracles.chi_minus_y(rows), "supertrace": oracles.supertrace(normalized),
                        "defect": defect}
            self._rr[n] = (record.chern, expected)
        warm_rng = random.Random(f"series-expand:{self.seed}:setup")
        warm = [self._make(warm_rng, -1, kind) for kind in KINDS]
        with clock:
            for op in warm:
                self.execute(op)

    def host_speed(self) -> HostSpeed:
        return HostSpeed(every_s=0.02)

    def next_op(self) -> Op:
        if not self._deal:
            self._deal = list(KINDS)
            self.rng.shuffle(self._deal)
        op = self._make(self.rng, self._count, self._deal.pop())
        self._count += 1
        return op

    def _make(self, rng, index, kind) -> Op:
        family, size = kind.split("-")
        size = int(size)
        if family == "rr":
            data, expected = self._rr[size]
            return Op(index, kind, (size, data), expected, meta={"n": size})
        h = int(math.exp(rng.uniform(0.0, math.log(H_MAX + 1)))) - 1
        base = self.hk.HodgeDiamond(((1, 0, 1), (0, h, 0), (1, 0, 1)), name="S")
        expected = {"egl": oracles.egl_normalized_genera(h, size),
                    "euler": oracles.euler_numbers(h, size)}
        return Op(index, kind, (base, size), expected, meta={"n": size, "h": h})

    def _expand(self, base, n_max):
        return self.hk.catalog.goettsche_expand(base, n_max)

    def _chern(self, n, data):
        rr = self.hk.riemann_roch
        return rr.chi_minus_y_from_chern(n, data), rr.supertrace_from_chern(n, data)

    def execute(self, op: Op, tracer=None) -> Outcome:
        if op.kind.startswith("rr"):
            op.meta["caches_cleared"] = clear_caches(self.hk.riemann_roch)
            return timed_call(self.hk, tracer, op.index, self._chern, *op.args)
        self.hk.catalog.goettsche_expand.cache_clear()
        return timed_call(self.hk, tracer, op.index, self._expand, *op.args)

    def check(self, op: Op, outcome: Outcome) -> str | None:
        if outcome.error is not None:
            return f"raised {type(outcome.error).__name__}: {str(outcome.error)[:80]}"
        want = op.expected
        if op.kind.startswith("rr"):
            chi, supertrace = outcome.value
            if want["defect"]:
                return want["defect"]
            if dict(chi.terms()) != want["chi"]:
                return "chi_{-y} from Chern numbers differs from the Hodge-side genus"
            if dict(supertrace.terms()) != want["supertrace"]:
                return "S(t) from Chern numbers differs from the Hodge-side S(t)"
            return None
        diamonds = outcome.value
        if len(diamonds) != len(want["egl"]) - 1:
            return f"expected {len(want['egl']) - 1} diamonds, got {len(diamonds)}"
        for m, diamond in enumerate(diamonds, start=1):
            rows = [list(r) for r in diamond.rows]
            if len(rows) != 2 * m + 1:
                return f"S[{m}] has side {len(rows)}"
            defects = oracles.table_defects(rows, strict=True)
            if defects:
                return f"S[{m}] breaks {', '.join(defects)}"
            if oracles.normalized_genus(rows) != want["egl"][m]:
                return f"S[{m}] chi_{{-y}}/y^m differs from the EGL product"
            if oracles.evaluate(oracles.chi_y(rows), -1) != want["euler"][m]:
                return f"S[{m}] Euler number differs from the Euler product"
        return None
