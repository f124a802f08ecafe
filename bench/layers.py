"""Per-layer metrics of a traced run, one group per module of ``src/hkgenus``.

Every metric is emitted on every workload; a layer that does no work on a
workload reads 0 there.  Conventions:

* ``*_per_op`` counts and plain ``*_ms`` busy times are totals over the run
  divided by the ops traced (for ``hodge.symmetry_checks_per_op``: by the ops
  whose input is valid);
* ``*_p50_ms`` are medians of single calls;
* times are inclusive of nested spans, except ``laurent.substitute_ms``, which
  is self time.

The ``trace.*`` group compares the same ops run untraced and traced.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from tracer import self_times

SUBCOMMANDS = ("catalog", "verify", "chi", "decompose", "strace", "rw", "rr")
CATALOG_ENTRY = ("catalog.builtin", "catalog.builtin_names")

METRICS = (
    ("laurent.construct_per_op", "count"), ("laurent.mul_per_op", "count"),
    ("laurent.substitute_ms", "ms"),
    ("hodge.symmetry_checks_per_op", "count"), ("hodge.validate_ms", "ms"),
    ("hodge.reject_p50_ms", "ms"),
    ("lefschetz.verify_n5_p50_ms", "ms"), ("lefschetz.verify_n10_p50_ms", "ms"),
    ("lefschetz.verify_n20_p50_ms", "ms"), ("lefschetz.verify_n40_p50_ms", "ms"),
    ("lefschetz.supertrace_ms", "ms"), ("lefschetz.primitive_ms", "ms"),
    ("sl2.character_calls_per_op", "count"), ("sl2.character_ms", "ms"),
    ("series.mul_calls_per_op", "count"), ("series.mul_ms", "ms"),
    ("series.binomial_ms", "ms"), ("series.terms_max", "count"),
    ("series.mul_kept_ratio", "ratio"),
    ("catalog.goettsche_n3_ms", "ms"), ("catalog.goettsche_n4_ms", "ms"),
    ("catalog.goettsche_n5_ms", "ms"), ("catalog.goettsche_hit_ratio", "ratio"),
    ("catalog.coeff_bits_max", "bits"), ("catalog.builtin_first_ms", "ms"),
    ("catalog.load_ms", "ms"),
    ("riemann_roch.todd_n2_ms", "ms"), ("riemann_roch.coeffs_cold_n1_ms", "ms"),
    ("riemann_roch.coeffs_cold_n2_ms", "ms"), ("riemann_roch.caches_cleared", "count"),
    ("cli.interp_ms", "ms"), ("cli.import_ms", "ms"), ("cli.main_ms", "ms"),
    *((f"cli.main_{command}_ms", "ms") for command in SUBCOMMANDS),
    ("cli.render_ms", "ms"),
    ("trace.ops_per_s", "1/s"), ("trace.untraced_ops_per_s", "1/s"),
    ("trace.slowdown", "ratio"),
)


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _mean(values) -> float:
    return statistics.fmean(values) if values else 0.0


def layer_metrics(tracer, records) -> dict[str, tuple[float, str]]:
    """``records`` are the traced run's ops: dicts with ``op``, ``lat`` and ``lat_traced``."""
    ops = {r["op"].index: r["op"] for r in records}
    count = len(records)
    valid = {i for i, op in ops.items() if not (op.reject or op.hostile)}
    total = defaultdict(int)
    own = defaultdict(int)
    calls = defaultdict(int)
    valid_calls = defaultdict(int)
    single = defaultdict(list)          # (name, n) -> [ms] of single calls
    op_total = defaultdict(int)         # (op, name, n) -> ns
    first_catalog = {}                  # op or "setup" -> ms of its first catalog access
    for (name, _, start, end, n, op), self_time in zip(tracer.spans, self_times(tracer.spans)):
        if name in CATALOG_ENTRY and op not in first_catalog:
            first_catalog[op] = (end - start) / 1e6
        if op not in ops:
            continue
        total[name] += end - start
        own[name] += self_time
        calls[name] += 1
        valid_calls[name] += op in valid
        single[name, n].append((end - start) / 1e6)
        op_total[op, name, n] += end - start
    stats = [tracer.op_stats.get(i, {}) for i in ops]

    def summed(key):
        return sum(s.get(key, 0) for s in stats)

    def busy(name):
        return total[name] / 1e6 / count

    def mean_call(name):
        return total[name] / 1e6 / calls[name] if calls[name] else 0.0

    def coeffs_cold(n):
        per_op = [sum(op_total[i, name, n] for name in ("riemann_roch.chi_minus_y_chern_coefficients",
                                                         "riemann_roch.supertrace_chern_coefficients"))
                  for i in ops]
        return _mean([ns / 1e6 for ns in per_op if ns])

    def main_ms(command=None):
        return _median([op_total[i, "cli.main", None] / 1e6 for i in valid
                        if (i, "cli.main", None) in op_total
                        and command in (None, ops[i].meta.get("command"))])

    pairs, hits, misses = summed("series.pairs"), summed("goettsche.hits"), summed("goettsche.misses")
    cleared = [op.meta["caches_cleared"] for op in ops.values() if "caches_cleared" in op.meta]
    untraced, traced = sum(r["lat"] for r in records), sum(r["lat_traced"] for r in records)
    values = {
        "laurent.construct_per_op": summed("laurent.construct") / count,
        "laurent.mul_per_op": summed("laurent.mul") / count,
        "laurent.substitute_ms": own["laurent.substitute_y_plus_yinv"] / 1e6 / count,
        "hodge.symmetry_checks_per_op":
            valid_calls["hodge.HodgeDiamond.symmetry_violations"] / len(valid) if valid else 0.0,
        "hodge.validate_ms": busy("hodge.HodgeDiamond.validate"),
        "hodge.reject_p50_ms": _median([r["lat"] * 1e3 for r in records if r["op"].reject]),
        **{f"lefschetz.verify_n{n}_p50_ms": _median(single["lefschetz.verify_supertrace_identity", n])
           for n in (5, 10, 20, 40)},
        "lefschetz.supertrace_ms": busy("lefschetz.supertrace_polynomial"),
        "lefschetz.primitive_ms": busy("lefschetz.primitive_multiplicities"),
        "sl2.character_calls_per_op": calls["sl2.character"] / count,
        "sl2.character_ms": busy("sl2.character"),
        "series.mul_calls_per_op": summed("series.mul") / count,
        "series.mul_ms": summed("series.mul_ns") / 1e6 / count,
        "series.binomial_ms": busy("series.binomial_expand"),
        "series.terms_max": max([s.get("series.terms_max", 0) for s in stats] + [0]),
        "series.mul_kept_ratio": summed("series.kept") / pairs if pairs else 0.0,
        **{f"catalog.goettsche_n{n}_ms": _median(single["catalog.goettsche_expand", n])
           for n in (3, 4, 5)},
        "catalog.goettsche_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "catalog.coeff_bits_max": max([s.get("series.bits_max", 0) for s in stats] + [0]),
        "catalog.builtin_first_ms": _median(list(first_catalog.values())),
        "catalog.load_ms": mean_call("catalog.load_manifold"),
        "riemann_roch.todd_n2_ms": _mean(single["riemann_roch.todd_series", 2]),
        "riemann_roch.coeffs_cold_n1_ms": coeffs_cold(1),
        "riemann_roch.coeffs_cold_n2_ms": coeffs_cold(2),
        "riemann_roch.caches_cleared": _mean(cleared),
        "cli.interp_ms": _median([op.meta["interp_s"] * 1e3 for op in ops.values()
                                  if "interp_s" in op.meta]),
        "cli.import_ms": _median([op.meta["import_s"] * 1e3 for op in ops.values()
                                  if "import_s" in op.meta]),
        "cli.main_ms": main_ms(),
        **{f"cli.main_{command}_ms": main_ms(command) for command in SUBCOMMANDS},
        "cli.render_ms": mean_call("cli.render"),
        "trace.ops_per_s": count / traced,
        "trace.untraced_ops_per_s": count / untraced,
        "trace.slowdown": traced / untraced,
    }
    units = dict(METRICS)
    return {name: (values[name], units[name]) for name, _ in METRICS}
