"""Spans and counters around hkgenus, installed from outside the package.

``Tracer.install`` wraps every public module-level function of the package
(``sampling`` and ``errors`` do no timed work and are left alone) and the
``HodgeDiamond`` methods ``validate``, ``symmetry_violations``, ``chi_y`` and
``normalized_genus``.  Every reference to a wrapped function held in a module
namespace of the package is rebound, so a call from one module into another
goes through the wrapper too.  ``uninstall`` restores the originals, so the
untraced measurement runs the package exactly as shipped.

A span is ``[name, parent, start_ns, end_ns, n, op]``: ``parent`` is the index
of the enclosing span (-1 at top level), ``n`` the first plain ``int`` argument
of the call or else the ``n`` of a ``HodgeDiamond`` first argument, and ``op``
the benchmark operation the span belongs to.  Spans stay in memory until the
run ends.

Constructions and multiplications of ``LaurentPolynomial`` and
``TruncatedSeries`` happen thousands of times per operation, so they are
counted rather than spanned; ``TruncatedSeries.__mul__`` also accumulates the
time spent in it, and its operands and result are kept until the operation
ends so that term counts can be read through the public ``terms()`` once the
timed call is over.

This module imports nothing beyond what the interpreter loads at start-up, so
a traced child can time ``import hkgenus`` after importing it.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter_ns

SKIPPED_MODULES = ("sampling", "errors")
WRAPPED_METHODS = ("validate", "symmetry_violations", "chi_y", "normalized_genus")
COUNTERS = ("laurent.construct", "laurent.mul", "series.construct", "series.mul",
            "series.mul_ns")


def _public_functions(module, short):
    for name, value in vars(module).items():
        if name.startswith("_") or isinstance(value, type) or not callable(value):
            continue
        if getattr(value, "__module__", None) == module.__name__:
            yield f"{short}.{name}", value


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = None
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.products: list[tuple] = []
        self.op_stats: dict = {}
        self._stack: list[int] = []
        self._plan: list[tuple] = []
        self._catalog = None
        self._begin: tuple = ()

    # -- wrappers -------------------------------------------------------------

    def _span(self, name, fn, diamond_type):
        spans, stack, tracer = self.spans, self._stack, self

        def wrapper(*args, **kwargs):
            n = None
            for arg in args:
                if type(arg) is int:
                    n = arg
                    break
            else:
                if args and type(args[0]) is diamond_type:
                    n = args[0].n
            record = [name, stack[-1] if stack else -1, 0, 0, n, tracer.op]
            stack.append(len(spans))
            spans.append(record)
            record[2] = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                record[3] = perf_counter_ns()
                stack.pop()

        functools.update_wrapper(wrapper, fn)
        for attr in ("cache_clear", "cache_info"):
            if hasattr(fn, attr):
                setattr(wrapper, attr, getattr(fn, attr))
        return wrapper

    def _counted(self, key, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return functools.update_wrapper(wrapper, fn)

    def _timed_series_mul(self, fn):
        counts, products = self.counts, self.products

        def wrapper(left, right):
            start = perf_counter_ns()
            result = fn(left, right)
            counts["series.mul_ns"] += perf_counter_ns() - start
            counts["series.mul"] += 1
            products.append((left, right, result))
            return result

        return functools.update_wrapper(wrapper, fn)

    def _build_plan(self, package):
        prefix = package.__name__ + "."
        modules = [package] + [m for name, m in sorted(sys.modules.items())
                               if name.startswith(prefix)]
        diamond = package.hodge.HodgeDiamond
        wrappers = {}
        for module in modules[1:]:
            short = module.__name__[len(prefix):]
            if short in SKIPPED_MODULES:
                continue
            for name, fn in _public_functions(module, short):
                wrappers[id(fn)] = self._span(name, fn, diamond)
        plan = []
        for module in modules:
            for attr, value in vars(module).items():
                if id(value) in wrappers:
                    plan.append((module, attr, value, wrappers[id(value)]))
        for attr in WRAPPED_METHODS:
            method = diamond.__dict__[attr]
            plan.append((diamond, attr, method,
                         self._span(f"hodge.HodgeDiamond.{attr}", method, diamond)))
        laurent = package.laurent.LaurentPolynomial
        series = package.series.TruncatedSeries
        plan += [
            (laurent, "__init__", laurent.__dict__["__init__"],
             self._counted("laurent.construct", laurent.__dict__["__init__"])),
            (laurent, "__mul__", laurent.__dict__["__mul__"],
             self._counted("laurent.mul", laurent.__dict__["__mul__"])),
            (laurent, "__rmul__", laurent.__dict__["__rmul__"],
             self._counted("laurent.mul", laurent.__dict__["__rmul__"])),
            (series, "__init__", series.__dict__["__init__"],
             self._counted("series.construct", series.__dict__["__init__"])),
            (series, "__mul__", series.__dict__["__mul__"],
             self._timed_series_mul(series.__dict__["__mul__"])),
        ]
        return plan

    def install(self, package):
        if not self._plan:
            self._plan = self._build_plan(package)
        self._catalog = package.catalog
        for owner, attr, _, wrapper in self._plan:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in self._plan:
            setattr(owner, attr, original)

    # -- per-operation accounting ---------------------------------------------

    def op_begin(self, op):
        self.op = op
        self.products.clear()
        info = self._catalog.goettsche_expand.cache_info()
        self._begin = (dict(self.counts), info.hits, info.misses)

    def op_end(self) -> dict:
        """Counter deltas and product statistics of the operation just run."""
        counts, hits, misses = self._begin
        info = self._catalog.goettsche_expand.cache_info()
        stats = {key: self.counts[key] - counts[key] for key in COUNTERS}
        stats["goettsche.hits"] = info.hits - hits
        stats["goettsche.misses"] = info.misses - misses
        stats.update(product_stats(self.products))
        self.products.clear()
        self.op_stats[self.op] = stats
        self.op = None
        return stats

    # -- child processes ------------------------------------------------------

    def payload(self) -> dict:
        return {"spans": self.spans, "op_stats": list(self.op_stats.values())}

    def absorb(self, op, payload):
        """Merge a traced child's spans and statistics under operation ``op``."""
        offset = len(self.spans)
        for name, parent, start, end, n, _ in payload["spans"]:
            self.spans.append([name, parent + offset if parent >= 0 else -1,
                               start, end, n, op])
        merged: dict = {}
        for stats in payload["op_stats"]:
            for key, value in stats.items():
                merged[key] = max(merged.get(key, 0), value) if key.endswith("_max") \
                    else merged.get(key, 0) + value
        self.op_stats[op] = merged


def product_stats(products) -> dict:
    """Term pairs attempted and kept under truncation, largest product, widest coefficient."""
    attempted = kept = terms_max = bits_max = 0
    for left, right, result in products:
        right_terms = [e for e, _ in right.terms()]
        limits = left.limits
        for e1, _ in left.terms():
            attempted += len(right_terms)
            room = [limit - a for a, limit in zip(e1, limits)]
            kept += sum(all(b <= r for b, r in zip(e2, room)) for e2 in right_terms)
        coefficients = [c for _, c in result.terms()]
        terms_max = max(terms_max, len(coefficients))
        bits_max = max([bits_max] + [abs(c).bit_length() for c in coefficients])
    return {"series.pairs": attempted, "series.kept": kept,
            "series.terms_max": terms_max, "series.bits_max": bits_max}


def self_times(spans) -> list[int]:
    """Each span's duration minus the time its direct children cover, in ns."""
    covered = [0] * len(spans)
    for _, parent, start, end, _, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - c for (_, _, start, end, _, _), c in zip(spans, covered)]
