"""Command-line driver: every library operation behind one batch interface.

Subcommands: chi, strace, verify, decompose, rw, rr, catalog.  Results go to
stdout in text, CSV or JSON form (all three carry identical numbers); errors
go to stderr.  Exit codes: 0 success, 1 input or validation error, 2 identity
check failure, 3 internal inconsistency.  Output is plain text, so NO_COLOR
is honored trivially.
"""

from __future__ import annotations

import argparse
import sys

from . import catalog as catalog_mod
from .boundary import SHORT, digit_limit, is_digit_limit_error, quote, shorten
from .errors import InputError, InternalInconsistencyError
from .hodge import ValidationLevel
from .laurent import substitute_y_plus_yinv
from .lefschetz import (
    primitive_multiplicities,
    rozansky_witten_invariant,
    supertrace_polynomial,
    verify_supertrace_identity,
)
from .riemann_roch import ChernData, chi_minus_y_from_chern, supertrace_from_chern
from .sl2 import SL2Element

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_IDENTITY = 2
EXIT_INTERNAL = 3


class _Parser(argparse.ArgumentParser):
    # Map usage errors onto the package's input-error exit code; argparse
    # quotes the offending value, which may be arbitrarily long.
    def error(self, message):
        raise InputError(shorten(message, 2 * SHORT))


def _add_manifold_args(parser):
    parser.add_argument("--manifold", metavar="NAME",
                        help="built-in manifold name (see the catalog subcommand)")
    parser.add_argument("--input", metavar="PATH",
                        help="path to a .hodge.json manifold file")


def _add_common_args(parser):
    parser.add_argument("--format", choices=("text", "csv", "json"), default="text",
                        help="output format (default text)")
    parser.add_argument("--strict", action="store_true",
                        help="force STRICT validation of the manifold")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hkgenus", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("chi", help="chi_y genus, chi_{-y}, and the classical values")
    _add_manifold_args(p)
    _add_common_args(p)

    p = sub.add_parser("strace", help="graded-trace polynomial S(t), optionally evaluated")
    _add_manifold_args(p)
    p.add_argument("--matrix", metavar='"a,b;c,d"', help="integer SL(2) element")
    _add_common_args(p)

    p = sub.add_parser("verify", help="check S(y+1/y) = chi_{-y}/y^n exactly")
    _add_manifold_args(p)
    p.add_argument("--all-builtin", action="store_true",
                   help="verify every catalog entry in order")
    _add_common_args(p)

    p = sub.add_parser("decompose", help="primitive multiplicities and irreducible content")
    _add_manifold_args(p)
    _add_common_args(p)

    p = sub.add_parser("rw", help="mapping-torus invariant of an integer monodromy")
    _add_manifold_args(p)
    p.add_argument("--matrix", metavar='"a,b;c,d"', required=True,
                   help="monodromy in SL(2,Z)")
    _add_common_args(p)

    p = sub.add_parser("rr", help="Riemann-Roch side from Chern numbers")
    p.add_argument("--n", type=int, required=True, metavar="N",
                   help="half complex dimension (1 or 2)")
    p.add_argument("--c2", type=int, metavar="INT", help="c2 (n=1)")
    p.add_argument("--c2sq", type=int, metavar="INT", help="c2^2 (n=2)")
    p.add_argument("--c4", type=int, metavar="INT", help="c4 (n=2)")
    _add_manifold_args(p)
    _add_common_args(p)

    p = sub.add_parser("catalog", help="list built-in manifolds")
    _add_common_args(p)

    return parser


def _resolve_manifold(args, required=True):
    manifold, path = args.manifold, args.input
    if manifold and path:
        raise InputError("exactly one manifold source: use --manifold or --input, not both")
    level = ValidationLevel.STRICT if args.strict else ValidationLevel.STRUCTURAL
    if manifold:
        record = catalog_mod.builtin(manifold)
        record.diamond.require_valid(level)
        return record
    if path:
        return catalog_mod.load_manifold(path, level)
    if required:
        raise InputError("a manifold is required: pass --manifold NAME or --input PATH")
    return None


# -- command handlers ----------------------------------------------------------

def _cmd_chi(args):
    record = _resolve_manifold(args)
    d = record.diamond
    genus = d.chi_y()
    values = d.classical_values()
    payload = {
        "command": "chi",
        "name": record.name,
        "n": d.n,
        "chi_y": genus.to_string("y"),
        "chi_minus_y": genus.negate_variable().to_string("y"),
        "euler": values.euler,
        "todd": values.todd_genus,
        "signature": values.signature,
    }
    return payload, EXIT_OK


def _cmd_strace(args):
    record = _resolve_manifold(args)
    s_t = supertrace_polynomial(record.diamond)
    payload = {
        "command": "strace",
        "name": record.name,
        "n": record.diamond.n,
        "supertrace_t": s_t.to_string("t"),
    }
    if args.matrix:
        u = SL2Element.from_string(args.matrix)
        payload["matrix"] = u.to_string()
        payload["trace"] = u.trace
        payload["value"] = int(s_t.evaluate(u.trace))
    return payload, EXIT_OK


def _cmd_verify(args):
    if args.all_builtin:
        if args.manifold or args.input:
            raise InputError("--all-builtin does not take a manifold source")
        records = [catalog_mod.builtin(name) for name in catalog_mod.builtin_names()]
    else:
        records = [_resolve_manifold(args)]
    results = []
    for record in records:
        if args.strict and args.all_builtin:  # _resolve_manifold checked the others
            record.diamond.require_valid(ValidationLevel.STRICT)
        report = verify_supertrace_identity(record.diamond)
        results.append({
            "name": record.name,
            "n": record.diamond.n,
            "passed": report.passed,
            "supertrace_t": report.supertrace.to_string("t"),
            "lhs": report.lhs.to_string("y"),
            "rhs": report.rhs.to_string("y"),
        })
    all_passed = all(r["passed"] for r in results)
    payload = {"command": "verify", "results": results, "all_passed": all_passed}
    return payload, EXIT_OK if all_passed else EXIT_IDENTITY


def _cmd_decompose(args):
    record = _resolve_manifold(args)
    table = primitive_multiplicities(record.diamond)
    representations = [
        {
            "p": p,
            "dimension": table.representation_dimension(p),
            "multiplicities": list(row),
            "total": sum(row),
        }
        for p, row in enumerate(table.rows)
    ]
    payload = {
        "command": "decompose",
        "name": record.name,
        "n": table.n,
        "primitive": [list(row) for row in table.rows],
        "representations": representations,
    }
    return payload, EXIT_OK


def _cmd_rw(args):
    record = _resolve_manifold(args)
    u = SL2Element.from_string(args.matrix)
    result = rozansky_witten_invariant(record.diamond, u)
    payload = {
        "command": "rw",
        "name": record.name,
        "n": record.diamond.n,
        "matrix": u.to_string(),
        "trace": result.trace,
        "value": result.value,
        "supertrace_t": result.supertrace.to_string("t"),
    }
    return payload, EXIT_OK


def _cmd_rr(args):
    values = {}
    if args.c2 is not None:
        values["c2"] = args.c2
    if args.c2sq is not None:
        values["c2^2"] = args.c2sq
    if args.c4 is not None:
        values["c4"] = args.c4
    data = ChernData(args.n, values)
    chi_neg = chi_minus_y_from_chern(args.n, data)
    s_t = supertrace_from_chern(args.n, data)
    consistent = substitute_y_plus_yinv(s_t).shifted(args.n) == chi_neg
    if not consistent:
        raise InternalInconsistencyError(
            "y^n * S(y + 1/y) disagrees with the chi_{-y} pipeline")
    payload = {
        "command": "rr",
        "n": args.n,
        "chern": {k: data.values[k] for k in sorted(data.values)},
        "chi_minus_y": chi_neg.to_string("y"),
        "supertrace_t": s_t.to_string("t"),
        "substitution_consistent": consistent,
    }
    code = EXIT_OK
    record = _resolve_manifold(args, required=False)
    if record is not None:
        d = record.diamond
        if d.n != args.n:
            raise InputError(
                f"manifold {quote(record.name)} has n = {d.n}, Chern data has n = {args.n}")
        hodge_chi_neg = d.chi_y().negate_variable()
        hodge_s_t = supertrace_polynomial(d)
        matches = hodge_chi_neg == chi_neg and hodge_s_t == s_t
        payload.update({
            "manifold": record.name,
            "hodge_chi_minus_y": hodge_chi_neg.to_string("y"),
            "hodge_supertrace_t": hodge_s_t.to_string("t"),
            "matches_hodge": matches,
        })
        if not matches:
            code = EXIT_IDENTITY
    return payload, code


def _cmd_catalog(args):
    entries = []
    for name in catalog_mod.builtin_names():
        record = catalog_mod.builtin(name)
        values = record.diamond.classical_values()
        entries.append({
            "name": name,
            "n": record.diamond.n,
            "euler": values.euler,
            "todd": values.todd_genus,
            "signature": values.signature,
        })
    payload = {"command": "catalog", "entries": entries}
    return payload, EXIT_OK


_HANDLERS = {
    "chi": _cmd_chi,
    "strace": _cmd_strace,
    "verify": _cmd_verify,
    "decompose": _cmd_decompose,
    "rw": _cmd_rw,
    "rr": _cmd_rr,
    "catalog": _cmd_catalog,
}


# -- rendering -----------------------------------------------------------------

def _text_chi(payload):
    return [
        f"manifold: {payload['name']} (n={payload['n']})",
        f"chi_y      = {payload['chi_y']}",
        f"chi_{{-y}}   = {payload['chi_minus_y']}",
        f"euler      = {payload['euler']}",
        f"todd       = {payload['todd']}",
        f"signature  = {payload['signature']}",
    ]


def _text_strace(payload):
    line = f"S(t)={payload['supertrace_t']}"
    if "value" in payload:
        line += f"  S({payload['trace']})={payload['value']}"
    return [line]


def _verify_line(result):
    n = result["n"]
    if result["passed"]:
        return f"PASS  ST(t=y+1/y) = {result['lhs']} = chi_{{-y}}/y^{n}"
    return (f"FAIL  ST(t=y+1/y) = {result['lhs']} != {result['rhs']}"
            f" = chi_{{-y}}/y^{n}")


def _text_verify(payload):
    results = payload["results"]
    if len(results) == 1:
        return [_verify_line(results[0])]
    lines = [f"{r['name']}: {_verify_line(r)}" for r in results]
    lines.append("all passed" if payload["all_passed"] else "FAILURES present")
    return lines


def _text_decompose(payload):
    lines = [
        f"manifold: {payload['name']} (n={payload['n']})",
        "primitive multiplicities prim(p,q), rows p=0..n, columns q=0..2n:",
    ]
    for rep in payload["representations"]:
        row = " ".join(str(v) for v in rep["multiplicities"])
        lines.append(f"  p={rep['p']}: {row}")
    lines.append("irreducible content (dimension n-p+1 against column q):")
    for rep in payload["representations"]:
        lines.append(
            f"  p={rep['p']}: {rep['total']} string(s) of dimension {rep['dimension']}"
            f", per q {rep['multiplicities']}")
    return lines


def _text_rw(payload):
    return [
        f"Z^RW[T_U] = {payload['value']}  (monodromy {payload['matrix']}, trace {payload['trace']})",
        f"S(t)={payload['supertrace_t']}",
    ]


def _text_rr(payload):
    chern = ", ".join(f"{k}={v}" for k, v in payload["chern"].items())
    lines = [
        f"n = {payload['n']}, chern: {chern}",
        f"chi_{{-y}} = {payload['chi_minus_y']}",
        f"S(t)      = {payload['supertrace_t']}",
        "substitution consistency (y^n S(y+1/y) = chi_{-y}): ok",
    ]
    if "matches_hodge" in payload:
        if payload["matches_hodge"]:
            lines.append(f"hodge comparison ({payload['manifold']}): MATCH")
        else:
            lines.append(
                f"hodge comparison ({payload['manifold']}): MISMATCH  "
                f"hodge chi_{{-y}} = {payload['hodge_chi_minus_y']}, "
                f"hodge S(t) = {payload['hodge_supertrace_t']}")
    return lines


def _text_catalog(payload):
    header = f"{'name':<8} {'n':>2} {'euler':>8} {'todd':>6} {'signature':>10}"
    lines = [header]
    for e in payload["entries"]:
        lines.append(
            f"{e['name']:<8} {e['n']:>2} {e['euler']:>8} {e['todd']:>6} {e['signature']:>10}")
    return lines


_TEXT_RENDERERS = {
    "chi": _text_chi,
    "strace": _text_strace,
    "verify": _text_verify,
    "decompose": _text_decompose,
    "rw": _text_rw,
    "rr": _text_rr,
    "catalog": _text_catalog,
}


def _flatten(payload, prefix=""):
    # key,value rows for CSV; nested dicts use dotted keys.
    rows = []
    for key in sorted(payload):
        value = payload[key]
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            rows.extend(_flatten(value, prefix=f"{name}."))
        else:
            rows.append((name, value))
    return rows


def _csv_rows(payload):
    command = payload["command"]
    if command == "catalog":
        yield ("name", "n", "euler", "todd", "signature")
        for e in payload["entries"]:
            yield (e["name"], e["n"], e["euler"], e["todd"], e["signature"])
    elif command == "verify":
        yield ("name", "n", "passed", "supertrace_t", "lhs", "rhs")
        for r in payload["results"]:
            yield (r["name"], r["n"], r["passed"], r["supertrace_t"], r["lhs"], r["rhs"])
    elif command == "decompose":
        yield ("p", "dimension", "q", "multiplicity")
        for rep in payload["representations"]:
            for q, value in enumerate(rep["multiplicities"]):
                yield (rep["p"], rep["dimension"], q, value)
    else:
        yield ("field", "value")
        for key, value in _flatten(payload):
            if key == "command":
                continue
            yield (key, value)


def render(payload, fmt: str) -> str:
    if fmt == "json":
        import json

        return json.dumps(payload, indent=2, sort_keys=True)
    if fmt == "csv":
        import csv
        import io

        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerows(_csv_rows(payload))
        return buffer.getvalue().rstrip("\n")
    return "\n".join(_TEXT_RENDERERS[payload["command"]](payload))


def _run(args) -> tuple[str, int]:
    """Run the subcommand and render its result as the requested format."""
    try:
        payload, code = _HANDLERS[args.command](args)
        return render(payload, args.format), code
    except ValueError as exc:
        # Large inputs can give results with more digits than the interpreter
        # writes as text (the value of S at a huge trace, say).
        if not is_digit_limit_error(exc):
            raise
        raise InputError(
            f"a result has more than {digit_limit()} digits, "
            "the most the interpreter writes as text") from None


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        text, code = _run(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except InternalInconsistencyError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except OSError as exc:  # it quotes the path, which may be arbitrarily long
        print(f"error: {shorten(str(exc), 2 * SHORT)}", file=sys.stderr)
        return EXIT_INPUT
    print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
