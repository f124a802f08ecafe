"""Command-line driver: every library operation behind one batch interface.

Subcommands: chi, strace, verify, decompose, rw, rr, catalog.  Results go to
stdout in text, CSV or JSON form (all three carry identical numbers); errors
go to stderr.  Exit codes: 0 success, 1 input or validation error, 2 identity
check failure, 3 internal inconsistency.  Output is plain text, so NO_COLOR
is honored trivially.

Each subcommand is declared once: an ``add_parser`` site in ``build_parser``
that attaches its ``_cmd_*`` handler with ``set_defaults(handler=...)`` and
one of two parent parsers, which declare the shared options once: ``output``
(``--format``, for ``catalog``) or ``manifold`` (``--format``, ``--manifold``,
``--input`` and ``--strict``).  A handler takes the parsed arguments and
returns ``(payload, lines, table, code)``: the payload dict that JSON is
written from (without ``"command"``), the lines of the text form, the rows of
its CSV table, and the exit code.  A handler that returns ``None`` for its
table gets the field,value rows of its payload as CSV.  ``main`` is the one
exit path: it names the command and renders, and it maps ``InputError``, the
interpreter's digit-limit refusal and ``OSError`` to exit code 1 and
``InternalInconsistencyError`` to 3.
"""

from __future__ import annotations

import argparse
import sys
from functools import partial

from . import catalog as catalog_mod
from .boundary import (
    SHORT, digit_limit, is_digit_limit_error, json_text, parse_int, quote, shorten)
from .errors import InputError, InternalInconsistencyError
from .hodge import ValidationLevel
from .laurent import substitute_y_plus_yinv
from .lefschetz import (
    primitive_multiplicities,
    rozansky_witten_invariant,
    supertrace_polynomial,
    supertrace_value,
    verify_supertrace_identity,
)
from .riemann_roch import ChernData, chi_minus_y_from_chern, supertrace_from_chern
from .sl2 import SL2Element

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_IDENTITY = 2
EXIT_INTERNAL = 3

# The Chern numbers ``rr`` takes: option, ChernData key, the n it belongs to.
_CHERN_FLAGS = (("--c2", "c2", 1), ("--c2sq", "c2^2", 2), ("--c4", "c4", 2))


class _Parser(argparse.ArgumentParser):
    # Map usage errors onto the package's input-error exit code; argparse
    # quotes the offending value, which may be arbitrarily long.
    def error(self, message):
        raise InputError(shorten(message, 2 * SHORT))


def build_parser() -> argparse.ArgumentParser:
    output = _Parser(add_help=False)
    output.add_argument("--format", choices=("text", "csv", "json"), default="text",
                        help="output format (default text)")
    manifold = _Parser(add_help=False, parents=[output])
    manifold.add_argument("--manifold", metavar="NAME",
                          help="built-in manifold name (see the catalog subcommand)")
    manifold.add_argument("--input", metavar="PATH", help="path to a .hodge.json manifold file")
    manifold.add_argument("--strict", action="store_true",
                          help="force STRICT validation of the manifold")
    parser = _Parser(prog="hkgenus", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, help, options=manifold):
        p = sub.add_parser(name, help=help, parents=[options])
        p.set_defaults(handler=handler)
        return p

    command("chi", _cmd_chi, "chi_y genus, chi_{-y}, and the classical values")
    p = command("strace", _cmd_strace, "graded-trace polynomial S(t), optionally evaluated")
    p.add_argument("--matrix", metavar='"a,b;c,d"', help="integer SL(2) element")
    p = command("verify", _cmd_verify, "check S(y+1/y) = chi_{-y}/y^n exactly")
    p.add_argument("--all-builtin", action="store_true",
                   help="verify every catalog entry in order")
    command("decompose", _cmd_decompose, "primitive multiplicities and irreducible content")
    p = command("rw", _cmd_rw, "mapping-torus invariant of an integer monodromy")
    p.add_argument("--matrix", metavar='"a,b;c,d"', required=True, help="monodromy in SL(2,Z)")
    p = command("rr", _cmd_rr, "Riemann-Roch side from Chern numbers")
    p.add_argument("--n", type=partial(parse_int, what="--n"), required=True, metavar="N",
                   help="half complex dimension (1 or 2)")
    for flag, key, n in _CHERN_FLAGS:
        p.add_argument(flag, type=partial(parse_int, what=flag), dest=key, metavar="INT",
                       help=f"{key} (n={n})")
    command("catalog", _cmd_catalog, "list built-in manifolds", options=output)
    return parser


def _resolve_manifold(args, required=True):
    manifold, path = args.manifold, args.input
    if manifold is not None and path is not None:
        raise InputError("exactly one manifold source: use --manifold or --input, not both")
    if manifold is not None:  # the catalog checked every built-in STRICT when it built it
        return catalog_mod.builtin(manifold)
    if path is not None:
        level = ValidationLevel.STRICT if args.strict else ValidationLevel.STRUCTURAL
        return catalog_mod.load_manifold(path, level)
    if required:
        raise InputError("a manifold is required: pass --manifold NAME or --input PATH")
    if args.strict:
        raise InputError("--strict needs a manifold: pass --manifold NAME or --input PATH")
    return None


# -- command handlers ----------------------------------------------------------

def _cmd_chi(args):
    record = _resolve_manifold(args)
    d = record.diamond
    genus = d.chi_y()
    chi_y, chi_minus_y = genus.to_string("y"), genus.negate_variable().to_string("y")
    values = d.classical_values()
    payload = {
        "name": record.name,
        "n": d.n,
        "chi_y": chi_y,
        "chi_minus_y": chi_minus_y,
        "euler": values.euler,
        "todd": values.todd_genus,
        "signature": values.signature,
    }
    lines = [
        f"manifold: {record.name} (n={d.n})",
        f"chi_y      = {chi_y}",
        f"chi_{{-y}}   = {chi_minus_y}",
        f"euler      = {values.euler}",
        f"todd       = {values.todd_genus}",
        f"signature  = {values.signature}",
    ]
    return payload, lines, None, EXIT_OK


def _cmd_strace(args):
    record = _resolve_manifold(args)
    s_t = supertrace_polynomial(record.diamond).to_string("t")
    payload = {"name": record.name, "n": record.diamond.n, "supertrace_t": s_t}
    line = f"S(t)={s_t}"
    if args.matrix is not None:
        u = SL2Element.from_string(args.matrix)
        value = supertrace_value(record.diamond, u)
        payload.update(matrix=u.to_string(), trace=u.trace, value=value)
        line += f"  S({u.trace})={value}"
    return payload, [line], None, EXIT_OK


def _cmd_verify(args):
    if args.all_builtin:
        if args.manifold is not None or args.input is not None:
            raise InputError("--all-builtin does not take a manifold source")
        records = [catalog_mod.builtin(name) for name in catalog_mod.builtin_names()]
    else:
        records = [_resolve_manifold(args)]
    table, lines = [("name", "n", "passed", "supertrace_t", "lhs", "rhs")], []
    for record in records:
        report = verify_supertrace_identity(record.diamond)
        n, lhs, rhs = record.diamond.n, report.lhs.to_string("y"), report.rhs.to_string("y")
        table.append((record.name, n, report.passed, report.supertrace.to_string("t"), lhs, rhs))
        if report.passed:
            line = f"PASS  ST(t=y+1/y) = {lhs} = chi_{{-y}}/y^{n}"
        else:
            line = f"FAIL  ST(t=y+1/y) = {lhs} != {rhs} = chi_{{-y}}/y^{n}"
        lines.append(f"{record.name}: {line}" if len(records) > 1 else line)
    results = [dict(zip(table[0], row)) for row in table[1:]]
    all_passed = all(r["passed"] for r in results)
    if len(records) > 1:
        lines.append("all passed" if all_passed else "FAILURES present")
    payload = {"results": results, "all_passed": all_passed}
    return payload, lines, table, EXIT_OK if all_passed else EXIT_IDENTITY


def _cmd_decompose(args):
    record = _resolve_manifold(args)
    pt = primitive_multiplicities(record.diamond)
    representations = [
        {
            "p": p,
            "dimension": pt.representation_dimension(p),
            "multiplicities": list(row),
            "total": sum(row),
        }
        for p, row in enumerate(pt.rows)
    ]
    payload = {
        "name": record.name,
        "n": pt.n,
        "primitive": [list(row) for row in pt.rows],
        "representations": representations,
    }
    lines = [
        f"manifold: {record.name} (n={pt.n})",
        "primitive multiplicities prim(p,q), rows p=0..n, columns q=0..2n:",
        *(f"  p={p}: {' '.join(map(str, row))}" for p, row in enumerate(pt.rows)),
        "irreducible content (dimension n-p+1 against column q):",
        *(f"  p={rep['p']}: {rep['total']} string(s) of dimension {rep['dimension']}"
          f", per q {rep['multiplicities']}" for rep in representations),
    ]
    table = [("p", "dimension", "q", "multiplicity"),
             *((rep["p"], rep["dimension"], q, value)
               for rep in representations for q, value in enumerate(rep["multiplicities"]))]
    return payload, lines, table, EXIT_OK


def _cmd_rw(args):
    record = _resolve_manifold(args)
    u = SL2Element.from_string(args.matrix)
    result = rozansky_witten_invariant(record.diamond, u)
    s_t = result.supertrace.to_string("t")
    payload = {
        "name": record.name,
        "n": record.diamond.n,
        "matrix": u.to_string(),
        "trace": result.trace,
        "value": result.value,
        "supertrace_t": s_t,
    }
    lines = [
        f"Z^RW[T_U] = {result.value}  (monodromy {payload['matrix']}, trace {result.trace})",
        f"S(t)={s_t}",
    ]
    return payload, lines, None, EXIT_OK


def _cmd_rr(args):
    data = ChernData(args.n, {key: getattr(args, key) for _, key, _ in _CHERN_FLAGS
                              if getattr(args, key) is not None})
    chi_neg = chi_minus_y_from_chern(args.n, data)
    s_t = supertrace_from_chern(args.n, data)
    consistent = substitute_y_plus_yinv(s_t).shifted(args.n) == chi_neg
    if not consistent:
        raise InternalInconsistencyError(
            "y^n * S(y + 1/y) disagrees with the chi_{-y} pipeline")
    payload = {
        "n": args.n,
        "chern": data.values,
        "chi_minus_y": chi_neg.to_string("y"),
        "supertrace_t": s_t.to_string("t"),
        "substitution_consistent": consistent,
    }
    chern = ", ".join(f"{k}={v}" for k, v in data.pairs)
    lines = [
        f"n = {args.n}, chern: {chern}",
        f"chi_{{-y}} = {payload['chi_minus_y']}",
        f"S(t)      = {payload['supertrace_t']}",
        "substitution consistency (y^n S(y+1/y) = chi_{-y}): ok",
    ]
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
        if matches:
            lines.append(f"hodge comparison ({record.name}): MATCH")
        else:
            lines.append(
                f"hodge comparison ({record.name}): MISMATCH  "
                f"hodge chi_{{-y}} = {payload['hodge_chi_minus_y']}, "
                f"hodge S(t) = {payload['hodge_supertrace_t']}")
            code = EXIT_IDENTITY
    return payload, lines, None, code


def _cmd_catalog(args):
    table = [("name", "n", "euler", "todd", "signature")]
    for name in catalog_mod.builtin_names():
        d = catalog_mod.builtin(name).diamond
        values = d.classical_values()
        table.append((name, d.n, values.euler, values.todd_genus, values.signature))
    entries = [dict(zip(table[0], row)) for row in table[1:]]
    lines = ["{:<8} {:>2} {:>8} {:>6} {:>10}".format(*row) for row in table]
    return {"entries": entries}, lines, table, EXIT_OK


# -- rendering -----------------------------------------------------------------

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


def render(command, payload, lines, table, fmt: str) -> str:
    """JSON is written from ``command`` and ``payload``, CSV from ``table`` (or,
    when it is ``None``, the flattened payload); text joins ``lines``."""
    if fmt == "json":
        return json_text({"command": command, **payload})
    if fmt == "csv":
        import csv
        import io

        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerows(table or [("field", "value"), *_flatten(payload)])
        return buffer.getvalue().rstrip("\n")
    return "\n".join(lines)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        payload, lines, table, code = args.handler(args)
        text = render(args.command, payload, lines, table, args.format)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except InternalInconsistencyError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except OSError as exc:  # it quotes the path, which may be arbitrarily long
        print(f"error: {shorten(str(exc), 2 * SHORT)}", file=sys.stderr)
        return EXIT_INPUT
    except ValueError as exc:
        # Large inputs can give results with more digits than the interpreter
        # writes as text (the value of S at a huge trace, say).
        if not is_digit_limit_error(exc):
            raise
        print(f"error: a result has more than {digit_limit()} digits, "
              "the most the interpreter writes as text", file=sys.stderr)
        return EXIT_INPUT
    print(text)
    return code
