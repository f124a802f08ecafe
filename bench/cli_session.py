"""cli-session: one ``python -m hkgenus`` child at a time, as a CLI user runs it.

Ops are dealt in shuffled blocks of ten: one of each of the nine command kinds
below plus one hostile input.  Formats rotate over text, csv and json.

* ``catalog``, ``verify-all`` (``verify --all-builtin``);
* ``chi``, ``decompose``, ``strace --matrix`` and ``rw --matrix`` on a seeded
  built-in and a seeded ``random_sl2``;
* ``rr --n 1/2 --manifold K3 / K3[2]`` with the catalog's Chern numbers;
* ``verify-input`` and ``decompose-input`` on seeded ``.hodge.json`` files
  with n = 5, 10, 20, 40, written in setup with ``save_manifold``.

Expected outputs come from ``oracles``: built-ins from the EGL product, input
files from their own tables.  JSON output must contain the expected payload;
text and CSV output must contain every expected polynomial and number.

Hostile kinds cycle through a seeded order and must each end with exit code 1,
a first stderr line that is the only ``error:`` line and has at most 200
characters, nothing on stdout and no ``Traceback``.

``json-bigint``, ``deep-array``, ``non-utf8`` and ``matrix-bigint`` are the four
known boundary defects: they fail that check until the input boundary is
fixed.  A workload's ops must not fail, so they are not ops of the timed loop.
``probe_defects`` runs each of them once per run, after the loop, with the
same check; the runner prints the outcome per kind and, when traced, reports
the count as ``cli.boundary_defects``.
"""

from __future__ import annotations

import json
import os
import random
import re
import sys
from pathlib import Path

import oracles
from common import (REF_CHILD_S, ROOT, WORK, HostSpeed, Op, Outcome, Stopwatch,
                    bare_child_seconds, child_env, import_hkgenus, run_child)

KINDS = ("catalog", "verify-all", "chi", "decompose", "strace", "rw", "rr",
         "verify-input", "decompose-input")
HOSTILE_KINDS = ("bad-matrix", "asymmetric-table", "malformed-json")
BOUNDARY_DEFECTS = ("json-bigint", "deep-array", "non-utf8", "matrix-bigint")
FORMATS = ("text", "csv", "json")
INPUT_SIZES = (5, 10, 20, 40)
FILES_PER_SIZE = 2
ERROR_LINE_MAX = 200
FAILURE_WORDS = ("FAIL", "False", "MISMATCH", "BROKEN")
TRACE_CHILD = Path(__file__).resolve().parent / "trace_child.py"
RR_MANIFOLDS = {1: "K3", 2: "K3[2]"}


def _digits(rng, count: int) -> str:
    return str(rng.randrange(1, 10)) + "".join(rng.choice("0123456789") for _ in range(count - 1))


def _points(name: str) -> int:
    match = re.fullmatch(r"K3(?:\[(\d+)\])?", name)
    if not match:
        raise ValueError(f"unexpected built-in name {name!r}")
    return int(match.group(1) or 1)


class Manifold:
    """Everything the oracle predicts about one manifold."""

    def __init__(self, name, n, normalized, rows=None, defect=None):
        self.name, self.n, self.rows, self.defect = name, n, rows, defect
        self.normalized = normalized
        self.chi_minus = {e + n: c for e, c in normalized.items()}
        self.chi = {p: c if p % 2 == 0 else -c for p, c in self.chi_minus.items()}
        self.supertrace = oracles.supertrace(normalized)

    def classical(self) -> dict:
        return {"euler": oracles.evaluate(self.chi, -1), "todd": self.chi.get(0, 0),
                "signature": oracles.evaluate(self.chi, 1)}

    def verify_result(self) -> dict:
        genus = oracles.render(self.normalized)
        return {"name": self.name, "n": self.n, "passed": True,
                "supertrace_t": oracles.render(self.supertrace, "t"),
                "lhs": genus, "rhs": genus}


class Expect:
    """Expected payload (checked on JSON) and the tokens text and CSV must carry."""

    def __init__(self, payload, tokens=(), sequence=(), defect=None):
        self.payload, self.tokens, self.sequence = payload, list(tokens), list(sequence)
        self.defect = defect  # set when the catalog table itself disagrees with the oracle


def _contains(want, got) -> bool:
    if isinstance(want, dict):
        return isinstance(got, dict) and all(k in got and _contains(v, got[k]) for k, v in want.items())
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(_contains(w, g) for w, g in zip(want, got)))
    return type(want) is type(got) and want == got


def _is_subsequence(needle, haystack) -> bool:
    it = iter(haystack)
    return all(any(x == y for y in it) for x in needle)


def check_output(expect: Expect, fmt: str, stdout: str) -> str | None:
    """Compare one successful command's stdout with the oracle's expectation."""
    if fmt == "json":
        try:
            payload = json.loads(stdout)
        except ValueError:
            return "stdout is not JSON"
        return None if _contains(expect.payload, payload) else "JSON payload differs from the oracle"
    numbers = [int(x) for x in re.findall(r"-?\d+", stdout)]
    present = set(numbers)
    for token in expect.tokens:
        if isinstance(token, int) and token not in present:
            return f"{fmt} output lacks {token}"
        if isinstance(token, str) and token not in stdout:
            return f"{fmt} output lacks {token[:40]!r}"
    for word in FAILURE_WORDS:
        if word in stdout:
            return f"{fmt} output reports {word}"
    if not _is_subsequence(expect.sequence, numbers):
        return f"{fmt} output lacks the expected table"
    return None


def check_hostile(code: int, stdout: str, stderr: str) -> str | None:
    """The documented path for bad input: exit 1 and one short ``error:`` line."""
    if "Traceback" in stderr:
        return "traceback"
    if code != 1:
        return f"exit code {code}"
    lines = stderr.splitlines()
    if not lines or not lines[0].startswith("error:") \
            or sum(line.startswith("error:") for line in lines) != 1:
        return "no single error: line"
    if len(lines[0]) > ERROR_LINE_MAX:
        return f"error line of {len(lines[0])} characters"
    if stdout:
        return "output on stdout"
    return None


class CliSession:
    name = "cli-session"
    in_process = False

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = random.Random(f"cli-session:{seed}")
        self.hk = None
        # Relative paths keep the CLI's messages short wherever the checkout lives.
        self.workdir = (WORK / f"{os.getpid()}").relative_to(ROOT)
        self.env = child_env()
        self.builtins: dict[str, Manifold] = {}
        self.inputs: list[tuple[str, Manifold]] = []
        self.hostile_files: dict[str, str] = {}
        self._deal: list[str] = []
        self._hostile_order: list[str] = []
        self._count = 0

    # -- setup --------------------------------------------------------------

    def setup(self, clock: Stopwatch, tracer=None):
        with clock:
            self.hk = import_hkgenus()
            names = self.hk.builtin_names()
        self._prepare(names)
        warm_rng = random.Random(f"cli-session:{self.seed}:setup")
        warm = [self._make(warm_rng, -1, kind) for kind in KINDS]
        with clock:
            for op in warm:
                self.execute(op)

    def _prepare(self, names):
        hk = self.hk
        top = max(_points(name) for name in names)
        egl = oracles.egl_normalized_genera(20, top)
        for name in names:
            m = _points(name)
            rows = [list(r) for r in hk.builtin(name).diamond.rows]
            defect = None
            if oracles.normalized_genus(rows) != egl[m] or oracles.table_defects(rows, strict=True):
                defect = f"catalog table of {name} differs from the EGL product"
            self.builtins[name] = Manifold(name, m, egl[m], rows, defect)
        os.makedirs(self.workdir, exist_ok=True)
        file_rng = random.Random(f"cli-session:{self.seed}:files")
        for n in INPUT_SIZES:
            for i in range(FILES_PER_SIZE):
                diamond = hk.random_structural_diamond(file_rng, n)
                name = f"R{n}-{i}"
                path = str(self.workdir / f"{name}.hodge.json")
                hk.save_manifold(hk.ManifoldRecord(name, diamond), path)
                rows = [list(r) for r in diamond.rows]
                self.inputs.append((path, Manifold(name, n, oracles.normalized_genus(rows), rows)))
        self.hostile_files = self._write_hostile_files(file_rng)

    def _write_hostile_files(self, rng) -> dict[str, str]:
        hk = self.hk
        paths = {kind: str(self.workdir / f"{kind}.hodge.json")
                 for kind in ("asymmetric-table", "malformed-json", "json-bigint",
                              "deep-array", "non-utf8")}
        rows = [list(r) for r in hk.random_structural_diamond(rng, 5).rows]
        p, q = rng.choice([(p, q) for p in range(11) for q in range(11) if (p, q) != (5, 5)])
        rows[p][q] += 1
        hk.save_manifold(hk.ManifoldRecord("asymmetric", hk.HodgeDiamond(rows)),
                         paths["asymmetric-table"])
        valid = json.dumps({"name": "cut", "n": 1, "hodge": [[1, 0, 1], [0, 20, 0], [1, 0, 1]]})
        cut = rng.randrange(10, len(valid) - 1)
        contents = {
            "malformed-json": valid[:cut].encode(),
            "json-bigint": ('{"name": "big", "n": 1, "hodge": [[1, 0, 1], [0, %s, 0], [1, 0, 1]]}'
                            % _digits(rng, 5000)).encode(),
            "deep-array": ('{"name": "deep", "n": 1, "hodge": ' + "[" * 100_000
                           + "]" * 100_000 + "}").encode(),
            "non-utf8": b'{"name": "bad\xff\xfebytes", "n": 1, '
                        b'"hodge": [[1, 0, 1], [0, 20, 0], [1, 0, 1]]}',
        }
        for kind, data in contents.items():
            with open(paths[kind], "wb") as handle:
                handle.write(data)
        return paths

    # -- ops ------------------------------------------------------------------

    def host_speed(self) -> HostSpeed:
        # A bare child before about every other op.
        return HostSpeed(bare_child_seconds, REF_CHILD_S, every_s=0.3)

    def next_op(self) -> Op:
        if not self._hostile_order:
            self._hostile_order = list(HOSTILE_KINDS)
            self.rng.shuffle(self._hostile_order)
        if not self._deal:
            self._deal = list(KINDS) + [self._hostile_order.pop()]
            self.rng.shuffle(self._deal)
        op = self._make(self.rng, self._count, self._deal.pop())
        self._count += 1
        return op

    def _make(self, rng, index, kind) -> Op:
        fmt = FORMATS[index % len(FORMATS)]
        if kind in HOSTILE_KINDS + BOUNDARY_DEFECTS:
            args = self._hostile_args(rng, kind)
            return Op(index, kind, (*args, "--format", fmt), hostile=True,
                      meta={"command": args[0], "format": fmt})
        args, expect = self._command(rng, kind)
        return Op(index, kind, (*args, "--format", fmt), expect,
                  meta={"command": args[0], "format": fmt})

    def _hostile_args(self, rng, kind):
        name = rng.choice(list(self.builtins))
        if kind == "bad-matrix":
            a, b, c, d = 1, 0, 0, 1
            while a * d - b * c == 1:
                a, b, c, d = (rng.randint(-9, 9) for _ in range(4))
            return ["rw", "--manifold", name, f"--matrix={a},{b};{c},{d}"]
        if kind == "matrix-bigint":
            return ["rw", "--manifold", name, f"--matrix={_digits(rng, 5000)},0;0,1"]
        command = {"asymmetric-table": "verify", "malformed-json": "decompose",
                   "json-bigint": "verify", "deep-array": "decompose", "non-utf8": "chi"}[kind]
        return [command, "--input", self.hostile_files[kind]]

    def _command(self, rng, kind):
        if kind == "catalog":
            entries = [{"name": m.name, "n": m.n, **m.classical()} for m in self.builtins.values()]
            tokens = [m.name for m in self.builtins.values()]
            tokens += [v for e in entries for v in (e["euler"], e["todd"], e["signature"])]
            return ["catalog"], Expect({"command": "catalog", "entries": entries}, tokens)
        if kind == "verify-all":
            results = [m.verify_result() for m in self.builtins.values()]
            return (["verify", "--all-builtin"],
                    Expect({"command": "verify", "results": results, "all_passed": True},
                           [m.name for m in self.builtins.values()] + [r["lhs"] for r in results]))
        if kind == "rr":
            n = rng.choice(sorted(RR_MANIFOLDS))
            m = self.builtins[RR_MANIFOLDS[n]]
            chern = dict(self.hk.builtin(m.name).chern.values)
            flags = {"c2": "--c2", "c2^2": "--c2sq", "c4": "--c4"}
            args = ["rr", "--n", str(n)]
            for key in sorted(chern):
                args += [flags[key], str(chern[key])]
            args += ["--manifold", m.name]
            chi_minus = oracles.render(m.chi_minus)
            supertrace = oracles.render(m.supertrace, "t")
            payload = {"command": "rr", "n": n, "chern": chern, "chi_minus_y": chi_minus,
                       "supertrace_t": supertrace, "substitution_consistent": True,
                       "manifold": m.name, "hodge_chi_minus_y": chi_minus,
                       "hodge_supertrace_t": supertrace, "matches_hodge": True}
            return args, Expect(payload, [chi_minus, supertrace], defect=m.defect)
        if kind.endswith("-input"):
            path, m = rng.choice(self.inputs)
            source = ["--input", path]
        else:
            m = rng.choice(list(self.builtins.values()))
            source = ["--manifold", m.name]
        command = kind.split("-")[0]
        supertrace = oracles.render(m.supertrace, "t")
        head = {"command": command, "name": m.name, "n": m.n}
        if command == "chi":
            classical = m.classical()
            payload = {**head, "chi_y": oracles.render(m.chi),
                       "chi_minus_y": oracles.render(m.chi_minus), **classical}
            expect = Expect(payload, [payload["chi_y"], payload["chi_minus_y"], *classical.values()])
        elif command == "verify":
            result = m.verify_result()
            expect = Expect({"command": "verify", "results": [result], "all_passed": True},
                            [result["lhs"]])
        elif command == "decompose":
            primitive = oracles.primitive_rows(m.rows)
            representations = [{"p": p, "dimension": m.n - p + 1, "multiplicities": row,
                                "total": sum(row)} for p, row in enumerate(primitive)]
            expect = Expect({**head, "primitive": primitive, "representations": representations},
                            sequence=[v for row in primitive for v in row])
        else:  # strace and rw evaluate S at the trace of a seeded matrix
            u = self.hk.random_sl2(rng)
            value = oracles.supertrace_at(m.normalized, u.trace)
            payload = {**head, "supertrace_t": supertrace, "matrix": u.to_string(),
                       "trace": u.trace, "value": value}
            expect = Expect(payload, [supertrace, value])
            source.append(f"--matrix={u.to_string()}")  # "=" keeps "-1,..." a value
        expect.defect = m.defect
        return [command, *source], expect

    # -- running ----------------------------------------------------------------

    def execute(self, op: Op, tracer=None) -> Outcome:
        out, err = self.workdir / "stdout.txt", self.workdir / "stderr.txt"
        if tracer is None:
            result = run_child([sys.executable, "-m", "hkgenus", *op.args], self.env, out, err)
            return Outcome(result.latency, result, rss_kib=result.rss_kib)
        bare = run_child([sys.executable, "-c", "pass"], self.env, out, err)
        op.meta["interp_s"] = bare.latency
        spans_path = self.workdir / "spans.json"
        result = run_child([sys.executable, str(TRACE_CHILD), str(spans_path), *op.args],
                           self.env, out, err)
        try:
            with open(spans_path, encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, ValueError):
            return Outcome(result.latency, result, RuntimeError("traced child wrote no spans"))
        spans_path.unlink()
        op.meta["import_s"] = payload["import_ns"] / 1e9
        tracer.absorb(op.index, payload)
        return Outcome(result.latency, result, rss_kib=result.rss_kib)

    def probe_defects(self) -> dict[str, str | None]:
        """Run each known boundary defect once; map its kind to the check's verdict."""
        rng = random.Random(f"cli-session:{self.seed}:defects")
        verdicts = {}
        for index, kind in enumerate(BOUNDARY_DEFECTS):
            op = self._make(rng, index, kind)
            verdicts[kind] = self.check(op, self.execute(op))
        return verdicts

    def check(self, op: Op, outcome: Outcome) -> str | None:
        if outcome.error is not None:
            return str(outcome.error)
        result = outcome.value
        if op.hostile:
            return check_hostile(result.code, result.stdout, result.stderr)
        if result.code != 0:
            first = (result.stderr.splitlines() or [""])[0]
            return f"exit code {result.code}: {first[:80]}"
        if result.stderr:
            return "unexpected stderr"
        if op.expected.defect:
            return op.expected.defect
        return check_output(op.expected, op.meta["format"], result.stdout)
