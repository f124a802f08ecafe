"""Built-in test manifolds and JSON persistence for Hodge diamonds.

The catalog is derived, not transcribed: the K3 table is pinned by the
irreducibility corner values plus one classical input (c2 = 24, equivalently
Noether's chi(O) = c2/12 with chi(O) = 2 and c1 = 0, which forces Euler
number 24 and hence h^{1,1} = 20), and the Hilbert schemes K3[m] are produced
by expanding Goettsche's product formula

    F = prod_{k>=1} prod_{p,q} (1 - (-1)^{p+q} x^{p+k-1} y^{q+k-1} z^k)^{-(-1)^{p+q} h^{p,q}}

whose z^m coefficient F_m, a polynomial in x and y of degree at most 2m in
each, is the diamond of the m-th Hilbert scheme of points.  The expansion runs
over z-degree alone: z d/dz log F has integer tables D_j as its z^j
coefficients, and m F_m = sum_j D_j F_{m-j} gives each table from the
previous ones by exact integer arithmetic, each product reading only the
nonzero entries of F_{m-j}, with every division by m checked for a zero
remainder.  Every number downstream of the seed is therefore reproducible
in-repo from integer arithmetic alone.

File format (.hodge.json recommended): a JSON object

    {"name": str, "n": int, "hodge": [[int, ...], ...]}

with "hodge" a (2n+1) x (2n+1) row-major array (rows indexed by p, columns by
q), an optional "chern" object of Chern monomial keys, and an optional
"provenance" string.  Canonical output uses two-space indentation and sorted
keys; integers are arbitrary precision and must round-trip exactly.  Files
are read through ``boundary.read_json``, which states the size limits.
"""

from __future__ import annotations

import functools
from typing import Iterator, NamedTuple

from .boundary import expect, is_int, quote, read_json, write_json
from .errors import InputError, InternalInconsistencyError
from .hodge import HodgeDiamond, ValidationLevel
from .riemann_roch import ChernData

MAX_HILBERT_POINTS = 5


class ManifoldRecord(NamedTuple):
    """A named diamond with optional Chern numbers and a provenance note."""

    name: str
    diamond: HodgeDiamond
    chern: ChernData | None = None
    provenance: str = ""


# -- the K3 seed -------------------------------------------------------------

_K3_CHI_O = 2                 # h^{0,0} - h^{1,0} + h^{2,0} = 1 - 0 + 1
_K3_C2 = 12 * _K3_CHI_O       # Noether with c1 = 0: chi(O) = c2 / 12
_K3_H11 = _K3_C2 - 4          # Euler = c2 = 4 + h^{1,1} for the corner-forced table


def _k3_diamond() -> HodgeDiamond:
    return HodgeDiamond(
        ((1, 0, 1), (0, _K3_H11, 0), (1, 0, 1)),
        name="K3",
    )


# -- Goettsche expansion ------------------------------------------------------

def _log_derivative_terms(base: HodgeDiamond, n_max: int) -> list[list[tuple[int, int, int]]]:
    """The z^j coefficients D_j of z d/dz log F, for j = 1..n_max.

    D_j = sum_{k r = j} sum_{p,q} k h^{p,q} s^{r+1} x^{(p+k-1) r} y^{(q+k-1) r}
    with s = (-1)^{p+q}, as (x exponent, y exponent, coefficient) triples with
    nonzero coefficients; index 0 holds an empty list.
    """
    cells = [(p, q, h, (p + q) % 2) for p, row in enumerate(base.rows)
             for q, h in enumerate(row) if h]
    terms: list[list[tuple[int, int, int]]] = [[]]
    for j in range(1, n_max + 1):
        table: dict[tuple[int, int], int] = {}
        for k in range(1, j + 1):
            r, rem = divmod(j, k)
            if rem:
                continue
            flip = r % 2 == 0  # s^{r+1} is +1 unless s = -1 and r is even
            for p, q, h, odd in cells:
                key = ((p + k - 1) * r, (q + k - 1) * r)
                table[key] = table.get(key, 0) + (-k * h if odd and flip else k * h)
        # A term of D_j past x or y degree 2j would land in the z^j coefficient
        # D_j * F_0 outside its (2j+1) x (2j+1) table.
        stray = sorted(key for key, c in table.items() if c and max(key) > 2 * j)
        if stray:
            raise InternalInconsistencyError(
                f"z^{j} coefficient has terms beyond degree {2 * j}: {stray}")
        terms.append([(a, b, c) for (a, b), c in sorted(table.items()) if c])
    return terms


def _goettsche_tables(base: HodgeDiamond, n_max: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Yield F_1..F_n_max, each a (2m+1) x (2m+1) tuple of rows, one at a time.

    F_m is the z^m coefficient of the product F (module docstring), found from
    z dF/dz = F * z d/dz log F as the exact recurrence

        m F_m = sum_{j=1..m} D_j F_{m-j},    F_0 = 1,

    with D_j from ``_log_derivative_terms``.  Every entry of the sum must be
    divisible by m; a remainder raises InternalInconsistencyError.
    """
    log_derivative = _log_derivative_terms(base, n_max)
    # F_m is stored row-major with the stride of the largest table, so that
    # multiplying by x^a y^b is one shift by a * stride + b.  Entries past
    # column 2m of a row are zero, so a shift never carries a nonzero entry
    # into the next row.  Each product reads only the nonzero entries of
    # F_{m-j}, kept as (index, value) pairs: on K3-type bases every odd cell
    # and all the padding are zero.
    stride = 2 * n_max + 1
    nonzero: list[list[tuple[int, int]]] = [[(0, 1)]]
    for m in range(1, n_max + 1):
        side = 2 * m + 1
        acc = [0] * (side * stride)
        for j in range(1, m + 1):
            source = nonzero[m - j]
            for a, b, c in log_derivative[j]:
                start = a * stride + b
                for i, v in source:
                    acc[start + i] += c * v
        if any(value % m for value in acc):
            cell = next(i for i, value in enumerate(acc) if value % m)
            raise InternalInconsistencyError(
                f"z^{m} coefficient: {m} does not divide entry "
                f"({cell // stride}, {cell % stride}) of m F_m")
        table = [value // m for value in acc]
        nonzero.append([(i, v) for i, v in enumerate(table) if v])
        yield tuple(tuple(table[p * stride:p * stride + side]) for p in range(side))


def goettsche_expand(base: HodgeDiamond, n_max: int) -> tuple[HodgeDiamond, ...]:
    """Hodge diamonds of the Hilbert schemes of 1..n_max points on a surface.

    ``base`` must be a 3x3 surface table that passes STRICT validation (a
    K3-type surface, ((1,0,1),(0,h,0),(1,0,1)) with h >= 0), else it raises
    ValidationError, an InputError; n_max is at most 5 (the catalog's desk
    scale).  The diamonds are the z-coefficients of Goettsche's product,
    expanded by an exact integer recurrence (``_goettsche_tables``), and are
    named after ``base`` (``S[1]``, ``S[2]``, ... for a base named ``S``).  A
    division by m with a remainder, a term past degree 2m, or an emitted
    diamond that fails STRICT validation signals a fault in the formula or the
    recurrence, never bad data, so each raises InternalInconsistencyError.
    Results are cached per (table, n_max, name), which is safe because the
    expansion is deterministic; ``goettsche_expand.cache_info`` and
    ``cache_clear`` reach the cache.
    """
    if expect(base, HodgeDiamond).n != 1:
        raise InputError(f"base must be a surface (3x3 table), got n = {base.n}")
    base.require_valid(ValidationLevel.STRICT)
    # Checked before the cache lookup, where True and 1 would share a key.
    if not is_int(n_max) or not 1 <= n_max <= MAX_HILBERT_POINTS:
        raise InputError(f"n_max must be between 1 and {MAX_HILBERT_POINTS}, got {quote(n_max)}")
    return _goettsche_expand(base, n_max, base.name)


@functools.cache
def _goettsche_expand(base: HodgeDiamond, n_max: int, name: str | None) -> tuple[HodgeDiamond, ...]:
    # ``name`` is part of the key because diamond equality ignores names.
    diamonds = []
    for m, rows in enumerate(_goettsche_tables(base, n_max), start=1):
        diamond = HodgeDiamond(rows, name=f"{name or 'surface'}[{m}]")
        report = diamond.validate(ValidationLevel.STRICT)
        if not report.ok:
            raise InternalInconsistencyError(
                f"expansion emitted an invalid diamond at z^{m}:\n{report.summary()}")
        diamonds.append(diamond)
    return tuple(diamonds)


goettsche_expand.cache_info = _goettsche_expand.cache_info
goettsche_expand.cache_clear = _goettsche_expand.cache_clear


# -- built-in registry --------------------------------------------------------

#: Chern numbers of the fourfold K3[2]: c4 is its Euler number (the z^2
#: coefficient of the one-variable expansion of the same product formula);
#: c2^2 is the regression constant obtained by solving the symbolic
#: Riemann-Roch output against the Hodge-side genus (see tests and demo 05).
_K3_2_CHERN = {"c2^2": 828, "c4": 324}


@functools.cache
def _catalog() -> dict[str, ManifoldRecord]:
    k3 = _k3_diamond()
    records = {
        "K3": ManifoldRecord(
            name="K3",
            diamond=k3,
            chern=ChernData(1, {"c2": _K3_C2}),
            provenance=(
                "seed surface: corners forced by irreducibility, "
                "h^{1,1} = 20 from Euler = c2 = 24 (Noether, chi(O) = 2)"),
        )
    }
    hilbert = goettsche_expand(k3, MAX_HILBERT_POINTS)
    for m, diamond in enumerate(hilbert, start=1):
        if m == 1:
            continue  # K3[1] is K3 itself and is not registered separately
        records[f"K3[{m}]"] = ManifoldRecord(
            name=f"K3[{m}]",
            diamond=diamond,
            chern=ChernData(2, _K3_2_CHERN) if m == 2 else None,
            provenance=f"Hilbert scheme of {m} points: Goettsche expansion of the K3 seed",
        )
    return records


def builtin_names() -> tuple[str, ...]:
    """Catalog order: K3 first, then the Hilbert schemes by point count."""
    return tuple(_catalog().keys())


def builtin(name: str) -> ManifoldRecord:
    records = _catalog()
    if not isinstance(name, str) or name not in records:
        known = ", ".join(records)
        raise InputError(f"unknown built-in {quote(name)}; known: {known}")
    return records[name]


# -- JSON persistence ----------------------------------------------------------

def record_to_json_dict(record: ManifoldRecord) -> dict:
    obj: dict = {
        "name": record.name,
        "n": record.diamond.n,
        "hodge": [list(row) for row in record.diamond.rows],
    }
    if record.chern is not None:
        obj["chern"] = record.chern.values
    if record.provenance:
        obj["provenance"] = record.provenance
    return obj


def record_from_json_dict(obj, level: ValidationLevel = ValidationLevel.STRUCTURAL) -> ManifoldRecord:
    if not isinstance(obj, dict):
        raise InputError("manifold file must contain a JSON object")
    for key in ("name", "n", "hodge"):
        if key not in obj:
            raise InputError(f'missing required key "{key}"')
    name = obj["name"]
    if not isinstance(name, str):
        raise InputError('"name" must be a string')
    n = obj["n"]
    if not is_int(n) or n < 1:
        raise InputError('"n" must be a positive integer')
    hodge = obj["hodge"]
    if not isinstance(hodge, list) or not all(isinstance(r, list) for r in hodge):
        raise InputError('"hodge" must be a row-major array of arrays')
    diamond = HodgeDiamond(tuple(tuple(r) for r in hodge), name=name)
    if diamond.n != n:
        raise InputError(
            f'"n" is {quote(n)} but the table side {diamond.side} implies n = {diamond.n}')
    diamond.require_valid(level)
    chern = None
    if "chern" in obj and obj["chern"] is not None:
        if not isinstance(obj["chern"], dict):
            raise InputError('"chern" must be an object of monomial keys')
        chern = ChernData(n, obj["chern"])
    provenance = obj.get("provenance", "")
    if not isinstance(provenance, str):
        raise InputError('"provenance" must be a string')
    return ManifoldRecord(name=name, diamond=diamond, chern=chern, provenance=provenance)


def save_manifold(record: ManifoldRecord, path) -> None:
    """Write the canonical serialization: sorted keys, two-space indent."""
    write_json(record_to_json_dict(expect(record, ManifoldRecord)), path)


def load_manifold(path, level: ValidationLevel = ValidationLevel.STRUCTURAL) -> ManifoldRecord:
    """Load and validate a manifold file; see the module docstring for the schema."""
    return record_from_json_dict(read_json(path), level)
