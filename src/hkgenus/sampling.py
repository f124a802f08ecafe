"""Random generators for property tests: valid diamonds and SL(2,Z) elements.

The diamond generator works backwards from the decomposition: draw a random
nonnegative primitive table, reflect it to the required column-reflection
symmetry, reconstruct the diamond, and symmetrize over conjugation by adding
the transpose.  The draw is biased so the transpose sum provably keeps every
primitive multiplicity nonnegative (each primitive row is made weakly
increasing along q-steps of 2 up to the middle column), so every sample is
STRUCTURAL-valid by construction and no rejection loop is needed.
"""

from __future__ import annotations

import random

from .hodge import HodgeDiamond
from .lefschetz import PrimitiveTable, reconstruct_diamond
from .sl2 import SL2Element

#: Largest increase of a primitive multiplicity from one q-step to the next.
MAX_STEP = 3


def random_primitive_table(rng: random.Random, n: int) -> PrimitiveTable:
    """A random nonnegative primitive table, symmetric under q -> 2n-q.

    Within each row, entries grow weakly along q, q+2 for q <= n, each step
    a draw from 0..MAX_STEP; that monotone profile is what keeps the
    conjugation symmetrization in :func:`random_structural_diamond` inside
    the nonnegative cone.
    """
    side = 2 * n + 1
    rows = []
    for _ in range(n + 1):
        half = [0] * (n + 1)
        for parity in (0, 1):
            level = 0
            for q in range(parity, n + 1, 2):
                level += rng.randint(0, MAX_STEP)
                half[q] = level
        row = [0] * side
        for q in range(n + 1):
            row[q] = half[q]
            row[2 * n - q] = half[q]
        rows.append(tuple(row))
    return PrimitiveTable(n, tuple(rows))


def random_structural_diamond(rng: random.Random, n: int) -> HodgeDiamond:
    """A random diamond passing STRUCTURAL validation, n >= 1.

    Reconstructs a diamond from :func:`random_primitive_table` (already column
    and Serre symmetric) and adds its transpose to restore conjugation
    symmetry.
    """
    base = reconstruct_diamond(random_primitive_table(rng, n))
    side = base.side
    rows = tuple(
        tuple(base.rows[p][q] + base.rows[q][p] for q in range(side))
        for p in range(side)
    )
    return HodgeDiamond(rows)


_GENERATORS = (
    SL2Element(1, 1, 0, 1),    # unipotent shear
    SL2Element(1, -1, 0, 1),   # its inverse
    SL2Element(0, -1, 1, 0),   # quarter turn
)


def random_sl2(rng: random.Random, length: int = 8) -> SL2Element:
    """A random word of the given length in the standard SL(2,Z) generators."""
    out = SL2Element.identity()
    for _ in range(length):
        out = out @ rng.choice(_GENERATORS)
    return out
