"""
SL(2) characters and the eigenvalue substitution
================================================

Irreducible characters t_r as polynomials in the trace t, and the exact
bridge t = y + 1/y to eigenvalue language.  No eigenvalue is ever computed
numerically: for |t| <= 1 they are complex, for |t| >= 3 irrational, so all
identities are checked at the Laurent-polynomial level instead.
"""

from hkgenus import (
    SL2Element,
    character,
    eigenvalue_polynomial,
    substitute_y_plus_yinv,
    verify_character_identity,
)

##############################################################################
# Characters, defined by the recursion t_{r+1} = t * t_r - t_{r-1} and
# computed from its closed form sum_j (-1)^j C(r-1-j, j) t^(r-1-2j).

print("characters of the r-dimensional irreducibles:")
for r in range(1, 7):
    print(f"  t_{r} = {character(r).to_string('t')}")

##############################################################################
# At t = 2 (a unipotent element) the character of the r-dimensional
# representation is r itself; at t = 0 it cycles 1, 0, -1, 0.

print()
print("t_r at t=2:", [character(r).evaluate(2) for r in range(1, 9)])
print("t_r at t=0:", [character(r).evaluate(0) for r in range(1, 9)])

##############################################################################
# Integer SL(2) elements carry the trace; the characteristic polynomial
# y^2 - t y + 1 has the two eigenvalues as roots and constant term 1
# (determinant one).

for u in (SL2Element.identity(), SL2Element(0, -1, 1, 0), SL2Element(2, 1, 1, 1)):
    print()
    print(f"U = ({u.to_string()}), trace {u.trace}")
    print("  characteristic polynomial:", eigenvalue_polynomial(u).to_string("y"))

##############################################################################
# The substitution t -> y + 1/y rearranges the characteristic polynomial
# t y = y^2 + 1 and turns the character difference t_{r+1} - t_{r-1} into
# y^r + y^-r.  The package checks this exactly for every r.

print()
r = 5
difference = character(r + 1) - character(r - 1)
print(f"t_{r+1} - t_{r-1} =", difference.to_string("t"))
print("after t -> y + 1/y:", substitute_y_plus_yinv(difference).to_string("y"))
print("identity verified for r = 1..64:",
      all(verify_character_identity(r) for r in range(1, 65)))
