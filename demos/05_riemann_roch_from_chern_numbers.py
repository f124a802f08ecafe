"""
The genus from Chern numbers
============================

The same two polynomials, chi_{-y} and S(t), computed from the other side:
formal Chern roots paired as {x_i, -x_i}, each pair contributing one exact
rational power series in u = x^2, and the multiplicative sequence of that
series written in even Chern monomials (c_{2k} = (-1)^k e_k(u)) and evaluated
against Chern numbers.  Agreement with the Hodge side is exact.
"""

from fractions import Fraction

from hkgenus import (
    ChernData,
    builtin,
    chi_minus_y_chern_coefficients,
    chi_minus_y_from_chern,
    substitute_y_plus_yinv,
    supertrace_from_chern,
    supertrace_polynomial,
)

##############################################################################
# The Todd integrand in the Chern basis.  chi_0 is the Todd genus, so it is
# the y^0 slice of the chi_{-y} integrand, and the multiplicative sequence
# recovers the classical integrands from series arithmetic alone: c2/12 in
# degree 2, and (3 c2^2 - c4)/720 in degree 4.

for n in (1, 2):
    coefficients = chi_minus_y_chern_coefficients(n)
    rendered = " + ".join(f"({poly[0]})*{key}" for key, poly in coefficients.items())
    print(f"top Todd part, n={n}: {rendered}")

##############################################################################
# K3: one Chern number, c2 = 24.  Both pipelines land exactly on the
# Hodge-side polynomials.

k3 = builtin("K3").diamond
data = ChernData(1, {"c2": 24})
chi = chi_minus_y_from_chern(1, data)
s_t = supertrace_from_chern(1, data)
print()
print("chi_{-y} from c2 = 24:  ", chi.to_string("y"))
print("hodge side:             ", k3.chi_y().negate_variable().to_string("y"))
print("S(t) from c2 = 24:      ", s_t.to_string("t"))
print("hodge side:             ", supertrace_polynomial(k3).to_string("t"))

##############################################################################
# Deriving a Chern number instead of assuming it.  For the fourfold the
# symbolic output is A(y) * c2^2 + B(y) * c4; with c4 = 324 pinned by the
# Euler number, matching the Hodge-side genus coefficient by coefficient
# leaves a single consistent solution for c2^2.

fourfold = builtin("K3[2]").diamond
coefficients = chi_minus_y_chern_coefficients(2)
target = fourfold.chi_y().negate_variable()
print()
print("symbolic coefficient of c2^2:", dict(coefficients["c2^2"]))
solutions = set()
for exponent, a in coefficients["c2^2"].items():
    residual = (Fraction(target.coefficient(exponent))
                - 324 * coefficients["c4"].get(exponent, Fraction(0)))
    solutions.add(residual / a)
print("solutions for c2^2 across all five coefficients:", solutions)

##############################################################################
# With the derived constant frozen, the fourfold agreements hold too.

frozen = ChernData(2, {"c2^2": 828, "c4": 324})
print()
print("chi_{-y} from (828, 324):", chi_minus_y_from_chern(2, frozen).to_string("y"))
print("hodge side:              ", target.to_string("y"))
print("S(t) from (828, 324):    ", supertrace_from_chern(2, frozen).to_string("t"))
print("hodge side:              ", supertrace_polynomial(fourfold).to_string("t"))

##############################################################################
# The bridge between the two forms: substituting t = (1 + y^2)/y into S(t)
# and clearing denominators by y^n reproduces chi_{-y} exactly.

for n, data in ((1, ChernData(1, {"c2": 24})), (2, frozen)):
    lhs = substitute_y_plus_yinv(supertrace_from_chern(n, data)).shifted(n)
    rhs = chi_minus_y_from_chern(n, data)
    print(f"substitution consistency, n={n}:", lhs == rhs)
