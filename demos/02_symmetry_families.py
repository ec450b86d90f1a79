"""The two-parameter symmetry families and their structure constants.

Each equation carries a family Q[k,l] built from its two recursion
operators applied to a seed.  Since the translation T and the boost B
satisfy [T, B] = 1/2, the family is built by a commutator ladder with one
D_x per column entry, and it agrees with the composed operators.
Brute-force brackets of the family members agree exactly with closed-form
binomial sums.
"""

from jetsym import BURGERS, HEAT, DiffPoly, apply, boost_op, invariance_residual, translation_op
from jetsym.opcalc import Compose, Dx
from jetsym.structure import closed_form_bracket, structure_check
from jetsym.symfam import Family, commutator, q_char

print("Low-order Burgers family members:")
for k, l in [(0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]:
    c = q_char(Family.BURGERS_Q, k, l)
    print(f"  Q[{k},{l}] = {c.body}")

print()
print("One entry built two ways (commutator ladder vs composed operator):")
ladder = q_char(Family.BURGERS_Q, 1, 2).body
ops = Compose((Dx(), boost_op(BURGERS), translation_op(BURGERS), translation_op(BURGERS)))
composed = apply(ops, BURGERS, DiffPoly.const(1))
print(f"  Q[1,2] by the ladder:       {ladder}")
print(f"  D_x B T^2 (1) by operators: {composed}")
print(f"  equal: {ladder == composed}")

print()
print("Every member is an exact symmetry:")
checks = [
    invariance_residual(BURGERS, q_char(Family.BURGERS_Q, k, l)).is_zero()
    for k in range(5)
    for l in range(5)
    if k + l <= 4
]
print(f"  residuals zero for all k+l <= 4: {all(checks)}")

print()
print("A bracket computed two ways (brute-force prolongation vs closed form):")
brute = commutator(HEAT, q_char(Family.HEAT_Q, 0, 1), q_char(Family.HEAT_Q, 1, 0))
closed = closed_form_bracket(Family.HEAT_Q, (0, 1), (1, 0))
print(f"  [Q[0,1], Q[1,0]] = {brute.body}  (closed form {closed})")

print()
print("Structure-constant sweep, all pairs with k+l <= 2, three families:")
pairs = [(k, l) for k in range(3) for l in range(3) if k + l <= 2]
for family in (Family.HEAT_Q, Family.POT_Q, Family.BURGERS_Q):
    ok = all(
        structure_check(family, a, b).is_zero() for a in pairs for b in pairs
    )
    print(f"  {family.name}: {ok}")

print()
print("The parameter family bracket lowers into the same family:")
res = structure_check(Family.HEAT_Z, (2, 1))
print(f"  [Z(h), Q[2,1]] - Z(boost^2 D_x h) = {res}")
