"""Solving the determining equation over a bounded polynomial ansatz.

The invariance condition is linear in the unknown characteristic, so over a
finite monomial ansatz it becomes an exact sparse linear system.  Its
kernel at order n has dimension n(n+3)/2 and coincides with the span of the
family members of order <= n: the solver rediscovers the symmetry algebra
without being told about it.  The system is never built whole: the residual
operator is factored once over the jet parts, and the powers of t and x are
walked level by level, so order 7 (411 840 ansatz monomials) takes about a
second.
"""

import time

from jetsym import BURGERS
from jetsym.detsolve import solve_symmetries

print("System sizes and kernel dimensions:")
for n in (1, 2, 3, 4, 5, 6, 7):
    t0 = time.time()
    report = solve_symmetries(BURGERS, n)
    dt = time.time() - t0
    print(
        f"  order {n}: ansatz {report.ansatz_size:6d} monomials, "
        f"dimension {report.dimension:2d}, span matches family: "
        f"{report.family_span_matches}  ({dt:.2f}s)"
    )

print()
print("The order-1 kernel, explicitly:")
for i, c in enumerate(solve_symmetries(BURGERS, 1).basis):
    print(f"  basis[{i}] = {c.body}")

print()
report = solve_symmetries(BURGERS, 2)
print(
    f"Order-2 system: {report.ansatz_size} columns (ansatz monomials), "
    f"nullity {report.dimension}"
)
