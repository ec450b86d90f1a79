"""Bounded-ansatz solver for the generalized-symmetry determining equation.

A polynomial ansatz eta = sum_a c_a m_a over monomials in t, x, z_0..z_n
(with configurable degree bounds) turns the invariance condition
D_t eta - L'[eta] = 0 into an exact linear system for the coefficients.
The system is never built whole.  Since L is free of t, write
eta = sum t^a x^b eta_ab with each eta_ab a combination of jet parts J;
by the Leibniz expansion of jetflow's module docstring, the coefficient of
t^a x^b in the residual vanishes exactly when

    R(eta_ab) = sum_{i >= 1} (b+i)!/b! G_i(eta_{a,b+i}) - (a+1) eta_{a+1,b},

with R(J) = Res(J), kept per jet part beside J's D_x tower
(jetflow.EvolutionEquation.jet_part_images) as an integer table over the
denominator of L, and the tails G_i(J) read off J and that tower by the
equation's one rule per tail.  So each level (a, b) reads only the
levels above it.  R is factored once, over the jet parts alone, and the
levels are walked down from (t_degree, x_degree), keeping a basis of
partial solutions: at each level their right-hand sides are reduced as
extra columns against a copy of R's pivot table; a dependency extends
those partial solutions by its preimage under R, and ker R joins as new
ones.  When L has x, x is no level variable: the parts are the x^b J,
R(x^b J) is their whole residual, and only t is walked.

Every reduction is one routine (_insert): a fraction-free reduction of an
integer vector by its highest key against a table of earlier ones, which
tracks the combination of inputs (Bareiss 1968).  The walk ends with a
spanning set of the kernel, at most its dimension; that set is brought to
the one basis that does not depend on how it was found.  Taking the
ansatz columns in the global monomial order, column c is free exactly
when some kernel vector ends at c; that column's vector is zero at the
other free columns and scaled so that its first nonzero entry is 1.
Identical inputs always produce identical bases, each checked by
invariance_residual.

Every equation solves (an EvolutionEquation's right-hand side is free of
t).  The family span is compared where the equation's record names a
reference family, as Burgers' names its own Q family: there the solver
reproduces the graded dimension count n + 1 at each order, the cumulative
dimension through order n is n (n + 3) / 2, and the solution space
coincides with the span of the symmetry family members of order <= n.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb, gcd, lcm, perm
from typing import NamedTuple, Optional

from .diffring import (
    _FIELD_LIMIT,
    DiffPoly,
    ExponentOverflow,
    KIND_X,
    Monomial,
    Record,
    T_VAR,
    X_VAR,
    _check_fields,
    _decode,
    _subtract,
    jet,
    order_key,
    unit,
)
from .jetflow import Characteristic, EvolutionEquation, invariance_residual
from .symfam import Family, index_range, q_char

# the most parts (the columns of R) that one solve factors: the jet parts,
# times the powers of x when L has x
PART_CAP = 100_000

_T_UNIT = unit(T_VAR)
_X_UNIT = unit(X_VAR)

_BOUNDS = ("jet_degree", "x_degree", "t_degree")


class AnsatzTooLarge(RuntimeError):
    """The ansatz has more parts than PART_CAP."""


class Ansatz(Record):
    """Monomial ansatz for an order-n symmetry with explicit degree bounds.

    A bound of -1 means the default, max(order, 1).  A Record.
    """

    __slots__ = ("equation", "order", *_BOUNDS)

    def __init__(
        self,
        equation: EvolutionEquation,
        order: int,
        jet_degree: int = -1,
        x_degree: int = -1,
        t_degree: int = -1,
    ):
        if order < 0:
            raise ValueError("ansatz order must be >= 0")
        bounds = []
        for name, bound in zip(_BOUNDS, (jet_degree, x_degree, t_degree)):
            if bound < -1:
                raise ValueError(f"ansatz {name} must be >= 0, or -1 for the default")
            bounds.append(max(order, 1) if bound == -1 else bound)
        super().__init__(equation, order, *bounds)

    def _jet_parts(self) -> list[int]:
        """The packed jet parts J, of degree <= jet_degree in z_0 .. z_n,
        sorted by order_key.

        The cap is checked first, on a count formed from the bounds alone.
        """
        for name in _BOUNDS:
            bound = getattr(self, name)
            # Packed monomials are composed by integer arithmetic, where an
            # exponent outside its field would carry silently.
            if bound >= _FIELD_LIMIT:
                raise ExponentOverflow(
                    f"ansatz {name} {bound} leaves the packed exponent field "
                    f"(at most {_FIELD_LIMIT - 1})"
                )
        n = self.order
        count = comb(self.jet_degree + n + 1, n + 1)
        if self.equation.rhs.has_kind(KIND_X):
            count *= self.x_degree + 1
        if count > PART_CAP:
            raise AnsatzTooLarge(f"{count} ansatz parts exceed the cap {PART_CAP}")
        jet_units = [unit(jet(k)) for k in range(n + 1)]
        degrees = range(self.jet_degree + 1)
        products = (c for d in degrees for c in combinations_with_replacement(jet_units, d))
        return sorted(map(sum, products), key=order_key)

    def monomials(self) -> list[Monomial]:
        """The ansatz basis t^a x^b J, sorted in the global monomial order."""
        jet_parts = self._jet_parts()
        packed = [
            a * _T_UNIT + b * _X_UNIT + J
            for a in range(self.t_degree + 1)
            for b in range(self.x_degree + 1)
            for J in jet_parts
        ]
        return [_decode(m) for m in sorted(packed, key=order_key)]


class _LevelSystem(NamedTuple):
    """The walk's inputs: R's columns, the parts' D_x towers, and the levels.

    parts are the packed parts R acts on: the jet parts J, or, when L has
    x, the x^b J.  images[j] = d R(parts[j]), an integer vector {packed
    row monomial: int}, d the denominator of the equation's L, and
    towers[j], off which the equation reads d G_i(parts[j]), are its own
    tables, never modified; a part's tower is () when L has x.  The levels
    are t^a x^b for a <= t_degree, b <= x_degree; x_degree is 0 when L has x.
    """

    parts: list[int]
    images: list[dict[int, int]]
    towers: list[tuple[dict[int, int], ...]]
    equation: EvolutionEquation
    t_degree: int
    x_degree: int


def _level_system(ansatz: Ansatz) -> _LevelSystem:
    """The walk's inputs for an ansatz, the equation's image tables as kept."""
    eq = ansatz.equation
    jet_parts = ansatz._jet_parts()
    if eq.rhs.has_kind(KIND_X):
        parts = sorted(
            (b * _X_UNIT + J for b in range(ansatz.x_degree + 1) for J in jet_parts),
            key=order_key,
        )
        images = [eq._leibniz_residual({p: 1}) for p in parts]
        towers = [()] * len(parts)
        x_degree = 0
    else:
        parts = jet_parts
        images, towers = zip(*map(eq.jet_part_images, parts))
        x_degree = ansatz.x_degree
    return _LevelSystem(parts, images, towers, eq, ansatz.t_degree, x_degree)


def _kernel_span(system: _LevelSystem) -> list[dict[int, int]]:
    """A basis of the ansatz's kernel, walked level by level.

    Each vector is {packed monomial t^a x^b part: int}.  A partial solution
    is {(a, b): {part index: int}}, integer and divided by its content; the
    partial solutions at each step are a basis of the solutions of the
    levels walked so far.
    """
    parts = system.parts
    n = len(parts)
    table: dict = {}
    kernel = [c for j, vec in enumerate(system.images) if (c := _insert(vec, j, table)) is not None]
    solutions: list[dict[tuple[int, int], dict[int, int]]] = []
    for a in range(system.t_degree, -1, -1):
        for b in range(system.x_degree, -1, -1):
            level_table = dict(table)
            grown = []
            for s, solution in enumerate(solutions):
                # one more column after R's: a dependency pairs a combination
                # of right-hand sides with its preimage under R
                rhs = _level_rhs(solution, a, b, system)
                combo = _insert(rhs, n + s, level_table)
                if combo is not None:
                    grown.append(_extend(combo, solutions, n, (a, b)))
            solutions = grown + [{(a, b): combo} for combo in kernel]
    return [
        {
            a * _T_UNIT + b * _X_UNIT + parts[j]: c
            for (a, b), eta in solution.items()
            for j, c in eta.items()
        }
        for solution in solutions
    ]


def _level_rhs(solution, a: int, b: int, system: _LevelSystem) -> dict[int, int]:
    """d sum_{i >= 1} (b+i)!/b! G_i(eta_{a,b+i}) - d (a+1) eta_{a+1,b}, d L's denominator."""
    rhs: dict[int, int] = {}
    eq, parts, towers = system.equation, system.parts, system.towers
    for i in range(1, min(len(eq._tail_rules), system.x_degree - b) + 1):
        eta = solution.get((a, b + i))
        if eta:
            weight = perm(b + i, i)
            for j, c in eta.items():
                rhs = eq._tail_sum(rhs, parts[j], towers[j], i, weight * c)
    # a tail can raise an exponent past its field: G_1(v^127) holds v^128
    _check_fields(rhs)
    get = rhs.get
    eta = solution.get((a + 1, b))
    if eta:
        w = (a + 1) * eq.rhs._den
        for j, c in eta.items():
            k = parts[j]
            rhs[k] = get(k, 0) - w * c
    return {k: v for k, v in rhs.items() if v}


def _extend(combo: dict[int, int], solutions, n: int, level) -> dict:
    """The partial solution of a dependency: the combination of the earlier
    ones at its indices n + s, and at this level minus its part entries (the
    preimage under R), divided by the content."""
    out: dict = {}
    for k, c in combo.items():
        if k >= n:
            for lv, eta in solutions[k - n].items():
                target = out.setdefault(lv, {})
                for j, v in eta.items():
                    target[j] = target.get(j, 0) + c * v
        else:
            out.setdefault(level, {})[k] = -c
    out = {lv: kept for lv, eta in out.items() if (kept := {j: v for j, v in eta.items() if v})}
    g = gcd(*(v for eta in out.values() for v in eta.values()))
    if g != 1:
        out = {lv: {j: v // g for j, v in eta.items()} for lv, eta in out.items()}
    return out


def _canonical_basis(vectors: list[dict[int, int]]) -> list[DiffPoly]:
    """The kernel basis in its canonical form, from vectors that span the kernel.

    Over the ansatz columns in the global monomial order, the free columns
    are those where a kernel vector ends; each one's basis vector is zero
    at the other free columns, scaled so that its first entry is 1, and
    the vectors come in increasing free column.  Only the columns in the
    vectors' support are compared, by order_key.  Read the vectors as the
    rows of a matrix and take its columns from the highest down: a column
    is free exactly when it is independent of the ones above it, and a
    dependent column, sum_f r_f times free column f, puts r_f in f's vector.
    """
    support = sorted({m for v in vectors for m in v}, key=order_key, reverse=True)
    columns = [{s: v[m] for s, v in enumerate(vectors) if m in v} for m in support]
    bodies: dict[int, dict[int, Fraction]] = {}  # free position -> {position: entry}
    for pos, combo in enumerate(_dependencies(columns)):
        if combo is None:
            bodies[pos] = {pos: Fraction(1)}
            continue
        p = combo.pop(pos)
        for f, q in combo.items():
            bodies[f][pos] = Fraction(-q, p)
    basis = []
    for f in sorted(bodies, reverse=True):
        body = bodies[f]
        first = body[max(body)]  # the entry at the lowest column
        body = {c: v / first for c, v in body.items()}
        den = lcm(*(v.denominator for v in body.values()))
        nums = {support[c]: (v * den).numerator for c, v in body.items()}
        basis.append(DiffPoly._make(nums, den))
    return basis


# -- exact elimination ---------------------------------------------------------


def _insert(vec: dict, index: int, table: dict) -> Optional[dict[int, int]]:
    """Reduce vec by its highest key against table; keep the remainder, or
    return the dependency.

    vec is a sparse {key: int} dict over totally ordered keys, and is not
    modified.  It is reduced against a lead -> (reduced vector, combination)
    table, always at its current highest key, while that key leads a stored
    vector: with p the pivot's lead entry, a the vector's and g = gcd(p, a)
    signed like p,

        vec <- (p/g) vec - (a/g) pivot,

    and the same for its combination, which starts as {index: 1}; then both
    are divided by their common content, so they stay primitive.  That
    content divides the combination's entry at index, which p/g > 0 keeps
    positive and which stays 1, so that no content need be taken, while
    each pivot's lead divides a.  Returns None when a remainder is left (it
    joins the table under its lead), or else the exact dependency
    {index: int}, positive at index, whose combination vanishes.
    """
    combo = {index: 1}
    owned = False
    while vec:
        lead = max(vec)
        entry = table.get(lead)
        if entry is None:
            table[lead] = (vec, combo)
            return None
        pivot, pivot_combo = entry
        p, a = pivot[lead], vec[lead]
        g = gcd(p, a)
        if p < 0:
            g = -g
        p //= g
        a //= g
        if p != 1:
            vec = {k: p * v for k, v in vec.items()}
            combo = {k: p * v for k, v in combo.items()}
        elif not owned:
            vec = dict(vec)
        owned = True
        _subtract(vec, a, pivot)
        _subtract(combo, a, pivot_combo)
        g = combo[index]
        if g != 1:
            g = gcd(g, *vec.values(), *combo.values())
            if g != 1:
                vec = {k: v // g for k, v in vec.items()}
                combo = {k: v // g for k, v in combo.items()}
    return combo


def _dependencies(vectors):
    """_insert each vector in turn into one table.

    Yields, per input vector, None when it is independent of the vectors
    before it, or else its exact dependency {index: int}, with a positive
    entry at its own index and support on earlier independent vectors.
    """
    table: dict = {}
    for index, vec in enumerate(vectors):
        yield _insert(vec, index, table)


def family_bodies(family: Family, order: int) -> list[DiffPoly]:
    """The members of a Q family with 1 <= k + l <= order, in index order."""
    return [q_char(family, k, l).body for k, l in index_range(order, include_origin=False)]


class SolveReport(NamedTuple):
    order: int
    dimension: int
    basis: tuple[Characteristic, ...]
    family_span_matches: Optional[bool]  # None when no reference family applies
    ansatz_size: int


def solve_symmetries(
    eq: EvolutionEquation,
    order: int,
    jet_degree: int = -1,
    x_degree: int = -1,
    t_degree: int = -1,
) -> SolveReport:
    """Solve the determining equation over a bounded polynomial ansatz.

    Any equation whose right-hand side is free of t solves.  The span of
    the basis is compared with the members of the equation's reference
    family with 1 <= k + l <= order; family_span_matches is None for an
    equation with no reference.
    """
    ansatz = Ansatz(eq, order, jet_degree, x_degree, t_degree)
    system = _level_system(ansatz)
    basis = []
    for body in _canonical_basis(_kernel_span(system)):
        if not invariance_residual(eq, body).is_zero():
            raise RuntimeError("internal error: kernel vector fails the residual check")
        basis.append(Characteristic(eq, body))
    span_matches: Optional[bool] = None
    if eq.reference is not None:
        # one reduction: the family's own rank is read off its first vectors
        family = family_bodies(eq.reference, order)
        bodies = family + [c.body for c in basis]
        independent = [dep is None for dep in _dependencies(b._nums for b in bodies)]
        family_rank = sum(independent[: len(family)])
        span_matches = len(basis) == family_rank == sum(independent)
    return SolveReport(
        order=order,
        dimension=len(basis),
        basis=tuple(basis),
        family_span_matches=span_matches,
        ansatz_size=len(system.parts) * (system.t_degree + 1) * (system.x_degree + 1),
    )
