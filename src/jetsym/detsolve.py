"""Bounded-ansatz solver for the generalized-symmetry determining equation.

A polynomial ansatz eta = sum_a c_a m_a over monomials in t, x, z_0..z_n
(with configurable degree bounds) turns the invariance condition
D_t eta - L'[eta] = 0 into an exact linear system for the coefficients:
the residual of each ansatz monomial is one column, an integer vector keyed
by the packed monomials of the residual, over a positive scale (the
denominator of the equation's images).  Residuals of t^a x^b J are
expanded by the Leibniz rule from the images Res(J), G_i(J) that the
equation keeps per jet part J (jetflow.EvolutionEquation.jet_part_images);
the powers of t and x only shift the packed keys.  The same expansion is
invariance_residual, which checks each kernel vector.

The kernel is found on the image side: the columns' residual vectors are
taken in column order, each reduced fraction-free by its highest row key
against the earlier ones while tracking the column combination.  A column
whose residual reduces to zero is free, and the tracked combination is its
kernel vector - up to scaling, the unique one with entry 1 at that column,
0 at the other free columns and support on columns up to it.  Neither the
free columns nor these vectors depend on how the rows are ordered.  Kernel
basis vectors are normalized to leading entry 1, so identical inputs always
produce identical bases.  solve_symmetries builds each basis body straight
from its combination: _residual_columns, then _dependencies, is the
package's one route to a kernel.

For the Burgers equation the solver reproduces the graded dimension count
n + 1 at each order: the cumulative dimension through order n is
n (n + 3) / 2, and the solution space coincides with the span of the
symmetry family members of order <= n.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import combinations_with_replacement
from math import comb, gcd
from typing import NamedTuple, Optional

from .diffring import (
    _BITS,
    _FIELD_LIMIT,
    DiffPoly,
    ExponentOverflow,
    Monomial,
    Record,
    T_VAR,
    X_VAR,
    _decode,
    jet,
    order_key,
    unit,
)
from .jetflow import (
    BURGERS,
    Characteristic,
    EvolutionEquation,
    invariance_residual,
)
from .symfam import Family, index_range, q_char

# the most ansatz monomials (columns) that one solve enumerates
MONOMIAL_CAP = 200_000

_T_UNIT = unit(T_VAR)
_X_UNIT = unit(X_VAR)

_BOUNDS = ("jet_degree", "x_degree", "t_degree")


class AnsatzTooLarge(RuntimeError):
    """The enumerated monomial basis exceeds MONOMIAL_CAP."""


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

    def _enumerate(self) -> list[tuple[int, int, int, int]]:
        """The ansatz basis t^a x^b J in the global monomial order.

        One (sort key, a, b, packed J) record per monomial, sorted.  The jet
        parts J are ranked once by order_key.  The key holds the degree,
        then a, then b, then the rank of J, with an absent t or x counting
        as _FIELD_LIMIT, above every exponent: the tuple form lists present
        variables only, so t^a x^b J sorts after every monomial with a t.
        Within one degree and one a and b, the jet parts all have the same
        degree, so their rank orders them as the graded order does (mono_key
        in tests/conftest.py).
        """
        for name in _BOUNDS:
            bound = getattr(self, name)
            # Packed monomials are composed by integer arithmetic below,
            # where an exponent outside its field would carry silently.
            if bound >= _FIELD_LIMIT:
                raise ExponentOverflow(
                    f"ansatz {name} {bound} leaves the packed exponent field "
                    f"(at most {_FIELD_LIMIT - 1})"
                )
        n = self.order
        # the monomials of degree <= jet_degree in z_0 .. z_n, times the t and x powers
        count = comb(self.jet_degree + n + 1, n + 1) * (self.x_degree + 1) * (self.t_degree + 1)
        if count > MONOMIAL_CAP:
            raise AnsatzTooLarge(f"{count} ansatz monomials exceed the cap {MONOMIAL_CAP}")

        jet_units = [unit(jet(k)) for k in range(n + 1)]
        jet_parts = sorted(
            (order_key(J), J)
            for d in range(self.jet_degree + 1)
            for J in map(sum, combinations_with_replacement(jet_units, d))
        )
        rank_bits = len(jet_parts).bit_length()
        degree_place = 2 * _BITS + rank_bits
        keyed = [
            (degree << degree_place | rank, J)
            for rank, ((degree, _), J) in enumerate(jet_parts)
        ]
        records = []
        for a in range(self.t_degree + 1):
            for b in range(self.x_degree + 1):
                tx = (a or _FIELD_LIMIT) << _BITS | (b or _FIELD_LIMIT)
                prefix = (a + b) << degree_place | tx << rank_bits
                records += [(prefix + key, a, b, J) for key, J in keyed]
        records.sort()
        return records

    def monomials(self) -> list[Monomial]:
        """The ansatz basis, sorted in the global monomial order."""
        return [_decode(a * _T_UNIT + b * _X_UNIT + J) for _, a, b, J in self._enumerate()]


def _residual_columns(ansatz: Ansatz) -> Iterator[tuple[int, dict[int, int], int]]:
    """(packed monomial m, integer vector, scale) per ansatz column, in column order.

    Res(m) is the vector {packed row monomial: int} over scale.  Res(x^b J)
    is invariance_residual's Leibniz expansion, made once per x^b J, and
    scale is its denominator.  Since L is free of t,

        Res(t^a x^b J) = t^a Res(x^b J) + a t^(a-1) x^b J,

    whose two parts never share a monomial.
    """
    eq = ansatz.equation
    x_residuals: dict[int, tuple[dict[int, int], int]] = {}
    for _, a, b, jet_part in ansatz._enumerate():
        x_mono = b * _X_UNIT + jet_part
        cached = x_residuals.get(x_mono)
        if cached is None:
            cached = x_residuals[x_mono] = eq._leibniz_residual({x_mono: 1})
        residual, scale = cached
        mono = a * _T_UNIT + x_mono
        if a:
            shift = a * _T_UNIT
            vec = {m + shift: c for m, c in residual.items()}
            vec[mono - _T_UNIT] = a * scale
        else:
            vec = residual  # shared with the cache: the reducer never modifies its input
        yield mono, vec, scale


# -- exact elimination ---------------------------------------------------------


def _dependencies(vectors):
    """Reduce each integer vector against its predecessors by its highest key.

    Vectors are sparse {key: int} dicts over totally ordered keys; they are
    not modified.  Each one is reduced against a lead -> (reduced vector,
    combination) table, always at its current highest key, while that key
    leads a stored vector: with p the pivot's lead entry, a the vector's and
    g = gcd(p, a) signed like p,

        vec <- (p/g) vec - (a/g) pivot,

    and the same for the combinations; then both are divided by their common
    content, so they stay primitive.  That content divides the vector's own
    combination entry, which p/g > 0 keeps positive and which stays 1, so
    that no content need be taken, while each pivot's lead divides a.
    Yields, per input vector in turn, None when it is independent of the
    vectors before it (its remainder joins the table), or else the exact
    dependency {index: int}, with a positive entry at its own index and
    support on earlier independent vectors, whose combination vanishes.
    """
    table: dict = {}
    for index, vec in enumerate(vectors):
        combo = {index: 1}
        owned = False
        while vec:
            lead = max(vec)
            entry = table.get(lead)
            if entry is None:
                break
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
        if vec:
            table[lead] = (vec, combo)
            yield None
        else:
            yield combo


def _subtract(target: dict, a: int, source: dict) -> None:
    """target -= a * source, dropping cancelled entries."""
    get = target.get
    for key, v in source.items():
        s = get(key, 0) - a * v
        if s:
            target[key] = s
        else:
            del target[key]


def family_bodies(order: int) -> list[DiffPoly]:
    """The Burgers family members with 1 <= k + l <= order, in index order."""
    return [
        q_char(Family.BURGERS_Q, k, l).body
        for k, l in index_range(order, include_origin=False)
    ]


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
    experimental: bool = False,
) -> SolveReport:
    """Solve the determining equation over a bounded polynomial ansatz.

    The supported equation is Burgers; other equations run only behind the
    experimental flag (a polynomial ansatz cannot represent their full
    parameter families) and skip the family span comparison.
    """
    if eq is not BURGERS and not experimental:
        raise ValueError(
            "solve_symmetries supports the Burgers equation; "
            "pass experimental=True to run other equations anyway"
        )
    ansatz = Ansatz(eq, order, jet_degree, x_degree, t_degree)
    # every ansatz monomial is a column, the constant 1 at least
    monos, vectors, scales = zip(*_residual_columns(ansatz))
    basis = []
    for combo in _dependencies(vectors):
        if combo is None:
            continue
        # sum_c combo[c] scale_c column_c, divided by its entry at the first column
        first = min(combo)
        lead = combo[first] * scales[first]
        sign = 1 if lead > 0 else -1
        body = DiffPoly._make(
            {monos[c]: sign * v * scales[c] for c, v in combo.items()}, abs(lead)
        )
        residual = invariance_residual(eq, body)
        if not residual.is_zero():
            raise RuntimeError("internal error: kernel vector fails the residual check")
        basis.append(Characteristic(eq, body))
    span_matches: Optional[bool] = None
    if eq is BURGERS:
        # one reduction: the family's own rank is read off its first vectors
        family = family_bodies(order)
        bodies = family + [c.body for c in basis]
        independent = [dep is None for dep in _dependencies(b._nums for b in bodies)]
        family_rank = sum(independent[: len(family)])
        span_matches = len(basis) == family_rank == sum(independent)
    return SolveReport(
        order=order,
        dimension=len(basis),
        basis=tuple(basis),
        family_span_matches=span_matches,
        ansatz_size=len(monos),
    )
