"""Symmetry families and evolutionary commutators.

Each equation carries a two-parameter family of polynomial characteristics
built from its recursion operators applied to a seed:

    heat:              Q[k,l] = boost^k translation^l (u)
    potential Burgers: Q[k,l] = boost^k translation^l (1)
    Burgers:           Q[k,l] = D_x boost^k translation^l (1)

(the Burgers (0,0) entry is the zero characteristic).  On all three
equations the translation is T = D_x + M, M = 0, w_1 and -v/2 being each
EvolutionEquation's multiplier, and the boost is B = t T + x/2, so
[T, B] = 1/2 and T B^k = B^k T + (k/2) B^(k-1).  The entries
c(k,l) = B^k T^l (seed) are therefore built by this commutator ladder: the
column c(0,l) takes one D_x per entry, kept on the entry it differentiates
(see jetflow.x_derivative), and every entry off the column is a sum of
earlier entries shifted by t or x, with no derivation.  Since D_x t = 0 and
D_x x = 1, the Burgers members D_x c(k,l) follow the same ladder among
themselves, plus c(k-1,l)/2: Q[0,l] is the D_x the column keeps on c(0,l),
and an order-n Burgers table reads the chain off the column only through
total n - 1.  Every body lives in one table, _LADDER.  The heat operators
on h_0 build the right sides of the parameter brackets by the same ladder.

The heat and potential-Burgers equations additionally admit the parameter
families h(t,x) and h(t,x) e^{-w} with h a symbolic heat solution; e^{-w}
is the ring variable E^{-1} (see diffring).

Brackets of evolutionary vector fields are computed as
[eta, zeta] = zeta'[eta] - eta'[zeta], both prolongation sums
zeta'[eta] = sum_k (dzeta/dz_k) D_x^k(eta) read as jetflow reads one and
formed as one sum of products; the parameter symbols are coefficients, and
E = e^{z_0} enters through dE/dz_0 = E.  The closed-form structure
constants that these brackets are checked against, and the heat point
symmetries, live in jetsym.structure, which only the verify suites load.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from typing import NamedTuple

from .diffring import (
    DiffPoly,
    exp_poly,
    jet_poly,
    par_poly,
    sum_of_products,
    t_poly,
    x_poly,
)

# Family, Q_FAMILIES and Z_FAMILIES live beside the equations that name them.
from .jetflow import (
    EQUATIONS,
    Q_FAMILIES,
    Z_FAMILIES,
    Characteristic,
    EvolutionEquation,
    Family,
    jet_partials,
    x_tower,
)

# The equation of each family, read off its record.
FAMILY_EQUATION = {f: eq for eq in EQUATIONS.values() for f in (eq.q_family, eq.z_family) if f}


class FamilyIndex(NamedTuple):
    family: Family
    k: int = 0
    l: int = 0


# The seed of each chain, on which the recursion operators of its family's
# equation act.  The HEAT_Z chain, boost^k D_x^l h, is the parameter
# function of the bracket [Z(h), Q[k,l]] in both parameter families.
_CHAIN_SEEDS = {
    Family.HEAT_Q: jet_poly(0),
    Family.POT_Q: DiffPoly.const(1),
    Family.BURGERS_Q: DiffPoly.const(1),
    Family.HEAT_Z: par_poly(0),
}

# The commutator ladder of every chain, filled by _ladder: family ->
# {(k, l, d): D_x^d c(k,l)}, where d = 1 only for the Burgers members.  Every
# family body but POT_Z's is read from here; clearing it resets them all.
_LADDER: dict[Family, dict[tuple[int, int, int], DiffPoly]] = {}

_ONE, _T, _X = DiffPoly.const(1), t_poly(), x_poly()

# The one POT_Z member, h e^{-w}.
_POT_Z_BODY = par_poly(0) * exp_poly(-1)


def family_seed_chain(family: Family, k: int, l: int) -> DiffPoly:
    """c(k,l) = boost^k translation^l (seed) of a family, cached.

    This is Q[k,l] for heat and potential Burgers, the value under the
    leading D_x for Burgers, and boost^k D_x^l h for HEAT_Z (for which only
    (0, 0), the seed h, is a family member).  The entries are built by the
    commutator ladder: with T = D_x + M and B = t T + x/2, [T, B] = 1/2, so

        c(0,l) = D_x c(0,l-1) + M c(0,l-1),
        c(k,l) = t (c(k-1,l+1) + (k-1)/2 c(k-2,l)) + x/2 c(k-1,l)   (k >= 1).

    Only the column takes a D_x, one per entry, kept on the entry it
    differentiates.  A request fills the column through c(0,k+l), then the
    triangle {i <= k, i + j <= k + l} by total, iteratively, so deep
    indices need no recursion and no entry depends on the order of requests.
    The Burgers members D_x c(k,l) follow a ladder of their own in the same
    table (see _ladder).
    """
    return _ladder(family, k, l, 0)


def _ladder(family: Family, k: int, l: int, d: int) -> DiffPoly:
    """D_x^d c(k,l), d = 0 or 1, filling _LADDER by total as above.

    D_x is a derivation with D_x t = 0 and D_x x = 1, so applied to the
    ladder of c(k,l) it gives the ladder of the members Q[k,l] = D_x c(k,l):

        Q[0,l] = D_x c(0,l)   (the D_x that the column keeps on c(0,l)),
        Q[k,l] = t (Q[k-1,l+1] + (k-1)/2 Q[k-2,l]) + x/2 Q[k-1,l]
                 + 1/2 c(k-1,l)   (k >= 1).

    A member of total n reads the column through c(0,n) and the chain rows
    off it only through total n - 1.
    """
    table = _LADDER.setdefault(family, {})
    body = table.get((k, l, d))
    if body is not None:
        return body
    eq = FAMILY_EQUATION[family]
    if d:
        _ladder(family, 0, k + l, 0)
        if k:
            _ladder(family, k - 1, l, 0)
    table.setdefault((0, 0, 0), _CHAIN_SEEDS[family])
    for j in range(k + l + 1):
        if (0, j, d) not in table:
            if d:
                table[0, j, d] = eq.dx(table[0, j, 0])
            else:
                prev = table[0, j - 1, 0]
                table[0, j, 0] = sum_of_products([(_ONE, eq.dx(prev), 1), (eq.multiplier, prev, 1)])
    for total in range(1, k + l + 1):
        for i in range(1, min(k, total) + 1):
            j = total - i
            if (i, j, d) not in table:
                terms = [
                    (_T, table[i - 1, j + 1, d], 1),
                    (_X, table[i - 1, j, d], Fraction(1, 2)),
                ]
                if i > 1:
                    terms.append((_T, table[i - 2, j, d], Fraction(i - 1, 2)))
                if d:
                    terms.append((_ONE, table[i - 1, j, 0], Fraction(1, 2)))
                table[i, j, d] = sum_of_products(terms)
    return table[k, l, d]


def _q_body(family: Family, k: int, l: int) -> DiffPoly:
    """The body of a family member: an entry of the ladder, or POT_Z's."""
    if family is Family.POT_Z:
        return _POT_Z_BODY
    return _ladder(family, k, l, int(family is Family.BURGERS_Q))


def q_char(family: Family, k: int = 0, l: int = 0) -> Characteristic:
    """The (k, l) member of a symmetry family, as a Characteristic."""
    if k < 0 or l < 0:
        raise ValueError("family indices must be nonnegative")
    if family in Z_FAMILIES and (k or l):
        raise ValueError("the parameter families carry no (k, l) indices")
    body = _q_body(family, k, l)
    return Characteristic(FAMILY_EQUATION[family], body, FamilyIndex(family, k, l))


def index_range(max_sum: int, include_origin: bool = True):
    """The family indices (k, l) with k + l <= max_sum, by total, then by k."""
    for total in range(0 if include_origin else 1, max_sum + 1):
        for k in range(total + 1):
            yield k, total - k


# -- evolutionary brackets -----------------------------------------------------


def commutator(
    eq: EvolutionEquation, eta: Characteristic, zeta: Characteristic
) -> Characteristic:
    """The evolutionary bracket [eta, zeta] = zeta'[eta] - eta'[zeta], one sum.

    Both Frechet sums are read off jet_partials and the D_x towers of the
    two bodies, as jetflow.prolongation_sums reads one, and their products
    are formed as one sum_of_products; the ring refuses the h_j as
    EvolutionEquation.frechet does.
    """
    if eta.equation is not eq or zeta.equation is not eq:
        raise ValueError("both characteristics must belong to the given equation")
    return Characteristic(eq, sum_of_products(_bracket_terms(eq, eta.body, zeta.body)))


def _bracket_terms(eq: EvolutionEquation, a: DiffPoly, b: DiffPoly) -> list:
    """The sum_of_products triples of [a, b] = b'[a] - a'[b]."""
    eq._check_par(b)
    eq._check_par(a)
    pa, pb = jet_partials(a), jet_partials(b)
    return [
        *zip(pb, x_tower(a, len(pb)), repeat(1)),
        *zip(pa, x_tower(b, len(pa)), repeat(-1)),
    ]
