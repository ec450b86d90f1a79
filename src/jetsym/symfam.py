"""Symmetry families, evolutionary commutators, and structure constants.

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
constants of the families are binomial sums, checked exactly against the
brute-force brackets, each residual one sum; structure_sweep checks every
ordered pair of a family with one bracket per unordered pair.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from math import comb, factorial
from typing import NamedTuple, Optional

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
    HEAT,
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


# -- closed-form structure constants -------------------------------------------


# The Burgers generators are the (-1/2)-scaled images of the potential ones
# under the pushforward homomorphism, so their brackets pick up an extra
# factor -1/2 relative to the binomial constants of the other two families
# (equivalently, the unscaled constants hold verbatim for -2 Q[k,l]).
_BRACKET_SCALE = {
    Family.HEAT_Q: Fraction(1),
    Family.POT_Q: Fraction(1),
    Family.BURGERS_Q: Fraction(-1, 2),
}


def _binomial_weight(i: int, a: int, b: int) -> Fraction:
    return Fraction(factorial(i), 2**i) * comb(a, i) * comb(b, i)


@lru_cache(maxsize=None)
def _bracket_weight(scale: Fraction, sign: int, i: int, a: int, b: int) -> Fraction:
    """A signed, scaled weight of the closed form, formed once per argument."""
    return sign * scale * _binomial_weight(i, a, b)


def _closed_form_terms(family: Family, kl1, kl2, sign: int = 1) -> list:
    """The sum_of_products triples of sign times the closed-form bracket."""
    k, l = kl1
    kp, lp = kl2
    scale = _BRACKET_SCALE[family]
    return [
        (_ONE, _q_body(family, k + kp - i, l + lp - i), _bracket_weight(scale, s, i, a, b))
        for s, a, b in ((sign, k, lp), (-sign, kp, l))
        for i in range(min(a, b) + 1)
    ]


def closed_form_bracket(family: Family, kl1, kl2):
    """The closed-form right side for [Q[k,l], Q[k',l']] in one family."""
    return sum_of_products(_closed_form_terms(family, kl1, kl2))


def structure_check(family: Family, idx1, idx2=None):
    """Residual of one closed-form commutation relation; zero means it holds.

    For the Q families pass two index pairs: the brute-force bracket is
    compared with the binomial sum.  For the parameter families pass the Q
    index pair: [z(h), Q[k,l]] is compared with z(boost^k D_x^l h).  The
    bracket's products and the right side's are formed as one sum.
    """
    eq = FAMILY_EQUATION[family]
    if family in Z_FAMILIES:
        kl = idx1 if idx2 is None else idx2
        k, l = kl
        bracket = _bracket_terms(eq, q_char(family).body, q_char(eq.q_family, k, l).body)
        h_image = family_seed_chain(Family.HEAT_Z, k, l)
        factor = _ONE if family is Family.HEAT_Z else exp_poly(-1)
        return sum_of_products([*bracket, (h_image, factor, -1)])
    (k, l), (kp, lp) = idx1, idx2
    bracket = _bracket_terms(eq, q_char(family, k, l).body, q_char(family, kp, lp).body)
    return sum_of_products([*bracket, *_closed_form_terms(family, idx1, idx2, -1)])


def structure_sweep(family: Family, indices) -> dict[tuple, DiffPoly]:
    """structure_check of a Q family on every ordered pair of the indices.

    Returns {(kl1, kl2): residual}.  One brute-force bracket is computed
    per unordered pair, as one sum: [Q_b, Q_a] is the exact negation of
    [Q_a, Q_b], being the same two Frechet derivatives subtracted the other
    way, and [Q_a, Q_a] is zero.  The closed form is evaluated on every
    ordered pair, and each residual, the bracket minus it, is one sum.
    """
    eq = FAMILY_EQUATION[family]
    indices = list(indices)
    chars = [q_char(family, k, l) for k, l in indices]
    residuals = {}
    for i, kl1 in enumerate(indices):
        residuals[kl1, kl1] = sum_of_products(_closed_form_terms(family, kl1, kl1, -1))
        for j in range(i + 1, len(indices)):
            kl2 = indices[j]
            brute = commutator(eq, chars[i], chars[j]).body
            residuals[kl1, kl2] = sum_of_products(
                [(brute, _ONE, 1), *_closed_form_terms(family, kl1, kl2, -1)]
            )
            residuals[kl2, kl1] = sum_of_products(
                [(brute, _ONE, -1), *_closed_form_terms(family, kl2, kl1, -1)]
            )
    return residuals


# -- point symmetries and their evolution forms ---------------------------------


class LieGenerator(NamedTuple):
    """A point-symmetry vector field xi_t d/dt + xi_x d/dx + phi d/dz."""

    xi_t: DiffPoly
    xi_x: DiffPoly
    phi: DiffPoly
    name: Optional[str] = None


def evolution_form(g: LieGenerator, eq: EvolutionEquation) -> Characteristic:
    """The reduced evolutionary characteristic phi - xi_t rhs - xi_x z_1."""
    body = g.phi - g.xi_t * eq.rhs - g.xi_x * jet_poly(1)
    return Characteristic(eq, body)


def heat_point_symmetries() -> dict[str, LieGenerator]:
    """The essential point-symmetry algebra of the linear heat equation."""
    one = DiffPoly.const(1)
    zero = DiffPoly.zero()
    t = t_poly()
    x = x_poly()
    u = jet_poly(0)
    half = Fraction(1, 2)
    return {
        "time_translation": LieGenerator(one, zero, zero, "time_translation"),
        "dilation": LieGenerator(2 * t, x, -half * u, "dilation"),
        "projective": LieGenerator(
            t * t, t * x, (x * x + 2 * t) * u * Fraction(-1, 4), "projective"
        ),
        "galilean_boost": LieGenerator(zero, t, -half * x * u, "galilean_boost"),
        "space_translation": LieGenerator(zero, one, zero, "space_translation"),
        "amplitude_scaling": LieGenerator(zero, zero, u, "amplitude_scaling"),
    }


class LieMatch(NamedTuple):
    name: str
    sign: Optional[int]  # +1 / -1 when matched up to sign, None otherwise


def lie_correspondence() -> list[LieMatch]:
    """Match heat point symmetries with family combinations, up to sign.

    The expected partners are Q[0,2], 2 Q[1,1] + Q[0,0]/2, Q[2,0], Q[1,0],
    Q[0,1] and Q[0,0]; the sign of each match is recorded, not asserted.
    """
    expected = {
        "time_translation": _q_body(Family.HEAT_Q, 0, 2),
        "dilation": 2 * _q_body(Family.HEAT_Q, 1, 1)
        + Fraction(1, 2) * _q_body(Family.HEAT_Q, 0, 0),
        "projective": _q_body(Family.HEAT_Q, 2, 0),
        "galilean_boost": _q_body(Family.HEAT_Q, 1, 0),
        "space_translation": _q_body(Family.HEAT_Q, 0, 1),
        "amplitude_scaling": _q_body(Family.HEAT_Q, 0, 0),
    }
    matches = []
    for name, gen in heat_point_symmetries().items():
        body = evolution_form(gen, HEAT).body
        target = expected[name]
        if body == target:
            sign: Optional[int] = 1
        elif body == -target:
            sign = -1
        else:
            sign = None
        matches.append(LieMatch(name, sign))
    return matches
