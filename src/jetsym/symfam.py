"""Symmetry families, evolutionary commutators, and structure constants.

Each equation carries a two-parameter family of polynomial characteristics
built from its recursion operators applied to a seed:

    heat:              Q[k,l] = boost^k translation^l (u)
    potential Burgers: Q[k,l] = boost^k translation^l (1)
    Burgers:           Q[k,l] = D_x boost^k translation^l (1)

(the Burgers (0,0) entry is the zero characteristic).  On all three
equations the translation is T = D_x + M, with M = 0, w_1 and -v/2
(TRANSLATION_MULTIPLIER), and the boost is B = t T + x/2, so [T, B] = 1/2
and T B^k = B^k T + (k/2) B^(k-1).  The entries c(k,l) = B^k T^l (seed)
are therefore built by this commutator ladder: the column c(0,l) takes
one D_x per entry, kept on the entry it differentiates (see
jetflow.x_derivative), and every entry off the column, like the Burgers
member D_x c(k,l), is a sum of earlier entries shifted by t or x, with no
derivation.  The heat operators on h_0 build the right sides of the
parameter brackets by the same ladder.

The heat and potential-Burgers equations additionally admit the parameter
families h(t,x) and h(t,x) e^{-w} with h a symbolic heat solution; e^{-w}
is the ring variable E^{-1} (see diffring).

Brackets of evolutionary vector fields are computed as
[eta, zeta] = zeta'[eta] - eta'[zeta] through EvolutionEquation.frechet,
the one prolongation sum zeta'[eta] = sum_k (dzeta/dz_k) D_x^k(eta); the
parameter symbols are coefficients, and E = e^{z_0} enters through
dE/dz_0 = E.  The closed-form structure constants of the families
are binomial sums, checked exactly against the brute-force brackets;
structure_sweep checks every ordered pair of a family with one bracket per
unordered pair.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from functools import lru_cache
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
from .jetflow import BURGERS, HEAT, POTBURGERS, Characteristic, EvolutionEquation


class Family(Enum):
    HEAT_Q = "heat_q"
    POT_Q = "pot_q"
    BURGERS_Q = "burgers_q"
    HEAT_Z = "heat_z"
    POT_Z = "pot_z"


Q_FAMILIES = (Family.HEAT_Q, Family.POT_Q, Family.BURGERS_Q)
Z_FAMILIES = (Family.HEAT_Z, Family.POT_Z)

FAMILY_EQUATION = {
    Family.HEAT_Q: HEAT,
    Family.POT_Q: POTBURGERS,
    Family.BURGERS_Q: BURGERS,
    Family.HEAT_Z: HEAT,
    Family.POT_Z: POTBURGERS,
}

_Q_OF_Z = {Family.HEAT_Z: Family.HEAT_Q, Family.POT_Z: Family.POT_Q}


class FamilyIndex(NamedTuple):
    family: Family
    k: int = 0
    l: int = 0


# The multiplier M of each equation's translation T = D_x + M; its boost is
# B = t T + x/2.  opcalc builds both operators from these.
TRANSLATION_MULTIPLIER = {
    HEAT: DiffPoly.zero(),
    POTBURGERS: jet_poly(1),
    BURGERS: jet_poly(0) * Fraction(-1, 2),
}

# The equation whose recursion operators build each chain, and its seed.
# The HEAT_Z chain, boost^k D_x^l h, is the parameter function of the bracket
# [Z(h), Q[k,l]] in both parameter families.
_CHAIN_SEEDS = {
    Family.HEAT_Q: (HEAT, jet_poly(0)),
    Family.POT_Q: (POTBURGERS, DiffPoly.const(1)),
    Family.BURGERS_Q: (BURGERS, DiffPoly.const(1)),
    Family.HEAT_Z: (HEAT, par_poly(0)),
}

_CHAINS: dict[tuple[Family, int, int], DiffPoly] = {}

_ONE, _T, _X = DiffPoly.const(1), t_poly(), x_poly()


def family_seed_chain(family: Family, k: int, l: int) -> DiffPoly:
    """c(k,l) = boost^k translation^l (seed) of a family, cached.

    This is Q[k,l] for heat and potential Burgers, the value before the
    leading D_x for Burgers, and boost^k D_x^l h for HEAT_Z (for which only
    (0, 0), the seed h, is a family member).  The entries are built by the
    commutator ladder: with T = D_x + M and B = t T + x/2, [T, B] = 1/2, so

        c(0,l) = D_x c(0,l-1) + M c(0,l-1),
        c(k,l) = t (c(k-1,l+1) + (k-1)/2 c(k-2,l)) + x/2 c(k-1,l)   (k >= 1).

    Only the column takes a D_x, one per entry, kept on the entry it
    differentiates.  A request fills the column through c(0,k+l), then the
    triangle {i <= k, i + j <= k + l} by total, iteratively, so deep
    indices need no recursion and no entry depends on the order of requests.
    """
    body = _CHAINS.get((family, k, l))
    if body is not None:
        return body
    eq, seed = _CHAIN_SEEDS[family]
    multiplier = TRANSLATION_MULTIPLIER[eq]
    chain = _CHAINS
    chain.setdefault((family, 0, 0), seed)
    for j in range(1, k + l + 1):
        if (family, 0, j) not in chain:
            prev = chain[family, 0, j - 1]
            chain[family, 0, j] = sum_of_products([(_ONE, eq.dx(prev), 1), (multiplier, prev, 1)])
    for total in range(1, k + l + 1):
        for i in range(1, min(k, total) + 1):
            j = total - i
            if (family, i, j) not in chain:
                terms = [
                    (_T, chain[family, i - 1, j + 1], 1),
                    (_X, chain[family, i - 1, j], Fraction(1, 2)),
                ]
                if i > 1:
                    terms.append((_T, chain[family, i - 2, j], Fraction(i - 1, 2)))
                chain[family, i, j] = sum_of_products(terms)
    return chain[family, k, l]


@lru_cache(maxsize=None)
def _q_body(family: Family, k: int, l: int) -> DiffPoly:
    if family is Family.HEAT_Z:
        return family_seed_chain(family, 0, 0)
    if family is Family.POT_Z:
        return par_poly(0) * exp_poly(-1)
    if family is Family.BURGERS_Q:
        # D_x = T - M, and T c(k,l) = c(k,l+1) + (k/2) c(k-1,l) by the ladder
        terms = [
            (_ONE, family_seed_chain(family, k, l + 1), 1),
            (TRANSLATION_MULTIPLIER[BURGERS], family_seed_chain(family, k, l), -1),
        ]
        if k:
            terms.append((_ONE, family_seed_chain(family, k - 1, l), Fraction(k, 2)))
        return sum_of_products(terms)
    return family_seed_chain(family, k, l)


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
    """The evolutionary bracket [eta, zeta] = zeta'[eta] - eta'[zeta]."""
    if eta.equation is not eq or zeta.equation is not eq:
        raise ValueError("both characteristics must belong to the given equation")
    a, b = eta.body, zeta.body
    return Characteristic(eq, eq.frechet(b, a) - eq.frechet(a, b))


# -- closed-form structure constants -------------------------------------------


@lru_cache(maxsize=None)
def _binomial_weight(i: int, a: int, b: int) -> Fraction:
    return Fraction(factorial(i), 2**i) * comb(a, i) * comb(b, i)


# The Burgers generators are the (-1/2)-scaled images of the potential ones
# under the pushforward homomorphism, so their brackets pick up an extra
# factor -1/2 relative to the binomial constants of the other two families
# (equivalently, the unscaled constants hold verbatim for -2 Q[k,l]).
_BRACKET_SCALE = {
    Family.HEAT_Q: Fraction(1),
    Family.POT_Q: Fraction(1),
    Family.BURGERS_Q: Fraction(-1, 2),
}


def closed_form_bracket(family: Family, kl1, kl2):
    """The closed-form right side for [Q[k,l], Q[k',l']] in one family."""
    k, l = kl1
    kp, lp = kl2
    scale = _BRACKET_SCALE[family]
    return sum_of_products(
        (_ONE, _q_body(family, k + kp - i, l + lp - i), sign * _binomial_weight(i, a, b))
        for sign, a, b in ((scale, k, lp), (-scale, kp, l))
        for i in range(min(a, b) + 1)
    )


def structure_check(family: Family, idx1, idx2=None):
    """Residual of one closed-form commutation relation; zero means it holds.

    For the Q families pass two index pairs: the brute-force bracket is
    compared with the binomial sum.  For the parameter families pass the Q
    index pair: [z(h), Q[k,l]] is compared with z(boost^k D_x^l h).
    """
    eq = FAMILY_EQUATION[family]
    if family in Z_FAMILIES:
        kl = idx1 if idx2 is None else idx2
        k, l = kl
        z = q_char(family)
        q = q_char(_Q_OF_Z[family], k, l)
        brute = commutator(eq, z, q).body
        h_image = family_seed_chain(Family.HEAT_Z, k, l)
        expected = h_image if family is Family.HEAT_Z else h_image * exp_poly(-1)
        return brute - expected
    (k, l), (kp, lp) = idx1, idx2
    brute = commutator(eq, q_char(family, k, l), q_char(family, kp, lp)).body
    return brute - closed_form_bracket(family, idx1, idx2)


def structure_sweep(family: Family, indices) -> dict[tuple, DiffPoly]:
    """structure_check of a Q family on every ordered pair of the indices.

    Returns {(kl1, kl2): residual}.  One brute-force bracket is computed
    per unordered pair: [Q_b, Q_a] is the exact negation of [Q_a, Q_b],
    being the same two Frechet derivatives subtracted the other way, and
    [Q_a, Q_a] is zero.  The closed form is compared on every ordered pair.
    """
    eq = FAMILY_EQUATION[family]
    indices = list(indices)
    chars = [q_char(family, k, l) for k, l in indices]
    residuals = {}
    for i, kl1 in enumerate(indices):
        residuals[kl1, kl1] = -closed_form_bracket(family, kl1, kl1)
        for j in range(i + 1, len(indices)):
            kl2 = indices[j]
            brute = commutator(eq, chars[i], chars[j]).body
            residuals[kl1, kl2] = brute - closed_form_bracket(family, kl1, kl2)
            residuals[kl2, kl1] = -brute - closed_form_bracket(family, kl2, kl1)
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
