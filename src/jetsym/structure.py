"""Closed-form structure constants of the families, and the heat point symmetries.

The brackets of the family members are binomial sums (see
closed_form_bracket), each checked exactly against the brute-force bracket
symfam.commutator forms, the residual being one sum of products;
structure_sweep checks every ordered pair of a family with one bracket per
unordered pair, and structure_check the parameter brackets
[Z(h), Q[k,l]] = Z(boost^k D_x^l h) too.  The essential point-symmetry
algebra of the heat equation is matched, up to sign, with combinations of
the heat family through the generators' evolution forms
(lie_correspondence).  Only the commutator and invariance suites of verify
run this module, so no other command loads it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from typing import NamedTuple, Optional

from .diffring import DiffPoly, exp_poly, jet_poly, sum_of_products, t_poly, x_poly
from .jetflow import HEAT, Z_FAMILIES, Characteristic, EvolutionEquation, Family
from .symfam import (
    _ONE,
    FAMILY_EQUATION,
    _bracket_terms,
    _q_body,
    commutator,
    family_seed_chain,
    q_char,
)


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


@lru_cache(maxsize=None)
def _bracket_weight(scale: Fraction, sign: int, i: int, a: int, b: int) -> Fraction:
    """A signed, scaled weight of the closed form, formed once per argument."""
    return sign * scale * Fraction(factorial(i), 2**i) * comb(a, i) * comb(b, i)


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
