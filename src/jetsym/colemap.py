"""The substitution maps between the three equations.

heat_to_potential pulls a heat characteristic back through u = e^w.  The
ring carries E = e^w as a variable with integer exponents (see diffring),
so u_k maps to B_k E with B_k = (D_x + w_1)^k 1, the potential-Burgers
chain entry (0, k) of symfam.family_seed_chain, and the characteristic
picks up a factor E^{-1}.  Linear heat characteristics land in plain
polynomials; the parameter family h lands in h E^{-1} = h e^{-w}.

potential_to_burgers pushes a potential-Burgers characteristic forward
through -2 w_x = v: prolong to w_x, check that the prolongation
coefficient involves neither bare w nor E (otherwise the vector field does
not project), substitute w_j -> -v_{j-1}/2, and scale by -2.  On the
symmetry families the composite realizes the classical Hopf-Cole
correspondence exactly.
"""

from __future__ import annotations

from fractions import Fraction

from .diffring import (
    DiffPoly,
    KIND_EXP,
    KIND_PAR,
    exp_poly,
    jet,
    jet_poly,
)
from .jetflow import BURGERS, HEAT, POTBURGERS, Characteristic
from .symfam import Family, family_seed_chain


class NotProjectable(ValueError):
    """The prolonged vector field does not project to the (t, x, w_x) space."""


class BareDependentVariable(ValueError):
    """The substitution w_j -> -v_{j-1}/2 requires the absence of bare w."""


# -- heat -> potential Burgers -------------------------------------------------


def heat_to_potential(eta: Characteristic) -> Characteristic:
    """Pull a heat characteristic back through u = e^w.

    Each u_k maps to B_k E and the characteristic transforms with an
    overall factor E^{-1}, E = e^w.  The powers of E cancel on linear heat
    characteristics; the parameter family lands in h e^{-w}.
    """
    if eta.equation is not HEAT:
        raise ValueError("expected a characteristic of the heat equation")
    body = eta.body
    top = body.order()
    rules = {}
    if top >= 0:
        e = exp_poly(1)
        rules = {
            jet(k): family_seed_chain(Family.POT_Q, 0, k) * e
            for k in range(int(top) + 1)
        }
    new_body = body.substitute(rules) * exp_poly(-1)
    return Characteristic(POTBURGERS, new_body, eta.label)


# -- potential Burgers -> Burgers ---------------------------------------------


def w_jet_substitution(p: DiffPoly) -> DiffPoly:
    """Replace w_j by -v_{j-1}/2 for all j >= 1 (no bare w or e^w allowed)."""
    if p.degree(jet(0)) or p.has_kind(KIND_EXP):
        raise BareDependentVariable("bare dependent variable blocks the substitution")
    top = p.order()
    if top < 1:
        return p
    half = Fraction(-1, 2)
    rules = {jet(j): jet_poly(j - 1) * half for j in range(1, int(top) + 1)}
    return p.substitute(rules)


def potential_to_burgers(eta: Characteristic) -> Characteristic:
    """Push a potential-Burgers characteristic forward through -2 w_x = v.

    Raises NotProjectable when the body carries a power of e^w or its
    x-derivative involves bare w: in these cases the prolonged vector field
    depends on w itself and has no image downstairs.
    """
    if eta.equation is not POTBURGERS:
        raise ValueError("expected a characteristic of the potential Burgers equation")
    body = eta.body
    if body.has_kind(KIND_EXP):
        raise NotProjectable(
            "exponential weight depends on w; the vector field does not project"
        )
    if body.has_kind(KIND_PAR):
        raise ValueError("parameter symbols have no counterpart in the Burgers ring")
    prolonged = POTBURGERS.dx(body)
    if prolonged.degree(jet(0)):
        raise NotProjectable(
            "the w_x component depends on bare w; the vector field does not project"
        )
    image = w_jet_substitution(prolonged) * Fraction(-2)
    return Characteristic(BURGERS, image, eta.label)
