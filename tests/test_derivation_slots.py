"""Values kept on an immutable DiffPoly: its D_x and its Frechet coefficients.

dx_preimage fills its result's D_x slot with the input, and
EvolutionEquation.frechet reads the coefficients dF/dz_k from F once.  Both
must give what a fresh computation gives.
"""

import random

import pytest

from conftest import make_random_poly
from jetsym.diffring import KIND_EXP, DiffPoly, derive, exp_poly, jet, jet_poly, par_poly
from jetsym.jetflow import (
    _DX_IMAGES,
    _DZ0_IMAGES,
    BURGERS,
    HEAT,
    POTBURGERS,
    _dx_image,
    _dz0_image,
    jet_partials,
    x_derivative,
)
from jetsym.opcalc import dx_preimage
from jetsym.symfam import Family, q_char


@pytest.mark.parametrize("eq", [HEAT, POTBURGERS, BURGERS], ids=lambda e: e.name)
def test_preimage_keeps_its_exact_dx(eq):
    rng = random.Random(7)
    for _ in range(30):
        p = x_derivative(make_random_poly(rng))
        g = dx_preimage(eq, p)
        assert g._dx is p
        assert x_derivative(g) == derive(g, _DX_IMAGES, _dx_image) == p


def _fresh_partials(F):
    top = F.order()
    if F.has_kind(KIND_EXP):
        top = max(top, 0)
    if top < 0:
        return ()
    return tuple(
        derive(F, _DZ0_IMAGES, _dz0_image) if k == 0 else F.partial(jet(k))
        for k in range(int(top) + 1)
    )


def test_jet_partials_are_computed_once_per_value():
    F = q_char(Family.POT_Z).body
    first = jet_partials(F)
    assert jet_partials(F) is first
    assert first == _fresh_partials(F)
    assert jet_partials(DiffPoly.const(3)) == ()
    assert jet_partials(exp_poly(-1)) == (-exp_poly(-1),)


def test_frechet_matches_the_fresh_sum():
    rng = random.Random(11)
    cases = [(q_char(Family.POT_Z).body, q_char(Family.POT_Q, 1, 1).body, POTBURGERS)]
    for _ in range(20):
        F = make_random_poly(rng, with_par=True)
        eta = make_random_poly(rng, with_par=True) + par_poly(1) * jet_poly(2)
        cases.append((F, eta, HEAT))
    for F, eta, eq in cases:
        expected = DiffPoly.zero()
        dk = eta
        for k, coeff in enumerate(_fresh_partials(F)):
            if k:
                dk = x_derivative(dk)
            expected = expected + coeff * dk
        assert eq.frechet(F, eta) == expected
        assert eq.frechet(F, eta) == expected  # second call reads the kept tuple
