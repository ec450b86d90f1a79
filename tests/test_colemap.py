"""Exponential grading and the substitution maps between the equations."""

from fractions import Fraction

import pytest

from jetsym.colemap import (
    BareDependentVariable,
    NotProjectable,
    heat_to_potential,
    hopf_cole_chain,
    potential_to_burgers,
    w_jet_substitution,
)
from jetsym.diffring import EXP_VAR, KIND_EXP, DiffPoly, const, exp_poly, jet_poly, par_poly
from jetsym.jetflow import BURGERS, HEAT, POTBURGERS, Characteristic, invariance_residual
from jetsym.symfam import Family, commutator, q_char

half = Fraction(1, 2)
E, E_inv = exp_poly(1), exp_poly(-1)


def z(k):
    return jet_poly(k)


def grades(p):
    """The powers of E = e^w that occur in p, in increasing order."""
    return sorted({dict(mono).get(EXP_VAR, 0) for mono in p.terms})


def test_exp_poly_canonical():
    assert E * E_inv == 1
    assert (E * E_inv).terms == {(): 1}
    assert exp_poly(0) == 1
    assert z(0) + 0 * E == z(0)
    assert grades(z(0) + 0 * E) == [0]
    assert (z(1) * E_inv).has_kind(KIND_EXP)


def test_exp_poly_arithmetic():
    a = par_poly(0) * E_inv
    b = z(1)
    assert grades(a + b) == [-1, 0]
    assert (a - a).is_zero()
    assert a * b == par_poly(0) * z(1) * E_inv
    assert grades(a * E) == [0]
    assert a * E == par_poly(0)
    assert grades(E * E * E_inv * E_inv * E_inv) == [-1]


def test_exp_derivation_rules():
    # D_x(p e^{m w}) = (D_x p + m w_1 p) e^{m w}
    ep = par_poly(0) * E_inv
    assert POTBURGERS.dx(ep) == (par_poly(1) - z(1) * par_poly(0)) * E_inv
    assert POTBURGERS.dt(ep) == (par_poly(2) - (z(2) + z(1) ** 2) * par_poly(0)) * E_inv


def test_exp_partial_grade_chain_rule():
    # d/dw (h e^{-w}) = -h e^{-w}: [1, Z] = pr_1(Z) - pr_Z(1) = dZ/dw
    zt = q_char(Family.POT_Z)
    one = Characteristic(POTBURGERS, const(1))
    assert commutator(POTBURGERS, one, zt).body == -par_poly(0) * E_inv
    # Z has no w_x dependence, so [w_x, Z] = w_x dZ/dw - D_x Z = -h_1 e^{-w}
    w1 = Characteristic(POTBURGERS, z(1))
    assert commutator(POTBURGERS, w1, zt).body == -par_poly(1) * E_inv


def test_parameter_family_is_a_symmetry():
    res = invariance_residual(POTBURGERS, par_poly(0) * E_inv)
    assert res.is_zero()


def test_heat_to_potential_examples():
    assert heat_to_potential(q_char(Family.HEAT_Q, 0, 0)).body == DiffPoly.const(1)
    assert heat_to_potential(q_char(Family.HEAT_Q, 0, 1)).body == z(1)
    zh = heat_to_potential(q_char(Family.HEAT_Z))
    assert grades(zh.body) == [-1]
    assert zh.body == par_poly(0) * E_inv
    assert str(zh.body) == "(h0)*e^{-w}"


def test_heat_to_potential_matches_family():
    for k in range(4):
        for l in range(4):
            if k + l > 3:
                continue
            got = heat_to_potential(q_char(Family.HEAT_Q, k, l)).body
            assert got == q_char(Family.POT_Q, k, l).body, (k, l)


def test_heat_to_potential_nonlinear_input_keeps_grading():
    # u * u_x picks up a net positive exponential grade
    eta = Characteristic(HEAT, z(0) * z(1))
    out = heat_to_potential(eta).body
    assert grades(out) == [1]
    assert out == z(1) * E


def test_w_jet_substitution():
    assert w_jet_substitution(z(1) ** 2) == Fraction(1, 4) * z(0) ** 2
    # matches the first nonlinear coordinate -v_x/2 + v^2/4
    assert w_jet_substitution(z(2) + z(1) ** 2) == -half * z(1) + Fraction(1, 4) * z(0) ** 2
    with pytest.raises(BareDependentVariable):
        w_jet_substitution(z(0))


def test_w_jet_substitution_rejects_exp():
    # E = e^w depends on bare w, even with no z_0 factor in sight
    with pytest.raises(BareDependentVariable):
        w_jet_substitution(z(1) * E_inv)


def test_potential_to_burgers_examples():
    assert potential_to_burgers(q_char(Family.POT_Q, 0, 0)).body == 0
    got = potential_to_burgers(q_char(Family.POT_Q, 0, 1)).body
    assert got == z(1)
    assert got == -2 * q_char(Family.BURGERS_Q, 0, 1).body


def test_potential_to_burgers_rejects_parameter_family():
    with pytest.raises(NotProjectable):
        potential_to_burgers(q_char(Family.POT_Z))


def test_potential_to_burgers_rejects_bare_w():
    # eta = w^2 prolongs to 2 w w_x, which still involves bare w
    eta = Characteristic(POTBURGERS, z(0) * z(0))
    with pytest.raises(NotProjectable):
        potential_to_burgers(eta)


def test_composition_chain():
    for k in range(4):
        for l in range(4):
            if k + l > 3:
                continue
            mid, final = hopf_cole_chain(q_char(Family.HEAT_Q, k, l))
            assert mid.body == q_char(Family.POT_Q, k, l).body
            assert final.body == -2 * q_char(Family.BURGERS_Q, k, l).body, (k, l)


def test_pushforward_is_a_lie_homomorphism():
    pairs = [(k, l) for k in range(4) for l in range(4) if k + l <= 3]
    for kl1 in pairs:
        for kl2 in pairs:
            a = q_char(Family.POT_Q, *kl1)
            b = q_char(Family.POT_Q, *kl2)
            bracket = commutator(POTBURGERS, a, b)
            lhs = potential_to_burgers(
                Characteristic(POTBURGERS, bracket.body)
            ).body
            rhs = commutator(
                BURGERS, potential_to_burgers(a), potential_to_burgers(b)
            ).body
            assert lhs == rhs, (kl1, kl2)


def test_parameter_bracket_on_potential_side():
    # [Z(h), Q[k,l]] stays in the grade -1 component
    zt = q_char(Family.POT_Z)
    q = q_char(Family.POT_Q, 1, 0)
    got = commutator(POTBURGERS, zt, q).body
    assert got
    assert grades(got) == [-1]
