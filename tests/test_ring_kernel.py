"""The packed ring kernel: axioms, derivations, canonical form, exponent fields.

Property tests draw polynomials whose coefficients mix the denominators 1,
2, 3 and 6, whose terms carry h_j and E^m for m in [-2, 2].  A sympy oracle
checks mul, partial and substitute on small inputs, with E a plain symbol.
"""

from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from jetsym.diffring import (
    EXP_VAR,
    KIND_JET,
    KIND_PAR,
    KIND_T,
    KIND_X,
    DiffPoly,
    ExponentOverflow,
    JetLimitError,
    T_VAR,
    X_VAR,
    exp_poly,
    jet,
    jet_poly,
    par,
    x_poly,
)
from jetsym.jetflow import HEAT, EvolutionEquation, x_derivative

_POOL = [T_VAR, X_VAR, jet(0), jet(1), jet(3), par(0), par(2)]
_coeffs = st.builds(Fraction, st.integers(-6, 6).filter(bool), st.sampled_from((1, 2, 3, 6)))


@st.composite
def polys(draw, max_terms=4):
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        chosen = draw(st.lists(st.sampled_from(_POOL), max_size=3, unique=True))
        mono = [(v, draw(st.integers(1, 2))) for v in chosen]
        m = draw(st.integers(-2, 2))
        if m:
            mono.append((EXP_VAR, m))
        terms[tuple(sorted(mono))] = draw(_coeffs)
    return DiffPoly(terms)


@settings(max_examples=80, deadline=None)
@given(polys(), polys(), polys())
def test_ring_axioms(a, b, c):
    zero, one = DiffPoly.zero(), DiffPoly.const(1)
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a + zero == a and a - a == zero
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * one == a and a * zero == zero
    assert a * (b + c) == a * b + a * c


@settings(max_examples=80, deadline=None)
@given(polys(), polys(), st.sampled_from(_POOL + [EXP_VAR]))
def test_partial_is_a_derivation(a, b, v):
    assert (a * b).partial(v) == a.partial(v) * b + a * b.partial(v)
    assert (a + b).partial(v) == a.partial(v) + b.partial(v)
    assert (a * Fraction(5, 3)).partial(v) == a.partial(v) * Fraction(5, 3)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_substitute_matches_term_by_term_products(data):
    p = data.draw(polys())
    targets = data.draw(st.lists(st.sampled_from(_POOL), max_size=3, unique=True))
    rules = {v: data.draw(polys(max_terms=3)) for v in targets}
    expected = DiffPoly.zero()
    for mono, coeff in p.terms.items():
        term = DiffPoly.const(coeff)
        for v, e in mono:
            term = term * (rules[v] ** e if v in rules else DiffPoly.variable(v, e))
        expected = expected + term
    assert p.substitute(rules) == expected


@settings(max_examples=60, deadline=None)
@given(polys())
def test_normalisation_is_canonical(p):
    assert (p * Fraction(1, 3)) * 3 == p
    assert hash((p * Fraction(1, 3)) * 3) == hash(p)
    cancelled = p - p
    assert dict(cancelled.terms) == {}
    assert cancelled._den == 1
    assert cancelled == DiffPoly.zero()
    assert DiffPoly(p.terms) == p


def test_mixed_denominators_share_one_reduced_denominator():
    p = DiffPoly({((jet(0), 1),): Fraction(1, 2), ((jet(1), 1),): Fraction(1, 3)})
    assert p._den == 6
    assert p.terms[((jet(1), 1),)] == Fraction(1, 3)
    q = p + DiffPoly({((jet(1), 1),): Fraction(-1, 3)})
    assert q._den == 2 and q == Fraction(1, 2) * jet_poly(0)
    assert (q * 2)._den == 1


# -- sympy oracle ----------------------------------------------------------------

_E = sympy.Symbol("E")
_t, _x = sympy.symbols("t x")


def _symbol(v):
    kind, idx = v
    if kind == KIND_T:
        return _t
    if kind == KIND_X:
        return _x
    if kind == KIND_JET:
        return sympy.Symbol(f"z{idx}")
    if kind == KIND_PAR:
        return sympy.Symbol(f"h{idx}")
    return _E


def _to_sympy(p: DiffPoly):
    total = sympy.Integer(0)
    for mono, c in p.terms.items():
        term = sympy.Rational(c.numerator, c.denominator)
        for v, e in mono:
            term *= _symbol(v) ** e
        total += term
    return total


def _same(ours: DiffPoly, expected) -> bool:
    return sympy.expand(_to_sympy(ours) - expected) == 0


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_kernel_matches_sympy(data):
    a = data.draw(polys(max_terms=3))
    b = data.draw(polys(max_terms=3))
    fa, fb = _to_sympy(a), _to_sympy(b)
    assert _same(a * b, fa * fb)
    assert _same(a + b * Fraction(-1, 6), fa - fb / 6)
    for v in (T_VAR, jet(1), par(0), EXP_VAR):
        assert _same(a.partial(v), sympy.diff(fa, _symbol(v)))
    targets = data.draw(st.lists(st.sampled_from(_POOL), max_size=2, unique=True))
    rules = {v: data.draw(polys(max_terms=2)) for v in targets}
    image = fa.subs({_symbol(v): _to_sympy(r) for v, r in rules.items()}, simultaneous=True)
    assert _same(a.substitute(rules), image)


# -- read-only terms and exponent fields ---------------------------------------------


def test_terms_are_read_only():
    p = x_poly() * 2
    with pytest.raises(TypeError):
        p.terms[((X_VAR, 1),)] = Fraction(3)
    with pytest.raises(TypeError):
        p.terms[()] = Fraction(1)
    assert p.terms == {((X_VAR, 1),): Fraction(2)}
    assert len(p.terms) == 1


def test_exponent_fields_raise_instead_of_wrapping():
    x = x_poly()
    assert (x**127).degree(X_VAR) == 127
    with pytest.raises(ExponentOverflow):
        x**128
    with pytest.raises(ExponentOverflow):
        (x**64) * (x**64)
    with pytest.raises(ExponentOverflow):
        (x**127).integrate(X_VAR)
    with pytest.raises(ExponentOverflow):
        DiffPoly.variable(jet(2), 128)
    # an exponent past the field would carry into the next variable's field
    for v in (T_VAR, X_VAR, jet(2), par(2)):
        with pytest.raises(ExponentOverflow):
            DiffPoly.variable(v, 256)
    with pytest.raises(ExponentOverflow):
        DiffPoly({((X_VAR, 127), (X_VAR, 127), (X_VAR, 127)): 1})
    assert DiffPoly({((X_VAR, 100), (X_VAR, 27)): 1}) == x**127
    assert issubclass(ExponentOverflow, JetLimitError)


def test_exp_exponents_raise_on_both_sides():
    assert exp_poly(63).terms == {((EXP_VAR, 63),): 1}
    assert exp_poly(-64).terms == {((EXP_VAR, -64),): 1}
    assert exp_poly(32) * exp_poly(31) == exp_poly(63)
    assert exp_poly(-32) * exp_poly(-32) == exp_poly(-64)
    assert exp_poly(-64) * exp_poly(64 - 1) == exp_poly(-1)
    with pytest.raises(ExponentOverflow):
        exp_poly(64)
    with pytest.raises(ExponentOverflow):
        exp_poly(-65)
    for m in (128, 192, 256, -129, -192):
        with pytest.raises(ExponentOverflow):
            exp_poly(m)
    with pytest.raises(ExponentOverflow):
        exp_poly(32) * exp_poly(32)
    with pytest.raises(ExponentOverflow):
        exp_poly(-64) * exp_poly(-1)
    with pytest.raises(ExponentOverflow):
        exp_poly(-64).partial(EXP_VAR)
    with pytest.raises(ExponentOverflow):
        exp_poly(63).integrate(EXP_VAR)


def test_derivations_reach_both_ends_of_the_exp_field():
    # D(E^m) = m E^(m-1) D(E) passes through E^(m-1) but lands inside the field
    z1 = jet_poly(1)
    assert x_derivative(exp_poly(-64)) == -64 * z1 * exp_poly(-64)
    assert x_derivative(exp_poly(63)) == 63 * z1 * exp_poly(63)
    assert HEAT.dt(exp_poly(-64)) == -64 * jet_poly(2) * exp_poly(-64)
    with pytest.raises(ExponentOverflow):
        x_derivative(jet_poly(0) * jet_poly(1) ** 127)  # z_0 -> z_1 makes z_1^128


def test_derive_widens_to_images_with_denominators():
    eq = EvolutionEquation("rational", Fraction(1, 2) * jet_poly(2) + Fraction(1, 3) * jet_poly(1))
    z0, z1 = jet_poly(0), jet_poly(1)
    assert eq.dt(z0) == eq.rhs
    assert eq.dt(z0 * z1) == eq.rhs * z1 + z0 * x_derivative(eq.rhs)
    # h_0 -> h_2 has denominator 1 and comes after z_0 -> rhs, over 6
    h0 = DiffPoly.variable(par(0))
    assert eq.dt(z0 * h0) == eq.rhs * h0 + z0 * DiffPoly.variable(par(2))
    p = z0 * Fraction(1, 5) + z1**2 * exp_poly(-1)
    assert eq.dt(p * z1) == eq.dt(p) * z1 + p * eq.dt(z1)


def test_constructor_rejects_what_it_cannot_pack():
    with pytest.raises(ValueError):
        DiffPoly({((jet(0), -1),): 1})
    with pytest.raises(ValueError):
        DiffPoly({((jet(0), Fraction(1, 2)),): 1})
    with pytest.raises(JetLimitError):
        DiffPoly({(((KIND_JET, 65), 1),): 1})
