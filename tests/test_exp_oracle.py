"""The E = e^w rules of the derivations, checked outside the code under test.

Property tests draw polynomials carrying E^m, m in [-2, 2], and check the
Leibniz rule and the commutation of D_t with D_x.  A sympy oracle
differentiates p(w, w_x, ...) exp(m w) as a function of (t, x) and
replaces w_t by the right-hand side of the equation; it also takes the
Frechet derivative as d/d eps F[w + eps eta] at eps = 0 and checks the
pullback of u_k through u = e^w.
"""

from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import KDV
from jetsym.diffring import (
    EXP_VAR,
    KIND_JET,
    KIND_PAR,
    KIND_T,
    KIND_X,
    DiffPoly,
    T_VAR,
    X_VAR,
    derive,
    exp_poly,
    jet,
    jet_poly,
    par,
    par_poly,
)
from jetsym.colemap import heat_to_potential
from jetsym.jetflow import (
    _DX_IMAGES,
    _DZ0_IMAGES,
    BURGERS,
    HEAT,
    POTBURGERS,
    Characteristic,
    _dx_image,
    _dz0_image,
    x_derivative,
)

_coeffs = st.builds(Fraction, st.integers(-4, 4).filter(bool), st.integers(1, 3))


@st.composite
def exp_polys(draw, with_par=True, max_jet=3, max_terms=4, max_exp=2):
    """Small polynomials whose terms carry E^m for m in [-max_exp, max_exp]."""
    pool = [T_VAR, X_VAR] + [jet(k) for k in range(max_jet + 1)]
    if with_par:
        pool += [par(0), par(1)]
    terms = {}
    for _ in range(draw(st.integers(1, max_terms))):
        chosen = draw(st.lists(st.sampled_from(pool), max_size=3, unique=True))
        mono = [(v, draw(st.integers(1, 2))) for v in chosen]
        m = draw(st.integers(-max_exp, max_exp))
        if m:
            mono.append((EXP_VAR, m))
        terms[tuple(sorted(mono))] = draw(_coeffs)
    return DiffPoly(terms)


_DERIVATIONS = [
    ("D_x", x_derivative, True),
    ("heat D_t", HEAT.dt, True),
    ("potburgers D_t", POTBURGERS.dt, True),
    ("burgers D_t", BURGERS.dt, False),
]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_leibniz_rule_with_exp(data):
    for name, d, with_par in _DERIVATIONS:
        p = data.draw(exp_polys(with_par=with_par))
        q = data.draw(exp_polys(with_par=with_par))
        assert d(p * q) == d(p) * q + p * d(q), name


@settings(max_examples=60, deadline=None)
@given(exp_polys())
def test_potburgers_dt_commutes_with_dx(p):
    assert POTBURGERS.dt(POTBURGERS.dx(p)) == POTBURGERS.dx(POTBURGERS.dt(p))


@settings(max_examples=60, deadline=None)
@given(exp_polys())
def test_kept_dx_equals_the_derivation(p):
    # x_derivative keeps its result on p; derive keeps nothing
    fresh = derive(p, _DX_IMAGES, _dx_image)
    assert x_derivative(p) == fresh
    assert x_derivative(p) == fresh
    assert x_derivative(x_derivative(p)) == derive(fresh, _DX_IMAGES, _dx_image)


# -- a tuple-level Leibniz reference ---------------------------------------------


def _leibniz(p: DiffPoly, image) -> DiffPoly:
    """sum over the terms c m of p and the factors v^e of m of
    e c (m / v) image(v), formed on tuple monomials by ring products."""
    total = DiffPoly.zero()
    for mono, c in p.terms.items():
        for i, (v, e) in enumerate(mono):
            rest = mono[:i] + ((v, e - 1),) * (e != 1) + mono[i + 1 :]
            total = total + DiffPoly({rest: c * e}) * image(v)
    return total


def _dx_reference(p: DiffPoly) -> DiffPoly:
    def image(v):
        kind, idx = v
        if kind == KIND_T:
            return DiffPoly.zero()
        if kind == KIND_X:
            return DiffPoly.const(1)
        if kind == KIND_JET:
            return jet_poly(idx + 1)
        if kind == KIND_PAR:
            return par_poly(idx + 1)
        return jet_poly(1) * exp_poly(1)

    return _leibniz(p, image)


def _dt_reference(eq, p: DiffPoly) -> DiffPoly:
    def image(v):
        kind, idx = v
        if kind == KIND_T:
            return DiffPoly.const(1)
        if kind == KIND_X:
            return DiffPoly.zero()
        if kind == KIND_JET:
            flow = eq.rhs
            for _ in range(idx):
                flow = _dx_reference(flow)
            return flow
        if kind == KIND_PAR:
            return par_poly(idx + 2)
        return eq.rhs * exp_poly(1)

    return _leibniz(p, image)


def _dz0_reference(p: DiffPoly) -> DiffPoly:
    def image(v):
        if v == jet(0):
            return DiffPoly.const(1)
        return exp_poly(1) if v == EXP_VAR else DiffPoly.zero()

    return _leibniz(p, image)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_every_images_table_matches_the_leibniz_reference(data):
    # derive reads a monomial image as a key offset and the others term by
    # term; both against ring products on tuple monomials, with E^{+-m}
    # out to m = 6 and the h_j where the ring has them
    p = data.draw(exp_polys(max_terms=5, max_exp=6))
    assert derive(p, _DX_IMAGES, _dx_image) == _dx_reference(p)
    assert derive(p, _DZ0_IMAGES, _dz0_image) == _dz0_reference(p)
    for eq in (HEAT, POTBURGERS, BURGERS, KDV):
        q = p if eq.allows_par else data.draw(exp_polys(with_par=False, max_exp=6))
        assert eq.dt(q) == _dt_reference(eq, q), eq.name


# -- sympy oracle ----------------------------------------------------------------

_t, _x = sympy.symbols("t x")
_w = sympy.Function("w")(_t, _x)
_h = sympy.Function("h")(_t, _x)


def _to_sympy(p: DiffPoly):
    total = sympy.Integer(0)
    for mono, c in p.terms.items():
        term = sympy.Rational(c.numerator, c.denominator)
        for (kind, idx), e in mono:
            if kind == KIND_T:
                factor = _t
            elif kind == KIND_X:
                factor = _x
            elif kind == KIND_JET:
                factor = _w.diff(_x, idx) if idx else _w
            elif kind == KIND_PAR:
                factor = _h.diff(_x, idx) if idx else _h
            else:
                factor = sympy.exp(_w)
            term *= factor**e
        total += term
    return total


def _on_shell(expr, eq, max_k=3):
    """Replace w_t x^k by D_x^k rhs and h_t x^j by h_x^(j+2)."""
    rhs = _to_sympy(eq.rhs)
    rules = {}
    for k in range(max_k + 1):
        rules[_w.diff(_t).diff(_x, k) if k else _w.diff(_t)] = rhs.diff(_x, k) if k else rhs
        rules[_h.diff(_t).diff(_x, k) if k else _h.diff(_t)] = _h.diff(_x, k + 2)
    return expr.xreplace(rules)


def _same(ours: DiffPoly, expected) -> bool:
    return sympy.expand(_to_sympy(ours) - expected) == 0


@settings(max_examples=15, deadline=None)
@given(st.data())
def test_derivations_match_sympy(data):
    for eq, with_par in ((HEAT, True), (POTBURGERS, True), (BURGERS, False)):
        p = data.draw(exp_polys(with_par=with_par, max_jet=2, max_terms=3))
        f = _to_sympy(p)
        assert _same(eq.dx(p), f.diff(_x)), (eq.name, str(p))
        assert _same(eq.dt(p), _on_shell(f.diff(_t), eq)), (eq.name, str(p))


def test_sympy_oracle_example():
    # D_t (h e^{-w}) = (h_xx - (w_xx + w_x^2) h) e^{-w} on potential Burgers
    p = DiffPoly({((par(0), 1), (EXP_VAR, -1)): 1})
    f = _to_sympy(p)
    expected = (_h.diff(_x, 2) - (_w.diff(_x, 2) + _w.diff(_x) ** 2) * _h) * sympy.exp(-_w)
    assert sympy.expand(_on_shell(f.diff(_t), POTBURGERS) - expected) == 0
    assert _same(POTBURGERS.dt(p), expected)


_eps = sympy.Symbol("eps")


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_frechet_matches_sympy(data):
    # F'[eta] = d/d eps F[w + eps eta] at eps = 0; h and e^w ride along
    for eq, plain in ((HEAT, False), (POTBURGERS, False), (BURGERS, True)):
        drawn = exp_polys(
            with_par=not plain, max_jet=2, max_terms=3, max_exp=0 if plain else 2
        )
        F, eta = data.draw(drawn), data.draw(drawn)
        varied = _to_sympy(F).subs(_w, _w + _eps * _to_sympy(eta)).doit()
        expected = varied.diff(_eps).subs(_eps, 0)
        assert _same(eq.frechet(F, eta), expected), (eq.name, str(F), str(eta))


def test_frechet_chain_rule_for_exp():
    w1, w2, w3 = jet_poly(1), jet_poly(2), jet_poly(3)
    E = exp_poly(1)
    assert POTBURGERS.frechet(w1 * E, w2) == (w1 * w2 + w3) * E
    assert POTBURGERS.frechet(exp_poly(-1), w1) == -w1 * exp_poly(-1)


def test_frechet_rejects_parameters_in_burgers_ring():
    with pytest.raises(ValueError):
        BURGERS.frechet(par_poly(0) * jet_poly(1), jet_poly(1))


def test_frechet_rejects_parameters_in_the_burgers_direction():
    # the refusal does not depend on whether F needs a D_x of eta
    for F in (jet_poly(0), jet_poly(1)):
        with pytest.raises(ValueError, match="parameter symbols"):
            BURGERS.frechet(F, par_poly(0))


def test_heat_to_potential_matches_sympy():
    # u_k pulls back to e^{-w} d^k/dx^k e^w through u = e^w
    for k in range(7):
        body = heat_to_potential(Characteristic(HEAT, jet_poly(k))).body
        assert _same(body, sympy.exp(-_w) * sympy.exp(_w).diff(_x, k)), k
