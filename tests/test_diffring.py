"""Exact ring arithmetic, derivatives, substitution, and degrees."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_random_poly, term_by_term
from jetsym.diffring import (
    EXP_VAR,
    DiffPoly,
    ExponentOverflow,
    JetLimitError,
    NEG_INF,
    T_VAR,
    X_VAR,
    exp_poly,
    jet,
    jet_poly,
    par,
    par_poly,
    t_poly,
    x_poly,
)
from jetsym.jetflow import HEAT, x_derivative

t, x = t_poly(), x_poly()
z0, z1, z2 = jet_poly(0), jet_poly(1), jet_poly(2)


def test_additive_inverse():
    assert (z1 + (-z1)).is_zero()
    assert z1 - z1 == 0


def test_product_rule_base_case():
    p = z0 * z1
    assert p.partial(jet(1)) == z0
    assert p.partial(jet(0)) == z1


def test_scalar_product_commutes():
    assert (z0 * z0) * Fraction(1, 2) == Fraction(1, 2) * z0 * z0


def test_partial_examples():
    assert (t * z1 * z1).partial(jet(1)) == 2 * t * z1
    assert (x * x).partial(X_VAR) == 2 * x
    assert z0.partial(T_VAR) == 0


def test_substitute_pushforward_step():
    # w_x^2 with w_x replaced by -v/2 becomes v^2/4
    w1sq = z1 * z1
    image = w1sq.substitute({jet(1): Fraction(-1, 2) * z0})
    assert image == Fraction(1, 4) * z0 * z0


@pytest.mark.xfail(raises=ExponentOverflow, strict=True)
def test_substitute_images_whose_products_leave_the_e_field():
    # Horner's rule forms E^80 from the two images before the term's own
    # E^-60 is added back; the result itself lies inside E's field
    E = exp_poly
    image = (E(-60) * z0 * z1).substitute({jet(0): E(40) + t, jet(1): E(40) + x})
    assert image == t * x * E(-60) + (x + t) * E(-20) + E(20)


def test_substitute_identity_and_zero():
    p = z2 - z0 * z1 + t * x
    assert p.substitute({}) == p
    assert (z2 - z0 * z1).substitute({jet(0): DiffPoly.zero()}) == z2


_POOL = [T_VAR, X_VAR, jet(0), jet(1), jet(2), par(0)]
_coeffs = st.builds(Fraction, st.integers(-4, 4).filter(bool), st.integers(1, 3))


@st.composite
def _polys(draw, max_terms=5):
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        chosen = draw(st.lists(st.sampled_from(_POOL), max_size=3, unique=True))
        mono = [(v, draw(st.integers(1, 3))) for v in chosen]
        m = draw(st.integers(-2, 2))
        if m:
            mono.append((EXP_VAR, m))
        terms[tuple(sorted(mono))] = draw(_coeffs)
    return DiffPoly(terms)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_substitute_is_the_sum_of_substituted_terms(data):
    p = data.draw(_polys())
    targets = data.draw(st.lists(st.sampled_from(_POOL), max_size=3, unique=True))
    rules = {v: data.draw(_polys(max_terms=3)) for v in targets}
    for mono, coeff in p.terms.items():
        term = DiffPoly({mono: coeff})
        assert term.substitute(rules) == term_by_term(term, rules)
    assert p.substitute(rules) == term_by_term(p, rules)


def test_order():
    zeta1 = Fraction(-1, 2) * z1 + Fraction(1, 4) * z0 * z0
    assert zeta1.order() == 1
    assert (t * x).order() == NEG_INF
    assert DiffPoly.zero().order() == NEG_INF


def test_degree_in_t():
    p = t * t * z2 + t * x * z1
    assert p.degree(T_VAR) == 2
    assert p.degree(X_VAR) == 1
    assert p.degree(jet(3)) == 0


def test_canonical_zero_terms_dropped():
    p = DiffPoly({((jet(0), 1),): Fraction(0), ((jet(1), 1),): Fraction(2)})
    assert len(p.terms) == 1


def test_ring_axioms_on_random_triples(rng):
    for _ in range(25):
        a = make_random_poly(rng)
        b = make_random_poly(rng)
        c = make_random_poly(rng)
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c


def test_self_subtraction_cancels(rng):
    for _ in range(20):
        p = make_random_poly(rng, with_par=True)
        assert (p - p).is_zero()


def test_partials_commute(rng):
    variables = [T_VAR, X_VAR, jet(0), jet(2), (3, 1)]
    for _ in range(15):
        p = make_random_poly(rng, with_par=True)
        for a in variables:
            for b in variables:
                assert p.partial(a).partial(b) == p.partial(b).partial(a)


def test_pow():
    p = z0 + 1
    assert p**0 == 1
    assert p**3 == p * p * p


def test_integrate_inverts_partial():
    p = t * t * z1
    assert p.integrate(jet(1)).partial(jet(1)) == p


def test_jet_index_cap():
    with pytest.raises(JetLimitError):
        jet(3000)


def test_derivations_stop_at_the_index_cap():
    with pytest.raises(JetLimitError):
        x_derivative(jet_poly(64))
    with pytest.raises(JetLimitError):
        HEAT.dt(par_poly(63))


def test_par_variables_are_distinct_from_jets():
    assert par_poly(0) != jet_poly(0)
    assert (par_poly(0) * jet_poly(0)).degree(jet(0)) == 1


def test_str_is_deterministic():
    p = z2 - z0 * z1 + Fraction(1, 2) * t
    assert str(p) == str(z2 - z0 * z1 + Fraction(1, 2) * t)
    assert str(DiffPoly.zero()) == "0"
