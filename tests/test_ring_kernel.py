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

from conftest import term_by_term
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
    _power_step,
    exp_poly,
    jet,
    jet_poly,
    par,
    sum_of_products,
    t_poly,
    unit,
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
    assert p.substitute(rules) == term_by_term(p, rules)


# The variables whose rules the shared-product tests draw.
_SHARED_TARGETS = [jet(0), par(0), jet(1), jet(3)]


@st.composite
def shared_part_polys(draw, targets):
    """q (1 + t + x + t x) for a q over the targets: every target part recurs
    with four rests, and parts that share lower factors recur in q."""
    base = draw(st.lists(st.sampled_from(targets), min_size=1, max_size=2, unique=True))
    terms = {}
    for _ in range(draw(st.integers(1, 5))):
        extra = draw(st.lists(st.sampled_from(targets), max_size=2, unique=True))
        exps = {v: draw(st.integers(1, 2)) for v in base}
        for v in extra:
            exps[v] = exps.get(v, 0) + draw(st.integers(1, 2))
        terms[tuple(sorted(exps.items()))] = draw(_coeffs)
    rests = DiffPoly.const(1) + t_poly() + x_poly() + t_poly() * x_poly()
    return DiffPoly(terms) * rests


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_substitute_shares_products_across_recurring_parts(data):
    targets = data.draw(
        st.lists(st.sampled_from(_SHARED_TARGETS), min_size=1, max_size=4, unique=True)
    )
    p = data.draw(shared_part_polys(targets))
    rules = {v: data.draw(polys(max_terms=3)) for v in targets}
    assert p.substitute(rules) == term_by_term(p, rules)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_substitute_with_an_exp_rule_and_fraction_images(data):
    others = data.draw(st.lists(st.sampled_from(_SHARED_TARGETS), max_size=2, unique=True))
    targets = [EXP_VAR, *others]
    p = data.draw(shared_part_polys(targets))
    rules = {
        v: data.draw(polys(max_terms=2))
        + data.draw(_coeffs) * jet_poly(2)
        + Fraction(1, data.draw(st.sampled_from((2, 5, 7))))
        for v in targets
    }
    assert p.substitute(rules) == term_by_term(p, rules)


@pytest.mark.parametrize("shared", [False, True])
def test_substitute_rejects_a_negative_power_under_an_exp_rule(shared):
    # E^{-1} has no image under a rule for E, also after earlier terms have
    # built the products of E and z_1
    p = exp_poly(-1) * jet_poly(1)
    if shared:
        p = exp_poly(1) * jet_poly(1) + exp_poly(2) + p
    rules = {EXP_VAR: jet_poly(0) + 1, jet(1): jet_poly(2) * Fraction(1, 3)}
    with pytest.raises(ValueError, match="negative powers are not defined in the ring"):
        p.substitute(rules)


# -- one-term images: key shifts beside the Horner variables ------------------------

# The variables whose rules the mixed-image tests draw, E among them.
_MIXED_TARGETS = [T_VAR, jet(0), par(0), jet(1), jet(3), EXP_VAR]


@st.composite
def rule_images(draw, targets):
    """A constant, the zero image, c v^k E^m with v often a target itself
    (w_j -> -v_{j-1}/2 has that shape), or a polynomial of up to three terms."""
    kind = draw(st.sampled_from(("const", "zero", "shift", "shift", "poly")))
    if kind == "const":
        return DiffPoly.const(draw(_coeffs))
    if kind == "zero":
        return DiffPoly.zero()
    if kind == "shift":
        v = draw(st.sampled_from([*targets, X_VAR, jet(2)]))
        power = DiffPoly.variable(v, draw(st.integers(1, 2))) if v != EXP_VAR else exp_poly(1)
        return draw(_coeffs) * power * exp_poly(draw(st.integers(-1, 1)))
    return draw(polys(max_terms=3))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_substitute_mixes_key_shifts_and_horner_variables(data):
    targets = data.draw(
        st.lists(st.sampled_from(_MIXED_TARGETS), min_size=1, max_size=4, unique=True)
    )
    p = data.draw(shared_part_polys(targets)) + data.draw(polys())
    rules = {v: data.draw(rule_images(targets)) for v in targets}
    try:
        expected = term_by_term(p, rules)
    except ValueError:  # E^{-m} under a rule for E
        with pytest.raises(ValueError, match="negative powers are not defined in the ring"):
            p.substitute(rules)
        return
    assert p.substitute(rules) == expected


def test_one_term_images_are_not_substituted_again():
    t, x, z0, z1, z2 = t_poly(), x_poly(), jet_poly(0), jet_poly(1), jet_poly(2)
    half, eighth = Fraction(-1, 2), Fraction(1, 8)
    # w_j -> -v_{j-1}/2: each image's variable has a rule of its own
    p = z1**2 * z2 + 3 * jet_poly(3) * z1 * t + z2**3
    rules = {jet(j): half * jet_poly(j - 1) for j in range(1, 4)}
    expected = -eighth * z0**2 * z1 + Fraction(3, 4) * t * z0 * z2 - eighth * z1**3
    assert p.substitute(rules) == expected
    # beside a rule with several terms for z_0, which z_1's image does not go through
    assert (z0 * z1).substitute({jet(0): x + 1, jet(1): half * z0}) == half * (x + 1) * z0
    # constants and the zero image
    rules = {jet(1): DiffPoly.zero(), jet(0): DiffPoly.const(3)}
    assert (z0**2 * z1 + z1 + t).substitute(rules) == t
    rules = {jet(0): DiffPoly.const(Fraction(2, 3))}
    assert (z0**2 * t + z1).substitute(rules) == Fraction(4, 9) * t + z1
    # a one-term image for E
    rules = {EXP_VAR: 3 * z2 * exp_poly(-1)}
    assert (exp_poly(2) * z1).substitute(rules) == 9 * z2**2 * z1 * exp_poly(-2)


@pytest.mark.parametrize(
    "image", [3 * jet_poly(2), DiffPoly.const(2), DiffPoly.zero(), exp_poly(1)]
)
def test_substitute_rejects_a_negative_power_under_a_one_term_exp_rule(image):
    p = exp_poly(1) * jet_poly(1) + exp_poly(-1) * jet_poly(1)
    with pytest.raises(ValueError, match="negative powers are not defined in the ring"):
        p.substitute({EXP_VAR: image})


@pytest.mark.parametrize(
    "p, rules",
    [
        # z_2^300 would carry into the field of h_2: a key shift, and Horner's rule
        (jet_poly(1) ** 100, {jet(1): jet_poly(2) ** 3}),
        (jet_poly(1) ** 100, {jet(1): jet_poly(2) ** 2 + 1}),
        # two shifts of 100 into one field, each within it
        (jet_poly(0) ** 100 * jet_poly(1) ** 100, {jet(0): jet_poly(2), jet(1): jet_poly(2)}),
        # E^-65 leaves E's field from below
        (t_poly() * exp_poly(-64), {T_VAR: Fraction(1, 2) * exp_poly(-1)}),
        # z_2^200 beside E: the retry holds E and still overflows in z_2
        (exp_poly(1) * jet_poly(1) ** 100, {jet(1): jet_poly(2) ** 2 + 1}),
        # E^-200 and E^200, once held, would wrap into E's field on the way back
        (
            exp_poly(-60) * jet_poly(0) * jet_poly(1) ** 2 * jet_poly(2),
            {jet(1): exp_poly(-40) * x_poly(), jet(2): exp_poly(-60) * t_poly()},
        ),
        (
            exp_poly(60) * jet_poly(0) * jet_poly(1) ** 2 * jet_poly(2),
            {jet(1): exp_poly(40) * x_poly(), jet(2): exp_poly(60) * t_poly()},
        ),
    ],
    ids=["shift", "horner", "two-shifts", "exp", "horner-beside-exp", "held-below", "held-above"],
)
def test_substitute_raises_instead_of_wrapping(p, rules):
    with pytest.raises(ExponentOverflow):
        p.substitute(rules)


@st.composite
def one_term_images(draw):
    """c n / d with up to three non-E fields in [1, 127] and an E digit of
    either sign, from small to the edge of its field."""
    chosen = draw(st.lists(st.sampled_from(_POOL), max_size=3, unique=True))
    small = st.integers(1, 3)
    mono = [(v, draw(st.one_of(small, st.integers(1, 127)))) for v in chosen]
    m = draw(st.one_of(st.integers(-3, 3), st.integers(-64, 63)))
    if m:
        mono.append((EXP_VAR, m))
    return DiffPoly({tuple(sorted(mono)): draw(_coeffs)})


def _power_or_overflow(step, *args):
    try:
        return step(*args)
    except ExponentOverflow:
        return ExponentOverflow


@settings(max_examples=300, deadline=None)
@given(one_term_images(), st.one_of(st.integers(1, 4), st.integers(1, 130)))
def test_power_step_is_the_power_of_a_one_term_image(image, e):
    # the key shift, numerator and denominator of image ** e, or the same raise
    power = _power_or_overflow(image.__pow__, e)
    step = _power_or_overflow(_power_step, image, e)
    if power is ExponentOverflow:
        assert step is ExponentOverflow
    else:
        ((shift, num),) = power._nums.items()
        assert step == (shift, num, power._den)


@pytest.mark.parametrize(
    "image, e",
    [
        (jet_poly(0) ** 64, 4),  # 256 would carry one into the next field unseen
        (jet_poly(0) ** 100, 3),  # 300 = 256 + 44
        (exp_poly(-1), 65),
        (exp_poly(-32) * jet_poly(1), 4),  # -128 would borrow unseen
        (exp_poly(32), 2),
    ],
)
def test_power_step_raises_where_a_field_would_wrap(image, e):
    with pytest.raises(ExponentOverflow):
        image**e
    with pytest.raises(ExponentOverflow):
        _power_step(image, e)


def test_power_step_edges():
    assert _power_step(exp_poly(-1), 64) == (-64 * unit(EXP_VAR), 1, 1)
    assert _power_step(DiffPoly.zero(), 5) == (0, 0, 1)
    assert _power_step(Fraction(-2, 3) * jet_poly(1), 3) == (unit(jet(1)) * 3, -8, 27)
    assert _power_step(jet_poly(1) + 1, 2) == (None, 1, 1)
    assert _power_step(jet_poly(1) + Fraction(1, 2), 3) == (None, 1, 8)


def test_substitute_holds_a_terms_own_exp_power_until_the_end():
    # E^60 (E^5 + z1) leaves E's field, but the whole product fits
    z0, z1, E = jet_poly(0), jet_poly(1), exp_poly
    images = {jet(0): E(5) + z1, jet(1): E(-5) + E(-6) * t_poly()}
    p = E(60) * z0 * z1
    assert p.substitute(images) == (E(60) * images[jet(1)]) * images[jet(0)]
    # the same through a one-term image, and with a power held below zero
    assert p.substitute({**images, jet(0): 2 * E(5)}) == 2 * E(60) * images[jet(1)] * E(5)
    assert (E(-60) * z0).substitute({jet(0): E(-3) + z1}) == E(-63) + E(-60) * z1
    # the images' own powers are held too: E^40 E^40 leaves the field, E^-60 brings it back
    x = x_poly()
    assert (E(-60) * z0 * z1).substitute({jet(0): E(40), jet(1): E(40) + x}) == E(20) + x * E(-20)
    square = E(20) + 2 * x * E(-20) + x**2 * E(-60)
    assert (E(-60) * z0**2).substitute({jet(0): E(40) + x}) == square


def test_substitute_holds_no_exp_power_while_the_products_fit(monkeypatch):
    # nothing is held before an overflow, so an E-bearing body reaches
    # Horner's rule with keys below every held exponent
    from jetsym import diffring

    keys = []
    real = diffring._horner

    def spy(parts, images):
        keys.extend(abs(key) for _, table in parts for key in table)
        return real(parts, images)

    monkeypatch.setattr(diffring, "_horner", spy)
    z0, z1, z2, E = jet_poly(0), jet_poly(1), jet_poly(2), exp_poly
    images = {jet(0): x_poly() + t_poly(), jet(1): z2 + 1}
    p = E(3) * z0 * z1 + z2
    assert p.substitute(images) == E(3) * images[jet(0)] * images[jet(1)] + z2
    assert keys and max(keys) < 1 << diffring._HELD_SHIFT


@pytest.mark.parametrize(
    "p, rules",
    [
        # the result's leading power is E^64
        (
            exp_poly(60) * jet_poly(0) * jet_poly(1),
            {jet(0): exp_poly(5) + jet_poly(1), jet(1): exp_poly(-1) + t_poly()},
        ),
        (exp_poly(60) * jet_poly(0), {jet(0): 3 * exp_poly(4)}),
        # E^-65
        (exp_poly(-60) * jet_poly(0), {jet(0): exp_poly(-5) + jet_poly(1)}),
    ],
    ids=["horner", "shift", "below"],
)
def test_substitute_raises_when_a_held_exp_power_leaves_the_field(p, rules):
    with pytest.raises(ExponentOverflow):
        p.substitute(rules)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_substitute_with_large_exp_powers_matches_term_by_term(data):
    # terms whose own E powers lie near the edge of the field, images with
    # small E powers of both signs
    pool = st.sampled_from([jet(0), jet(1), par(0)])
    targets = data.draw(st.lists(pool, min_size=1, unique=True))
    p = DiffPoly.zero()
    for _ in range(data.draw(st.integers(1, 3))):
        power = data.draw(st.sampled_from((-61, -40, 40, 61)))
        p = p + data.draw(polys(max_terms=2)) * exp_poly(power)
    rules = {v: data.draw(polys(max_terms=3)) for v in targets}
    try:
        expected = term_by_term(p, rules)
    except ExponentOverflow:
        return
    assert p.substitute(rules) == expected


def test_substitute_rejects_rules_for_what_is_not_a_ring_variable():
    for p in (jet_poly(1) * x_poly() + 1, DiffPoly.zero()):
        with pytest.raises(JetLimitError, match="exceeds the cap"):
            p.substitute({(KIND_JET, 65): jet_poly(0)})
        with pytest.raises(ValueError, match="not a ring variable"):
            p.substitute({"z1": jet_poly(0)})


@settings(max_examples=40, deadline=None)
@given(polys(max_terms=3), st.integers(0, 6))
def test_power_is_a_repeated_product(p, n):
    expected = DiffPoly.const(1)
    for _ in range(n):
        expected = expected * p
    assert p**n == expected


def test_negative_power_raises():
    with pytest.raises(ValueError, match="negative powers"):
        jet_poly(0) ** -1
    assert jet_poly(0) ** 0 == DiffPoly.const(1)
    assert DiffPoly.zero() ** 0 == DiffPoly.const(1)


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
    # each (variable, exponent) as the one factor of a monomial: _encode's
    # exponent checks, unit's variable checks and the packed fields' ranges
    for v, e, error, message in [
        (jet(0), -1, ValueError, r"negative exponent -1 on \(2, 0\)"),
        (jet(0), Fraction(1, 2), ValueError, "must be an int"),
        (jet(0), 1.5, ValueError, r"exponent of \(2, 0\) must be an int, got 1.5"),
        ((KIND_JET, 65), 1, JetLimitError, "exceeds the cap"),
        ((KIND_PAR, 65), 1, JetLimitError, "exceeds the cap"),
        ((KIND_JET, -1), 1, ValueError, "not a ring variable"),
        ((KIND_T, 1), 1, ValueError, "not a ring variable"),
        (jet(0), 200, ExponentOverflow, "exponent 200"),
        (X_VAR, 256, ExponentOverflow, "exponent 256"),
        (EXP_VAR, 192, ExponentOverflow, "exponent 192"),
        (EXP_VAR, -65, ExponentOverflow, "exponent -65"),
    ]:
        with pytest.raises(error, match=message):
            DiffPoly({((v, e),): 1})


_weights = st.one_of(
    st.integers(-3, 3),
    st.builds(Fraction, st.integers(-6, 6), st.sampled_from((1, 2, 3, 6))),
)


@st.composite
def product_terms(draw):
    """Up to four (a, b, w): ring polynomials, some shifted near either end
    of E's field so that their products may leave it, and int or Fraction
    weights, zero among them."""
    def factor():
        return draw(polys(max_terms=3)) * exp_poly(draw(st.sampled_from((-61, -31, 0, 0, 31, 61))))

    return [(factor(), factor(), draw(_weights)) for _ in range(draw(st.integers(0, 4)))]


@settings(max_examples=150, deadline=None)
@given(product_terms())
def test_sum_of_products_is_the_chained_sum(terms):
    expected, overflows = DiffPoly.zero(), False
    for a, b, w in terms:
        try:
            expected = expected + w * a * b
        except ExponentOverflow:
            overflows = True
        # a zero weight hides an overflowing a * b from the chained sum
        if not w and a and b:
            try:
                a * b
            except ExponentOverflow:
                overflows = True
    if overflows:
        with pytest.raises(ExponentOverflow):
            sum_of_products(terms)
    else:
        assert sum_of_products(terms) == expected


def test_sum_of_products_edge_cases():
    z1, h2 = jet_poly(1), DiffPoly.variable(par(2))
    assert sum_of_products([]) == DiffPoly.zero() and sum_of_products([])._den == 1
    # a sum that cancels is zero over denominator 1
    half = Fraction(1, 2)
    cancelled = sum_of_products([(z1, h2, half), (h2 * half, z1, -1)])
    assert cancelled == DiffPoly.zero() and cancelled._den == 1
    # a cancelled key is still checked: E^64 leaves the field even at weight 0
    with pytest.raises(ExponentOverflow):
        sum_of_products([(exp_poly(32), exp_poly(32), 0)])
    with pytest.raises(ExponentOverflow):
        sum_of_products([(exp_poly(40), exp_poly(30), 1), (exp_poly(40), exp_poly(30), -1)])
    product = sum_of_products([(exp_poly(40) + z1, exp_poly(-50), Fraction(2, 3))])
    assert product == Fraction(2, 3) * (exp_poly(-10) + z1 * exp_poly(-50))
