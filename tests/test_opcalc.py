"""Operator application, the Euler certificate, formal integration, probes."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import jetsym.opcalc as opcalc
import jetsym.opcalc as opcalc
from conftest import (
    KDV,
    dx_preimage_reference,
    kdv_hierarchy,
    make_random_poly,
    random_poly_stream,
)
from jetsym.diffring import (
    KIND_T,
    T_VAR,
    X_VAR,
    DiffPoly,
    derive,
    exp_poly,
    jet,
    jet_poly,
    t_poly,
    x_poly,
)
from jetsym.jetflow import (
    _DX_IMAGES,
    BURGERS,
    HEAT,
    POTBURGERS,
    EvolutionEquation,
    _dx_image,
    invariance_residual,
)
from jetsym.opcalc import (
    Compose,
    Dt,
    Dx,
    DxInv,
    MulBy,
    NotATotalDerivative,
    Scale,
    Sum,
    apply,
    boost_op,
    commutator_op,
    dx_preimage,
    euler_residual,
    normalize_op,
    op_power,
    op_scale,
    operator_identity_probe,
    potential_defect_op,
    recursion_ops,
    translation_op,
    x_antiderivative,
)

SRC = Path(__file__).resolve().parent.parent / "src"

t, x = t_poly(), x_poly()
half = Fraction(1, 2)


def z(k):
    return jet_poly(k)


def test_apply_boost_once():
    assert apply(boost_op(HEAT), HEAT, z(0)) == t * z(1) + half * x * z(0)


def test_apply_translation_squared_on_one():
    # (D_x - v/2)^2 1 = -v_x/2 + v^2/4
    op = op_power(translation_op(BURGERS), 2)
    assert apply(op, BURGERS, DiffPoly.const(1)) == -half * z(1) + Fraction(1, 4) * z(0) ** 2


def test_apply_boost_squared_matches_one_step_oracle():
    # oracle: a single boost step written out by hand
    def step(p):
        return t * HEAT.dx(p) + half * x * p

    expected = step(step(z(0)))
    got = apply(op_power(boost_op(HEAT), 2), HEAT, z(0))
    assert got == expected
    literal = (
        t * t * z(2)
        + t * x * z(1)
        + (Fraction(1, 4) * x * x + half * t) * z(0)
    )
    assert got == literal


def test_identity_and_scale_and_sum():
    p = z(0) * z(1) + t
    assert apply(Compose(()), BURGERS, p) == p
    assert apply(op_scale(Fraction(2, 3)), BURGERS, p) == Fraction(2, 3) * p
    assert apply(Sum((Dx(), Scale(Fraction(-1)))), BURGERS, p) == BURGERS.dx(p) - p


def test_euler_residual_examples():
    assert euler_residual(z(0) * z(1)) == 0          # v v_x = D_x(v^2/2)
    assert euler_residual(z(1) * z(1)) == -2 * z(2)  # -D_x d/dv_x (v_x^2)
    assert euler_residual(z(0)) == 1


def test_certificate():
    # the Euler residual certifies a total derivative by vanishing
    assert euler_residual(z(0) * z(1)).is_zero()
    residual = euler_residual(z(0))
    assert not residual.is_zero() and residual == 1


def test_preimage_examples():
    assert dx_preimage(BURGERS, z(1) + z(0) * z(1)) == z(0) + half * z(0) ** 2
    g = dx_preimage(BURGERS, -half * z(1))
    assert g == -half * z(0)
    r1, _ = recursion_ops()
    assert apply(r1, BURGERS, -half * z(1)) == -half * z(2) + half * z(0) * z(1)


def test_preimage_rejects_non_derivatives():
    with pytest.raises(NotATotalDerivative) as exc:
        dx_preimage(BURGERS, z(0))
    assert exc.value.euler_residual == 1
    with pytest.raises(NotATotalDerivative):
        dx_preimage(BURGERS, z(1) * z(1))


def test_preimage_round_trip_on_random_derivatives(rng):
    for _ in range(20):
        g = make_random_poly(rng)
        p = BURGERS.dx(g)
        back = dx_preimage(BURGERS, p)
        assert BURGERS.dx(back) == p


def test_certificate_soundness_on_mixed_suite(rng):
    # total derivatives succeed; polynomials with nonzero Euler residual raise
    for _ in range(25):
        g = make_random_poly(rng)
        candidate = BURGERS.dx(g) if rng.random() < 0.5 else make_random_poly(rng)
        res = euler_residual(candidate)
        if res == 0:
            back = dx_preimage(BURGERS, candidate)
            assert BURGERS.dx(back) == candidate
        else:
            with pytest.raises(NotATotalDerivative):
                dx_preimage(BURGERS, candidate)


def test_family_bodies_are_total_derivatives():
    # recursion operators are well-defined on every nonzero family member
    from jetsym.symfam import Family, q_char

    for k in range(5):
        for l in range(5):
            if not 1 <= k + l <= 4:
                continue
            body = q_char(Family.BURGERS_Q, k, l).body
            assert euler_residual(body) == 0
            assert BURGERS.dx(dx_preimage(BURGERS, body)) == body


def test_preimage_keeps_no_kernel_constants(rng):
    for _ in range(10):
        g = make_random_poly(rng)
        back = dx_preimage(BURGERS, BURGERS.dx(g))
        assert back.constant_term() == 0


def _branch_from_full_defect(eq, g):
    """The canonical preimage of D_x g: the branch fixed from the potential
    defect D_t g - sum_{k>=1} (dL/dz_k) D_x^k g of all of g."""
    g = g - g.constant_term()
    defect = eq.dt(g)
    dk_g = g
    for k in range(1, int(eq.rhs.order()) + 1):
        dk_g = derive(dk_g, _DX_IMAGES, _dx_image)
        defect = defect - eq.rhs.partial(jet(k)) * dk_g
    return g - defect.restrict_to_kinds((KIND_T,)).integrate(T_VAR)


@pytest.mark.parametrize("eq", [HEAT, POTBURGERS, BURGERS, KDV], ids=lambda eq: eq.name)
def test_preimage_branch_matches_the_full_defect(eq):
    for g in random_poly_stream(20240612, 25):
        assert dx_preimage(eq, eq.dx(g)) == _branch_from_full_defect(eq, g), str(g)


def test_preimage_branch_when_the_equation_has_a_jet_free_term():
    # D_t z_0 = z_2 + 1: the jet part of g reaches the t-only part of the defect
    forced = EvolutionEquation("forced", z(2) + 1)
    assert dx_preimage(forced, z(1)) == z(0) - t
    for g in random_poly_stream(20240613, 25):
        assert dx_preimage(forced, forced.dx(g)) == _branch_from_full_defect(forced, g), str(g)


_JET_POOL = [T_VAR, X_VAR, jet(0), jet(1), jet(2), jet(3)]
_PREIMAGE_EQUATIONS = st.sampled_from([HEAT, POTBURGERS, BURGERS, KDV])


@st.composite
def _jet_polys(draw, max_terms=5, pool=_JET_POOL):
    # t and x powers up to 3, jets squared at most, so that both the
    # linear top jets of a derivative and the squared ones that refuse occur
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        chosen = draw(st.lists(st.sampled_from(pool), unique=True, max_size=4))
        mono = [(v, draw(st.integers(1, 3 if v in (T_VAR, X_VAR) else 2))) for v in chosen]
        num = draw(st.integers(-9, 9).filter(bool))
        terms[tuple(sorted(mono))] = Fraction(num, draw(st.integers(1, 6)))
    return DiffPoly(terms)


def _preimage_outcome(preimage, eq, p):
    """The preimage, or the Euler residual that its refusal carries."""
    try:
        return preimage(eq, p)
    except NotATotalDerivative as exc:
        return ("refused", exc.euler_residual)


@settings(max_examples=150, deadline=None)
@given(_PREIMAGE_EQUATIONS, _jet_polys())
def test_preimage_of_a_derivative_matches_the_peel_oracle(eq, q):
    p = eq.dx(q)
    g = dx_preimage(eq, p)
    assert g == dx_preimage_reference(eq, p)
    assert g._dx is p


@settings(max_examples=150, deadline=None)
@given(_PREIMAGE_EQUATIONS, _jet_polys(), _jet_polys(max_terms=3))
def test_preimage_off_the_derivatives_matches_the_peel_oracle(eq, q, r):
    p = eq.dx(q) + r
    outcome = _preimage_outcome(dx_preimage, eq, p)
    assert outcome == _preimage_outcome(dx_preimage_reference, eq, p)
    if isinstance(outcome, tuple):
        assert outcome[1] == euler_residual(p) != 0
    else:
        assert eq.dx(outcome) == p


def test_a_squared_top_jet_is_refused_before_any_derivative(monkeypatch):
    # the refusal is the early exit: the z_0 check would refuse the same
    # input, but only after a D_x per jet order
    calls = []
    monkeypatch.setattr(opcalc, "x_derivative", calls.append)
    assert x_antiderivative(z(3) ** 2 + z(2) * z(1)) is None
    assert calls == []


def test_kdv_lenard_hierarchy():
    # K_{j+2} = R K_j with the Lenard operator R (conftest.LENARD)
    k1, k3, k5, k7 = kdv_hierarchy(7)
    assert k1 == z(1)
    assert k3 == KDV.rhs
    assert (k5.order(), k7.order()) == (5, 7)
    for k in (k1, k3, k5, k7):
        assert invariance_residual(KDV, k) == 0
        assert KDV.dx(dx_preimage(KDV, k)) == k


def test_flow_operator_commutes_with_local_recursion_ops():
    flow = potential_defect_op(BURGERS)
    probes = [
        apply(
            Compose((boost_op(BURGERS),) * k + (translation_op(BURGERS),) * l),
            BURGERS,
            DiffPoly.const(1),
        )
        for k in range(4)
        for l in range(4)
        if k + l <= 4
    ] + random_poly_stream(31337, 8)
    zero = op_scale(0)
    for op in (translation_op(BURGERS), boost_op(BURGERS)):
        report = operator_identity_probe(commutator_op(flow, op), zero, BURGERS, probes)
        assert report.all_equal


def test_translation_boost_commutator_is_half():
    # [P, G] = 1/2 holds locally for all three equations
    for eq in (HEAT, POTBURGERS, BURGERS):
        probes = random_poly_stream(777, 20, with_par=eq.allows_par)
        report = operator_identity_probe(
            commutator_op(translation_op(eq), boost_op(eq)),
            op_scale(half),
            eq,
            probes,
        )
        assert report.all_equal, eq.name


def test_recursion_commutator_probe():
    from jetsym.symfam import Family, q_char

    r1, r2 = recursion_ops()
    probes = [
        q_char(Family.BURGERS_Q, k, l).body
        for k in range(5)
        for l in range(5)
        if 1 <= k + l <= 4
    ]
    report = operator_identity_probe(commutator_op(r1, r2), op_scale(half), BURGERS, probes)
    assert report.all_equal
    assert len(report) == len(probes)


def test_flow_operator_intertwines_with_dx():
    # (D_t + v D_x + v_x - D_x^2) D_x = D_x (D_t + v D_x - D_x^2)
    v1 = z(1)
    flow = potential_defect_op(BURGERS)
    linearized = Sum((flow, MulBy(v1)))
    lhs = Compose((linearized, Dx()))
    rhs = Compose((Dx(), flow))
    probes = random_poly_stream(90210, 20)
    assert operator_identity_probe(lhs, rhs, BURGERS, probes).all_equal


def test_flow_operator_annihilates_potentials():
    # (D_t + v D_x - D_x^2) boost^k translation^l 1 = 0: the property that
    # pins the kernel branch of the formal integration
    flow = potential_defect_op(BURGERS)
    for k in range(5):
        for l in range(5):
            if k + l > 4:
                continue
            g = apply(
                Compose((boost_op(BURGERS),) * k + (translation_op(BURGERS),) * l),
                BURGERS,
                DiffPoly.const(1),
            )
            assert apply(flow, BURGERS, g) == 0, (k, l)


def test_recursion_ops_match_their_expanded_nonlocal_forms():
    # R1 = D_x - v/2 - (v_x/2) D_x^{-1},
    # R2 = t D_x + (x - vt)/2 + ((1 - t v_x)/2) D_x^{-1}
    from jetsym.symfam import Family, q_char

    v, v1 = z(0), z(1)
    r1, r2 = recursion_ops()
    r1_explicit = Sum(
        (Dx(), MulBy(-half * v), Compose((MulBy(-half * v1), DxInv())))
    )
    r2_explicit = Sum(
        (
            Compose((MulBy(t), Dx())),
            MulBy(half * (x - v * t)),
            Compose((MulBy(half * (1 - t * v1)), DxInv())),
        )
    )
    probes = [
        q_char(Family.BURGERS_Q, k, l).body
        for k in range(5)
        for l in range(5)
        if 1 <= k + l <= 4
    ] + [BURGERS.dx(p) for p in random_poly_stream(4242, 6)]
    assert operator_identity_probe(r1, r1_explicit, BURGERS, probes).all_equal
    assert operator_identity_probe(r2, r2_explicit, BURGERS, probes).all_equal


def test_normalize_cancels_inverse_pairs():
    op = Compose((DxInv(), Dx()))
    assert normalize_op(op) == Compose(())
    nested = Compose((Compose((Dx(), DxInv())), Compose((Dx(), MulBy(z(0))))))
    flat = normalize_op(nested)
    assert flat == Compose((Dx(), MulBy(z(0))))  # middle DxInv Dx pair collapsed
    p = z(0) * z(1) + t * z(2)
    assert apply(flat, BURGERS, p) == BURGERS.dx(z(0) * p)


_FACTORS = st.sampled_from([t, x, z(0), z(1), 1 + z(0), x - t * z(1)])
_SCALES = st.sampled_from([Fraction(-1), half, Fraction(3)])


def _sharing_first(terms_and_node):
    """A sum of the given operators, each then composed after one shared node."""
    terms, node = terms_and_node
    return Sum(tuple(Compose((term, node)) for term in terms))


def _sharing_last_dx(scaled_terms):
    """A sum of D_x after each given operator, some terms led by a Scale."""
    return Sum(
        tuple(Compose((*((Scale(c),) if c else ()), Dx(), term)) for c, term in scaled_terms)
    )


def _dx_last_terms(kids):
    return st.lists(st.tuples(st.one_of(st.none(), _SCALES), kids), min_size=2, max_size=3)


# Operators without D_x^{-1}, some of them sums whose terms apply the same
# node first, or D_x last.
_LOCAL_OPS = st.recursive(
    st.one_of(st.just(Dx()), st.builds(MulBy, _FACTORS), st.builds(Scale, _SCALES)),
    lambda kids: st.one_of(
        st.lists(kids, min_size=1, max_size=3).map(lambda ops: Sum(tuple(ops))),
        st.lists(kids, max_size=3).map(lambda ops: Compose(tuple(ops))),
        st.tuples(st.lists(kids, min_size=2, max_size=3), kids).map(_sharing_first),
        _dx_last_terms(kids).map(_sharing_last_dx),
    ),
    max_leaves=6,
)

# D_x^{-1} only ever applied first, to the input: no D_x^{-1} D_x pair can
# form, so normalization only flattens and shares first nodes and last
# D_x's, and no preimage is asked of a non-derivative.
_OPS = st.recursive(
    st.one_of(_LOCAL_OPS, _LOCAL_OPS.map(lambda op: Compose((op, DxInv())))),
    lambda kids: st.one_of(
        st.lists(kids, min_size=1, max_size=3).map(lambda ops: Sum(tuple(ops))),
        st.tuples(_LOCAL_OPS, kids).map(Compose),
        st.tuples(st.lists(_LOCAL_OPS, min_size=2, max_size=3), st.just(DxInv())).map(
            _sharing_first
        ),
        _dx_last_terms(kids).map(_sharing_last_dx),
    ),
    max_leaves=4,
)


@settings(max_examples=120, deadline=None)
@given(_OPS, _jet_polys(max_terms=3, pool=[T_VAR, X_VAR, jet(0), jet(1)]))
def test_normalize_keeps_the_value_on_derivatives(op, q):
    p = BURGERS.dx(q)
    assert apply(normalize_op(op), BURGERS, p) == apply(op, BURGERS, p)


def test_normalize_applies_a_shared_first_node_once():
    a, b = Compose((Dx(), MulBy(z(0)))), MulBy(x)
    op = Sum((Compose((a, DxInv())), Compose((Scale(half), b, DxInv()))))
    assert normalize_op(op) == Compose(
        (Sum((Compose((Dx(), MulBy(z(0)))), Compose((Scale(half), b)))), DxInv())
    )
    # a term that is not a composition, or another first node, keeps the sum
    assert normalize_op(Sum((DxInv(), Compose((b, DxInv()))))) == Sum(
        (DxInv(), Compose((b, DxInv())))
    )
    assert normalize_op(Sum((Compose((b, Dx())), Compose((b, DxInv()))))) == Sum(
        (Compose((b, Dx())), Compose((b, DxInv())))
    )


def test_normalize_factors_a_shared_last_dx():
    a, b = MulBy(x), Compose((Dx(), MulBy(z(0))))
    # a term's leading Scale is its coefficient and stays with its rest
    op = Sum((Compose((Dx(), a)), Compose((Scale(-half), Dx(), b))))
    assert normalize_op(op) == Compose(
        (Dx(), Sum((Compose((a,)), Compose((Scale(-half), Dx(), MulBy(z(0)))))))
    )
    # no other last-applied node is factored: D_x^{-1} is not linear on the
    # ring, and a Scale or a MulBy without a D_x behind it is not D_x
    c = MulBy(t)  # each sum's terms apply a and c first, so share no first node
    for kept in (
        Sum((Compose((DxInv(), a)), Compose((DxInv(), c)))),
        Sum((Compose((Scale(half), a)), Compose((Dx(), c)))),
        Sum((Compose((a, Dx(), a)), Compose((Dx(), c)))),
        Sum((Compose((a, Dx(), a)), Compose((a, Dx(), c)))),
        Sum((Compose((Scale(half), Scale(half), Dx(), a)), Compose((Dx(), c)))),
        Sum((Dx(), Compose((Dx(), c)))),
    ):
        assert normalize_op(kept) == kept
    # [R1, R2] is D_x (T B - B T) D_x^{-1}: one D_x and one preimage per probe
    r1, r2 = recursion_ops()
    bracket = normalize_op(commutator_op(r1, r2))
    assert isinstance(bracket, Compose) and len(bracket.ops) == 3
    assert bracket.ops[0] == Dx() and bracket.ops[2] == DxInv()
    local_t, local_b = translation_op(BURGERS), boost_op(BURGERS)
    assert bracket.ops[1] == Sum(
        (Compose((local_t, local_b)), Compose((Scale(Fraction(-1)), local_b, local_t)))
    )


# The D_x derivations of verify --suite recursion --max-order 7, counted in
# a fresh process, where no value holds a kept D_x yet: every one, in
# x_antiderivative too, is taken by jetflow.x_derivative.
_COUNT_RECURSION_DX = """
from jetsym import checks, jetflow

calls = terms = 0
derive = jetflow.derive


def spy(p, images, fill):
    global calls, terms
    if images is jetflow._DX_IMAGES:
        calls += 1
        terms += len(p.terms)
    return derive(p, images, fill)


jetflow.derive = spy
assert all(result.ok for result in checks.suite_recursion(7))
print(calls, terms)
"""


def test_recursion_suite_takes_one_dx_per_bracket_probe():
    # each [R1, R2] probe takes one D_x, of T B g - B T g; a D_x of each
    # term would make 35 calls more, one per probe
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run(
        [sys.executable, "-c", _COUNT_RECURSION_DX],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    assert out.stdout.split() == ["898", "10438"]


def test_recursion_commutator_probe_takes_one_preimage_per_probe(monkeypatch):
    from jetsym.symfam import Family, q_char

    calls = []

    def spy(eq, p):
        calls.append(p)
        return dx_preimage(eq, p)

    monkeypatch.setattr(opcalc, "dx_preimage", spy)
    r1, r2 = recursion_ops()
    probes = [q_char(Family.BURGERS_Q, k, l).body for k, l in ((1, 0), (0, 2), (2, 1))]
    report = operator_identity_probe(commutator_op(r1, r2), op_scale(half), BURGERS, probes)
    assert report.all_equal
    assert calls == probes


def test_recursion_suite_walks_the_generation_routes_once(monkeypatch):
    # the chains, R2 Q[0,1] = R1 Q[1,0] and both mixed routes come from one
    # walk: 54 R1/R2 applications at bound 7, and one D_x^{-1} for each of
    # the 35 [R1, R2] probes
    from jetsym import checks

    calls = []
    monkeypatch.setattr(opcalc, "dx_preimage", lambda eq, p: calls.append(p) or dx_preimage(eq, p))
    assert all(result.ok for result in checks.suite_recursion(7))
    assert len(calls) == 89


def test_probe_report_carries_residuals():
    report = operator_identity_probe(Dx(), op_scale(0), BURGERS, [z(0)])
    assert not report.all_equal
    assert report.outcomes[0].residual == z(1)


def test_euler_residual_rejects_exp():
    with pytest.raises(ValueError):
        euler_residual(z(1) * exp_poly(1))


def test_dx_preimage_rejects_exp():
    # Both are total derivatives (of e^w and w_x e^w), but peeling jets
    # treats e^w as a constant: formal integration has no rule for it.
    for p in (z(1) * exp_poly(1), (z(2) + z(1) ** 2) * exp_poly(1)):
        with pytest.raises(ValueError) as exc:
            dx_preimage(POTBURGERS, p)
        assert not isinstance(exc.value, NotATotalDerivative)


def test_potential_defect_of_a_jet_free_rhs():
    # L = x has no Frechet coefficients, so only D_t remains
    eq = EvolutionEquation("lin", x)
    op = potential_defect_op(eq)
    assert op == Sum((Dt(),))
    assert apply(op, eq, z(1)) == 1
