"""Operator application, the Euler certificate, formal integration, probes."""

from fractions import Fraction

import pytest

from conftest import KDV, kdv_hierarchy, make_random_poly, random_poly_stream
from jetsym.diffring import KIND_T, T_VAR, DiffPoly, derive, exp_poly, jet, jet_poly, t_poly, x_poly
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
    identity_op,
    integrability_certificate,
    normalize_op,
    op_power,
    op_scale,
    operator_identity_probe,
    potential_defect_op,
    recursion_ops,
    translation_op,
)

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
    assert apply(identity_op(), BURGERS, p) == p
    assert apply(op_scale(Fraction(2, 3)), BURGERS, p) == Fraction(2, 3) * p
    assert apply(Sum((Dx(), Scale(Fraction(-1)))), BURGERS, p) == BURGERS.dx(p) - p


def test_euler_residual_examples():
    assert euler_residual(z(0) * z(1)) == 0          # v v_x = D_x(v^2/2)
    assert euler_residual(z(1) * z(1)) == -2 * z(2)  # -D_x d/dv_x (v_x^2)
    assert euler_residual(z(0)) == 1


def test_certificate():
    cert = integrability_certificate(z(0) * z(1))
    assert cert.is_total_derivative and cert.euler_residual == 0
    cert = integrability_certificate(z(0))
    assert not cert.is_total_derivative and cert.euler_residual == 1


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
