"""The triangular nonlinear coordinates and their identities."""

import random
from fractions import Fraction

import pytest

from conftest import make_random_poly
from jetsym.diffring import T_VAR, X_VAR, DiffPoly, exp_poly, jet, jet_poly
from jetsym.jetflow import BURGERS
from jetsym.symfam import Family, q_char
from jetsym.zeta import (
    OrderExceeded,
    ZetaBasis,
    ZetaPoly,
    build_zetas,
    from_zeta_coordinates,
    to_zeta_coordinates,
    verify_zeta_identities,
)

half = Fraction(1, 2)


def z(k):
    return jet_poly(k)


def test_first_three_coordinates():
    basis = build_zetas(2)
    assert basis.zetas[0] == -half * z(0)
    assert basis.zetas[1] == -half * z(1) + Fraction(1, 4) * z(0) ** 2
    # hand expansion of one more translation step
    assert basis.zetas[2] == (
        -half * z(2) + Fraction(3, 4) * z(0) * z(1) - Fraction(1, 8) * z(0) ** 3
    )


def test_orders_are_triangular():
    basis = build_zetas(6)
    for k, zk in enumerate(basis.zetas):
        assert zk.order() == k
        # leading jet coefficient is -1/2
        assert zk.partial(jet(k)) == DiffPoly.const(-half)


def test_identities_through_order_eight():
    report = verify_zeta_identities(8)
    assert all(report.derivative_ok) and all(report.flow_ok)
    assert len(report.derivative_ok) == 9


def test_base_flow_identity_is_the_equation():
    # (D_t + v D_x - D_x^2)(-v/2) vanishes on-shell
    basis = build_zetas(0)
    zk = basis.zetas[0]
    flow = BURGERS.dt(zk) + z(0) * BURGERS.dx(zk) - BURGERS.dx(BURGERS.dx(zk))
    assert flow == 0


def test_coordinate_images():
    basis = build_zetas(3)
    assert to_zeta_coordinates(z(0), basis).poly == -2 * z(0)
    assert to_zeta_coordinates(z(1), basis).poly == -2 * (z(1) - z(0) ** 2)


def test_round_trip_family_member():
    basis = build_zetas(4)
    body = q_char(Family.BURGERS_Q, 1, 1).body
    back = from_zeta_coordinates(to_zeta_coordinates(body, basis), basis)
    assert back == body


def test_round_trip_random(rng):
    basis = build_zetas(6)
    for _ in range(15):
        p = make_random_poly(rng, max_jet=6)
        zp = to_zeta_coordinates(p, basis)
        assert from_zeta_coordinates(zp, basis) == p


def test_hand_built_basis_round_trips(rng):
    # a triangular basis other than build_zetas' (leading part -v_k/2, other
    # lower terms), used after and between canonical bases of the same size:
    # the inverse images are cached per basis, never per size
    canonical = build_zetas(3)
    hand = ZetaBasis(
        3,
        (
            -half * z(0) + 5,
            -half * z(1) + z(0) ** 2,
            -half * z(2) - 3 * z(0) * z(1),
            -half * z(3) + z(2) * z(0) + Fraction(1, 3) * z(1) ** 2,
        ),
    )
    assert to_zeta_coordinates(z(1), hand) != to_zeta_coordinates(z(1), canonical)
    for _ in range(6):
        p = make_random_poly(rng, max_jet=3)
        for basis in (canonical, hand, build_zetas(3)):
            zp = to_zeta_coordinates(p, basis)
            assert from_zeta_coordinates(zp, basis) == p


def _fixed_weight_poly(rng):
    """Four terms, each with four jet factors of total scaling weight 16
    (v_k weighs k + 1, k <= 6), and with or without t and x."""
    out = {}
    while len(out) < 4:
        cuts = sorted(rng.sample(range(1, 16), 3))
        parts = [b - a for a, b in zip([0, *cuts], [*cuts, 16])]
        if max(parts) > 7:
            continue
        exps = {}
        for part in parts:
            exps[jet(part - 1)] = exps.get(jet(part - 1), 0) + 1
        for v in (T_VAR, X_VAR):
            if rng.random() < 0.5:
                exps[v] = 1
        coeff = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4))
        out[tuple(sorted(exps.items()))] = coeff
    return DiffPoly(out)


def test_round_trip_at_the_benchmark_shape():
    # the inputs of the coords benchmark: large substitutions whose terms
    # share most of their factor products
    basis = build_zetas(6)
    rng = random.Random(16)
    for _ in range(3):
        p = _fixed_weight_poly(rng)
        zp = to_zeta_coordinates(p, basis)
        assert from_zeta_coordinates(zp, basis) == p


def test_forward_trip_random(rng):
    basis = build_zetas(5)
    for _ in range(10):
        q = make_random_poly(rng, max_jet=5)
        back = to_zeta_coordinates(from_zeta_coordinates(ZetaPoly(q), basis), basis)
        assert back.poly == q


def test_order_exceeded():
    basis = build_zetas(2)
    with pytest.raises(OrderExceeded):
        to_zeta_coordinates(z(3), basis)
    with pytest.raises(OrderExceeded):
        from_zeta_coordinates(ZetaPoly(z(3)), basis)


def test_to_zeta_coordinates_rejects_exp():
    with pytest.raises(ValueError):
        to_zeta_coordinates(z(1) * exp_poly(-1), build_zetas(2))
