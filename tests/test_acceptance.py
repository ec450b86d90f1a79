"""Acceptance suite: every check is an exact zero test over the rationals.

Each criterion prints one PASS/FAIL line (run pytest with -s to see them all;
any failure also surfaces through the assertion).
"""

import random
from fractions import Fraction

from conftest import binomial_weight, random_poly_stream
from jetsym.colemap import NotProjectable, heat_to_potential, potential_to_burgers
from jetsym.detsolve import solve_symmetries
from jetsym.diffring import DiffPoly, jet_poly
from jetsym.jetflow import BURGERS, HEAT, POTBURGERS, Characteristic, invariance_residual
from jetsym.opcalc import (
    Compose,
    Scale,
    Sum,
    apply,
    boost_op,
    commutator_op,
    op_scale,
    operator_identity_probe,
    potential_defect_op,
    recursion_ops,
    translation_op,
)
from jetsym.structure import lie_correspondence, structure_check
from jetsym.symfam import Family, commutator, q_char
from jetsym.zeta import build_zetas, from_zeta_coordinates, to_zeta_coordinates, verify_zeta_identities

HALF = Fraction(1, 2)


def _indices(max_total, include_origin=True):
    return [
        (k, total - k)
        for total in range(0 if include_origin else 1, max_total + 1)
        for k in range(total + 1)
    ]


def _zero(body):
    return body.is_zero() if hasattr(body, "is_zero") else body == 0


def _report(number, name, ok):
    print(f"ACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {number} ({name}) failed"


def test_criterion_1_invariance():
    ok = True
    for family, eq in (
        (Family.HEAT_Q, HEAT),
        (Family.POT_Q, POTBURGERS),
        (Family.BURGERS_Q, BURGERS),
    ):
        for k, l in _indices(6):
            ok = ok and _zero(invariance_residual(eq, q_char(family, k, l)))
    ok = ok and _zero(invariance_residual(HEAT, q_char(Family.HEAT_Z)))
    ok = ok and _zero(invariance_residual(POTBURGERS, q_char(Family.POT_Z)))
    _report(1, "invariance of all family members", ok)


def test_criterion_2_structure_constants():
    ok = True
    pairs = _indices(3)
    for family in (Family.HEAT_Q, Family.POT_Q, Family.BURGERS_Q):
        for kl1 in pairs:
            for kl2 in pairs:
                ok = ok and _zero(structure_check(family, kl1, kl2))
    # the verbatim binomial constants hold for the rescaled Burgers images
    from jetsym.symfam import _q_body

    for kl1 in _indices(2, include_origin=False):
        for kl2 in _indices(2, include_origin=False):
            (k, l), (kp, lp) = kl1, kl2
            a = Characteristic(BURGERS, -2 * _q_body(Family.BURGERS_Q, k, l))
            b = Characteristic(BURGERS, -2 * _q_body(Family.BURGERS_Q, kp, lp))
            expected = DiffPoly.zero()
            for i in range(min(k, lp) + 1):
                expected = expected + binomial_weight(i, k, lp) * (
                    -2 * _q_body(Family.BURGERS_Q, k + kp - i, l + lp - i)
                )
            for i in range(min(kp, l) + 1):
                expected = expected - binomial_weight(i, kp, l) * (
                    -2 * _q_body(Family.BURGERS_Q, k + kp - i, l + lp - i)
                )
            ok = ok and commutator(BURGERS, a, b).body == expected
    for family in (Family.HEAT_Z, Family.POT_Z):
        for kl in _indices(4):
            ok = ok and _zero(structure_check(family, kl))
    zz = commutator(HEAT, q_char(Family.HEAT_Z), q_char(Family.HEAT_Z)).body
    zz2 = commutator(POTBURGERS, q_char(Family.POT_Z), q_char(Family.POT_Z)).body
    ok = ok and _zero(zz) and _zero(zz2)
    _report(2, "closed-form structure constants", ok)


def test_criterion_3_recursion_operators():
    r1, r2 = recursion_ops()

    def body(k, l):
        return q_char(Family.BURGERS_Q, k, l).body

    probes = [body(k, l) for k, l in _indices(5, include_origin=False)]
    ok = operator_identity_probe(
        commutator_op(r1, r2), op_scale(HALF), BURGERS, probes
    ).all_equal

    ok = ok and apply(r2, BURGERS, body(0, 1)) == apply(r1, BURGERS, body(1, 0))

    cur = body(0, 1)
    for l in range(2, 6):
        cur = apply(r1, BURGERS, cur)
        ok = ok and cur == body(0, l)
    cur = body(1, 0)
    for k in range(2, 6):
        cur = apply(r2, BURGERS, cur)
        ok = ok and cur == body(k, 0)

    for k, l in _indices(5):
        if k < 1 or l < 1:
            continue
        cur = body(0, 1)
        for _ in range(l - 1):
            cur = apply(r1, BURGERS, cur)
        for _ in range(k):
            cur = apply(r2, BURGERS, cur)
        ok = ok and cur == body(k, l)
        cur = body(1, 0)
        for _ in range(l):
            cur = apply(r1, BURGERS, cur)
        for _ in range(k - 1):
            cur = apply(r2, BURGERS, cur)
        ok = ok and cur == body(k, l) + HALF * (l - 1) * body(k - 1, l - 1)
    _report(3, "recursion operators generate the algebra", ok)


def test_criterion_4_operator_identities():
    flow = potential_defect_op(BURGERS)
    fam = [
        apply(
            Compose((boost_op(BURGERS),) * k + (translation_op(BURGERS),) * l),
            BURGERS,
            DiffPoly.const(1),
        )
        for k, l in _indices(4)
    ]
    probes = fam + random_poly_stream(24601, 20)
    assert len(probes) >= 20
    zero = op_scale(0)
    ok = operator_identity_probe(
        commutator_op(flow, translation_op(BURGERS)), zero, BURGERS, probes
    ).all_equal
    ok = ok and operator_identity_probe(
        commutator_op(flow, boost_op(BURGERS)), zero, BURGERS, probes
    ).all_equal
    p_op, g_op = translation_op(HEAT), boost_op(HEAT)
    heat_probes = random_poly_stream(1123, 20, with_par=True)
    ok = ok and operator_identity_probe(
        Compose((p_op, g_op)),
        Sum((Compose((g_op, p_op)), Scale(HALF))),
        HEAT,
        heat_probes,
    ).all_equal
    _report(4, "flow-operator commutation identities", ok)


def test_criterion_5_zeta_suite():
    basis = build_zetas(8)
    v, v1 = jet_poly(0), jet_poly(1)
    ok = basis.zetas[0] == -HALF * v
    ok = ok and basis.zetas[1] == -HALF * v1 + Fraction(1, 4) * v * v
    report = verify_zeta_identities(8)
    ok = ok and all(report.derivative_ok) and all(report.flow_ok)
    rt_basis = build_zetas(6)
    rng = random.Random(555)
    for p in random_poly_stream(555, 12, max_jet=6):
        zp = to_zeta_coordinates(p, rt_basis)
        ok = ok and from_zeta_coordinates(zp, rt_basis) == p
    _report(5, "triangular coordinate suite", ok)


def test_criterion_6_hopf_cole_chain():
    ok = True
    for k, l in _indices(5):
        mid = heat_to_potential(q_char(Family.HEAT_Q, k, l))
        ok = ok and mid.body == q_char(Family.POT_Q, k, l).body
        final = potential_to_burgers(q_char(Family.POT_Q, k, l))
        ok = ok and final.body == -2 * q_char(Family.BURGERS_Q, k, l).body
    ok = ok and _zero(potential_to_burgers(q_char(Family.POT_Q, 0, 0)).body)
    try:
        potential_to_burgers(q_char(Family.POT_Z))
        ok = False
    except NotProjectable:
        pass
    _report(6, "substitution chain", ok)


def test_criterion_7_solver_dimension_law():
    ok = True
    dims = {}
    for n in range(1, 5):
        report = solve_symmetries(BURGERS, n)
        dims[n] = report.dimension
        ok = ok and report.dimension == n * (n + 3) // 2
        ok = ok and report.family_span_matches is True
    expected = {1: 2, 2: 5, 3: 9, 4: 14}
    ok = ok and dims == expected
    graded = {n: dims[n] - dims.get(n - 1, 0) for n in dims}
    ok = ok and graded == {1: 2, 2: 3, 3: 4, 4: 5}  # increments n + 1
    _report(7, "solver dimension law", ok)


def test_criterion_8_lie_correspondence():
    matches = lie_correspondence()
    ok = len(matches) == 6 and all(m.sign in (-1, 1) for m in matches)
    signs = {m.name: m.sign for m in matches}
    print(f"  recorded signs: {signs}")
    _report(8, "point-symmetry correspondence up to sign", ok)
