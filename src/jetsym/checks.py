"""The exact-check suites behind jetsym verify.

Each suite takes a sweep bound and returns one CheckResult per check; every
check is an exact zero test over the rationals.  run_suites runs suites at
given bounds and prints one PASS or FAIL line per check and a summary.  The
default bound and the cap of each suite belong to the command line and live
in jetsym.cli, which this module does not import: python -m jetsym.cli runs
cli as __main__, and an import of jetsym.cli here would execute it again.
Only the recursion suite calls opcalc, only the maps suite colemap and
only the zeta suite zeta, so each imports its module itself.
"""

from __future__ import annotations

import random
from collections.abc import Iterable
from fractions import Fraction
from typing import NamedTuple

from .diffring import DiffPoly, T_VAR, X_VAR, jet, par
from .jetflow import BURGERS, HEAT, invariance_residual
from .symfam import (
    FAMILY_EQUATION,
    Q_FAMILIES,
    Z_FAMILIES,
    Family,
    commutator,
    family_seed_chain,
    index_range,
    lie_correspondence,
    q_char,
    structure_check,
    structure_sweep,
)


class CheckResult(NamedTuple):
    name: str
    ok: bool
    detail: str = ""


def _failures(residuals: Iterable[tuple[object, DiffPoly]]) -> tuple[list, str]:
    """The keys with a nonzero residual, and "; first residual r" for the first."""
    bad, first = [], ""
    for key, residual in residuals:
        if residual:
            if not bad:
                first = f"; first residual {residual}"
            bad.append(key)
    return bad, first


def _probe_detail(report) -> str:
    for outcome in report.outcomes:
        if not outcome.equal:
            return f"first residual {outcome.residual}"
    return ""


def _random_polys(rng: random.Random, count: int, with_par: bool = False):
    vars_pool = [T_VAR, X_VAR, jet(0), jet(1), jet(2), jet(3)]
    if with_par:
        vars_pool += [par(0), par(1)]
    polys = []
    while len(polys) < count:
        terms = {}
        for _ in range(rng.randint(1, 4)):
            mono = []
            for v in vars_pool:
                e = rng.choice((0, 0, 0, 1, 1, 2))
                if e:
                    mono.append((v, e))
            terms[tuple(sorted(mono))] = Fraction(
                rng.randint(-4, 4), rng.choice((1, 1, 2, 3))
            )
        p = DiffPoly(terms)
        if p:
            polys.append(p)
    return polys


def suite_invariance(max_order: int) -> list[CheckResult]:
    out = []
    for family in Q_FAMILIES:
        eq = FAMILY_EQUATION[family]
        bad, first = _failures(
            ((k, l), invariance_residual(eq, q_char(family, k, l)))
            for k, l in index_range(max_order)
        )
        out.append(
            CheckResult(
                f"invariance {eq.name} family k+l<={max_order}",
                not bad,
                f"failing indices {bad}{first}" if bad else "",
            )
        )
    for family in Z_FAMILIES:
        eq = FAMILY_EQUATION[family]
        out.append(
            CheckResult(
                f"invariance {eq.name} parameter family",
                invariance_residual(eq, q_char(family)).is_zero(),
            )
        )
    matches = lie_correspondence()
    out.append(
        CheckResult(
            "heat point symmetries match family combinations up to sign",
            all(m.sign is not None for m in matches),
            ", ".join(f"{m.name}:{m.sign:+d}" for m in matches if m.sign is not None),
        )
    )
    return out


def suite_commutators(max_order: int) -> list[CheckResult]:
    out = []
    pairs = list(index_range(max_order))
    for family in Q_FAMILIES:
        residuals = structure_sweep(family, pairs)
        bad, first = _failures(
            ((kl1, kl2), residuals[kl1, kl2]) for kl1 in pairs for kl2 in pairs
        )
        out.append(
            CheckResult(
                f"structure constants {FAMILY_EQUATION[family].name} pairs k+l<={max_order}",
                not bad,
                f"failing pairs {bad[:4]}{first}" if bad else "",
            )
        )
    for family in Z_FAMILIES:
        bad = [kl for kl in index_range(max_order + 1) if structure_check(family, kl)]
        out.append(
            CheckResult(
                f"parameter bracket [Z(h), Q] {FAMILY_EQUATION[family].name} "
                f"k+l<={max_order + 1}",
                not bad,
                f"failing indices {bad}" if bad else "",
            )
        )
    zz = [commutator(FAMILY_EQUATION[f], q_char(f), q_char(f)).body for f in Z_FAMILIES]
    out.append(CheckResult("parameter bracket [Z, Z] = 0", not any(zz)))
    return out


def suite_recursion(max_order: int) -> list[CheckResult]:
    from .opcalc import (
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

    out = []
    r1, r2 = recursion_ops()

    def burgers_body(k, l):
        return q_char(Family.BURGERS_Q, k, l).body

    probes = [
        burgers_body(k, l) for k, l in index_range(max_order, include_origin=False)
    ]
    report = operator_identity_probe(
        commutator_op(r1, r2), op_scale(Fraction(1, 2)), BURGERS, probes
    )
    out.append(
        CheckResult(
            f"[R1, R2] = 1/2 on family bodies k+l<={max_order}",
            report.all_equal,
            _probe_detail(report),
        )
    )
    # Route a: R2^k R1^(l-1) Q[0,1] = Q[k,l]; route b: R2^(k-1) R1^l Q[1,0] =
    # Q[k,l] + (l-1)/2 Q[k-1,l-1], in one walk over k + l <= max_order.  Route
    # b's l = 0 column is the chain Q[k,0], route a's k = 0 row the chain
    # Q[0,l], and cell (1, 1) of both is R2 Q[0,1] = R1 Q[1,0].  Each R1 power
    # is formed once per l, and R2 steps over k from it.
    chains = mixed = True
    cross = None
    cur = burgers_body(1, 0)
    for k in range(2, max_order + 1):
        cur = apply(r2, BURGERS, cur)
        chains = chains and cur == burgers_body(k, 0)
    r1_a, r1_b = burgers_body(0, 1), burgers_body(1, 0)
    for l in range(1, max_order + 1):
        if l > 1:
            r1_a = apply(r1, BURGERS, r1_a)
            chains = chains and r1_a == burgers_body(0, l)
        if l < max_order:
            r1_b = apply(r1, BURGERS, r1_b)
        cur_a, cur_b = r1_a, r1_b
        for k in range(1, max_order - l + 1):
            cur_a = apply(r2, BURGERS, cur_a)
            if k > 1:
                cur_b = apply(r2, BURGERS, cur_b)
            expected = burgers_body(k, l) + Fraction(l - 1, 2) * burgers_body(k - 1, l - 1)
            mixed = mixed and cur_a == burgers_body(k, l) and cur_b == expected
            if k == l == 1:
                cross = cur_a == cur_b
    if cross is None:  # below bound 2 the walk has no cell (1, 1)
        cross = apply(r2, BURGERS, burgers_body(0, 1)) == apply(r1, BURGERS, burgers_body(1, 0))
    out.append(CheckResult("R2 Q[0,1] = R1 Q[1,0]", cross))
    out.append(CheckResult(f"generation chains Q[0,l] and Q[k,0] up to {max_order}", chains))
    out.append(CheckResult(f"mixed generation routes k,l>=1, k+l<={max_order}", mixed))

    rng = random.Random(20240607)
    flow = potential_defect_op(BURGERS)
    fam_probes = [family_seed_chain(Family.BURGERS_Q, k, l) for k, l in index_range(4)]
    probes = fam_probes + _random_polys(rng, 20)
    zero = op_scale(0)
    for label, op in (
        ("translation", translation_op(BURGERS)),
        ("boost", boost_op(BURGERS)),
    ):
        rep = operator_identity_probe(commutator_op(flow, op), zero, BURGERS, probes)
        out.append(
            CheckResult(
                f"[D_t + v D_x - D_x^2, {label}] = 0 on {len(probes)} probes",
                rep.all_equal,
                _probe_detail(rep),
            )
        )
    p_op, g_op = translation_op(HEAT), boost_op(HEAT)
    heat_probes = _random_polys(rng, 20, with_par=True)
    rep = operator_identity_probe(
        Compose((p_op, g_op)),
        Sum((Compose((g_op, p_op)), Scale(Fraction(1, 2)))),
        HEAT,
        heat_probes,
    )
    out.append(
        CheckResult(
            f"PG = GP + 1/2 on {len(heat_probes)} heat probes",
            rep.all_equal,
            _probe_detail(rep),
        )
    )
    return out


def suite_zeta(max_order: int) -> list[CheckResult]:
    from .zeta import (
        build_zetas,
        from_zeta_coordinates,
        to_zeta_coordinates,
        verify_zeta_identities,
    )

    out = []
    basis = build_zetas(max(max_order, 1))
    v = DiffPoly.variable(jet(0))
    v1 = DiffPoly.variable(jet(1))
    seeds_ok = basis.zetas[0] == Fraction(-1, 2) * v and basis.zetas[1] == Fraction(
        -1, 2
    ) * v1 + Fraction(1, 4) * v * v
    out.append(CheckResult("zeta seeds -v/2 and -v_x/2 + v^2/4", seeds_ok))
    report = verify_zeta_identities(max_order)
    out.append(
        CheckResult(
            f"derivative identity D_x zeta_k = zeta_k+1 - zeta_0 zeta_k, k<={max_order}",
            all(report.derivative_ok),
        )
    )
    out.append(
        CheckResult(
            f"flow identity (D_t + v D_x - D_x^2) zeta_k = 0, k<={max_order}",
            all(report.flow_ok),
        )
    )
    rng = random.Random(987654)
    rt_basis = build_zetas(6)
    pool = (T_VAR, X_VAR, jet(0), jet(1), jet(3), jet(6))
    ok = True
    for _ in range(12):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            chosen = rng.sample(pool, rng.randint(0, 3))
            mono = tuple(sorted((v_id, rng.randint(1, 2)) for v_id in chosen))
            terms[mono] = Fraction(rng.randint(-3, 3), 1)
        p = DiffPoly(terms)
        zp = to_zeta_coordinates(p, rt_basis)
        ok = ok and from_zeta_coordinates(zp, rt_basis) == p
    out.append(CheckResult("coordinate round-trip on random polynomials (order 6)", ok))
    return out


def suite_maps(max_order: int) -> list[CheckResult]:
    from .colemap import NotProjectable, heat_to_potential, potential_to_burgers

    out = []
    ok_hp = True
    ok_pb = True
    for k, l in index_range(max_order):
        qh = q_char(Family.HEAT_Q, k, l)
        qp = q_char(Family.POT_Q, k, l)
        ok_hp = ok_hp and heat_to_potential(qh).body == qp.body
        ok_pb = (
            ok_pb
            and potential_to_burgers(qp).body
            == -2 * q_char(Family.BURGERS_Q, k, l).body
        )
    out.append(
        CheckResult(f"heat -> potential matches family k+l<={max_order}", ok_hp)
    )
    out.append(
        CheckResult(
            f"potential -> burgers = -2 * family k+l<={max_order}", ok_pb
        )
    )
    out.append(
        CheckResult(
            "kernel: value at (0,0) maps to 0",
            potential_to_burgers(q_char(Family.POT_Q, 0, 0)).body.is_zero(),
        )
    )
    try:
        potential_to_burgers(q_char(Family.POT_Z))
        out.append(CheckResult("parameter family rejected as not projectable", False))
    except NotProjectable:
        out.append(CheckResult("parameter family rejected as not projectable", True))
    return out


SUITES = {
    "invariance": suite_invariance,
    "commutators": suite_commutators,
    "recursion": suite_recursion,
    "zeta": suite_zeta,
    "maps": suite_maps,
}


def run_suites(orders: Iterable[tuple[str, int]]) -> int:
    """Run each (suite name, sweep bound) of orders in turn, print a line
    per check and a summary, and return 0 iff every check passed, else 1."""
    passed = failed = 0
    for name, order in orders:
        for result in SUITES[name](order):
            if result.ok:
                passed += 1
                line = f"PASS  {name}: {result.name}"
                if result.detail:
                    line += f"  [{result.detail}]"
            else:
                failed += 1
                line = f"FAIL  {name}: {result.name}"
                if result.detail:
                    line += f"  ({result.detail})"
            print(line)
    print(f"{passed + failed} checks: {passed} passed, {failed} failed")
    return 0 if failed == 0 else 1
