"""Equation records, on-shell derivations, the Frechet derivative, and
invariance residuals."""

import ast
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import EXPRHS, KDV, LIN, THIRD, XDEP, make_random_poly
from jetsym.detsolve import solve_symmetries
from jetsym.diffring import (
    EXP_VAR,
    T_VAR,
    X_VAR,
    DiffPoly,
    jet,
    jet_poly,
    par,
    par_poly,
    t_poly,
    unit,
    x_poly,
)
from jetsym.jetflow import (
    BURGERS,
    EQUATIONS,
    HEAT,
    POTBURGERS,
    Characteristic,
    EvolutionEquation,
    invariance_residual,
    jet_partials,
    prolongation_sums,
    x_tower,
)
from jetsym.opcalc import translation_op
from jetsym.symfam import Family

SRC = Path(__file__).resolve().parent.parent / "src"

t, x = t_poly(), x_poly()
half = Fraction(1, 2)


def z(k):
    return jet_poly(k)


def h(j):
    return par_poly(j)


def test_builtin_right_hand_sides():
    assert HEAT.rhs == z(2)
    assert POTBURGERS.rhs == z(2) + z(1) * z(1)
    assert BURGERS.rhs == z(2) - z(0) * z(1)


def test_equation_records_hold_what_each_equation_knows():
    # in gen --eq's order: the letter, M of T = D_x + M, the Q and parameter
    # families and the family the solver's span is compared with
    assert [
        (eq.name, eq.letter, eq.multiplier, eq.q_family, eq.z_family, eq.reference)
        for eq in EQUATIONS.values()
    ] == [
        ("heat", "u", DiffPoly.zero(), Family.HEAT_Q, Family.HEAT_Z, None),
        ("potburgers", "w", z(1), Family.POT_Q, Family.POT_Z, None),
        ("burgers", "v", -half * z(0), Family.BURGERS_Q, None, Family.BURGERS_Q),
    ]
    # an equation built in a test takes the defaults
    assert (KDV.letter, KDV.multiplier, KDV.q_family, KDV.z_family, KDV.reference) == (
        "z", None, None, None, None
    )
    with pytest.raises(ValueError, match="no built-in recursion operators for kdv"):
        translation_op(KDV)


# The comparisons that belong to the Hopf-Cole chain itself: the argument
# checks of its two maps, and the stop of map --to potburgers.
_CHAIN_COMPARES = {
    ("colemap.py", "heat_to_potential"),
    ("colemap.py", "potential_to_burgers"),
    ("cli.py", "_cmd_map"),
}


def _names_an_equation(node) -> bool:
    if isinstance(node, ast.Name):
        return node.id in ("HEAT", "POTBURGERS", "BURGERS")
    return isinstance(node, ast.Constant) and node.value in ("heat", "potburgers", "burgers")


def test_no_equation_is_compared_by_name_or_identity():
    # what sets one equation apart is read off its record
    sites, chain = [], set()
    for path in sorted((SRC / "jetsym").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        scope = {}
        for fn in ast.walk(tree):  # breadth first, so the outermost function wins
            if isinstance(fn, ast.FunctionDef):
                for node in ast.walk(fn):
                    scope.setdefault(node, fn.name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Compare) and any(
                map(_names_an_equation, [node.left, *node.comparators])
            ):
                where = (path.name, scope.get(node))
                if where in _CHAIN_COMPARES:
                    chain.add(where)
                else:
                    sites.append(f"{path.name}:{node.lineno}")
    assert sites == []
    assert chain == _CHAIN_COMPARES


def test_dx_examples():
    assert BURGERS.dx(-half * z(0)) == -half * z(1)
    # hand expansion: D_x(t u_1 + x u / 2) = t u_2 + u/2 + x u_1 / 2
    assert HEAT.dx(t * z(1) + half * x * z(0)) == t * z(2) + half * z(0) + half * x * z(1)
    # Leibniz with the parameter shift
    assert HEAT.dx(h(0) * z(0)) == h(1) * z(0) + h(0) * z(1)


def test_dt_examples():
    assert HEAT.dt(z(1)) == z(3)
    assert BURGERS.dt(z(0)) == z(2) - z(0) * z(1)
    assert HEAT.dt(h(0)) == h(2)


def test_frechet_burgers_direction_v1():
    # sum_k dL/dz_k D_x^k(v_1) expanded by hand
    expected = z(3) - z(1) * z(1) - z(0) * z(2)
    assert BURGERS.frechet(BURGERS.rhs, z(1)) == expected


def test_frechet_linear_rhs_is_dx_squared(rng):
    for _ in range(10):
        eta = make_random_poly(rng)
        assert HEAT.frechet(z(2), eta) == HEAT.dx(HEAT.dx(eta))


def test_frechet_identity_direction(rng):
    eta = make_random_poly(rng)
    assert BURGERS.frechet(z(0), eta) == eta


def test_invariance_residual_examples():
    assert invariance_residual(BURGERS, z(1)) == 0
    # dt(v) - L'[v] = (v2 - v v1) - (v2 - 2 v v1) = v v1
    assert invariance_residual(BURGERS, z(0)) == z(0) * z(1)
    assert invariance_residual(HEAT, h(0)) == 0


def test_invariance_residual_accepts_characteristics():
    eta = Characteristic(BURGERS, z(1))
    assert invariance_residual(BURGERS, eta) == 0
    with pytest.raises(ValueError):
        invariance_residual(HEAT, eta)


def test_derivations_commute_on_random_probes(rng):
    for eq, with_par in ((HEAT, True), (POTBURGERS, True), (BURGERS, False)):
        count = 0
        while count < 20:
            p = make_random_poly(rng, with_par=with_par)
            if not p:
                continue
            count += 1
            assert eq.dt(eq.dx(p)) == eq.dx(eq.dt(p)), eq.name


def test_residual_is_linear(rng):
    a, b = Fraction(3, 2), Fraction(-2, 3)
    for _ in range(10):
        eta = make_random_poly(rng)
        zeta = make_random_poly(rng)
        lhs = invariance_residual(BURGERS, a * eta + b * zeta)
        rhs = a * invariance_residual(BURGERS, eta) + b * invariance_residual(BURGERS, zeta)
        assert lhs == rhs


def test_burgers_rejects_parameter_symbols():
    with pytest.raises(ValueError):
        BURGERS.dx(h(0))
    with pytest.raises(ValueError):
        BURGERS.dt(h(0) * z(0))


def test_equation_rhs_validation():
    with pytest.raises(ValueError):
        EvolutionEquation("bad", h(0))
    with pytest.raises(ValueError):
        EvolutionEquation("bad", t * z(1))


def test_dt_derives_the_rhs_tower_on_demand():
    # the first call on a fresh equation needs D_x^3(rhs), which nothing has derived yet
    eq = EvolutionEquation("heat_copy", z(2))
    assert eq.dt(z(3)) == z(5)


@st.composite
def _equation_and_body(draw):
    # up to five terms with t and x powers up to 3, jets up to z_3, E^m with
    # m in [-2, 2], and h_j where the ring allows them
    eq = draw(st.sampled_from([HEAT, POTBURGERS, BURGERS, XDEP, KDV, EXPRHS]))
    pool = [T_VAR, X_VAR, jet(0), jet(1), jet(2), jet(3)]
    if eq.allows_par:
        pool += [par(0), par(1)]
    terms = {}
    for _ in range(draw(st.integers(0, 5))):
        chosen = draw(st.lists(st.sampled_from(pool), unique=True, max_size=4))
        mono = [(v, draw(st.integers(1, 3))) for v in chosen]
        m = draw(st.integers(-2, 2))
        if m:
            mono.append((EXP_VAR, m))
        num = draw(st.integers(-9, 9).filter(bool))
        terms[tuple(sorted(mono))] = Fraction(num, draw(st.integers(1, 6)))
    return eq, DiffPoly(terms)


@settings(max_examples=150, deadline=None)
@given(_equation_and_body())
def test_leibniz_residual_matches_dt_minus_frechet(case):
    eq, body = case
    assert invariance_residual(eq, body) == eq.dt(body) - eq.frechet(eq.rhs, body)


def test_burgers_residual_rejects_parameter_symbols():
    with pytest.raises(ValueError):
        invariance_residual(BURGERS, h(0))
    with pytest.raises(ValueError):
        invariance_residual(BURGERS, z(1) + t * h(0) * z(0))


def test_residual_images_are_built_once_per_jet_part(monkeypatch):
    # each part's images are built once, read off the partials of L for the
    # part 1 and by the product rule for every other part, and no part is
    # derived whole by D_t
    built, dt_calls = [], []
    unit_images, product, dt = (
        EvolutionEquation._unit_images, EvolutionEquation._product_images, EvolutionEquation.dt
    )

    def counting_unit(self):
        built.append(0)
        return unit_images(self)

    def counting_product(self, Jp, u, images):
        built.append(Jp + u)
        return product(self, Jp, u, images)

    def counting_dt(self, p):
        dt_calls.append(p)
        return dt(self, p)

    monkeypatch.setattr(EvolutionEquation, "_unit_images", counting_unit)
    monkeypatch.setattr(EvolutionEquation, "_product_images", counting_product)
    monkeypatch.setattr(EvolutionEquation, "dt", counting_dt)
    # 48 terms over 3 jet parts
    eq = EvolutionEquation("burgers_copy", BURGERS.rhs, allows_par=False)
    parts = [z(0) * z(1), z(2), z(0) ** 2 * z(3)]
    body = DiffPoly.zero()
    for a in range(4):
        for b in range(4):
            for J in parts:
                body = body + Fraction(a + 1, b + 2) * t**a * x**b * J
    residual = invariance_residual(eq, body)
    assert len(built) == len(set(built))
    assert built[0] == 0 and {m for J in parts for m in J._nums} <= set(built)
    assert dt_calls == []
    built.clear()
    assert invariance_residual(eq, body) == residual
    assert built == []

    # the solver leaves the images of its ansatz's jet parts on the equation
    report = solve_symmetries(BURGERS, 3)
    body = t**3 * x**3 * z(0) * z(3) ** 2
    for i, c in enumerate(report.basis, start=1):
        body = body + Fraction(1, i) * c.body
    built.clear()
    invariance_residual(BURGERS, body)
    assert built == []


@st.composite
def _equation_and_parts(draw):
    """A fresh copy of an equation, and jet parts in a random order.

    Each part has degree <= 4 in the z_k and h_j, indices <= 6, h_j where
    the ring allows them, and E^m with m in [-2, 2].
    """
    eq = draw(st.sampled_from([HEAT, POTBURGERS, BURGERS, KDV, XDEP, THIRD, LIN, EXPRHS]))
    pool = [jet(k) for k in range(7)]
    if eq.allows_par:
        pool += [par(j) for j in range(7)]
    part = st.builds(
        lambda factors, e: sum(map(unit, factors)) + e * unit(EXP_VAR),
        st.lists(st.sampled_from(pool), max_size=4),
        st.integers(-2, 2),
    )
    parts = draw(st.lists(part, min_size=1, max_size=12, unique=True))
    return EvolutionEquation(eq.name, eq.rhs, eq.allows_par), parts


@settings(max_examples=150, deadline=None)
@given(_equation_and_parts())
def test_product_rule_images_match_dt_and_prolongation_sums(case):
    # each part's images, built from a smaller part's by the product rule,
    # and the tails that the equation's rules read off its tower, equal
    # those of D_t, D_x and the prolongation sums applied to the part
    eq, parts = case
    for J in parts:
        p = DiffPoly._make({J: 1})
        G = prolongation_sums(eq.rhs, p, len(jet_partials(eq.rhs)))
        res, tower = eq.jet_part_images(J)
        tails = [eq._tail_sum({}, J, tower, i, 1) for i in range(1, len(G))]
        # Res and the tails are numerators over the denominator of L, the
        # tower over 1; the tails may hold cancelled entries
        wrapped = tuple(
            DiffPoly._make({m: c for m, c in t.items() if c}, eq.rhs._den) for t in (res, *tails)
        )
        assert wrapped == (eq.dt(p) - (G[0] if G else 0), *G[1:])
        assert tuple(DiffPoly._make(dict(t)) for t in tower) == tuple(x_tower(p, len(G) - 1)[1:])


def test_a_parameter_part_is_refused_before_anything_is_built():
    eq = EvolutionEquation("burgers_copy", BURGERS.rhs, allows_par=False)
    for J in (h(0) * z(1) * z(2), z(0) * h(3)):
        with pytest.raises(ValueError, match="parameter symbols"):
            eq.jet_part_images(next(iter(J._nums)))
    assert eq._jet_images == {}
