"""Symmetry families, brackets, structure constants, Lie correspondence."""

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_random_poly, random_poly_stream, rank_of_bodies
from jetsym import symfam
from jetsym.diffring import (
    DiffPoly,
    JetLimitError,
    exp_poly,
    jet_poly,
    par_poly,
    t_poly,
    x_poly,
)
from jetsym.jetflow import BURGERS, HEAT, POTBURGERS, Characteristic, invariance_residual
from jetsym.opcalc import Compose, Dx, apply, boost_op, translation_op
from jetsym.symfam import (
    Family,
    FamilyIndex,
    LieGenerator,
    closed_form_bracket,
    commutator,
    evolution_form,
    family_seed_chain,
    heat_point_symmetries,
    index_range,
    lie_correspondence,
    q_char,
    structure_check,
    structure_sweep,
)

t, x = t_poly(), x_poly()
half = Fraction(1, 2)


def z(k):
    return jet_poly(k)


def test_burgers_seeds():
    assert q_char(Family.BURGERS_Q, 0, 1).body == -half * z(1)
    assert q_char(Family.BURGERS_Q, 0, 0).body == 0
    # definitional seed D_x(boost 1); differs from a misprinted variant
    assert q_char(Family.BURGERS_Q, 1, 0).body == half * (1 - t * z(1))


def test_family_index_on_characteristic():
    c = q_char(Family.HEAT_Q, 2, 1)
    assert c.label == FamilyIndex(Family.HEAT_Q, 2, 1)
    assert c.equation is HEAT


def test_boost_squared_member_degrees():
    from jetsym.diffring import T_VAR

    q20 = q_char(Family.HEAT_Q, 2, 0).body
    assert q20.degree(T_VAR) == 2
    assert q20 == (
        t * t * jet_poly(2)
        + t * x * jet_poly(1)
        + (Fraction(1, 4) * x * x + half * t) * jet_poly(0)
    )


def test_family_order_is_total_index():
    for family in (Family.HEAT_Q, Family.POT_Q, Family.BURGERS_Q):
        for k in range(4):
            for l in range(4):
                if (k, l) == (0, 0):
                    continue
                assert q_char(family, k, l).body.order() == k + l, (family, k, l)


def test_all_family_members_are_symmetries():
    for family, eq in (
        (Family.HEAT_Q, HEAT),
        (Family.POT_Q, POTBURGERS),
        (Family.BURGERS_Q, BURGERS),
    ):
        for k in range(4):
            for l in range(4):
                if k + l > 3:
                    continue
                res = invariance_residual(eq, q_char(family, k, l))
                assert res == 0, (family, k, l)


def test_commutator_heat_example():
    # [Q01, Q10] = -u/2, by hand: (x u1/2 + t u2) - (t u2 + u/2 + x u1/2)
    got = commutator(HEAT, q_char(Family.HEAT_Q, 0, 1), q_char(Family.HEAT_Q, 1, 0))
    assert got.body == -half * z(0)


def test_commutator_parameter_fields_commute():
    zh = q_char(Family.HEAT_Z)
    assert commutator(HEAT, zh, zh).body == 0
    # concrete heat-polynomial instances of the parameter function
    h1 = Characteristic(HEAT, x)
    h2 = Characteristic(HEAT, x * x + 2 * t)
    assert commutator(HEAT, h1, h2).body == 0


def test_commutator_burgers_degenerate_pair():
    got = commutator(BURGERS, q_char(Family.BURGERS_Q, 0, 1), q_char(Family.BURGERS_Q, 1, 0))
    assert got.body == 0


def test_commutator_antisymmetric_and_bilinear(rng):
    for _ in range(8):
        a = Characteristic(BURGERS, make_random_poly(rng))
        b = Characteristic(BURGERS, make_random_poly(rng))
        ab = commutator(BURGERS, a, b).body
        ba = commutator(BURGERS, b, a).body
        assert ab == -ba
        c = Characteristic(BURGERS, make_random_poly(rng))
        s = Characteristic(BURGERS, 2 * a.body - 3 * c.body)
        lhs = commutator(BURGERS, s, b).body
        rhs = 2 * ab - 3 * commutator(BURGERS, c, b).body
        assert lhs == rhs


@pytest.mark.parametrize(
    "eq, with_par, exp_powers",
    [(HEAT, True, (0,)), (POTBURGERS, True, (-1, 0, 2)), (BURGERS, False, (0,))],
    ids=lambda v: getattr(v, "name", None),
)
def test_commutator_is_the_difference_of_the_frechet_derivatives(eq, with_par, exp_powers):
    # one sum over both prolongation sums against the two Frechet
    # derivatives formed apart, in each equation's ring
    bodies = [
        p * exp_poly(m)
        for p, m in zip(
            random_poly_stream(31, 24, with_par=with_par, max_jet=4),
            exp_powers * 24,
        )
    ]
    for a, b in zip(bodies[::2], bodies[1::2]):
        got = commutator(eq, Characteristic(eq, a), Characteristic(eq, b)).body
        assert got == eq.frechet(b, a) - eq.frechet(a, b)


def test_commutator_refuses_parameters_in_the_burgers_ring():
    for a, b in ((par_poly(0), z(1)), (z(1), par_poly(0) * z(2))):
        with pytest.raises(ValueError, match="parameter symbols"):
            commutator(BURGERS, Characteristic(BURGERS, a), Characteristic(BURGERS, b))


def test_structure_check_heat_example():
    assert structure_check(Family.HEAT_Q, (0, 1), (1, 0)) == 0
    assert closed_form_bracket(Family.HEAT_Q, (0, 1), (1, 0)) == -half * z(0)


def test_structure_check_parameter_bracket():
    assert structure_check(Family.HEAT_Z, (1, 1)).is_zero()
    # [Z(h), Q11] = Z(G D_x h) with body t h2 + x h1 / 2
    zh = q_char(Family.HEAT_Z)
    q11 = q_char(Family.HEAT_Q, 1, 1)
    got = commutator(HEAT, zh, q11).body
    assert got == t * par_poly(2) + half * x * par_poly(1)


def test_structure_check_burgers_degenerate():
    assert structure_check(Family.BURGERS_Q, (0, 1), (1, 0)).is_zero()


def test_structure_sweep_small():
    pairs = [(k, l) for k in range(3) for l in range(3) if k + l <= 2]
    for family in (Family.HEAT_Q, Family.POT_Q, Family.BURGERS_Q):
        for kl1 in pairs:
            for kl2 in pairs:
                assert structure_check(family, kl1, kl2).is_zero(), (family, kl1, kl2)


def test_sweep_residuals_match_structure_check(monkeypatch):
    # every ordered pair, diagonal included, against the per-pair check; then
    # again with a closed form made wrong by a term that is not antisymmetric,
    # so that the residuals are nonzero and differ between (a, b) and (b, a)
    indices = list(symfam.index_range(3))

    def compare():
        for family in (Family.HEAT_Q, Family.POT_Q, Family.BURGERS_Q):
            residuals = structure_sweep(family, indices)
            assert set(residuals) == {(a, b) for a in indices for b in indices}
            for (a, b), residual in residuals.items():
                assert residual == structure_check(family, a, b), (family, a, b)

    compare()
    true_form = symfam._closed_form_terms

    def skewed(family, kl1, kl2, sign=1):
        extra = (DiffPoly.const(1), symfam._q_body(family, *kl1), sign * (kl2[0] + 1))
        return [*true_form(family, kl1, kl2, sign), extra]

    monkeypatch.setattr(symfam, "_closed_form_terms", skewed)
    compare()
    assert any(structure_sweep(Family.HEAT_Q, indices).values())


def test_burgers_brackets_match_rescaled_binomial_form():
    # the unscaled binomial constants hold verbatim for the images -2 Q[k,l]
    from jetsym.symfam import _binomial_weight, _q_body

    pairs = [(k, l) for k in range(3) for l in range(3) if 1 <= k + l <= 2]
    for k, l in pairs:
        for kp, lp in pairs:
            a = Characteristic(BURGERS, -2 * _q_body(Family.BURGERS_Q, k, l))
            b = Characteristic(BURGERS, -2 * _q_body(Family.BURGERS_Q, kp, lp))
            brute = commutator(BURGERS, a, b).body
            expected = DiffPoly.zero()
            for i in range(min(k, lp) + 1):
                expected = expected + _binomial_weight(i, k, lp) * (
                    -2 * _q_body(Family.BURGERS_Q, k + kp - i, l + lp - i)
                )
            for i in range(min(kp, l) + 1):
                expected = expected - _binomial_weight(i, kp, l) * (
                    -2 * _q_body(Family.BURGERS_Q, k + kp - i, l + lp - i)
                )
            assert brute == expected


def test_jacobi_identity_low_order():
    indices = [(k, l) for k in range(3) for l in range(3) if k + l <= 2]
    for family, eq in (
        (Family.HEAT_Q, HEAT),
        (Family.POT_Q, POTBURGERS),
        (Family.BURGERS_Q, BURGERS),
    ):
        chars = [q_char(family, k, l) for k, l in indices]
        for a, b, c in combinations(chars, 3):
            ab_c = commutator(eq, commutator(eq, a, b), c).body
            bc_a = commutator(eq, commutator(eq, b, c), a).body
            ca_b = commutator(eq, commutator(eq, c, a), b).body
            assert (ab_c + bc_a + ca_b).is_zero()


def test_family_linearly_independent():
    from jetsym.detsolve import family_bodies

    bodies = family_bodies(Family.BURGERS_Q, 4)
    assert rank_of_bodies(bodies) == len(bodies)


def test_evolution_forms():
    gens = heat_point_symmetries()
    dilation = evolution_form(gens["dilation"], HEAT).body
    expected = -(2 * q_char(Family.HEAT_Q, 1, 1).body + half * q_char(Family.HEAT_Q, 0, 0).body)
    assert dilation == expected
    assert evolution_form(gens["space_translation"], HEAT).body == -z(1)
    assert evolution_form(gens["amplitude_scaling"], HEAT).body == z(0)


def test_burgers_seeds_are_point_symmetry_evolution_forms():
    # the seeds match the halved space translation and Galilean boost of
    # the Burgers equation up to sign (the boost is t d/dx + d/dv)
    translation = LieGenerator(
        DiffPoly.zero(), Fraction(1, 2) * DiffPoly.const(1), DiffPoly.zero()
    )
    boost = LieGenerator(
        DiffPoly.zero(), half * t, half * DiffPoly.const(1)
    )
    ev_trans = evolution_form(translation, BURGERS).body
    ev_boost = evolution_form(boost, BURGERS).body
    assert ev_trans in (q_char(Family.BURGERS_Q, 0, 1).body, -q_char(Family.BURGERS_Q, 0, 1).body)
    assert ev_boost in (q_char(Family.BURGERS_Q, 1, 0).body, -q_char(Family.BURGERS_Q, 1, 0).body)


def test_lie_correspondence_up_to_sign():
    matches = lie_correspondence()
    assert len(matches) == 6
    assert all(m.sign in (-1, 1) for m in matches)
    signs = {m.name: m.sign for m in matches}
    assert signs["amplitude_scaling"] == 1  # the only positive match


def test_z_family_rejects_indices():
    with pytest.raises(ValueError):
        q_char(Family.HEAT_Z, 1, 0)
    with pytest.raises(ValueError):
        q_char(Family.BURGERS_Q, -1, 0)


# The equation and seed of each chain, as the operators see them.
_EQ_SEED = {
    Family.HEAT_Q: (HEAT, z(0)),
    Family.POT_Q: (POTBURGERS, DiffPoly.const(1)),
    Family.BURGERS_Q: (BURGERS, DiffPoly.const(1)),
    Family.HEAT_Z: (HEAT, par_poly(0)),
}


def _from_scratch(family, k, l):
    """boost^k translation^l (seed), with a leading D_x for Burgers, in one apply."""
    eq, seed = _EQ_SEED[family]
    ops = (boost_op(eq),) * k + (translation_op(eq),) * l
    if family is Family.BURGERS_Q:
        ops = (Dx(),) + ops
    return apply(Compose(ops), eq, seed)


def _ladder_entry(family, k, l):
    if family is Family.HEAT_Z:
        return family_seed_chain(family, k, l)
    return q_char(family, k, l).body


def _clear_family_caches():
    symfam._LADDER.clear()


def test_family_entries_match_one_composed_operator():
    # the commutator ladder against a single composed operator; for HEAT_Z,
    # boost^k D_x^l h against one composed heat operator
    _clear_family_caches()
    for family in _EQ_SEED:
        for k, l in index_range(8):
            assert _ladder_entry(family, k, l) == _from_scratch(family, k, l), (family, k, l)


_LADDER_ORDER = 6


def _bodies_in_index_order():
    _clear_family_caches()
    return {
        (family, k, l): _ladder_entry(family, k, l)
        for family in _EQ_SEED
        for k, l in index_range(_LADDER_ORDER)
    }


@settings(max_examples=25, deadline=None)
@given(st.permutations([(f, k, l) for f in _EQ_SEED for k, l in index_range(_LADDER_ORDER)]))
def test_ladder_bodies_do_not_depend_on_the_order_of_requests(requests):
    expected = _bodies_in_index_order()
    _clear_family_caches()
    for key in requests:
        assert _ladder_entry(*key) == expected[key], key


@pytest.mark.parametrize("eq", [HEAT, POTBURGERS, BURGERS], ids=lambda e: e.name)
def test_operators_are_built_from_the_ladder_multiplier(eq):
    # the ladder's M is the one the operators of the verify suites carry
    m = eq.multiplier
    for p in random_poly_stream(4242, 12, with_par=eq.allows_par):
        translated = eq.dx(p) + m * p
        assert apply(translation_op(eq), eq, p) == translated
        assert apply(boost_op(eq), eq, p) == t * translated + half * x * p


def test_cached_bodies_are_read_only():
    body = q_char(Family.BURGERS_Q, 2, 1).body
    with pytest.raises(TypeError):
        body.terms[()] = Fraction(1)
    with pytest.raises(TypeError):
        q_char(Family.POT_Q, 2, 1).body.terms[()] = Fraction(1)
    assert q_char(Family.BURGERS_Q, 2, 1).body == _from_scratch(Family.BURGERS_Q, 2, 1)
    assert q_char(Family.BURGERS_Q, 3, 1).body == _from_scratch(Family.BURGERS_Q, 3, 1)
    with pytest.raises(TypeError):
        family_seed_chain(Family.BURGERS_Q, 2, 1).terms[()] = Fraction(1)
    # the HEAT_Z seed h is written once, in the chain
    assert q_char(Family.HEAT_Z).body is family_seed_chain(Family.HEAT_Z, 0, 0)


def test_deep_family_index_stops_at_the_jet_cap():
    # the chain is filled iteratively: the jet cap, not the recursion limit, stops it
    with pytest.raises(JetLimitError):
        q_char(Family.HEAT_Q, 500, 500)


def test_ladder_takes_one_dx_per_column_entry(monkeypatch):
    # only the column differentiates: c(0,j) = T c(0,j-1) keeps D_x c(0,j-1)
    # on c(0,j-1), the Burgers member Q[0,j] is that kept D_x, and no entry
    # with k >= 1, chain or member, takes one
    from jetsym import jetflow

    _clear_family_caches()
    # a fresh seed: the module's own may already hold its D_x
    monkeypatch.setitem(symfam._CHAIN_SEEDS, Family.BURGERS_Q, DiffPoly.const(1))
    derived = []
    real = jetflow.derive
    monkeypatch.setattr(
        jetflow,
        "derive",
        lambda p, images, *rest: (images is jetflow._DX_IMAGES and derived.append(p))
        or real(p, images, *rest),
    )
    entries = list(index_range(6))
    for k, l in entries:
        q_char(Family.BURGERS_Q, k, l)
    # the column reaches c(0,6), and Q[0,6] takes the seventh derivation
    column = [family_seed_chain(Family.BURGERS_Q, 0, j) for j in range(7)]
    assert len(derived) == 7
    assert all(p is c for p, c in zip(derived, column))
    monkeypatch.undo()
    for k, l in entries:
        assert q_char(Family.BURGERS_Q, k, l).body == _from_scratch(Family.BURGERS_Q, k, l)


def test_burgers_members_are_the_x_derivatives_of_the_chain():
    # the member ladder against the definition Q[k,l] = D_x c(k,l), whose
    # D_x runs on the chain entry and shares no sum with the member ladder
    for k, l in index_range(12):
        member = q_char(Family.BURGERS_Q, k, l).body
        assert member == BURGERS.dx(family_seed_chain(Family.BURGERS_Q, k, l)), (k, l)


def test_burgers_member_sums_cancel_nothing(monkeypatch):
    # no ring sum that builds the order-12 Burgers table cancels an entry:
    # the member ladder, like the chain's, adds only terms that survive
    from jetsym import diffring

    _clear_family_caches()
    real = diffring._nonzero
    cancelled = []
    monkeypatch.setattr(
        diffring,
        "_nonzero",
        lambda nums: (0 in nums.values() and cancelled.append(nums)) or real(nums),
    )
    for k, l in index_range(12, include_origin=False):
        q_char(Family.BURGERS_Q, k, l)
    assert cancelled == []


@pytest.mark.parametrize("order", [1, 6, 12])
def test_burgers_table_builds_the_chain_only_below_its_order(order):
    # the members of total n read the chain off the column through total
    # n - 1 and the column through c(0,n), and the table holds nothing else
    _clear_family_caches()
    for k, l in index_range(order, include_origin=False):
        q_char(Family.BURGERS_Q, k, l)
    chain = {(k, l) for k, l, d in symfam._LADDER[Family.BURGERS_Q] if not d}
    assert chain == set(index_range(order - 1)) | {(0, order)}
