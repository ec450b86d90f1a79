"""Exact nullspace computation and the bounded-ansatz symmetry solver."""

from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import mono_key, rank_of_bodies
from jetsym.detsolve import (
    Ansatz,
    AnsatzTooLarge,
    LinearSystem,
    build_system,
    family_bodies,
    nullspace,
    solve_symmetries,
)
from jetsym.diffring import (
    DiffPoly,
    ExponentOverflow,
    T_VAR,
    X_VAR,
    jet,
    jet_poly,
    order_key,
    unit,
)
from jetsym.jetflow import BURGERS, HEAT, POTBURGERS, EvolutionEquation, invariance_residual
from jetsym.symfam import Family, q_char

# z_t = z_2 + (1/3) z_1^2: potential Burgers with z rescaled by 3, whose
# residual images have the denominator 3
THIRD = EvolutionEquation("potburgers_third", jet_poly(2) + Fraction(1, 3) * jet_poly(1) ** 2)


def test_nullspace_zero_matrix():
    system = LinearSystem(ncols=3)
    basis = nullspace(system)
    assert basis == [
        (1, 0, 0),
        (0, 1, 0),
        (0, 0, 1),
    ]


def test_nullspace_single_row():
    system = LinearSystem.from_dense([[1, -1]])
    assert nullspace(system) == [(Fraction(1), Fraction(1))]


def test_nullspace_rectangular():
    system = LinearSystem.from_dense(
        [
            [1, 2, 3],
            [2, 4, 6],
            [0, 1, 1],
        ]
    )
    basis = nullspace(system)
    assert len(basis) == 1
    vec = basis[0]
    assert vec[0] == 1  # normalized leading entry
    for row in ([1, 2, 3], [0, 1, 1]):
        assert sum(Fraction(a) * b for a, b in zip(row, vec)) == 0


def test_nullspace_fractional_entries():
    system = LinearSystem.from_dense([[Fraction(1, 2), Fraction(-1, 3)]])
    (vec,) = nullspace(system)
    assert Fraction(1, 2) * vec[0] - Fraction(1, 3) * vec[1] == 0


def _normalized(vec):
    lead = next((v for v in vec if v), 1)
    return tuple(v / lead for v in vec)


def _sympy_nullspace(matrix, ncols):
    flat = [sympy.Rational(v.numerator, v.denominator) for r in matrix for v in r]
    m = sympy.Matrix(len(matrix), ncols, flat)
    return [
        _normalized([Fraction(int(v.p), int(v.q)) for v in vec])
        for vec in m.nullspace()
    ]


_entries = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3)),
)


@st.composite
def _matrices(draw):
    """Small rational matrices with zero columns, zero rows and repeated rows."""
    ncols = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(_entries, min_size=ncols, max_size=ncols), max_size=5))
    for col in draw(st.lists(st.integers(0, ncols - 1), max_size=2)):
        for r in rows:
            r[col] = Fraction(0)
    extra = []
    for r in rows:
        kind = draw(st.sampled_from(("none", "duplicate", "proportional", "zero")))
        if kind == "duplicate":
            extra.append(list(r))
        elif kind == "proportional":
            factor = draw(st.builds(Fraction, st.integers(-3, 3).filter(bool), st.integers(1, 3)))
            extra.append([v * factor for v in r])
        elif kind == "zero":
            extra.append([Fraction(0)] * ncols)
    order = draw(st.permutations(range(len(rows) + len(extra))))
    merged = rows + extra
    return ncols, [merged[i] for i in order]


@settings(max_examples=150, deadline=None)
@given(_matrices())
def test_nullspace_matches_sympy(case):
    ncols, matrix = case
    expected = _sympy_nullspace(matrix, ncols)
    # from_dense reads the width off the first row, so an empty matrix has none
    system = LinearSystem.from_dense(matrix) if matrix else LinearSystem(ncols=ncols)
    basis = nullspace(system)
    assert basis == expected
    assert all(type(v) is Fraction for vec in basis for v in vec)
    for vec in basis:
        assert next(v for v in vec if v) == 1
    # the basis does not depend on the row labels
    relabelled = LinearSystem(
        ncols=ncols, rows={-i: entries for i, entries in system.rows.items()}
    )
    assert nullspace(relabelled) == expected


_BIG = 2**40

_big_entries = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-_BIG, _BIG)),
    st.builds(Fraction, st.integers(-_BIG, _BIG), st.integers(1, 2**20)),
)


@st.composite
def _big_matrices(draw):
    """Matrices with entries up to 2^40 and denominators up to 2^20.

    Some columns are combinations of earlier ones with large coefficients,
    so the kernel is not trivial and the reduction meets large leads.
    """
    nrows = draw(st.integers(1, 4))
    columns = []
    for _ in range(draw(st.integers(1, 6))):
        if columns and draw(st.booleans()):
            picks = draw(st.lists(st.sampled_from(range(len(columns))), min_size=1, max_size=3))
            col = [Fraction(0)] * nrows
            for j in picks:
                factor = draw(_big_entries)
                col = [v + factor * w for v, w in zip(col, columns[j])]
        else:
            col = draw(st.lists(_big_entries, min_size=nrows, max_size=nrows))
        columns.append(col)
    return len(columns), [list(row) for row in zip(*columns)]


@settings(max_examples=100, deadline=None)
@given(_big_matrices())
def test_nullspace_matches_sympy_on_large_entries(case):
    ncols, matrix = case
    assert nullspace(LinearSystem.from_dense(matrix)) == _sympy_nullspace(matrix, ncols)


@settings(max_examples=10, deadline=None)
@given(st.randoms(use_true_random=False))
def test_solver_kernel_does_not_depend_on_row_order(rng):
    system = build_system(Ansatz(BURGERS, 3))
    labels = list(system.rows)
    rng.shuffle(labels)
    shuffled = LinearSystem(ncols=system.ncols, rows={r: system.rows[r] for r in labels})
    assert nullspace(shuffled) == nullspace(system)


def _direct_system(ansatz):
    """build_system's rows computed naively, one invariance residual per column."""
    rows = {}
    for col, mono in enumerate(ansatz.monomials()):
        residual = invariance_residual(ansatz.equation, DiffPoly({mono: 1}))
        for rmono, coeff in residual.terms.items():
            rows.setdefault(rmono, {})[col] = coeff
    return rows


_LEIBNIZ_BOUNDS = [
    (1, -1, -1, -1),
    (2, -1, -1, -1),
    (3, -1, -1, -1),
    (2, 2, 5, 3),
    (1, 1, 4, 2),
    (3, 3, 4, 4),
]


@pytest.mark.parametrize("eq", [HEAT, POTBURGERS, BURGERS, THIRD], ids=lambda eq: eq.name)
@pytest.mark.parametrize("bounds", _LEIBNIZ_BOUNDS)
def test_build_system_matches_direct_residuals(eq, bounds):
    order, jet_degree, x_degree, t_degree = bounds
    ansatz = Ansatz(eq, order, jet_degree=jet_degree, x_degree=x_degree, t_degree=t_degree)
    system = build_system(ansatz)
    assert system.columns == tuple(ansatz.monomials())
    assert system.rows == _direct_system(ansatz)
    assert all(type(v) is Fraction for r in system.rows.values() for v in r.values())


@pytest.mark.parametrize("eq", [HEAT, POTBURGERS], ids=lambda eq: eq.name)
def test_experimental_solve_at_lopsided_bounds(eq):
    # x_degree above the order of L exercises every Leibniz tail; the solver
    # checks each kernel vector's residual exactly and raises on a failure
    report = solve_symmetries(
        eq, 2, jet_degree=2, x_degree=5, t_degree=3, experimental=True
    )
    assert report.dimension > 0


@pytest.mark.parametrize("order, dimension", [(1, 3), (2, 6)])
def test_solve_with_a_fractional_rhs(order, dimension):
    # the same dimensions as potential Burgers, of which THIRD is a rescaling
    assert solve_symmetries(POTBURGERS, order, experimental=True).dimension == dimension
    report = solve_symmetries(THIRD, order, experimental=True)
    assert report.dimension == dimension
    for c in report.basis:
        assert invariance_residual(THIRD, c.body) == 0


_degree_bounds = st.integers(-1, 3)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([BURGERS, HEAT, POTBURGERS, THIRD]),
    st.integers(0, 3),
    _degree_bounds,
    _degree_bounds,
    _degree_bounds,
)
def test_solver_bodies_match_the_decoded_system(eq, order, jet_degree, x_degree, t_degree):
    # the solver reads its kernel straight from the reducer; the same basis
    # comes from nullspace, checked against sympy, on build_system's view
    bounds = (jet_degree, x_degree, t_degree)
    report = solve_symmetries(eq, order, *bounds, experimental=True)
    system = build_system(Ansatz(eq, order, *bounds))
    expected = [
        DiffPoly({m: v for m, v in zip(system.columns, vec) if v}) for vec in nullspace(system)
    ]
    assert [c.body for c in report.basis] == expected
    assert report.ansatz_size == system.ncols


def test_ansatz_monomials_are_bounded_and_sorted():
    ansatz = Ansatz(BURGERS, 2)
    monos = ansatz.monomials()
    assert len(monos) == len(set(monos))
    for m in monos:
        d = dict(m)
        assert d.get(T_VAR, 0) <= 2 and d.get(X_VAR, 0) <= 2
        assert sum(e for (kind, _), e in m if kind == 2) <= 2
    assert monos == sorted(monos, key=lambda m: (sum(e for _, e in m), m))


_ENUMERATE_BOUNDS = _LEIBNIZ_BOUNDS + [(0, 3, 2, 2), (2, 0, 0, 3), (3, 6, 1, 1)]


@pytest.mark.parametrize("bounds", _ENUMERATE_BOUNDS)
def test_ansatz_monomials_follow_mono_key(bounds):
    order, jet_degree, x_degree, t_degree = bounds
    ansatz = Ansatz(BURGERS, order, jet_degree, x_degree, t_degree)
    monos = ansatz.monomials()
    assert monos == sorted(set(monos), key=mono_key)
    packed = [a * unit(T_VAR) + b * unit(X_VAR) + J for _, a, b, J in ansatz._enumerate()]
    assert packed == sorted(packed, key=order_key)


def test_ansatz_cap():
    with pytest.raises(AnsatzTooLarge):
        Ansatz(BURGERS, 4, monomial_cap=10).monomials()


@pytest.mark.parametrize("bounds", _ENUMERATE_BOUNDS)
def test_ansatz_cap_counts_the_monomials_before_enumerating(bounds):
    # the cap is checked on a count formed from the bounds alone
    order, jet_degree, x_degree, t_degree = bounds
    count = len(Ansatz(BURGERS, order, jet_degree, x_degree, t_degree)._enumerate())
    Ansatz(BURGERS, order, jet_degree, x_degree, t_degree, monomial_cap=count)._enumerate()
    over = Ansatz(BURGERS, order, jet_degree, x_degree, t_degree, monomial_cap=count - 1)
    message = f"^{count} ansatz monomials exceed the cap {count - 1}$"
    with pytest.raises(AnsatzTooLarge, match=message):
        over._enumerate()


@pytest.mark.parametrize("bound", ["jet_degree", "x_degree", "t_degree"])
def test_ansatz_rejects_negative_degree_bounds(bound):
    with pytest.raises(ValueError, match=bound):
        Ansatz(BURGERS, 2, **{bound: -2})
    assert getattr(Ansatz(BURGERS, 2, **{bound: -1}), bound) == 2


@pytest.mark.parametrize(
    "order, bounds",
    [
        (1, {"jet_degree": 128}),
        (0, {"jet_degree": 0, "x_degree": 128, "t_degree": 0}),
        (0, {"jet_degree": 0, "x_degree": 0, "t_degree": 128}),
    ],
)
def test_ansatz_bounds_over_the_packed_field(order, bounds):
    # 127 is the largest exponent a packed field holds
    (name,) = [k for k, v in bounds.items() if v == 128]
    with pytest.raises(ExponentOverflow, match=name):
        Ansatz(BURGERS, order, **bounds).monomials()


def test_system_order_one_contains_translation():
    report = solve_symmetries(BURGERS, 1)
    assert report.dimension == 2
    span = [c.body for c in report.basis]
    # v_x lies in the kernel span: residual of v_x is zero and rank is 2
    assert invariance_residual(BURGERS, jet_poly(1)) == 0
    assert rank_of_bodies(span + [jet_poly(1)]) == 2


def test_order_zero_has_no_symmetries():
    report = solve_symmetries(BURGERS, 0)
    assert report.dimension == 0


def test_single_monomial_ansatz_is_empty():
    system = build_system(Ansatz(BURGERS, 0, jet_degree=1, x_degree=0, t_degree=0))
    assert system.columns == (
        (),
        ((jet(0), 1),),
    )
    kernel = nullspace(system)
    assert kernel == []


def test_solver_dimensions_and_span():
    expected = {1: 2, 2: 5, 3: 9}
    for order, dim in expected.items():
        report = solve_symmetries(BURGERS, order)
        assert report.dimension == dim, order
        assert report.family_span_matches is True
        for c in report.basis:
            assert invariance_residual(BURGERS, c.body) == 0


def test_solver_dimension_and_span_at_order_5():
    report = solve_symmetries(BURGERS, 5)
    assert report.dimension == 20
    assert report.family_span_matches is True


def test_family_contained_in_default_bounds():
    # explicit membership of every family monomial in the default ansatz
    n = 4
    admissible = set(Ansatz(BURGERS, n).monomials())
    for total in range(1, n + 1):
        for k in range(total + 1):
            body = q_char(Family.BURGERS_Q, k, total - k).body
            assert set(body.terms) <= admissible, (k, total - k)


def test_determinism():
    a = solve_symmetries(BURGERS, 2)
    b = solve_symmetries(BURGERS, 2)
    assert [c.body for c in a.basis] == [c.body for c in b.basis]


def test_heat_requires_experimental_flag():
    with pytest.raises(ValueError):
        solve_symmetries(HEAT, 1)
    report = solve_symmetries(HEAT, 1, experimental=True)
    # 3 linear family members (u, u_x, t u_x + x u / 2) plus the bounded
    # polynomial heat solutions 1 and x; the span verdict does not apply
    assert report.family_span_matches is None
    assert report.dimension == 5
    for c in report.basis:
        assert invariance_residual(HEAT, c.body) == 0
    # order 2: six family members plus the heat polynomials 1, x, x^2 + 2t
    assert solve_symmetries(HEAT, 2, experimental=True).dimension == 9


def test_family_rank_matches_count():
    bodies = family_bodies(3)
    assert len(bodies) == 9
    assert rank_of_bodies(bodies) == 9


def test_solver_on_a_jet_free_rhs():
    # ord L = 0: the residual images carry no Leibniz tails
    eq = EvolutionEquation("lin", DiffPoly.variable(X_VAR))
    assert solve_symmetries(eq, 1, experimental=True).dimension == 5
