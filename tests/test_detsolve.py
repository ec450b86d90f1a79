"""The solver's exact reducer and the bounded-ansatz symmetry solver."""

import math
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    KDV,
    direct_residuals,
    direct_system,
    gauss_jordan_kernel,
    mono_key,
    nullity_mod_p,
    rank_of_bodies,
)
from jetsym import detsolve
from jetsym.detsolve import (
    Ansatz,
    AnsatzTooLarge,
    _dependencies,
    _residual_columns,
    family_bodies,
    solve_symmetries,
)
from jetsym.diffring import (
    DiffPoly,
    ExponentOverflow,
    T_VAR,
    X_VAR,
    _decode,
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


def _integer_columns(matrix, ncols, label=lambda pos: pos):
    """The columns of a dense rational matrix as sparse integer vectors.

    Each row is scaled by the lcm of its denominators and keyed by
    label(its position).
    """
    columns = [{} for _ in range(ncols)]
    for pos, row in enumerate(matrix):
        row = [Fraction(v) for v in row]
        den = math.lcm(*(v.denominator for v in row))
        for col, v in enumerate(row):
            if v:
                columns[col][label(pos)] = v.numerator * (den // v.denominator)
    return columns


def _kernel(columns):
    """The reducer's kernel of integer columns, one vector per dependent
    column, scaled so that its first nonzero entry is 1."""
    basis = []
    for combo in _dependencies(columns):
        if combo is not None:
            lead = combo[min(combo)]
            vec = [Fraction(0)] * len(columns)
            for c, v in combo.items():
                vec[c] = Fraction(v, lead)
            basis.append(tuple(vec))
    return basis


def test_nullspace_zero_matrix():
    assert _kernel(_integer_columns([], 3)) == [
        (1, 0, 0),
        (0, 1, 0),
        (0, 0, 1),
    ]


def test_nullspace_single_row():
    assert _kernel(_integer_columns([[1, -1]], 2)) == [(Fraction(1), Fraction(1))]


def test_nullspace_rectangular():
    matrix = [
        [1, 2, 3],
        [2, 4, 6],
        [0, 1, 1],
    ]
    basis = _kernel(_integer_columns(matrix, 3))
    assert len(basis) == 1
    vec = basis[0]
    assert vec[0] == 1  # normalized leading entry
    for row in ([1, 2, 3], [0, 1, 1]):
        assert sum(Fraction(a) * b for a, b in zip(row, vec)) == 0
    assert basis == gauss_jordan_kernel([dict(enumerate(r)) for r in matrix], 3)


def test_nullspace_fractional_entries():
    (vec,) = _kernel(_integer_columns([[Fraction(1, 2), Fraction(-1, 3)]], 2))
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
    assert _kernel(_integer_columns(matrix, ncols)) == expected
    # the kernel does not depend on the row keys
    assert _kernel(_integer_columns(matrix, ncols, lambda pos: -pos)) == expected


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
    assert _kernel(_integer_columns(matrix, ncols)) == _sympy_nullspace(matrix, ncols)


_big_ints = st.integers(-_BIG, _BIG)


@st.composite
def _sparse_vectors(draw):
    """Sparse integer vectors with entries up to 2^40; some repeat an
    earlier vector, are proportional to one, or combine several."""
    vectors = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(("fresh", "repeat", "proportional", "combination")))
        if kind == "fresh" or not vectors:
            vec = draw(st.dictionaries(st.integers(0, 7), _big_ints, max_size=5))
        elif kind == "repeat":
            vec = dict(draw(st.sampled_from(vectors)))
        else:
            picks = draw(st.lists(st.sampled_from(vectors), min_size=1, max_size=3))
            if kind == "proportional":
                picks = picks[:1]
            vec = {}
            for pick in picks:
                factor = draw(_big_ints.filter(bool))
                for k, v in pick.items():
                    vec[k] = vec.get(k, 0) + factor * v
        vectors.append({k: v for k, v in vec.items() if v})
    return vectors


@settings(max_examples=200, deadline=None)
@given(_sparse_vectors())
def test_dependencies_keep_their_contract(vectors):
    copies = [dict(vec) for vec in vectors]
    deps = list(_dependencies(vectors))
    assert vectors == copies  # the inputs are not modified
    assert len(deps) == len(vectors)
    independent = {i for i, dep in enumerate(deps) if dep is None}
    for index, combo in enumerate(deps):
        if combo is None:
            continue
        # a positive entry at its own index, support on earlier independent
        # vectors, primitive, and an exact vanishing combination
        assert combo[index] > 0
        assert set(combo) - {index} <= {i for i in independent if i < index}
        assert all(combo.values()) and math.gcd(*combo.values()) == 1
        total = {}
        for i, c in combo.items():
            for k, v in vectors[i].items():
                total[k] = total.get(k, 0) + c * v
        assert not any(total.values())
    # a vector is dependent exactly when it lies in the span of the earlier ones
    rows = {}
    for i, vec in enumerate(vectors):
        for k, v in vec.items():
            rows.setdefault(k, {})[i] = v
    assert _kernel(vectors) == gauss_jordan_kernel(rows.values(), len(vectors))


@settings(max_examples=10, deadline=None)
@given(st.randoms(use_true_random=False))
def test_solver_kernel_does_not_depend_on_row_order(rng):
    vectors = [vec for _, vec, _ in _residual_columns(Ansatz(BURGERS, 3))]
    keys = sorted({k for vec in vectors for k in vec})
    relabel = dict(zip(keys, rng.sample(keys, len(keys))))
    relabelled = [{relabel[k]: v for k, v in vec.items()} for vec in vectors]
    assert list(_dependencies(relabelled)) == list(_dependencies(vectors))


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
    # the solver's columns, decoded, against the naive rows
    order, jet_degree, x_degree, t_degree = bounds
    ansatz = Ansatz(eq, order, jet_degree=jet_degree, x_degree=x_degree, t_degree=t_degree)
    columns = list(_residual_columns(ansatz))
    assert [_decode(mono) for mono, _, _ in columns] == ansatz.monomials()
    rows = {}
    for col, (_, vec, scale) in enumerate(columns):
        for m, c in vec.items():
            rows.setdefault(_decode(m), {})[col] = Fraction(c, scale)
    assert rows == direct_system(ansatz)


@pytest.mark.parametrize("eq", [HEAT, POTBURGERS], ids=lambda eq: eq.name)
def test_solve_at_lopsided_bounds(eq):
    # x_degree above the order of L exercises every Leibniz tail; the solver
    # checks each kernel vector's residual exactly and raises on a failure
    report = solve_symmetries(eq, 2, jet_degree=2, x_degree=5, t_degree=3)
    assert report.dimension > 0


@pytest.mark.parametrize("order, dimension", [(1, 3), (2, 6)])
def test_solve_with_a_fractional_rhs(order, dimension):
    # the same dimensions as potential Burgers, of which THIRD is a rescaling
    assert solve_symmetries(POTBURGERS, order).dimension == dimension
    report = solve_symmetries(THIRD, order)
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
    # the solver reads its kernel straight from the reducer; the reference
    # decodes the system from invariance_residual column by column and takes
    # its kernel by plain Fraction Gauss-Jordan elimination
    bounds = (jet_degree, x_degree, t_degree)
    report = solve_symmetries(eq, order, *bounds)
    ansatz = Ansatz(eq, order, *bounds)
    columns = ansatz.monomials()
    kernel = gauss_jordan_kernel(direct_system(ansatz).values(), len(columns))
    expected = [DiffPoly({m: v for m, v in zip(columns, vec) if v}) for vec in kernel]
    assert [c.body for c in report.basis] == expected
    assert report.ansatz_size == len(columns)


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
    packed = [a * unit(T_VAR) + b * unit(X_VAR) + J for _, _, a, b, J in ansatz._enumerate()]
    assert packed == sorted(packed, key=order_key)


_bounds_to_4 = st.integers(-1, 4)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 4), _bounds_to_4, _bounds_to_4, _bounds_to_4)
def test_enumerate_records_carry_the_order_key(order, jet_degree, x_degree, t_degree):
    # each record's (degree, key), assembled from its t^a x^b and J parts,
    # is the order key of the whole monomial
    for degree, key, a, b, J in Ansatz(BURGERS, order, jet_degree, x_degree, t_degree)._enumerate():
        assert (degree, key) == order_key(a * unit(T_VAR) + b * unit(X_VAR) + J)


def test_ansatz_cap(monkeypatch):
    monkeypatch.setattr(detsolve, "MONOMIAL_CAP", 10)
    with pytest.raises(AnsatzTooLarge):
        Ansatz(BURGERS, 4).monomials()


@pytest.mark.parametrize("bounds", _ENUMERATE_BOUNDS)
def test_ansatz_cap_counts_the_monomials_before_enumerating(bounds, monkeypatch):
    # the cap is checked on a count formed from the bounds alone
    ansatz = Ansatz(BURGERS, *bounds)
    count = len(ansatz._enumerate())
    monkeypatch.setattr(detsolve, "MONOMIAL_CAP", count)
    ansatz._enumerate()
    monkeypatch.setattr(detsolve, "MONOMIAL_CAP", count - 1)
    message = f"^{count} ansatz monomials exceed the cap {count - 1}$"
    with pytest.raises(AnsatzTooLarge, match=message):
        ansatz._enumerate()


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
    columns = list(_residual_columns(Ansatz(BURGERS, 0, jet_degree=1, x_degree=0, t_degree=0)))
    assert [_decode(mono) for mono, _, _ in columns] == [
        (),
        ((jet(0), 1),),
    ]
    assert list(_dependencies(vec for _, vec, _ in columns)) == [None, None]
    report = solve_symmetries(BURGERS, 0, jet_degree=1, x_degree=0, t_degree=0)
    assert report.ansatz_size == 2 and report.basis == ()


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


def test_heat_solves_without_a_reference_family():
    report = solve_symmetries(HEAT, 1)
    # 3 linear family members (u, u_x, t u_x + x u / 2) plus the bounded
    # polynomial heat solutions 1 and x; the span verdict does not apply
    assert report.family_span_matches is None
    assert report.dimension == 5
    for c in report.basis:
        assert invariance_residual(HEAT, c.body) == 0
    # order 2: six family members plus the heat polynomials 1, x, x^2 + 2t
    report = solve_symmetries(HEAT, 2)
    assert report.dimension == 9
    assert report.family_span_matches is None


def test_family_rank_matches_count():
    bodies = family_bodies(3)
    assert len(bodies) == 9
    assert rank_of_bodies(bodies) == 9


def test_solver_on_a_jet_free_rhs():
    # ord L = 0: the residual images carry no Leibniz tails
    eq = EvolutionEquation("lin", DiffPoly.variable(X_VAR))
    assert solve_symmetries(eq, 1).dimension == 5


# -- a GF(p) certificate of the kernel dimension --------------------------------

_PRIMES = (2**61 - 1, 2**31 - 1)


def _assert_certified(eq, order, *bounds):
    """The solver's dimension equals the nullity mod p of the naive residual columns.

    The nullity mod p bounds the rational nullity from above, so a mismatch
    at one prime may be the prime's fault; the check then tries a second.
    """
    report = solve_symmetries(eq, order, *bounds)
    columns = [r._nums for r in direct_residuals(Ansatz(eq, order, *bounds))]
    nullities = []
    for p in _PRIMES:
        nullities.append(nullity_mod_p(columns, p))
        if nullities[-1] == report.dimension:
            return
    pytest.fail(f"dimension {report.dimension}, nullities mod p {nullities}")


def test_nullity_mod_p_on_a_small_system():
    # columns (1, 2), (2, 4), (0, 1) by row key: the second is twice the first
    columns = [{0: 1, 1: 2}, {0: 2, 1: 4}, {1: 1}]
    assert nullity_mod_p(columns, _PRIMES[0]) == 1
    # mod 2 the first column is (1, 0), and the third is independent of it
    assert nullity_mod_p([{0: 1, 1: 2}, {1: 1}], 2) == 0
    assert nullity_mod_p([{0: 2}], 2) == 1


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([BURGERS, HEAT, POTBURGERS, THIRD, KDV]),
    st.integers(0, 3),
    _degree_bounds,
    _degree_bounds,
    _degree_bounds,
)
def test_dimension_is_certified_mod_p(eq, order, jet_degree, x_degree, t_degree):
    _assert_certified(eq, order, jet_degree, x_degree, t_degree)


@pytest.mark.parametrize("eq", [BURGERS, KDV], ids=lambda eq: eq.name)
def test_dimension_is_certified_mod_p_at_order_4(eq):
    _assert_certified(eq, 4)


# -- the Korteweg-de Vries equation ---------------------------------------------


@pytest.mark.parametrize("order, dimension", [(1, 2), (2, 2), (3, 4), (4, 4)])
def test_kdv_dimensions(order, dimension):
    report = solve_symmetries(KDV, order)
    assert report.dimension == dimension
    assert report.family_span_matches is None


def _rank(bodies):
    monos = sorted({m for b in bodies for m in b.terms})
    rows = [[sympy.Rational(b.terms.get(m, 0)) for m in monos] for b in bodies]
    return sympy.Matrix(rows).rank()


def test_kdv_order_3_span():
    # translations in x and t, the Galilean boost and the scaling
    u, u1 = jet_poly(0), jet_poly(1)
    t, x = DiffPoly.variable(T_VAR), DiffPoly.variable(X_VAR)
    k3 = KDV.rhs
    reference = [u1, k3, 1 + t * u1, 3 * t * k3 + x * u1 + 2 * u]
    basis = [c.body for c in solve_symmetries(KDV, 3).basis]
    assert _rank(basis) == _rank(reference) == _rank(basis + reference) == 4
