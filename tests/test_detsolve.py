"""The solver's exact reducer and the bounded-ansatz symmetry solver."""

import gc
import math
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    KDV,
    LIN,
    THIRD,
    XDEP,
    direct_residuals,
    kdv_hierarchy,
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
    _canonical_basis,
    _dependencies,
    _kernel_span,
    _level_rhs,
    _level_system,
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
from jetsym.jetflow import (
    BURGERS,
    HEAT,
    POTBURGERS,
    EvolutionEquation,
    invariance_residual,
    prolongation_sums,
)
from jetsym.symfam import Family, q_char


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
    # the factorisation of R: its columns, with their row keys relabelled at random
    vectors = _level_system(Ansatz(BURGERS, 3)).images
    keys = sorted({k for vec in vectors for k in vec})
    relabel = dict(zip(keys, rng.sample(keys, len(keys))))
    relabelled = [{relabel[k]: v for k, v in vec.items()} for vec in vectors]
    assert list(_dependencies(relabelled)) == list(_dependencies(vectors))


@settings(max_examples=10, deadline=None)
@given(st.sampled_from([BURGERS, KDV, XDEP]), st.randoms(use_true_random=False))
def test_basis_does_not_depend_on_the_order_of_the_parts(eq, rng):
    # R factored in another column order yields other partial solutions and
    # another kernel span, but the same canonical basis
    system = _level_system(Ansatz(eq, 3))
    order = rng.sample(range(len(system.parts)), len(system.parts))
    shuffled = system._replace(
        parts=[system.parts[j] for j in order],
        images=[system.images[j] for j in order],
        towers=[system.towers[j] for j in order],
    )
    span = _kernel_span(shuffled)
    assert _canonical_basis(span) == _canonical_basis(_kernel_span(system))
    # the span is also a basis in any order
    assert _canonical_basis(rng.sample(span, len(span))) == _canonical_basis(span)


_LEIBNIZ_BOUNDS = [
    (1, -1, -1, -1),
    (2, -1, -1, -1),
    (3, -1, -1, -1),
    (2, 2, 5, 3),
    (1, 1, 4, 2),
    (3, 3, 4, 4),
]


def _level_columns(ansatz):
    """The residual of each ansatz monomial t^a x^b p, rebuilt by the Leibniz
    rule from the level system's R(p) and the tails G_i(p) that
    prolongation_sums gives for the decoded part: {decoded row: {column:
    Fraction}}."""
    system = _level_system(ansatz)
    tails = [
        prolongation_sums(ansatz.equation.rhs, DiffPoly._make({p: 1}), system.x_degree + 1)[1:]
        for p in system.parts
    ]
    columns = {
        a * unit(T_VAR) + b * unit(X_VAR) + part: (a, b, j)
        for a in range(system.t_degree + 1)
        for b in range(system.x_degree + 1)
        for j, part in enumerate(system.parts)
    }
    monos = sorted(columns, key=order_key)
    assert [_decode(m) for m in monos] == ansatz.monomials()
    rows = {}
    for col, mono in enumerate(monos):
        a, b, j = columns[mono]
        tx = a * unit(T_VAR) + b * unit(X_VAR)
        vec = {m + tx: Fraction(c, ansatz.equation.rhs._den) for m, c in system.images[j].items()}
        for i, tail in enumerate(tails[j][:b], start=1):
            for m, c in tail._nums.items():
                k = m + tx - i * unit(X_VAR)
                vec[k] = vec.get(k, 0) - math.perm(b, i) * Fraction(c, tail._den)
        if a:
            k = mono - unit(T_VAR)
            vec[k] = vec.get(k, 0) + a
        for m, c in vec.items():
            if c:
                rows.setdefault(_decode(m), {})[col] = c
    return rows


@pytest.mark.parametrize(
    "eq", [HEAT, POTBURGERS, BURGERS, THIRD, KDV, XDEP, LIN], ids=lambda eq: eq.name
)
@pytest.mark.parametrize("bounds", _LEIBNIZ_BOUNDS)
def test_build_system_matches_direct_residuals(eq, bounds):
    # the walk's inputs (the level system), expanded back into the whole
    # system by the Leibniz rule, against the naive rows
    order, jet_degree, x_degree, t_degree = bounds
    ansatz = Ansatz(eq, order, jet_degree=jet_degree, x_degree=x_degree, t_degree=t_degree)
    assert _level_columns(ansatz) == direct_system(ansatz)


def test_x_is_folded_into_the_parts_when_l_has_x():
    system = _level_system(Ansatz(XDEP, 2, jet_degree=1, x_degree=3, t_degree=2))
    assert (system.t_degree, system.x_degree) == (2, 0)
    assert len(system.parts) == 4 * 4 and all(tower == () for tower in system.towers)
    assert system.equation is XDEP and XDEP.rhs._den == 3
    system = _level_system(Ansatz(BURGERS, 2, jet_degree=1, x_degree=3, t_degree=2))
    assert (system.t_degree, system.x_degree) == (2, 3)
    # each jet part's tower holds D_x J, the one level below L's order 2
    assert len(system.parts) == 4 and all(len(tower) == 1 for tower in system.towers)


def test_level_system_reads_the_kept_image_tables():
    # each equation keeps its jet-part images as plain int tables over the
    # denominator of L, which the cyclic collector does not walk, and the
    # level system reads them as kept.  CPython keeps a tuple that holds a
    # dict tracked, so the tables themselves are checked.
    for eq in (BURGERS, THIRD, KDV, XDEP):
        copy = EvolutionEquation(eq.name, eq.rhs, eq.allows_par)
        _level_system(Ansatz(copy, 3))
        gc.collect()
        assert copy._jet_images
        # each kept entry is (Res(J), J's D_x tower) and no more: no tails
        for entry in copy._jet_images.values():
            assert type(entry) is tuple and len(entry) == 2
            residual, tower = entry
            assert len(tower) == eq.rhs.order() - 1
            for table in (residual, *tower):
                assert type(table) is dict and not gc.is_tracked(table)
    third = EvolutionEquation(THIRD.name, THIRD.rhs, THIRD.allows_par)
    system = _level_system(Ansatz(third, 3))
    assert system.equation is third and third.rhs._den == 3
    for j, part in enumerate(system.parts):
        assert system.images[j] is third._jet_images[part][0]
        assert system.towers[j] is third._jet_images[part][1]


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


def _decoded_kernel(eq, order, *bounds):
    """The kernel bodies of the whole system, decoded from invariance_residual
    column by column and reduced by plain Fraction Gauss-Jordan elimination."""
    ansatz = Ansatz(eq, order, *bounds)
    columns = ansatz.monomials()
    kernel = gauss_jordan_kernel(direct_system(ansatz).values(), len(columns))
    return [DiffPoly({m: v for m, v in zip(columns, vec) if v}) for vec in kernel], len(columns)


@st.composite
def _solver_cases(draw, max_order, jet_bounds, tx_bounds):
    """(equation, order, jet_degree, x_degree, t_degree) for the solver oracles.

    XDEP's reference elimination fills in with thirds: at jet degree 3 one
    case takes seconds, so its jet degree stays at most 2.
    """
    eq = draw(st.sampled_from([BURGERS, HEAT, POTBURGERS, THIRD, KDV, XDEP, LIN]))
    order = draw(st.integers(0, max_order))
    jet_degree = draw(st.integers(0, 2) if eq is XDEP else jet_bounds)
    return eq, order, jet_degree, draw(tx_bounds), draw(tx_bounds)


@settings(max_examples=40, deadline=None)
@given(_solver_cases(3, _degree_bounds, _degree_bounds))
def test_solver_bodies_match_the_decoded_system(case):
    # the solver walks the levels and never builds the whole system
    eq, order, *bounds = case
    report = solve_symmetries(eq, order, *bounds)
    expected, size = _decoded_kernel(eq, order, *bounds)
    assert [c.body for c in report.basis] == expected
    assert report.ansatz_size == size


@settings(max_examples=20, deadline=None)
@given(_solver_cases(4, st.integers(0, 3), st.integers(0, 2)))
@example((BURGERS, 4, 3, 2, 2))
@example((XDEP, 4, 2, 2, 2))
def test_walk_basis_matches_gauss_jordan_to_order_4(case):
    eq, order, *bounds = case
    basis = _canonical_basis(_kernel_span(_level_system(Ansatz(eq, order, *bounds))))
    assert basis == _decoded_kernel(eq, order, *bounds)[0]


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


def test_ansatz_cap(monkeypatch):
    # order 4 has 126 jet parts
    monkeypatch.setattr(detsolve, "PART_CAP", 125)
    with pytest.raises(AnsatzTooLarge, match="^126 ansatz parts exceed the cap 125$"):
        solve_symmetries(BURGERS, 4)
    monkeypatch.setattr(detsolve, "PART_CAP", 126)
    assert solve_symmetries(BURGERS, 4).dimension == 14


def _assert_cap_counts_before_enumerating(eq, bounds, count, monkeypatch):
    ansatz = Ansatz(eq, *bounds)
    assert len(_level_system(ansatz).parts) == count
    monkeypatch.setattr(detsolve, "PART_CAP", count)
    ansatz.monomials()
    monkeypatch.setattr(detsolve, "PART_CAP", count - 1)
    message = f"^{count} ansatz parts exceed the cap {count - 1}$"
    with pytest.raises(AnsatzTooLarge, match=message):
        ansatz.monomials()
    with pytest.raises(AnsatzTooLarge, match=message):
        solve_symmetries(eq, *bounds)


@pytest.mark.parametrize("bounds", _ENUMERATE_BOUNDS)
def test_ansatz_cap_counts_the_monomials_before_enumerating(bounds, monkeypatch):
    # the cap is checked on a count formed from the bounds alone: the jet
    # parts, the monomials in z_0 .. z_n that R's columns stand for
    ansatz = Ansatz(BURGERS, *bounds)
    count = math.comb(ansatz.jet_degree + ansatz.order + 1, ansatz.order + 1)
    _assert_cap_counts_before_enumerating(BURGERS, bounds, count, monkeypatch)


@pytest.mark.parametrize("bounds", [(2, 2, 3, 2), (0, 3, 2, 2), (3, 6, 1, 1)])
def test_ansatz_cap_counts_the_x_powers_when_l_has_x(bounds, monkeypatch):
    order, jet_degree, x_degree = bounds[:3]
    count = math.comb(jet_degree + order + 1, order + 1) * (x_degree + 1)
    _assert_cap_counts_before_enumerating(XDEP, bounds, count, monkeypatch)


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


def test_a_tail_that_leaves_the_packed_field_raises():
    # G_1(v^127) = -v^128 + 254 v^126 v_x leaves v's field although Res(v^127)
    # and its tower stay inside: the tails are formed as they are read, so the
    # walk's right-hand side and the residual both check their keys
    system = _level_system(Ansatz(BURGERS, 0, jet_degree=127, x_degree=1, t_degree=0))
    j = system.parts.index(127 * unit(jet(0)))
    with pytest.raises(ExponentOverflow):
        _level_rhs({(0, 1): {j: 1}}, 0, 0, system)
    with pytest.raises(ExponentOverflow):
        invariance_residual(BURGERS, DiffPoly({((X_VAR, 1), (jet(0), 127)): 1}))


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
    system = _level_system(Ansatz(BURGERS, 0, jet_degree=1, x_degree=0, t_degree=0))
    assert [_decode(part) for part in system.parts] == [(), ((jet(0), 1),)]
    assert list(_dependencies(system.images)) == [None, None]
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


def test_solver_dimension_and_span_at_order_7():
    # 6 435 jet parts; the whole system would have 411 840 columns
    report = solve_symmetries(BURGERS, 7)
    assert report.dimension == 35
    assert report.family_span_matches is True
    assert report.ansatz_size == 411_840
    for c in report.basis:
        assert invariance_residual(BURGERS, c.body) == 0


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
    bodies = family_bodies(Family.BURGERS_Q, 3)
    assert len(bodies) == 9
    assert rank_of_bodies(bodies) == 9


def test_solver_on_a_jet_free_rhs():
    # ord L = 0: the residual images carry no Leibniz tails
    assert solve_symmetries(LIN, 1).dimension == 5


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


@pytest.mark.parametrize("order, dimension", [(1, 2), (2, 2), (3, 4), (4, 4), (5, 5), (6, 5)])
def test_kdv_dimensions(order, dimension):
    report = solve_symmetries(KDV, order)
    assert report.dimension == dimension
    assert report.family_span_matches is None


def _rank(bodies):
    monos = sorted({m for b in bodies for m in b.terms})
    rows = [[sympy.Rational(b.terms.get(m, 0)) for m in monos] for b in bodies]
    return sympy.Matrix(rows).rank()


def _kdv_reference(order):
    """K_1, K_3, ... up to the order, the Galilean boost and the scaling."""
    u, u1 = jet_poly(0), jet_poly(1)
    t, x = DiffPoly.variable(T_VAR), DiffPoly.variable(X_VAR)
    return kdv_hierarchy(order) + [1 + t * u1, 3 * t * KDV.rhs + x * u1 + 2 * u]


def test_kdv_order_3_span():
    # translations in x and t, the Galilean boost and the scaling
    reference = _kdv_reference(3)
    basis = [c.body for c in solve_symmetries(KDV, 3).basis]
    assert _rank(basis) == _rank(reference) == _rank(basis + reference) == 4


@pytest.mark.parametrize("order, rank", [(5, 5), (6, 5), (7, 6)])
def test_kdv_span_with_the_hierarchy(order, rank):
    # K_1, K_3, K_5 (and K_7 from order 7), the boost and the scaling; the
    # rank is sympy's, not the solver's
    reference = _kdv_reference(order)
    assert len(reference) == rank
    basis = [c.body for c in solve_symmetries(KDV, order).basis]
    assert len(basis) == rank
    assert _rank(basis) == _rank(reference) == _rank(basis + reference) == rank
