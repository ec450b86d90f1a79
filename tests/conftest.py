import random
from fractions import Fraction

import pytest

from jetsym.diffring import (
    DiffPoly,
    T_VAR,
    X_VAR,
    jet,
    jet_poly,
    jet_rows,
    mono_degree,
    par,
    tx_factors,
)
from jetsym.jetflow import EvolutionEquation, invariance_residual
from jetsym.opcalc import Compose, Dx, DxInv, MulBy, Sum, apply, op_power

# The Korteweg-de Vries equation u_t = u_xxx + u u_x: third order, so its
# residual images carry the tails up to G_3.
KDV = EvolutionEquation("kdv", jet_poly(3) + jet_poly(0) * jet_poly(1), allows_par=False)

# An x-dependent right-hand side with a non-integer coefficient, so that the
# images' denominators and the x in L enter the Leibniz expansion, and the
# solver walks the powers of x as parts rather than as levels.
XDEP = EvolutionEquation(
    "xdep",
    jet_poly(2)
    + Fraction(1, 3) * DiffPoly.variable(X_VAR) * jet_poly(0) * jet_poly(1)
    + DiffPoly.variable(X_VAR, 2) * jet_poly(1),
)

# The Lenard recursion operator R = D_x^2 + (2/3) u + (1/3) u_x D_x^{-1} of KdV.
LENARD = Sum(
    (
        op_power(Dx(), 2),
        MulBy(Fraction(2, 3) * jet_poly(0)),
        Compose((MulBy(Fraction(1, 3) * jet_poly(1)), DxInv())),
    )
)


def kdv_hierarchy(order):
    """The KdV hierarchy K_1 = u_x, K_3, K_5, ... through the given order, by K_{j+2} = R K_j."""
    hierarchy = [jet_poly(1)]
    while hierarchy[-1].order() + 2 <= order:
        hierarchy.append(apply(LENARD, KDV, hierarchy[-1]))
    return hierarchy


def make_random_poly(rng, max_jet=3, with_par=False, max_terms=4, max_exp=2, max_factors=3):
    """Small random polynomial with exact rational coefficients.

    Monomials carry at most max_factors variables so that substitution-heavy
    tests stay within a sane degree range.
    """
    pool = [T_VAR, X_VAR] + [jet(k) for k in range(max_jet + 1)]
    if with_par:
        pool += [par(0), par(1)]
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        chosen = rng.sample(pool, rng.randint(0, min(max_factors, len(pool))))
        mono = tuple(sorted((v, rng.randint(1, max_exp)) for v in chosen))
        terms[mono] = Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3)))
    return DiffPoly(terms)


def random_poly_stream(seed, count, **kw):
    rng = random.Random(seed)
    polys = []
    while len(polys) < count:
        p = make_random_poly(rng, **kw)
        if p:
            polys.append(p)
    return polys


def rank_of_bodies(bodies):
    """The rank of a list of polynomials, by the solver's exact reducer.

    Each body enters by its integer numerators: scaling a body does not
    change the rank.
    """
    from jetsym.detsolve import _dependencies

    return sum(dep is None for dep in _dependencies(b._nums for b in bodies))


def direct_residuals(ansatz):
    """The invariance residual of each ansatz monomial, computed naively one by one."""
    return [invariance_residual(ansatz.equation, DiffPoly({m: 1})) for m in ansatz.monomials()]


def direct_system(ansatz):
    """The solver's rows from direct_residuals: {row monomial: {column: Fraction}}."""
    rows = {}
    for col, residual in enumerate(direct_residuals(ansatz)):
        for rmono, coeff in residual.terms.items():
            rows.setdefault(rmono, {})[col] = coeff
    return rows


def nullity_mod_p(columns, p):
    """The nullity of integer columns {row key: int} over GF(p).

    Each column is reduced against the earlier ones at its highest row key,
    by pivots scaled to 1 with modular inverses; it is dependent when
    nothing remains.  Reduction mod p can only lose rank, so the result is
    at least the rational nullity.  A certificate for the solver's
    dimension that shares none of its code.
    """
    pivots = {}
    nullity = 0
    for column in columns:
        vec = {k: v % p for k, v in column.items() if v % p}
        while vec:
            lead = max(vec)
            pivot = pivots.get(lead)
            if pivot is None:
                inverse = pow(vec[lead], -1, p)
                pivots[lead] = {k: v * inverse % p for k, v in vec.items()}
                break
            a = vec[lead]
            for k, v in pivot.items():
                s = (vec.get(k, 0) - a * v) % p
                if s:
                    vec[k] = s
                else:
                    del vec[k]
        else:
            nullity += 1
    return nullity


def gauss_jordan_kernel(rows, ncols):
    """A kernel basis of a sparse rational matrix, by plain Fraction Gauss-Jordan elimination.

    rows holds {column: value} dicts.  Pivots are taken column by column,
    so a column is free exactly when it lies in the span of the earlier
    ones.  One vector per free column f, in increasing f: nonzero at f, 0
    at the other free columns, support on columns up to f, and scaled so
    that its first nonzero entry is 1.  A reference for the solver's
    fraction-free reducer that shares none of its code.
    """
    pending = [{c: Fraction(v) for c, v in r.items() if v} for r in rows]
    pivots = {}  # pivot column -> its row: 1 there, 0 at every other pivot column
    for col in range(ncols):
        row = next((r for r in pending if col in r), None)
        if row is None:
            continue
        pending = [r for r in pending if r is not row]
        lead = row[col]
        row = {c: v / lead for c, v in row.items()}
        for other in [*pending, *pivots.values()]:
            factor = other.get(col)
            if factor:
                for c, v in row.items():
                    s = other.get(c, 0) - factor * v
                    if s:
                        other[c] = s
                    else:
                        del other[c]
        pivots[col] = row
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for p, row in pivots.items():
            if f in row:
                vec[p] = -row[f]
        lead = next(v for v in vec if v)
        basis.append(tuple(v / lead for v in vec))
    return basis


def mono_key(m):
    """The graded sort key of a tuple monomial: total degree, then the factors.

    The tuple reference for the packed order: diffring.order_key must sort
    every packed monomial as this sorts its decoded form.
    """
    return (mono_degree(m), m)


def ordered_terms(p, parts=None):
    """p's terms as (tuple monomial, degree, numerator, denominator), leading term first.

    Read from diffring.jet_rows; parts is its jet-part table, fresh when not given.
    """
    parts = {} if parts is None else parts
    return [
        (tx_factors(tx) + parts[j][2], degree, num, den)
        for degree, _, tx, j, num, den in jet_rows(p, parts)
    ]


def sorted_terms(p, reverse=True):
    """p's (tuple monomial, Fraction) terms in the mono_key order, leading term first."""
    out = [(mono, Fraction(num, den)) for mono, _, num, den in ordered_terms(p)]
    return out if reverse else out[::-1]


def term_by_term(p, rules):
    """The reference substitution: p with rules applied one factor at a time,
    each power by repeated products."""
    total = DiffPoly.zero()
    for mono, coeff in p.terms.items():
        term = DiffPoly.const(coeff)
        for v, e in mono:
            if v not in rules:
                term = term * DiffPoly.variable(v, e)
                continue
            if e < 0:
                raise ValueError("negative powers are not defined in the ring")
            for _ in range(e):
                term = term * rules[v]
        total = total + term
    return total


@pytest.fixture
def rng():
    return random.Random(20240611)
