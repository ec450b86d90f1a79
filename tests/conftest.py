import random
from fractions import Fraction

import pytest

from jetsym.diffring import DiffPoly, T_VAR, X_VAR, jet, mono_degree, ordered_terms, par


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


def mono_key(m):
    """The graded sort key of a tuple monomial: total degree, then the factors.

    The tuple reference for the packed order: diffring.order_key must sort
    every packed monomial as this sorts its decoded form.
    """
    return (mono_degree(m), m)


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
