import random
from fractions import Fraction

import pytest

from jetsym.diffring import DiffPoly, T_VAR, X_VAR, jet, par


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


@pytest.fixture
def rng():
    return random.Random(20240611)
