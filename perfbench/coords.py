"""The ``coords`` workload: zeta-coordinate round trips on generated input.

Each operation takes one generated polynomial p, computes
``to_zeta_coordinates(p)``, maps the result back with
``from_zeta_coordinates`` and checks that it equals p exactly.

Inputs come from ``random.Random`` seeded by the benchmark seed and the batch
number.  Every jet part of every term has the same scaling weight, where
v_k weighs k + 1, and the same number of jet factors: free-shape inputs vary
about twofold in work from seed to seed, which would hide a change of the
program behind a change of the draw.

Run as a script, this module is the worker process of one batch:

    python3 perfbench/coords.py --seed 1 --batch 0 [--summary FILE]

It prints one JSON line with the time, verdict and output size of each
operation.  With ``--summary`` it traces the batch and writes the tracer's
summary to FILE.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

BASIS_ORDER = 6  # zeta_0 .. zeta_6, so jets v_0 .. v_6
WEIGHT = 16  # scaling weight of the jet part of every term
FACTORS = 4  # jet factors per term
TERMS = 4  # terms per input
BATCH = 12  # inputs per worker process


def jet_parts(rng: random.Random) -> list[int]:
    """Jet indices of one term: FACTORS parts of WEIGHT, each at most BASIS_ORDER + 1."""
    while True:
        cuts = sorted(rng.sample(range(1, WEIGHT), FACTORS - 1))
        parts = [b - a for a, b in zip([0] + cuts, cuts + [WEIGHT])]
        if max(parts) <= BASIS_ORDER + 1:
            return [p - 1 for p in parts]


def make_terms(rng: random.Random) -> dict:
    """One input as {((kind, index), exponent) tuple: Fraction}, with no jetsym import."""
    terms: dict = {}
    while len(terms) < TERMS:
        exps: dict = {}
        for k in jet_parts(rng):
            exps[(2, k)] = exps.get((2, k), 0) + 1
        for var in ((0, 0), (1, 0)):  # t and x carry no weight
            if rng.random() < 0.5:
                exps[var] = 1
        coeff = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4))
        terms[tuple(sorted(exps.items()))] = coeff
    return terms


def make_inputs(seed: int, batch: int, count: int = BATCH) -> list[dict]:
    rng = random.Random(f"coords:{seed}:{batch}")
    return [make_terms(rng) for _ in range(count)]


def run_batch(seed: int, batch: int, tracer=None) -> list[list]:
    """Run one batch; returns [seconds, ok, output terms] per operation."""
    from jetsym.diffring import DiffPoly
    from jetsym.zeta import build_zetas, from_zeta_coordinates, to_zeta_coordinates

    basis = build_zetas(BASIS_ORDER)
    results = []
    for i, terms in enumerate(make_inputs(seed, batch)):
        p = DiffPoly(terms)
        if tracer is not None:
            tracer.run_id = i
        t0 = time.perf_counter()
        zp = to_zeta_coordinates(p, basis)
        ok = from_zeta_coordinates(zp, basis) == p
        elapsed = time.perf_counter() - t0
        results.append([elapsed, ok, len(zp.poly.terms)])
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--batch", type=int, required=True)
    parser.add_argument("--summary", default=None, help="trace and write the summary here")
    args = parser.parse_args(argv)
    tracer = None
    if args.summary:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    results = run_batch(args.seed, args.batch, tracer)
    if tracer is not None:
        t0 = time.perf_counter()
        summary = tracer.summary()
        summary["post_s"] = time.perf_counter() - t0
        Path(args.summary).write_text(json.dumps(summary))
    print(json.dumps(results))
    return 0 if all(ok for _, ok, _ in results) else 1


if __name__ == "__main__":
    sys.exit(main())
