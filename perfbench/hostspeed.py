"""Host-speed reference: rescales a run's times to one fixed host speed.

On a shared host the same pure-Python work can take twice as long in one
stretch of seconds as in the next, because other tenants slow the CPU; user
CPU time moves with wall time, so CPU time does not escape it either.  The
benchmark therefore times a fixed reference computation after every process
it runs, for a fixed share of the time that process took, and multiplies
the run's times by

    REF_SECONDS / mean(reference times of the run)

which gives the times the run would have taken on a host that runs the
reference in REF_SECONDS.  Only the run as a whole is rescaled: the host's
speed changes faster than one process lasts, so a reference taken next to
a single process says little about that process.  The benchmark and its
children share one CPU, so the reference sees the contention the measured
processes saw; unpinned, it ran on the other CPU as often as not and
tracked them poorly.  Over runs of 28 s on a busy 2-core host, this halved
the run-to-run spread of pass times (solve: 18% to 9% interquartile range
over the median).

The reference is the kind of work jetsym does, a sparse product of
polynomials with ``Fraction`` coefficients held in dicts keyed by exponent
tuples, but written here so that no change to jetsym can change it.  Raw
times are kept in the benchmark's record.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

REF_SECONDS = 0.005  # one reference product on a quiet 2-core x86 host, roughly
SHARE = 0.05  # reference time per second of measured time
MIN_PRODUCTS = 3

_A = {(i, i % 3, i % 5): Fraction(i + 1, i % 5 + 1) for i in range(50)}
_B = {(i % 7, i, i % 4): Fraction(i % 4 + 1, 3) for i in range(50)}


def reference_product() -> float:
    """Seconds taken by one fixed sparse product."""
    t0 = time.perf_counter()
    out: dict = {}
    for (a0, a1, a2), ca in _A.items():
        for (b0, b1, b2), cb in _B.items():
            key = (a0 + b0, a1 + b1, a2 + b2)
            s = out.get(key)
            out[key] = ca * cb if s is None else s + ca * cb
    return time.perf_counter() - t0


def probe(elapsed: float) -> list[float]:
    """Reference products, timed one by one, after ``elapsed`` measured seconds.

    Their number grows with ``elapsed``, so the mean over a run weights each
    stretch of the run by its length, as the measured times do.
    """
    out = [reference_product() for _ in range(MIN_PRODUCTS)]
    budget = SHARE * elapsed - sum(out)
    while budget > 0:
        out.append(reference_product())
        budget -= out[-1]
    return out


def scale(reference: list[float]) -> float:
    """Factor that rescales the times of a run to the fixed host speed."""
    return REF_SECONDS / statistics.fmean(reference)
