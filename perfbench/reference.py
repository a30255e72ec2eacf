"""A fixed reference computation that measures how fast the machine runs.

A shared machine slows down and speeds up by a third over tens of seconds,
and a run of the benchmark cannot control that.  The runner times one slice
of this computation every REFERENCE_EVERY_S seconds of job time and scales
its timings to the speed at which one slice takes NOMINAL_S, so two runs
made while the machine ran at different speeds report comparable figures.
The slice does the same kind of work as the package (dense products of
sparse Fraction vectors by a structure-constant table) but calls none of
it, so a change to the package does not move the reference.  The unscaled
figures are kept in the run's context line.
"""

import time
from fractions import Fraction

NOMINAL_S = 0.002
REFERENCE_EVERY_S = 0.2
CHECKSUM = Fraction(-41467, 216)

_N = 4
_VALUES = [Fraction(a, b) for a in range(-3, 4) for b in (1, 2, 3)]
_TABLE = [[[_VALUES[(i * 7 + j * 3 + k) % len(_VALUES)] if (i + j + k) % 3
            else Fraction(0) for k in range(_N)] for j in range(_N)]
          for i in range(_N)]


def _product(x, y):
    out = [Fraction(0)] * _N
    for i, a in enumerate(x):
        if a == 0:
            continue
        for j, b in enumerate(y):
            if b == 0:
                continue
            ab = a * b
            row = _TABLE[i][j]
            for k in range(_N):
                if row[k] != 0:
                    out[k] += ab * row[k]
    return out


def slice_seconds():
    """Seconds one reference slice takes now."""
    started = time.perf_counter()
    total = Fraction(0)
    for p in range(_N):
        for q in range(_N):
            x = [_VALUES[(p + t) % len(_VALUES)] if t != q else Fraction(0)
                 for t in range(_N)]
            y = [_VALUES[(2 * q + t) % len(_VALUES)] for t in range(_N)]
            total += sum(_product(x, y))
    elapsed = time.perf_counter() - started
    if total != CHECKSUM:
        raise RuntimeError("reference computation gave a wrong result")
    return elapsed
