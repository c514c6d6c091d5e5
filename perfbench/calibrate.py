"""Host-speed calibration for the benchmark's times.

The benchmark's host is a small shared VM whose CPU throughput drifts by
up to 2x, within seconds and over minutes: the same work measured in
blocks of eight samples over 150 s ranged from 0.19 s to 0.35 s, a
run-to-run spread that no number of repeats inside one run removes.  So
a pass times `calibration_s()`, a fixed pure-Python workload of the kinds
the program spends its time on (Fraction Gauss-Jordan and dict polynomial
products), before its first op, between ops about every quarter second,
and after its last op.  Each op's time is scaled by REFERENCE_S over the
mean of the calibrations on either side of it.  In the same blocks the
scaled times spread 3%.

The calibration is the benchmark's own code on the standard library only,
so no change to the program can move it; a program change that halves a
time halves the scaled time too.
"""

import random
import time
from fractions import Fraction

# calibration_s() on the 2-vCPU host the benchmark was defined on, at its
# faster end (Python 3.11.7); scaled times are seconds on a host that runs
# the calibration in exactly this long
REFERENCE_S = 0.03


def _gauss_jordan(m: list[list[Fraction]]) -> None:
    size = len(m)
    for c in range(size):
        p = next((i for i in range(c, size) if m[i][c]), None)
        if p is None:
            continue
        m[c], m[p] = m[p], m[c]
        inv = 1 / m[c][c]
        m[c] = [v * inv for v in m[c]]
        for i in range(size):
            if i != c and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]


def _square(p: dict) -> dict:
    out: dict = {}
    for ea, ca in p.items():
        for eb, cb in p.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            out[key] = out.get(key, 0) + ca * cb
    return out


def calibration_s() -> float:
    """Seconds to run the calibration workload once (about 30 ms on the reference host)."""
    rng = random.Random(0)
    matrix = [[Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(18)] for _ in range(18)]
    poly = {tuple(rng.randint(0, 2) for _ in range(8)): rng.randint(1, 5) for _ in range(40)}
    start = time.perf_counter()
    _gauss_jordan(matrix)
    for _ in range(2):
        _square(poly)
    return time.perf_counter() - start
