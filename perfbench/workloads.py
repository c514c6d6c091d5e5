"""Seeded op lists for the benchmark workloads, with what each op must print.

An op is one CLI invocation: the argv the program receives plus the
expected outcome, computed by `reference` rather than by the library path
the op exercises.  The seed fixes the op order and every random input.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import reference as ref

# (n, k, max degree): the k >= 3 open case, where no generator family exists
CENSUS_GRID = [(2, 3, 6), (2, 4, 4), (3, 3, 4)]
# (n, k, max degree, generator left out by verify_incomplete)
VERIFY_GRID = [(3, 2, 6, "H1,1"), (4, 2, 4, "H2,3"), (4, 1, 6, "J1,2")]
# (n, k, degree) classes of express inputs, and how many ops of each a pass holds
EXPRESS_CLASSES = [(3, 1, 5), (3, 1, 6), (3, 2, 4), (3, 2, 5), (4, 2, 4)]
EXPRESS_PER_CLASS = 12

WORKLOADS = ("census_open", "verify_complete", "verify_incomplete", "express_k12")


@dataclass
class Op:
    argv: list[str]
    rc: int
    stdout: str | None = None  # exact expected text, or None for express
    poly: dict | None = None  # express input, compared after re-expansion
    gens: dict | None = None  # express: generator label -> value
    pieces: int = 0  # graded pieces a census/verify op covers


def _nk(n: int, k: int) -> list[str]:
    return ["--n", str(n), "--k", str(k)]


def census_open(rng: random.Random) -> list[Op]:
    ops = []
    for n, k, top in CENSUS_GRID:
        for d in range(top + 1):
            ops.append(
                Op(
                    ["census", *_nk(n, k), "--degree", str(d)],
                    rc=0,
                    stdout=f"degree {d}: kernel_dim={ref.kernel_dim(n, k, d)}\n",
                    pieces=ref.piece_count(n, k, d),
                )
            )
    rng.shuffle(ops)
    return ops


def _verify(rng: random.Random, exclude: bool) -> list[Op]:
    from weitzenboeck import generators

    ops = []
    for n, k, top, left_out in VERIFY_GRID:
        gens = [dict(p.items()) for label, p in generators(n, k) if not (exclude and label == left_out)]
        for d in range(top + 1):
            kdim = ref.kernel_dim(n, k, d)
            sdim = ref.span_dim(gens, n, k, d) if exclude else kdim
            ok = sdim == kdim
            argv = ["verify", *_nk(n, k), "--degree", str(d)] + (["--exclude", left_out] if exclude else [])
            text = f"degree {d}: kernel_dim={kdim} span_dim={sdim} {'OK' if ok else 'FAIL'}\n"
            text += "verify: all degrees complete\n" if ok else "verify: INCOMPLETE\n"
            ops.append(Op(argv, rc=0 if ok else 1, stdout=text, pieces=ref.piece_count(n, k, d)))
    rng.shuffle(ops)
    return ops


def verify_complete(rng: random.Random) -> list[Op]:
    return _verify(rng, exclude=False)


def verify_incomplete(rng: random.Random) -> list[Op]:
    return _verify(rng, exclude=True)


def random_kernel_element(rng: random.Random, gens: list[tuple[str, dict]], degree: int, width: int) -> dict:
    """A nonzero integer combination of 3-6 random generator products of total degree `degree`."""
    degrees = [sum(next(iter(g))) for _, g in gens]
    while True:
        total: dict = {}
        for _ in range(rng.randint(3, 6)):
            factors, remaining = [], degree
            while remaining:
                i = rng.choice([i for i, dg in enumerate(degrees) if dg <= remaining])
                factors.append(gens[i][1])
                remaining -= degrees[i]
            coeff = rng.choice([c for c in range(-5, 6) if c])
            ref.poly_add_scaled(total, ref.poly_product(factors, width), coeff)
        if total:
            return total


def express_k12(rng: random.Random) -> list[Op]:
    from weitzenboeck import generators

    ops = []
    for n, k, d in EXPRESS_CLASSES:
        gens = [(label, dict(p.items())) for label, p in generators(n, k)]
        width = len(next(iter(gens[0][1])))
        for _ in range(EXPRESS_PER_CLASS):
            p = random_kernel_element(rng, gens, d, width)
            argv = ["express", *_nk(n, k), "--poly", ref.format_poly(p, k)]
            ops.append(Op(argv, rc=0, poly=p, gens=dict(gens)))
    rng.shuffle(ops)
    return ops


def build(workload: str, seed: int) -> list[Op]:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return globals()[workload](random.Random(f"{workload}:{seed}"))


def check(op: Op, rc, stdout: str) -> bool:
    """Did the program answer this op correctly?"""
    if rc != op.rc:
        return False
    if op.stdout is not None:
        return stdout == op.stdout
    try:
        combination = ref.parse_combination(stdout)
        value = ref.expand_combination(combination, op.gens, len(next(iter(op.poly))))
    except (ValueError, KeyError, ZeroDivisionError):
        return False
    return value == op.poly
