"""Shared helpers: random value generators and the independent oracles.

The kernel oracle deliberately avoids the library's graded decomposition:
it enumerates all degree-d ring monomials with itertools and row-reduces
the full (ungraded) matrix of the derivation by sparse elimination, so a
bug in the piece bookkeeping cannot hide in both paths.  The elimination
oracle (`fraction_rref`) is plain Gauss-Jordan over Fraction, against
which the library's fraction-free elimination is compared: the kernel
bases of `nullspace` entry for entry, and the combinations of `express`.
The product oracle (`naive_mul`) multiplies on exponent tuples, with none
of the library's monomial packing, and the generator-row oracle
(`generator_rows`) reads each generator's degree and piece with
Polynomial methods, with none of the packed generator table.  The family
oracle (`product_family`) builds the k = 1, 2 generators with Polynomial
products and differences, against which the library's closed-form terms
are compared.  The parser oracle (`reference_parse`) is the earlier
recursive-descent parser, one `re.match` per token and one method call
per grammar step, against which the library's one-scan parser is
compared: the same polynomials, or the same exception with the same
message and position.  The command line
oracle (`reference_parser`) is the earlier argparse-only parser, against
which the CLI's table reader and its table-built parser are compared: the
same namespace, the same usage errors and the same `--help`, byte for byte.

The `spy` fixture records what the kernel reads while a test runs: every
least-monomial count, with the items it counts, and every walk, with the
products it yields.
"""

import argparse
import itertools
import re
from fractions import Fraction
from functools import cache
from typing import NamedTuple

import pytest

from weitzenboeck import (
    COV_X,
    COV_Y,
    Ambient,
    AmbientMismatch,
    ParseError,
    Polynomial,
    UnknownVariable,
    Variable,
    WeitzenboeckDerivation,
    ring_var,
    x,
    y,
    z,
)
from weitzenboeck import kernel
from weitzenboeck.kernel import _products, piece_keys
from weitzenboeck.poly import Exponents, Scalar, Terms, packing_for


def clear_kernel_caches():
    """Empty every functools cache the kernel module holds, so its next calls build their tables from nothing."""
    for value in vars(kernel).values():
        if hasattr(value, "cache_clear"):
            value.cache_clear()


def kernel_tables(gens, degree):
    """The kernel's tables of `gens` in the packing of `degree`."""
    return kernel._tables(gens, packing_for(Ambient(gens.n, gens.k), degree))


class LeastTable(NamedTuple):
    n: int
    degree: int
    levels: set[int]  # the least monomials counted: the generators' sums and the items'
    items: tuple[tuple[int, Exponents], ...]  # the (degree, exponents) items counted


class Walk(NamedTuple):
    n: int
    degree: int
    grading: int
    labels: list[tuple[str, ...]]  # as the walk yields them


class KernelSpy:
    """In call order: the sets `_Tables.least` returns, with the items counted, and the walks of `_products`, each with the products it yields."""

    def __init__(self):
        self.clear()

    def clear(self):
        self.tables: list[LeastTable] = []
        self.walks: list[Walk] = []

    def labels_walked(self):
        return [labels for walk in self.walks for labels in walk.labels]


@pytest.fixture
def spy(monkeypatch):
    """A `KernelSpy` recording the kernel's least-monomial tables and walks, from empty kernel caches.

    A walk expands exactly the products it yields, and the prefixes on their
    paths; `mul_terms` counts those.
    """
    clear_kernel_caches()
    found = KernelSpy()
    least, walk_view, products = kernel._Tables.least, kernel._Tables.walk, kernel._products
    views = {}  # id of each walk view handed out -> (the view, kept alive, and its n)

    def tabling(self, degree, runs, items=(), top=0):
        found.tables.append(LeastTable(self.gens.n, degree, least(self, degree, runs, items, top), tuple(items)))
        return found.tables[-1].levels

    def viewing(self, degree):
        view = walk_view(self, degree)
        views[id(view)] = view, self.gens.n
        return view

    def walking(view, degree, grading):
        found.walks.append(walk := Walk(views[id(view)][1], degree, grading, []))
        return (walk.labels.append(labels) or (labels, terms) for labels, terms in products(view, degree, grading))

    monkeypatch.setattr(kernel._Tables, "least", tabling)
    monkeypatch.setattr(kernel._Tables, "walk", viewing)
    monkeypatch.setattr(kernel, "_products", walking)
    return found


def random_rational(rng, lo=-9, hi=9, max_den=9):
    return Fraction(rng.randint(lo, hi), rng.randint(1, max_den))


def random_polynomial(rng, ambient, max_terms=4, max_degree=4, coeff_lo=-9, coeff_hi=9, covariants=False):
    width = ambient.width if covariants else ambient.ring_width
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exps = [0] * ambient.width
        for _ in range(rng.randint(0, max_degree)):
            exps[rng.randrange(width)] += 1
        key = tuple(exps)
        terms[key] = terms.get(key, 0) + rng.randint(coeff_lo, coeff_hi)
    return Polynomial(ambient, terms)


def random_covariant_polynomial(rng, ambient, order, max_terms=3, max_ring_degree=3):
    """Random polynomial homogeneous of the given degree in CX, CY."""
    cx = ambient.ring_width
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = [0] * ambient.width
        a = rng.randint(0, order)
        exps[cx] = a
        exps[cx + 1] = order - a
        for _ in range(rng.randint(0, max_ring_degree)):
            exps[rng.randrange(ambient.ring_width)] += 1
        key = tuple(exps)
        terms[key] = terms.get(key, 0) + rng.randint(-9, 9)
    return Polynomial(ambient, terms)


def naive_mul(p, q):
    """p * q by the schoolbook product on exponent tuples: the reference for the packed product."""
    terms = {}
    for ea, ca in p.items():
        for eb, cb in q.items():
            key = tuple(a + b for a, b in zip(ea, eb))
            terms[key] = terms.get(key, 0) + ca * cb
    return Polynomial(p.ambient, terms)


def product_family(n, k):
    """The k = 1 or k = 2 generator family as (label, polynomial) pairs, built with Polynomial arithmetic."""
    amb = Ambient(n, k)

    def var(v):
        return Polynomial.variable(amb, v)

    items = []
    for i in range(1, n + 1):
        items.append((f"x{i}", var(x(i))))
    for i, j in itertools.combinations(range(1, n + 1), 2):
        items.append((f"J{i},{j}", var(x(i)) * var(y(j)) - var(x(j)) * var(y(i))))
    if k == 2:
        for i in range(1, n + 1):
            for j in range(i, n + 1):
                # at i = j this collapses to 2*x_i*z_i - y_i^2
                h = var(x(i)) * var(z(j)) - var(y(i)) * var(y(j)) + var(z(i)) * var(x(j))
                items.append((f"H{i},{j}", h))
        for i, j, l in itertools.combinations(range(1, n + 1), 3):
            det = (
                var(x(i)) * (var(y(j)) * var(z(l)) - var(y(l)) * var(z(j)))
                - var(x(j)) * (var(y(i)) * var(z(l)) - var(y(l)) * var(z(i)))
                + var(x(l)) * (var(y(i)) * var(z(j)) - var(y(j)) * var(z(i)))
            )
            items.append((f"D{i},{j},{l}", det))
    return items


class GeneratorRow(NamedTuple):
    label: str
    degree: int
    block_degrees: tuple[int, ...]
    weight: int


def generator_rows(gens):
    """Each generator's label, total degree and piece, in label order, from `homogeneous_degree` and `gradings`."""
    rows = []
    for label, p in gens:
        ((block_degrees, weight, _),) = p.gradings()
        rows.append(GeneratorRow(label, p.homogeneous_degree(), block_degrees, weight))
    return rows


def walk_products(gens, degree, grading):
    """The walk (`_products`) of one piece of `degree`, on the degree's view of the kernel's tables of `gens`."""
    return _products(kernel_tables(gens, degree).walk(degree), degree, grading)


def products_by_piece(gens, degree):
    """Every piece of the degree that holds a product, in `piece_keys` order, mapped to the label multisets its walk yields."""
    packing = packing_for(Ambient(gens.n, gens.k), degree)
    found = {key: [labels for labels, _ in walk_products(gens, degree, packing.grading(*key))] for key in piece_keys(gens.n, gens.k, degree)}
    return {key: labels for key, labels in found.items() if labels}


def all_ring_monomials(ambient, degree):
    """Every ring monomial of the given total degree (full-width tuples)."""
    for combo in itertools.combinations_with_replacement(range(ambient.ring_width), degree):
        exps = [0] * ambient.width
        for i in combo:
            exps[i] += 1
        yield tuple(exps)


def sparse_rank(rows):
    """Rank of sparse rows (dict col -> coeff) by incremental elimination over Fraction."""
    return len(sparse_leads(rows))


def sparse_leads(rows):
    """The pivot columns of sparse rows by incremental elimination over Fraction, pivoting on the least column.

    They are the least columns of the nonzero vectors the rows span: with
    packed monomials as columns, the least monomials of the span.
    """
    pivots = {}
    for row in rows:
        row = {c: Fraction(v) for c, v in row.items()}
        while row:
            c = min(row)
            if c not in pivots:
                pivots[c] = row
                break
            piv = pivots[c]
            factor = row[c] / piv[c]
            for cc, vv in piv.items():
                nv = row.get(cc, Fraction(0)) - factor * vv
                if nv:
                    row[cc] = nv
                else:
                    row.pop(cc, None)
    return set(pivots)


def ungraded_kernel_dimension(n, k, degree):
    """Kernel dimension in degree d computed without any grading split."""
    ambient = Ambient(n, k)
    deriv = WeitzenboeckDerivation(n, k)
    monomials = sorted(all_ring_monomials(ambient, degree))
    rows = {}
    for j, mono in enumerate(monomials):
        image = deriv.apply(Polynomial(ambient, {mono: 1}))
        for exps, coeff in image.items():
            rows.setdefault(exps, {})[j] = coeff
    return len(monomials) - sparse_rank(rows.values())


def fraction_rref(rows, ncols):
    """Sparse reduced row echelon form by Gauss-Jordan over Fraction: the reference for `nullspace` and `express`.

    Pivots only on columns < ncols, the columns >= ncols being carried as
    augmented right-hand sides; returns the pivot rows (pivot entry 1) in
    pivot order followed by the rows left nonzero only in columns >= ncols,
    and the pivot columns.  A kernel basis is read off the form of the
    matrix with reversed columns, and a combination of products off the
    augmented column of a solve whose columns are the products.
    """

    def subtract(row, f, other):
        for c, v in other.items():
            nv = row.get(c, 0) - f * v
            if nv:
                row[c] = nv
            else:
                del row[c]

    pivot_rows = {}
    leftover = []
    for source in rows:
        row = {c: Fraction(v) for c, v in source.items() if v}
        for c in [c for c in row if c in pivot_rows]:
            subtract(row, row[c], pivot_rows[c])
        lead = min((c for c in row if c < ncols), default=None)
        if lead is None:
            if row:
                leftover.append(row)
            continue
        inv = 1 / row[lead]
        row = {c: v * inv for c, v in row.items()}
        for prow in pivot_rows.values():
            if lead in prow:
                subtract(prow, prow[lead], row)
        pivot_rows[lead] = row
    pivots = sorted(pivot_rows)
    return [pivot_rows[c] for c in pivots] + leftover, pivots


# -- parser oracle ------------------------------------------------------------

_TOKEN = re.compile(r"(?P<int>\d+)|(?P<name>[xyz]\d+|v\d+\.\d+|CX|CY)|(?P<op>[-+*/^])")

_LEVEL_BY_LETTER = {"x": 0, "y": 1, "z": 2}


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


def _variable_from_name(name: str) -> Variable:
    """The variable a name token denotes; UnknownVariable for a chain block below 1."""
    if name == "CX":
        return COV_X
    if name == "CY":
        return COV_Y
    if name[0] == "v":
        block, level = name[1:].split(".")
        return ring_var(int(block), int(level))
    return ring_var(int(name[1:]), _LEVEL_BY_LETTER[name[0]])


class _Parser:
    def __init__(self, text: str, ambient: Ambient):
        self.ambient = ambient
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def parse(self) -> Polynomial:
        terms: Terms = {}
        sign = 1
        kind, value, pos = self.peek()
        if kind == "op" and value in "+-":
            self.advance()
            sign = -1 if value == "-" else 1
        while True:
            exps, coeff = self.term()
            acc = terms.get(exps, 0) + sign * coeff
            if acc:
                terms[exps] = acc
            else:
                terms.pop(exps, None)
            kind, value, pos = self.peek()
            if kind == "end":
                return Polynomial(self.ambient, terms)
            if kind == "op" and value in "+-":
                self.advance()
                sign = -1 if value == "-" else 1
                continue
            raise ParseError(f"expected '+' or '-', got {value!r}", pos)

    def term(self) -> tuple[Exponents, Scalar]:
        coeff: Scalar = 1
        exps = [0] * self.ambient.width
        kind, value, pos = self.peek()
        if kind == "int":
            self.advance()
            coeff = int(value)
            kind, value, pos = self.peek()
            if kind == "op" and value == "/":
                self.advance()
                coeff = Fraction(coeff, self.posint("denominator"))
                kind, value, pos = self.peek()
            if not (kind == "op" and value == "*"):
                return tuple(exps), coeff  # bare constant term
            self.advance()
        self.factor(exps)
        while True:
            kind, value, pos = self.peek()
            if kind == "op" and value == "*":
                self.advance()
                self.factor(exps)
            else:
                return tuple(exps), coeff

    def factor(self, exps: list[int]):
        kind, value, pos = self.advance()
        if kind != "name":
            raise ParseError(f"expected a variable, got {value!r}" if value else "expected a variable", pos)
        try:
            var = _variable_from_name(value)
        except UnknownVariable:
            raise ParseError(f"no variable named {value!r}", pos) from None
        try:
            idx = self.ambient.index(var)
        except UnknownVariable:
            raise AmbientMismatch(
                f"variable {value!r} exceeds ambient (n={self.ambient.n}, k={self.ambient.k}) at position {pos}",
                position=pos,
            ) from None
        power = 1
        kind, value, _ = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            power = self.posint("exponent")
        exps[idx] += power

    def posint(self, what: str) -> int:
        kind, value, pos = self.advance()
        if kind != "int" or int(value) < 1:
            raise ParseError(f"expected a positive integer {what}", pos)
        return int(value)


def reference_parse(text, ambient):
    """parse(text, ambient) by the recursive-descent oracle above."""
    return _Parser(text, ambient).parse()


# -- command line oracle ------------------------------------------------------


@cache
def reference_parser() -> argparse.ArgumentParser:
    """The earlier `cli.build_parser`, written out with argparse alone."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--n", type=int, required=True, help="number of chain blocks (>= 1)")
    common.add_argument("--k", type=int, default=1, help="chain length minus one (default 1)")
    common.add_argument("--output", choices=("text", "machine"), default="text", help="output format")
    common.add_argument("--seed", type=int, default=0, help="accepted for interface stability; no shipped command is randomized")
    ranged = argparse.ArgumentParser(add_help=False)  # verify and census, the commands that read degrees
    degrees = ranged.add_mutually_exclusive_group()
    degrees.add_argument("--max-degree", type=int, default=None, help="largest total degree to process")
    degrees.add_argument("--degree", type=int, default=None, help="process a single total degree")

    parser = argparse.ArgumentParser(prog="weitzenboeck", description="exact kernel computations for chain derivations")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("gens", parents=[common], help="emit the known kernel generators (k = 1 or 2)")

    p_verify = sub.add_parser("verify", parents=[common, ranged], help="certify generators span the kernel, degree by degree")
    p_verify.add_argument("--exclude", action="append", default=[], metavar="LABEL", help="drop a generator by label (repeatable)")

    sub.add_parser("census", parents=[common, ranged], help="kernel dimensions per degree (any k; no generation claim)")

    p_apply = sub.add_parser("apply", parents=[common], help="apply the derivation to a polynomial")
    p_apply.add_argument("--poly", required=True, help="polynomial text")

    p_nil = sub.add_parser("nilpotency", parents=[common], help="smallest r with D^r(p) = 0")
    p_nil.add_argument("--poly", required=True, help="polynomial text")

    p_tr = sub.add_parser("transvect", parents=[common], help="r-th transvectant of two covariants")
    p_tr.add_argument("--r", type=int, required=True, help="transvectant order")
    p_tr.add_argument("--u", required=True, help="first covariant, polynomial text")
    p_tr.add_argument("--v", required=True, help="second covariant, polynomial text")

    p_tau = sub.add_parser("tau", parents=[common], help="leading CX coefficient of a covariant")
    p_tau.add_argument("--poly", required=True, help="covariant, polynomial text")

    p_ex = sub.add_parser("express", parents=[common], help="write a kernel element in the generators")
    p_ex.add_argument("--poly", required=True, help="polynomial text")

    return parser
