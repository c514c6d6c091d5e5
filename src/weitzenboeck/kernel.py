"""Exact kernel computation and generator completeness certificates.

The derivation preserves the per-block multidegree of a monomial and
lowers its weight (sum of level * exponent) by exactly 1.  The space of
degree-d ring monomials therefore splits into graded pieces keyed by
(block_degrees, weight), D maps the piece (b, w) into (b, w-1), and the
kernel in degree d is the direct sum of the per-piece kernels.  Their
dimensions are counted from numbers of monomials (`_piece_kernel_dim`),
with no matrix: the number N(b, w) of monomials in piece (b, w) is read
from a cached table of weight counts per (b, k), the convolution over
the blocks of one cached table per (block degree, k).  Ranks, bases and
`express` all go through one sparse forward elimination (`_echelon`,
least-column pivoting), fraction-free in Python ints, which returns
primitive pivot rows keyed by lead column.  A rank is their number
(`_rank`).  A kernel basis reduces them bottom up into the unique reduced
echelon basis (`nullspace`), so bases are deterministic and
reproducible.  `express` tags each product row with a column of its own
past every monomial and reads the combination off the tag columns of
the input's reduced row.

A completeness certificate for a degree d compares, piece by piece, the
kernel dimension against the dimension spanned by all degree-d products
of the known generators; equality certifies that they span the kernel
in that degree.  A product's piece is the sum of its factors' pieces, so
products are grouped by piece from their labels alone, and each is
expanded once, only where it is used, by one expander that multiplies a
memoised prefix by a single generator (`_product_expander`).  Expansion
runs on packed monomials (`poly.Packing`), one int per monomial whose
high digits are its grading, so a term product is one int addition and
the check that every monomial of a product lies in the piece its labels
name is one shift and one comparison per term.  Products are eliminated
on their packed monomials, ints in a monomial order, so products with
distinct least monomials need no reduction against each other.

Products are enumerated as label multisets on packed gradings
(`generator_products`), piece by wanted piece: a piece (b, w) is one int,
the grading that `poly.Packing` puts in a packed monomial's high digits,
so adding a generator to a partial product is one integer subtraction
from what the branch still needs, and the same int is what the expanded
monomials are checked against.  One depth-first walk per wanted piece
adds one factor per level, a generator at or after the last one, so its
depth is the number of factors and the products come out in label order.
A cached table (`_reach`) of the gradings each suffix of the generator
list reaches prunes exactly the branches with no product in the piece,
so every branch it keeps ends in a product.  Wanted pieces and complete
products are gradings of degree-d monomials, whose fields do not carry,
so packed keys agree only when their components do.  `express`
enumerates only the products in its input's pieces this way and merges
them back into label order, and a certificate only those in its
representative pieces, which it ranks piece by piece as they come.

A certificate ranks one piece per orbit of the generators' block
symmetry.  A block permutation that maps every generator to plus or minus
a generator commutes with D and carries the products and the kernel of
piece (b, w) onto those of (s b, w), so both have the same dimensions
there (the argument is at `completeness_check`).  The swaps of adjacent
blocks that keep the set stable are found by permuting every generator
(`_symmetry_runs`), once per label set; runs of consecutive stable swaps
generate a Young subgroup, and the representative of an orbit is the b
that is non-increasing within each run.  A set with no stable swap has
orbits of one piece each.  Only the products in representative pieces
with a nonzero kernel are enumerated (a product is a nonzero kernel
element, so no other piece holds one), and only representative pieces
that hold products are expanded and ranked, each exactly by `_rank` on
integer rows, which stops at the piece's kernel dimension: products lie
in ker D, so their rank cannot exceed it.  A piece without products spans
nothing.  The report is built in one pass over the block degrees in
ascending order, each b reporting its representative's dimensions, so it
comes out in piece order with no sort.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import gcd, lcm
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .derivation import GeneratorSet, WeitzenboeckDerivation, generators
from .errors import InvalidKey, NonHomogeneous, NotInKernel, NotInSpan
from .poly import Ambient, Exponents, PackedTerms, Polynomial, monomial_sort_key, mul_terms, packing_for


class GradedPieceKey(NamedTuple):
    block_degrees: tuple[int, ...]
    weight: int


class PieceReport(NamedTuple):
    key: GradedPieceKey
    kernel_dim: int
    span_dim: int


@dataclass(frozen=True)
class CompletenessReport:
    """Per-degree certificate: do generator products span the kernel?"""

    n: int
    k: int
    degree: int
    kernel_dim: int
    span_dim: int
    complete: bool
    per_piece: tuple[PieceReport, ...]

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "degree": self.degree,
            "kernel_dim": self.kernel_dim,
            "span_dim": self.span_dim,
            "complete": self.complete,
            "per_piece": [
                {
                    "block_degrees": list(piece.key.block_degrees),
                    "weight": piece.key.weight,
                    "kernel_dim": piece.kernel_dim,
                    "span_dim": piece.span_dim,
                }
                for piece in self.per_piece
            ],
        }


# -- monomial enumeration ----------------------------------------------------


def compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All tuples of `parts` non-negative integers summing to `total`, ascending lex; none if total < 0."""
    if total < 0:
        return
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in compositions(total - head, parts - 1):
            yield (head,) + tail


def graded_monomials(n: int, k: int, key: GradedPieceKey) -> list[Exponents]:
    """All ring monomials with the given block multidegree and weight.

    Returned as full-width exponent tuples (covariant slots zero) in
    canonical order, highest first.  ValueError for n < 1 or k < 1.
    """
    Ambient(n, k)  # validates n and k
    block_degrees = tuple(key.block_degrees)
    weight = key.weight
    if len(block_degrees) != n or any(d < 0 for d in block_degrees):
        raise InvalidKey(f"block_degrees {block_degrees} invalid for n = {n}")
    if weight < 0 or weight > k * sum(block_degrees):
        raise InvalidKey(f"weight {weight} outside 0..{k * sum(block_degrees)} for {block_degrees}")

    by_weight: list[dict[int, list[tuple[int, ...]]]] = []
    for d in block_degrees:
        table: dict[int, list[tuple[int, ...]]] = defaultdict(list)
        for exps in compositions(d, k + 1):
            table[sum(j * e for j, e in enumerate(exps))].append(exps)
        by_weight.append(table)

    out: list[Exponents] = []

    def rec(block: int, remaining: int, prefix: tuple[int, ...]):
        if block == n:
            if remaining == 0:
                out.append(prefix + (0, 0))
            return
        for w, vecs in by_weight[block].items():
            if w <= remaining:
                for exps in vecs:
                    rec(block + 1, remaining - w, prefix + exps)

    rec(0, weight, ())
    out.sort(key=monomial_sort_key, reverse=True)
    return out


def piece_keys(n: int, k: int, degree: int) -> list[GradedPieceKey]:
    """Every graded piece key of total degree `degree`, sorted; ValueError for invalid n, k or degree."""
    Ambient(n, k)  # validates n and k
    if degree < 0:
        raise ValueError("degree must be >= 0")
    keys = [
        GradedPieceKey(bd, w)
        for bd in compositions(degree, n)
        for w in range(k * degree + 1)
    ]
    keys.sort()
    return keys


@cache
def _block_weight_counts(degree: int, k: int) -> tuple[int, ...]:
    """Monomials of the given degree in one block (levels 0..k), counted by weight 0..k*degree.

    A monomial either has no level-k factor, or is a monomial of degree - 1
    times one (weight + k); the counts are Gaussian binomial coefficients.
    """
    if degree == 0 or k == 0:
        return (1,)
    counts = list(_block_weight_counts(degree, k - 1)) + [0] * degree
    for w, c in enumerate(_block_weight_counts(degree - 1, k)):
        counts[w + k] += c
    return tuple(counts)


@cache
def _weight_counts(block_degrees: tuple[int, ...], k: int) -> tuple[int, ...]:
    """N(b, w) for w = 0..k|b|: the block counts convolved over the blocks of b."""
    if not block_degrees:
        return (1,)
    head = _weight_counts(block_degrees[:-1], k)
    last = _block_weight_counts(block_degrees[-1], k)
    counts = [0] * (len(head) + len(last) - 1)
    for i, a in enumerate(head):
        for j, c in enumerate(last):
            counts[i + j] += a * c
    return tuple(counts)


# -- exact linear algebra ----------------------------------------------------

SparseRow = dict[int, Fraction]


def matrix_rows(polys: Sequence[Polynomial]) -> list[SparseRow]:
    """Sparse rows of the matrix whose j-th column holds the coefficients of polys[j].

    One row per monomial occurring in some polynomial, mapping column index
    to nonzero coefficient.
    """
    by_monomial: dict[Exponents, SparseRow] = {}
    for j, p in enumerate(polys):
        for exps, c in p.items():
            by_monomial.setdefault(exps, {})[j] = c
    return list(by_monomial.values())


def _eliminate(row: dict[int, int], pivot: dict[int, int], col: int) -> None:
    """Clear column `col` of an integer row in place: row = a*row - b*pivot.

    With p = pivot[col] > 0, r = row[col] and g = gcd(p, r), a = p/g > 0
    and b = r/g.  Only nonzero entries are kept.
    """
    p, r = pivot[col], row[col]
    g = gcd(p, r)
    a, b = p // g, r // g
    if a != 1:
        for c in row:
            row[c] *= a
    for c, v in pivot.items():
        nv = row.get(c, 0) - b * v
        if nv:
            row[c] = nv
        else:
            del row[c]


def _make_primitive(row: dict[int, int], lead: int) -> None:
    """Divide a nonzero integer row by the gcd of its entries, signed so row[lead] > 0."""
    g = gcd(*row.values())
    if row[lead] < 0:
        g = -g
    if g != 1:
        for c in row:
            row[c] //= g


def _integer_row(source: SparseRow) -> tuple[dict[int, int], int]:
    """A row scaled to integers by the lcm of its denominators, zeros dropped, and that lcm."""
    scale = lcm(*(v.denominator for v in source.values()))
    return {c: v.numerator * (scale // v.denominator) for c, v in source.items() if v}, scale


def _echelon(
    rows: Iterable[dict[int, int]], bound: int | None = None, limit: int | None = None
) -> dict[int, dict[int, int]]:
    """Primitive pivot rows of sparse integer rows (nonzero int entries), keyed by their lead column.

    The one elimination, fraction-free: each row is copied and reduced
    against the pivot row of its lead, its least column (on packed
    monomials, its least monomial), with `_eliminate`, until it is zero or
    its lead has no pivot row, when it becomes one, made primitive.  A row
    whose lead is at or past `bound` is dropped instead, and reading stops
    at `limit` pivot rows.  Every row is a positive multiple of the row the
    same steps give over Q, so the same leads are chosen.  Each row read is
    a combination of pivot rows plus what is left of it when it is zero or
    dropped, so with no bound the pivot rows span the rows read and count
    their rank; no reduced echelon form is built.
    """
    pivot_rows: dict[int, dict[int, int]] = {}
    for source in rows:
        if len(pivot_rows) == limit:
            break
        row = dict(source)
        while row:
            lead = min(row)
            pivot = pivot_rows.get(lead)
            if pivot is None:
                if bound is None or lead < bound:
                    _make_primitive(row, lead)
                    pivot_rows[lead] = row
                break
            _eliminate(row, pivot, lead)
    return pivot_rows


def _rank(rows: Iterable[dict[int, int]], limit: int | None = None) -> int:
    """Exact rank over Q of sparse integer rows, or `limit` if it reaches it: the number of pivot rows."""
    return len(_echelon(rows, limit=limit))


def nullspace(rows: Sequence[SparseRow], ncols: int) -> list[tuple[Fraction, ...]]:
    """Canonical basis of {v : M v = 0}, exact, for the sparse rows of M (int or Fraction entries).

    The basis itself is in reduced echelon form (each vector's leading
    entry is 1 and is the only nonzero entry of its column across the
    basis), which makes the output unique and order-deterministic.  It
    comes from one forward elimination (`_echelon`) of M with its columns
    reversed and its rows scaled to integers: pivots then sit as far right
    as possible, so every free column leads the null vector it defines.
    The pivot rows are then reduced bottom up.  The rows below a pivot row
    are already reduced, zero in every pivot column but their own, so one
    pass over the row's columns clears every later pivot column, and
    dividing each row by its pivot entry gives the reduced echelon form,
    which is unique: the same basis whatever the order of `rows`.
    """
    last = ncols - 1
    pivot_rows = _echelon(_integer_row({last - c: v for c, v in row.items()})[0] for row in rows)
    basis = {free: [Fraction(0)] * ncols for free in range(ncols) if last - free not in pivot_rows}
    for free, v in basis.items():
        v[free] = Fraction(1)
    for p in sorted(pivot_rows, reverse=True):
        row = pivot_rows[p]
        for c in [c for c in row if c != p and c in pivot_rows]:
            _eliminate(row, pivot_rows[c], c)
        for c, value in row.items():
            if c != p:
                basis[last - c][last - p] = Fraction(-value, row[p])
    return [tuple(v) for v in basis.values()]


# -- kernel bases ------------------------------------------------------------


def kernel_piece_basis(n: int, k: int, key: GradedPieceKey) -> list[Polynomial]:
    """Echelon basis of ker D within a single graded piece, by elimination of D's matrix."""
    cols = graded_monomials(n, k, key)
    amb = Ambient(n, k)
    deriv = WeitzenboeckDerivation(n, k)
    rows = matrix_rows([deriv.apply(Polynomial(amb, {mono: 1})) for mono in cols])
    return [Polynomial(amb, {mono: c for mono, c in zip(cols, vec) if c}) for vec in nullspace(rows, len(cols))]


def _piece_kernel_dim(n: int, k: int, key: GradedPieceKey) -> int:
    """dim ker D on piece (b, w): N(b, w) - N(b, w-1) if 2w <= k|b|, else 0; N counts monomials.

    D is the lowering element of an sl2-triple (Jacobson-Morozov); each b
    gives a finite-dimensional module in which weight w has h-eigenvalue
    2w - k|b|, so D maps weight w onto w-1 when 2w <= k|b| and injectively
    when 2w > k|b| (Cayley-Sylvester).  Certificates rest on span_dim <=
    kernel_dim, which holds because generator products lie in ker D.

    N(b, w) and N(b, w-1) are read from the cached table `_weight_counts(b, k)`,
    so no monomial is listed; `graded_monomials` enumerates the same
    numbers independently (the tests compare the two).
    """
    block_degrees, weight = key
    if 2 * weight > k * sum(block_degrees):
        return 0
    counts = _weight_counts(tuple(block_degrees), k)
    return counts[weight] - (counts[weight - 1] if weight else 0)


def kernel_dim(n: int, k: int, degree: int) -> int:
    """Dimension of the degree-d homogeneous component of ker D; ValueError for invalid n, k or degree.

    For each b the counts of `_piece_kernel_dim` over 2w <= k|b| telescope
    to N(b, floor(k|b|/2)), so no matrix is built and no piece is listed.
    """
    Ambient(n, k)  # validates n and k
    if degree < 0:
        raise ValueError("degree must be >= 0")
    return sum(_weight_counts(b, k)[k * degree // 2] for b in compositions(degree, n))


def kernel_basis(n: int, k: int, degree: int) -> list[Polynomial]:
    """Basis of the degree-d homogeneous component of ker D.

    Direct sum of per-piece nullspaces, concatenated over sorted piece
    keys; every element is annihilated by D exactly.
    """
    basis: list[Polynomial] = []
    for key in piece_keys(n, k, degree):
        basis.extend(kernel_piece_basis(n, k, key))
    return basis


# -- generator products and spans ---------------------------------------------


@cache
def _reach(items: tuple[tuple[int, int], ...], degree: int) -> tuple[tuple[frozenset[int], ...], ...]:
    """reach[idx][r]: packed keys of every multiset of generators idx.. of total degree exactly r.

    `items` holds each generator's (degree, packed key), r runs over
    0..degree.  A multiset of generators idx.. either holds no copy of
    generator idx (reach[idx+1][r]) or is one copy of it times a multiset of
    generators idx.. of degree r - d.  Cached on packed keys, not on the
    GeneratorSet, so sets rebuilt by `without` share the table.
    """
    table = [tuple(frozenset({0} if r == 0 else ()) for r in range(degree + 1))]
    for d, g in reversed(items):
        later = table[-1]
        row: list[frozenset[int]] = []
        for r in range(degree + 1):
            row.append(later[r] | {s + g for s in row[r - d]} if r >= d else later[r])
        table.append(tuple(row))
    table.reverse()
    return tuple(table)


def generator_products(
    gens: GeneratorSet, degree: int, pieces: Iterable[GradedPieceKey]
) -> dict[GradedPieceKey, list[tuple[str, ...]]]:
    """The monomials in the generators of total ring degree exactly `degree` in each wanted piece.

    Maps each piece of `pieces` that holds at least one such product, once
    however often it is given and keyed by a GradedPieceKey with tuple
    block degrees, to its label multisets in label order (higher
    multiplicity of earlier generators first), in the order the pieces are
    first given.  Nothing is expanded, and the values may be linearly
    dependent.

    One depth-first walk per wanted piece adds one factor per level: a
    branch whose last factor is generator idx adds a generator j >= idx and
    goes on at j, so a product is its nondecreasing sequence of generator
    indices, its depth is its number of factors, and a generator it holds
    no copy of costs no level.  Trying j in ascending order lists the
    sequences in ascending lex order, which is label order: where two
    sequences of one degree first differ, the one with the smaller index
    holds the same number of every earlier generator and more copies of
    that one (a sequence of positive degrees is never a prefix of another
    of the same degree).

    The walk carries what the branch still needs, the piece's packed
    grading (`Packing.grading` of the degree's packing, the one
    `completeness_check` checks monomials against) minus the gradings of
    its factors, so adding a factor is one integer subtraction.  Adding
    generator j with r degrees left after it keeps the child only if
    need - g_j is in reach[j][r], the gradings of the multisets of
    generators j.. (j included) of degree r: one set lookup per child.  The
    prune is exact: the completions of the child are exactly those
    multisets, so a child is dropped only when no product below it lies in
    the piece, and every child kept ends in one.  The generator table and
    `_reach` are built once per call and shared by the walks.
    """
    if degree < 0:
        raise ValueError("degree must be >= 0")
    n, k = gens.n, gens.k
    packing = packing_for(Ambient(n, k), degree)
    # each generator lies in one piece
    items = [(row.label, row.degree, packing.grading(row.block_degrees, row.weight)) for row in gens.table]
    reach = _reach(tuple((d, g) for _, d, g in items), degree)
    out: dict[GradedPieceKey, list[tuple[str, ...]]] = {}

    def walk(idx: int, remaining: int, labels: tuple[str, ...], need: int):
        if remaining == 0:
            found.append(labels)
            return
        for j in range(idx, len(items)):
            label, d, g = items[j]
            r = remaining - d
            if r >= 0 and (left := need - g) in reach[j][r]:
                walk(j, r, labels + (label,), left)

    for bd, w in pieces:
        # a reachable grading and every completion are gradings of degree-`degree` monomials,
        # so each field is at most k*degree < 2^bits and packed equality is componentwise
        # equality; a key of another degree or with a negative field is not a piece of them
        if len(bd) != n or sum(bd) != degree or min(bd) < 0 or not 0 <= w <= k * degree:
            continue
        key = GradedPieceKey(tuple(bd), w)
        target = packing.grading(bd, w)
        if key not in out and target in reach[0][degree]:
            found = out[key] = []
            walk(0, degree, (), target)
    return out


def _label_degree(gens: GeneratorSet) -> Callable[[tuple[str, ...]], int]:
    """Total degree of a label multiset of `gens`; KeyError on an unknown label."""
    degrees = {row.label: row.degree for row in gens.table}
    return lambda labels: sum(map(degrees.__getitem__, labels))


def _product_expander(gens: GeneratorSet, degree: int) -> Callable[[tuple[str, ...]], PackedTerms]:
    """The one expander of generator products of total degree <= `degree`: label multiset -> packed term map.

    Monomials are packed by `packing_for(Ambient(gens.n, gens.k), degree)`.  A
    multiset's terms are those of its prefix labels[:-1], memoised for the
    expander's lifetime, times one generator's terms, packed once per
    expander when first used and multiplied by `mul_terms`.  Every
    monomial of a product of total degree <= `degree` has total degree
    <= `degree`, so no digit carries (see `Packing`); a multiset above the
    bound raises ValueError instead of carrying.  The generators' integral
    coefficients are `int`, so products of integer generators are expanded
    in integer arithmetic.  Raises KeyError on an unknown label.
    """
    packing = packing_for(Ambient(gens.n, gens.k), degree)
    label_degree = _label_degree(gens)
    values: dict[str, PackedTerms] = {}
    prefixes: dict[tuple[str, ...], PackedTerms] = {}

    def times(labels: tuple[str, ...]) -> PackedTerms:
        if not labels:
            return {0: 1}
        head, last = labels[:-1], labels[-1]
        terms = prefixes.get(head)
        if terms is None:
            terms = prefixes[head] = times(head)
        factor = values.get(last)
        if factor is None:
            factor = values[last] = packing.pack_terms(gens.value(last))
        return mul_terms(terms, factor)

    def expand(labels: tuple[str, ...]) -> PackedTerms:
        if label_degree(labels) > degree:
            raise ValueError(f"product {labels} exceeds the expander's degree bound {degree}")
        return times(labels)

    return expand


# -- block-permutation orbits -------------------------------------------------


def _swap_blocks(p: Polynomial, i: int) -> Polynomial:
    """p with blocks i and i+1 (0-based) exchanged: v_{i,j} <-> v_{i+1,j} at every level j."""
    step = p.ambient.k + 1
    a, b, c = i * step, (i + 1) * step, (i + 2) * step
    return Polynomial(p.ambient, {e[:a] + e[b:c] + e[a:b] + e[c:]: v for e, v in p.items()})


@cache
def _symmetry_runs(n: int, k: int, labels: tuple[str, ...]) -> tuple[tuple[int, int], ...]:
    """Runs [start, stop) of blocks that the swaps keeping the generators `labels` stable join.

    The swap of blocks i and i+1 is stable when it maps every generator of
    `generators(n, k)` named in `labels` to plus or minus one of them.
    Consecutive stable swaps join their blocks into one run; a block that no
    stable swap touches is a run of its own.  The runs' symmetric groups
    generate the Young subgroup of block permutations that map the set onto
    itself up to sign.  Cached on the label tuple, not on a GeneratorSet,
    because `without` builds a new set for every call.
    """
    gens = generators(n, k)
    values = {gens.value(label) for label in labels}
    runs = [[0, 1]]
    for i in range(n - 1):
        if all(q in values or -q in values for q in (_swap_blocks(p, i) for p in values)):
            runs[-1][1] = i + 2
        else:
            runs.append([i + 1, i + 2])
    return tuple((start, stop) for start, stop in runs)


def completeness_check(n: int, k: int, degree: int, exclude: Sequence[str] = ()) -> CompletenessReport:
    """Compare kernel dimension with the generator-product span, piece by piece.

    Every piece with a nonzero kernel is reported, in `piece_keys` order.
    Its span_dim is the exact rank over Q of the piece's products, or 0 if
    it holds none.  Only the pieces whose block degrees represent an orbit
    of the generator set's block symmetry (`_symmetry_runs`; the
    representative is non-increasing within every run) are enumerated,
    expanded and ranked (`_rank` on packed monomials, one call per
    representative piece that holds products, each of whose monomials is
    checked to lie in the piece), and `generator_products` is asked for
    the products of exactly the representative pieces with a nonzero kernel.  The report is one
    pass over `compositions(degree, n)`, which is ascending, with the
    weights ascending inside; each b reports its representative's
    kernel_dim and span_dim.  Raises ValueError for a negative degree,
    before any symmetry or composition is computed, and TypeError if
    `exclude` is a bare string rather than a sequence of labels.

    The copy is exact.  A block permutation s that maps every generator to
    plus or minus a generator is a ring automorphism that commutes with D
    and maps piece (b, w) onto (s b, w).  It sends the label multisets of
    (b, w) bijectively onto those of (s b, w), each product to plus or
    minus the image multiset's product, so it maps the span of the first
    piece's products linearly and bijectively onto the second's, and the
    span dimensions agree.  N(b, w) is a convolution of one table per
    block degree, which does not depend on the blocks' order, so
    `_piece_kernel_dim` agrees too.
    """
    amb = Ambient(n, k)
    if degree < 0:
        raise ValueError("degree must be >= 0")
    if isinstance(exclude, str):
        raise TypeError(f"exclude must be a sequence of labels, not the string {exclude!r}")
    gens = generators(n, k).without(*exclude)
    runs = _symmetry_runs(n, k, tuple(gens.labels()))
    # each b with its orbit's representative, non-increasing within every run, in ascending
    # order; with the weights ascending inside, that is `piece_keys` order
    blocks = [
        (b, tuple(v for start, stop in runs for v in sorted(b[start:stop], reverse=True)))
        for b in compositions(degree, n)
    ]
    weights = range(k * degree // 2 + 1)  # a piece of weight 2w > k*degree has no kernel
    kernel_dims = {
        key: kdim
        for b, rep in blocks
        if b == rep
        for w in weights
        if (kdim := _piece_kernel_dim(n, k, key := GradedPieceKey(b, w)))
    }
    expand = _product_expander(gens, degree)
    packing = packing_for(amb, degree)  # the expander's packing
    shift = packing.shift

    # only the representative pieces with a nonzero kernel are enumerated.  A product
    # of generators is a nonzero element of ker D (the ring has no zero divisors), so
    # every piece that holds one has kernel_dim >= 1 and leaving out the pieces of
    # kernel_dim 0 drops no product
    span: dict[GradedPieceKey, int] = {}
    for key, products in generator_products(gens, degree, kernel_dims).items():
        # the packed monomials are the columns, each checked to lie in the piece the
        # labels name: its high digits are exactly its grading (no field carries), so
        # `mono >> shift != piece` is (block_degrees, weight, cov_degree) != (b, w, 0)
        piece = packing.grading(key.block_degrees, key.weight)
        rows = [expand(labels) for labels in products]
        for labels, row in zip(products, rows):
            for mono in row:
                if mono >> shift != piece:
                    stray = packing.unpack(mono)
                    raise NonHomogeneous(f"product {labels} lies outside piece {key}: monomial {stray}")
        # products lie in ker D on this piece, so their rank is at most its kernel
        # dimension and stopping the elimination there still gives the exact rank
        span[key] = _rank(rows, kernel_dims[key])
    # a piece that holds no product spans nothing; each orbit member reports its representative's dims
    pieces = [
        PieceReport(GradedPieceKey(b, w), kdim, span.get(rep_key, 0))
        for b, rep in blocks
        for w in weights
        if (kdim := kernel_dims.get(rep_key := (rep, w)))
    ]
    kernel_total = sum(piece.kernel_dim for piece in pieces)
    span_total = sum(piece.span_dim for piece in pieces)
    return CompletenessReport(
        n=n,
        k=k,
        degree=degree,
        kernel_dim=kernel_total,
        span_dim=span_total,
        complete=span_total == kernel_total,
        per_piece=tuple(pieces),
    )


Combination = dict[tuple[str, ...], Fraction]


def express_in_generators(p: Polynomial, gens: GeneratorSet) -> Combination:
    """Write a homogeneous kernel element as a combination of generator products.

    Returns a map from label multisets to coefficients such that
    sum(coeff * prod(generators)) reconstructs p exactly.  Products satisfy
    relations, e.g. x_i*J_{j,l} - x_j*J_{i,l} + x_l*J_{i,j} = 0, so the
    representation is not unique; this one writes p in the greedy basis,
    each product in enumeration order that is not a combination of those
    before it, where the coefficients are unique, and gives every other
    product 0.  Raises NotInKernel if D(p) != 0 and NotInSpan if p is not
    in the span of the products.
    """
    deriv = WeitzenboeckDerivation(gens.n, gens.k)
    if not deriv.is_in_kernel(p):
        raise NotInKernel(f"D({p}) != 0")
    if p.is_zero:
        return {}
    degree = p.homogeneous_degree()
    if degree is None:
        raise NonHomogeneous(f"polynomial mixes total degrees: {p}")
    gradings = p.gradings()
    if any(cov for _, _, cov in gradings):
        raise NotInSpan("polynomial involves covariant variables")
    target_keys = {GradedPieceKey(bd, w) for bd, w, _ in gradings}

    # restricting to products in p's pieces gives the combination of all degree-d
    # products: pieces have disjoint monomial support, so the greedy basis is the
    # union of the pieces' own, and the coefficients outside p's pieces are 0
    # merged back into label order, ascending by generator-index sequence
    index = {label: i for i, label in enumerate(gens.labels())}
    products = sorted(
        (labels for found in generator_products(gens, degree, target_keys).values() for labels in found),
        key=lambda labels: [index[label] for label in labels],
    )

    # row j holds product j's packed terms and a 1 in the tag column tag + 1 + j, the
    # last row p's terms scaled to integers and the scale in column tag.  Every packed
    # monomial lies below the packing's end, so tag lies past every one, and a row's
    # lead is a monomial until it has none left
    packing = packing_for(p.ambient, degree)
    tag = packing.end
    expand = _product_expander(gens, degree)
    target, scale = _integer_row(packing.pack_terms(p))
    rows = [expand(labels) | {tag + 1 + j: 1} for j, labels in enumerate(products)]
    pivot_rows = _echelon(rows + [target | {tag: scale}], bound=tag + 1)
    # a product row left with tag columns only is dropped: it is a combination of the
    # products before it, so the kept ones are the greedy basis in product order.  p's
    # row keeps lead tag exactly when its monomials cancel, leaving
    # row[tag]*p + sum(row[tag + 1 + j] * product j) = 0 over the basis products
    solved = pivot_rows.get(tag)
    if solved is None:
        raise NotInSpan(f"{p} is not spanned by generator products of degree {degree}")
    return {products[c - tag - 1]: Fraction(-v, solved[tag]) for c, v in sorted(solved.items()) if c > tag}


def evaluate_combination(combination: Combination, gens: GeneratorSet) -> Polynomial:
    """Expand a label-multiset combination: sum(coeff * prod(generators))."""
    degree = max(map(_label_degree(gens), combination), default=0)
    packing = packing_for(Ambient(gens.n, gens.k), degree)
    expand = _product_expander(gens, degree)
    total: PackedTerms = {}
    for labels, coeff in combination.items():
        for mono, c in expand(labels).items():
            total[mono] = total.get(mono, 0) + coeff * c
    return Polynomial(packing.ambient, packing.unpack_terms(total))
