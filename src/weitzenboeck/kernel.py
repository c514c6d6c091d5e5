"""Exact kernel computation and generator completeness certificates.

The derivation preserves the per-block multidegree of a monomial and
lowers its weight (sum of level * exponent) by exactly 1.  The space of
degree-d ring monomials therefore splits into graded pieces keyed by
(block_degrees, weight), D maps the piece (b, w) into (b, w-1), and the
kernel in degree d is the direct sum of the per-piece kernels.  Their
dimensions are counted from numbers of monomials (`_piece_kernel_dim`),
with no matrix: N(b, w) - N(b, w-1), N(b, w) the number of monomials in
piece (b, w), is read from one cached table per multiset of nonzero block
degrees and k (`_kernel_dims`), built in a loop.  Summed over every
piece of degree d they telescope to one coefficient, M(d, floor(k*d/2)),
the number of degree-d monomials of middle weight, which `kernel_dim`
reads off one table of counts by degree and weight, of which it keeps
only the band of weights that can reach that coefficient, with no piece,
block degree or per-b table (the argument is at `kernel_dim`).  Ranks, bases and
`express` all go through one sparse forward elimination (`_echelon`,
least-column pivoting), fraction-free in Python ints, which returns
primitive pivot rows keyed by lead column.  A rank is their number.  A
kernel basis reduces them bottom up into the unique reduced echelon
basis (`nullspace`), so bases are deterministic and reproducible.
`express` tags each product row with a column of its own past every
monomial and reads the combination off the tag columns of the input's
reduced row, one graded piece at a time.

A completeness certificate for a degree d compares, piece by piece, the
kernel dimension against the dimension spanned by all degree-d products
of the known generators; equality certifies that they span the kernel
in that degree.  A product's piece is the sum of its factors' pieces, so
products are grouped by piece from their labels alone.  Monomials are
packed (`poly.Packing`), one int per monomial whose high digits are its
grading, in a monomial order that int addition keeps; packing is linear,
so every monomial of a product lies in the piece its labels name.  There
is one packing for every degree with k*d <= 15, then one per bit width
(`poly.packing_for`), shared by every degree it holds, and what a label
set needs in a packing is one object, built once per label set and
packing (`_Tables`, by `_tables`): the packed generators, each with its
least packed monomial and its piece (`_Tables.row`, the one place where
they are read and checked), the walk's reach table and `express`'s
piece bases.  Each grows with the degree asked, and a degree reads the
same whatever was asked before (the argument is on the class).

A piece is first certified by counting least monomials, with nothing
expanded (`_Decisions`, where the argument is): a product's least
monomial is the sum of its factors' least monomials, and elements with
distinct least monomials are linearly independent, so a piece whose
products show kernel_dim of them is complete.  This is the SAGBI test
(Robbiano-Sweedler; Kapur-Madlener) on one graded piece, in the packed
order `_echelon` pivots on.  Only a piece whose count is short of
kernel_dim but not 0 has its products ranked: the walk of the piece
(`_products`) feeds `_echelon` lazily in label order, expanding as it
goes, and both stop at kernel_dim.  Only that path reports a piece
short.  A label set's degrees are decided once each, lowest first
(`_Decisions`), and each pivot lead of a rank that the count did not
hold joins the count of every higher degree (truncated SAGBI
subduction): with the full family on k + 1 = 3 blocks, one piece is
ranked, in degree 3.  The count's table lives in the call that decides
with it, one per packing: the generators' least-monomial sums, to which
each lead found is added in place; nothing of it outlives the call.

Products are enumerated as label multisets on packed gradings, one piece
per walk (`_products`): a piece (b, w) is one int, the grading that
`poly.Packing` puts in a packed monomial's high digits, so adding a
generator to a partial product is one integer subtraction from what the
branch still needs.  The walk adds one factor per level, a generator at
or after the last one, so its depth is the number of factors and the
products come out in label order.  Each level multiplies its parent's
terms by the one generator it adds, so a product is expanded when it is
yielded, each prefix on its path once per walk, and nothing expanded
outlives the walk.  The reach table (`_Tables.walk`),
of the gradings each suffix of the generator list reaches, prunes
exactly the branches with no product in the piece, so every branch it
keeps ends in a product.  The walk reads its degree's view of the tables
(the generators' rows and reach rows), which its caller reads once per
degree and hands to every walk of that degree.  `express` packs its
input and splits it by piece in one pass over its terms, the gradings
`key >> shift` of its monomials (`Packing.read_grading`), and a
certificate walks only its short representative pieces.

`express` solves each of its input's pieces on its own (pieces have
disjoint support, so the greedy basis is the union of the pieces' own).
A piece's products are walked and expanded lazily, in label order, and
its elimination stops at kernel_dim, read off the `_kernel_dims` row of
the block degrees and weight its grading names; its products and pivot rows are
kept with the tables (`_Tables.bases`), so a later call only reduces its
own row.  A combination of products of kernel generators lies in ker D,
so D(p) is computed only on the way to an error (the argument is at
`express_in_generators`), and D is applied to the generators only for a
set that is not made of the built-in family's own polynomials
(`_generators_in_kernel`).

A certificate ranks one piece per orbit of the generators' block
symmetry.  A block permutation that maps every generator to plus or minus
a generator commutes with D and carries the products and the kernel of
piece (b, w) onto those of (s b, w), so both have the same dimensions
there (the argument is at `completeness_check`).  The swaps of adjacent
blocks that keep the set stable are found by permuting the excluded
generators only (`_symmetry_runs`); runs of consecutive stable swaps
generate a Young subgroup, and the representative of an orbit is the b
that is non-decreasing within each run; the full family is one run of
all n blocks.  Only `completeness_check` counts on the representatives.
They alone are listed (`_representatives`), and the least-monomial table
drops, block by block, every sum that cannot end in a representative
piece.  A piece without products spans nothing.  A decided degree keeps
only its short representatives and their span dimensions; a piece the
count certifies is read on its packed grading, with no key made.  The
report keeps the short pieces and the runs; its kernel total is
`kernel_dim`'s one coefficient, less, for the span total, each short
representative's shortfall times its orbit's size, and `representatives`
and `per_piece` list the representatives and the orbit members, in piece
order, only when read.

With the full family on n > k + 1 blocks, a degree is decided on k + 1
blocks, by polarization: it is complete on n >= k + 1 blocks exactly
when it is on k + 1.  The elementary half is full polarization P, which
maps a piece (b, w) into the multilinear piece (1^d, w) of d = |b|
blocks and commutes with D, and restitution R, the D-equivariant ring
map back with R(P f) = b! f (b! = b_1!...b_n!), which maps every product
of the family to plus or minus a product or to 0.  The rest is Weyl's
polarization theorem (H. Weyl, The Classical Groups, 1939; Kraft-Procesi,
Classical Invariant Theory, a Primer): for n >= dim V = k + 1, the
invariants of exp(tD) on V^n are spanned by the polarizations of those
on V^(k+1), and the span of products is closed under
polarization.  The decision is one bool per (k, degree)
(`_base_complete`); if it reads complete, both totals are `kernel_dim`,
with no generator of n blocks built and nothing enumerated, expanded,
ranked or listed until read.  An incomplete base, or any excluded generator, leaves the
degree to the pieces of its own n blocks, as above.  The argument is
written out at `completeness_check`.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from fractions import Fraction
from functools import cache, cached_property, reduce
from itertools import chain, product
from math import comb, factorial, gcd, lcm, prod
from operator import itemgetter, mul
from threading import Lock
from typing import Iterable, Iterator, NamedTuple, Sequence

from .derivation import GeneratorSet, WeitzenboeckDerivation, generators
from .errors import InvalidKey, NonHomogeneous, NotInKernel, NotInSpan, UnknownLabel
from .poly import Ambient, Exponents, PackedTerms, Packing, Polynomial, _Frozen, monomial_sort_key, mul_terms, packing_for


class GradedPieceKey(NamedTuple):
    block_degrees: tuple[int, ...]
    weight: int


class PieceReport(NamedTuple):
    key: GradedPieceKey
    kernel_dim: int
    span_dim: int


class CompletenessReport(_Frozen):
    """Per-degree certificate: do generator products span the kernel?

    Holds the orbit representatives' reports, in piece order, and the runs of their orbits.
    A report given None lists them on first read, each with span_dim = kernel_dim;
    `completeness_check` gives None and keeps the short representatives' span_dims
    beside the fields (`_decided`), so it pickles and copies either way.
    """

    _fields = ("n", "k", "degree", "kernel_dim", "span_dim", "complete", "representatives", "runs")

    def __init__(
        self, n: int, k: int, degree: int, kernel_dim: int, span_dim: int, complete: bool,
        representatives: tuple[PieceReport, ...] | None, runs: tuple[tuple[int, int], ...],
    ):
        self.__dict__.update(n=n, k=k, degree=degree, kernel_dim=kernel_dim, span_dim=span_dim, complete=complete, runs=runs)
        if representatives is not None:
            self.__dict__["representatives"] = representatives

    @classmethod
    def _decided(
        cls, n: int, k: int, degree: int, kernel_dim: int, span_dim: int, runs: tuple[tuple[int, int], ...], short: dict[GradedPieceKey, int]
    ) -> CompletenessReport:
        """A report whose representatives are listed on first read, the `short` pieces with the span_dims given there."""
        report = cls(n, k, degree, kernel_dim, span_dim, not short, None, runs)
        report.__dict__["_short"] = short
        return report

    @cached_property
    def representatives(self) -> tuple[PieceReport, ...]:
        """The representative pieces of `runs` in `degree` with a kernel, in `piece_keys` order, each spanning its kernel but the short ones."""
        short = self.__dict__.get("_short", {})
        pieces = []
        for b in _representatives(self.degree, self.runs):
            for w, kdim in enumerate(_kernel_dims(tuple(sorted(d for d in b if d)), self.k)):
                if kdim:
                    key = GradedPieceKey(b, w)
                    pieces.append(PieceReport(key, kdim, short.get(key, kdim)))
        return tuple(pieces)

    @cached_property
    def per_piece(self) -> tuple[PieceReport, ...]:
        """Every piece with a nonzero kernel in `piece_keys` order, each with its representative's dims."""
        return tuple(PieceReport(GradedPieceKey(b, w), kdim, sdim) for b, dims in self._orbits() for w, kdim, sdim in dims)

    def _orbits(self) -> list[tuple[tuple[int, ...], list[tuple[int, int, int]]]]:
        """Every b with a piece of nonzero kernel, in `compositions` order, with its representative's (weight, kernel_dim, span_dim) in weight order.

        A representative's orbit is the choices of one distinct
        rearrangement of its part in each run (`_arrangements`, listed once
        per part); the members of all orbits, sorted, are in `compositions`
        order, ascending lex.
        """
        dims: dict[tuple[int, ...], list[tuple[int, int, int]]] = defaultdict(list)
        for (b, w), kdim, sdim in self.representatives:
            dims[b].append((w, kdim, sdim))
        arrangements: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
        members = []
        for b, found in dims.items():
            parts = []
            for i, j in self.runs:
                part = b[i:j]
                if part not in arrangements:
                    arrangements[part] = _arrangements(part)
                parts.append(arrangements[part])
            members += [(tuple(chain.from_iterable(member)), found) for member in product(*parts)]
        members.sort(key=itemgetter(0))
        return members

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "degree": self.degree,
            "kernel_dim": self.kernel_dim,
            "span_dim": self.span_dim,
            "complete": self.complete,
            "per_piece": [  # `per_piece`, with no PieceReport built
                {"block_degrees": list(b), "weight": w, "kernel_dim": kdim, "span_dim": sdim}
                for b, dims in self._orbits()
                for w, kdim, sdim in dims
            ],
        }


def _arrangements(part: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The distinct rearrangements of a non-decreasing tuple, ascending lex.

    Each is the next permutation of the one before (Narayana): the longest
    non-increasing tail is reversed after its left neighbour is swapped
    with the least larger value in it; none is left after the
    non-increasing one.
    """
    a, out = list(part), []
    while True:
        out.append(tuple(a))
        i = len(a) - 2
        while i >= 0 and a[i] >= a[i + 1]:
            i -= 1
        if i < 0:
            return out
        j = len(a) - 1
        while a[j] <= a[i]:
            j -= 1
        a[i], a[j] = a[j], a[i]
        a[i + 1 :] = a[:i:-1]


# -- monomial enumeration ----------------------------------------------------


def compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All tuples of `parts` non-negative integers summing to `total`, ascending lex; none if total < 0 (`_representatives`, one run per block)."""
    return _representatives(total, tuple((i, i + 1) for i in range(parts)))


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
    # compositions come in ascending order, so the keys do
    return [GradedPieceKey(bd, w) for bd in compositions(degree, n) for w in range(k * degree + 1)]


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
def _kernel_dims(degrees: tuple[int, ...], k: int) -> tuple[int, ...]:
    """N(b, w) - N(b, w-1) for w = 0..floor(k|b|/2), for every b whose sorted nonzero block degrees are `degrees`.

    N(b, w), the number of monomials of piece (b, w), is the coefficient of
    q^w in a product of one Gaussian binomial per block, 1 for a block of
    degree 0 (`_block_weight_counts`), so it depends on that multiset only.
    """
    top = k * sum(degrees) // 2
    counts = [1]
    for d in degrees:
        block, head = _block_weight_counts(d, k), counts
        counts = [0] * min(len(head) + len(block) - 1, top + 1)
        for i, a in enumerate(head):
            for j, c in enumerate(block[: len(counts) - i]):
                counts[i + j] += a * c
    return tuple(here - below for below, here in zip((0, *counts), counts))


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
    """A row scaled to integers by the lcm of its denominators, zeros dropped, and that lcm; a row of nonzero ints is returned as it is, not copied, with 1."""
    if all(type(v) is int and v for v in source.values()):
        return source, 1
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
    whose lead is at or past `bound` is dropped instead, and no row is read
    once there are `limit` pivot rows.  Every row is a positive multiple of
    the row the same steps give over Q, so the same leads are chosen.  Each row read is
    a combination of pivot rows plus what is left of it when it is zero or
    dropped, so with no bound the pivot rows span the rows read and count
    their rank; no reduced echelon form is built.
    """
    pivot_rows: dict[int, dict[int, int]] = {}
    rows = iter(rows)
    while len(pivot_rows) != limit and (source := next(rows, None)) is not None:
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


def _piece_kernel_dim(k: int, key: tuple[tuple[int, ...], int]) -> int:
    """dim ker D on piece (b, w), a `GradedPieceKey` or a plain pair: N(b, w) - N(b, w-1) if 2w <= k|b|, else 0; N counts monomials.

    D is the lowering element of an sl2-triple (Jacobson-Morozov); each b
    gives a finite-dimensional module in which weight w has h-eigenvalue
    2w - k|b|, so D maps weight w onto w-1 when 2w <= k|b| and injectively
    when 2w > k|b| (Cayley-Sylvester).  Certificates rest on span_dim <=
    kernel_dim, which holds because generator products lie in ker D.

    It is read off the table of b's nonzero block degrees (`_kernel_dims`),
    so no monomial is listed; `graded_monomials` enumerates the same
    numbers independently (the tests compare the two).
    """
    block_degrees, weight = key
    if 2 * weight > k * sum(block_degrees):
        return 0
    return _kernel_dims(tuple(sorted(d for d in block_degrees if d)), k)[weight]


def kernel_dim(n: int, k: int, degree: int) -> int:
    """Dimension of the degree-d homogeneous component of ker D; ValueError for invalid n, k or degree.

    It is one coefficient, M(d, floor(k*d/2)), where M(d, w) counts the
    ring monomials of degree d and weight w.  The sum of
    `_piece_kernel_dim` over the pieces of degree d telescopes twice:
    - for each b, the counts N(b, w) - N(b, w-1) over 2w <= k|b| sum to
      N(b, floor(k|b|/2)), with N(b, -1) = 0;
    - every degree-d monomial lies in exactly one piece (b, w), so the
      sum of N(b, floor(k*d/2)) over the compositions b of d is
      M(d, floor(k*d/2)).
    So no matrix is built, no piece or block degree is listed and no
    per-b table is read.

    M(d, w) is the coefficient of t^d q^w in prod_(l=0..k) (1 - t q^l)^(-n)
    (Springer 1980; Sturmfels, Algorithms in Invariant Theory).  One table
    counts[j][w], of degrees j <= d and weights w <= top = floor(k*d/2),
    adds the levels one at a time: the n variables of level l are the factor
    (1 - t q^l)^(-n) = sum_i C(n+i-1, i) t^i q^(i*l), so after level l
    counts[j][w] = sum_i C(n+i-1, i) * counts[j-i][w-i*l] over level l-1's
    table, whatever n is.  Rows are updated in place from the top degree
    down, so the rows j - i still hold level l-1's counts.  Only entries
    that can reach (d, top) and can be nonzero are computed; one left out
    is never read again:
    - a level above top adds nothing;
    - after level l, levels l+1..k add weight (l+1)(d-j) to k(d-j) to a
      degree-j monomial, so only top - k(d-j) <= w <= top - (l+1)(d-j)
      can reach (d, top), and the entries level l reads lie in level
      l-1's range: w - i*l <= top - l(d-j+i) and w - i*l >= top - k(d-j+i);
      a degree j with top - (l+1)(d-j) < l has none;
    - a monomial of degree j in levels 0..l has weight <= l*j, so w <= l*j,
      and term i is zero unless w - i*l <= (l-1)(j-i), i >= w - (l-1)j.
    So row j holds only the band from low_j = top - k(d-j) to top - (d-j),
    which holds every weight some level computes or reads, entry w at index
    w - low_j, and entry w - i*l of row j - i is at index w - low_j + i(k-l)
    of its row.  Its weights below 0 or above k*j stay zeros that no level
    computes or reads; at k = 1 every row is one entry, so memory is linear
    in d.
    """
    Ambient(n, k)  # validates n and k
    if degree < 0:
        raise ValueError("degree must be >= 0")
    top = k * degree // 2
    series = [comb(n + i - 1, i) for i in range(degree + 1)]  # degree-i monomials of one level
    counts = [[0] * ((k - 1) * (degree - j) + 1) for j in range(degree + 1)]
    for j in range(max(0, degree - top), degree - -(-top // k) + 1):  # the rows whose band holds weight 0
        counts[j][k * (degree - j) - top] = series[j]  # level 0: weight 0 only
    for level in range(1, min(k, top) + 1):
        step = k - level
        for j in range(degree, max(0, degree - (top - level) // (level + 1) - 1), -1):
            row, low = counts[j], top - k * (degree - j)
            for w in range(max(level, low), min(level * j, top - (level + 1) * (degree - j)) + 1):
                at = w - low
                total = row[at]
                for i in range(max(1, w - (level - 1) * j), min(j, w // level) + 1):
                    total += series[i] * counts[j - i][at + i * step]
                row[at] = total
    return counts[degree][0]  # row d's band is top alone


def kernel_basis(n: int, k: int, degree: int) -> list[Polynomial]:
    """Basis of the degree-d homogeneous component of ker D.

    Direct sum of per-piece nullspaces, concatenated over sorted piece
    keys; every element is annihilated by D exactly.  A piece of weight
    2w > k*degree is skipped: D is injective on it (`_piece_kernel_dim`).
    """
    basis: list[Polynomial] = []
    for key in piece_keys(n, k, degree):
        if 2 * key.weight <= k * degree:
            basis.extend(kernel_piece_basis(n, k, key))
    return basis


# -- generator products and spans ---------------------------------------------


class _PackedGenerator(NamedTuple):
    """One generator in a packing: its total degree, grading, least monomial and terms as packed ints."""

    label: str
    degree: int
    grading: int
    lead: int
    terms: PackedTerms


def _generator_degree(label: str, p: Polynomial) -> int:
    """The total degree of generator `label`; NonHomogeneous, naming it, unless p is nonzero, non-constant and of one degree."""
    if p.is_zero:
        raise NonHomogeneous(f"generator {label} is zero")
    degree = p.homogeneous_degree()
    if degree is None:
        raise NonHomogeneous(f"generator {label} mixes total degrees: {p}")
    if degree == 0:  # it would be a factor of products of every degree, any number of times
        raise NonHomogeneous(f"generator {label} is a constant: {p}")
    return degree


# the walk's view of one degree: (label, degree, grading, reach row, packed terms) per generator, and reach[0][degree]
_WalkView = tuple[tuple[tuple[str, int, int, tuple[frozenset[int], ...], PackedTerms], ...], frozenset[int]]


class _Tables:
    """Everything one label set needs in one packing, each table grown with the degree asked.

    Built once per label set and packing (`_tables`), and shared by every
    degree the packing serves (`packing_for`): all the small degrees
    (k*d <= 15) of a label set share one, and every larger degree of one
    bit width another.  Building it checks every generator's degree
    (`_generator_degree`), so a set with a zero, constant or mixed-degree
    generator raises at every call: a call that raises is not cached.  It
    holds
    - `integral`: whether every generator's coefficients are ints, so that
      its products' rows go to `_echelon` unscaled;
    - `rows`: each generator's packed row (`row`), packed and checked when a
      degree that holds it first asks for it; its terms are shared with
      every walk view and every one-label product, and never changed;
    - `reach`: each generator's reach row, and `walks`, the walk's view of
      every degree asked (`walk`);
    - `bases`: `express`'s pieces met, keyed by packed grading, which names
      the degree too: each piece's products in label order up to its last
      greedy basis product, and the pivot rows `_echelon` built from them
      with product j's tag in column `packing.end` + 1 + j.
    No product is kept: each walk expands its own (`_products`), and no
    least-monomial table either: `_generator_sums` builds one for its
    caller (`_Decisions.short`) and keeps nothing.

    Growth changes no answer: what a degree d reads is the table of d
    alone, whatever was asked before.  A generator of degree above d is in
    no multiset of degree d and is not read; entry r of a reach row is
    built from entries r' <= r and generators of degree <= r only; and a
    product's terms are those of its labels, in a packing that holds every
    degree it serves with no carry.  So a row grown to D >= d agrees at
    r <= d with the row of d alone.  A stored entry is never changed: a
    grown reach row replaces a shorter one it agrees with, so a row or
    view read stays valid.  Threads that fill one entry at once store
    equal values.
    """

    def __init__(self, gens: GeneratorSet, packing: Packing):
        self.gens, self.packing = gens, packing
        self.degrees = {label: _generator_degree(label, p) for label, p in gens}
        # Polynomial stores an integral coefficient as an int
        self.integral = all(type(c) is int for _, p in gens for _, c in p.items())
        self.rows: dict[str, _PackedGenerator] = {}
        self.reach: dict[str, tuple[frozenset[int], ...]] = {}
        self.walks: dict[int, _WalkView] = {}
        self.bases: dict[int, tuple[list[tuple[str, ...]], dict[int, dict[int, int]]]] = {}

    def row(self, label: str) -> _PackedGenerator:
        """The packed row of generator `label`: the one place where a generator's piece is read.

        The row holds its degree, its packed grading, the one `key >> shift`
        of all its packed terms, its least packed monomial (the monomial
        `_echelon` pivots on) and its packed terms.  Packing is linear, so
        every monomial of a product lies in the piece that is the sum of its
        factors' gradings.  Raises NonHomogeneous, naming the label, for a
        generator whose terms involve CX/CY or span several gradings; the
        packing must hold the generator's degree.
        """
        gen = self.rows.get(label)
        if gen is None:
            packing, p = self.packing, self.gens.value(label)
            terms = packing.pack_terms(p)
            gradings = {mono >> packing.shift for mono in terms}
            # the covariant degree is a grading's top field, so a grading involves CX/CY
            # exactly when it is at least that of covariant degree 1
            if max(gradings) >= packing.grading((0,) * self.gens.n, 0, 1):
                raise NonHomogeneous(f"generator {label} involves covariant variables: {p}")
            if len(gradings) > 1:
                raise NonHomogeneous(f"generator {label} spans several graded pieces: {p}")
            gen = self.rows.setdefault(label, _PackedGenerator(label, self.degrees[label], gradings.pop(), min(terms), terms))
        return gen

    def generators(self, degree: int) -> list[_PackedGenerator]:
        """The rows of the generators of total degree <= `degree`, in label order; one above it is in no product."""
        return [self.row(label) for label, _ in self.gens if self.degrees[label] <= degree]

    def walk(self, degree: int) -> _WalkView:
        """The walk's view of `degree`: (label, degree, grading, reach row, packed terms) per generator of `generators(degree)`, and reach[0][degree].

        reach[idx][r] holds the packed gradings of every multiset of
        generators idx.. of total degree exactly r: a multiset either holds
        no copy of generator idx (reach[idx+1][r]) or is one copy of it
        times a multiset of generators idx.. of degree r - d, so entry r is
        reach[idx+1][r] united with entry r - d shifted by the generator's
        grading, one `frozenset.union` over a `map`.  A row shorter
        than degree + 1 is replaced by a longer copy: a generator new to the
        table gets its whole row, and every other row only the entries past
        those it has.  The view reads the rows as stored, at most as long as
        the largest degree asked; the walk reads entries r <= `degree` only.
        """
        view = self.walks.get(degree)
        if view is None:
            later = (frozenset({0}), *[frozenset()] * degree)  # no generator: only the empty multiset
            steps = []
            for gen in reversed(self.generators(degree)):
                d, g = gen.degree, gen.grading
                row = self.reach.get(gen.label, ())
                if len(row) <= degree:
                    row = list(row)
                    for r in range(len(row), degree + 1):
                        row.append(later[r].union(map(g.__add__, row[r - d])) if r >= d else later[r])
                    row = self.reach[gen.label] = tuple(row)
                steps.append((gen.label, d, g, row, gen.terms))
                later = row
            view = self.walks.setdefault(degree, (tuple(reversed(steps)), later[degree]))
        return view

    def _generator_sums(self, top: int, runs: tuple[tuple[int, int], ...]) -> list[set[int]]:
        """The levels 0..`top` of the generators' least-monomial sums in the representative pieces of `runs` (`_Decisions`), built for the caller and not kept.

        A multiset either holds no copy of a generator of degree d, or is one
        copy times a multiset of degree r - d, so adding the generator to the
        levels r = d..top in ascending order adds every multiset that holds
        it.  Generators are added in stages by their lowest nonzero block,
        lowest first (a generator of degree 0 has none and is rejected by
        `_generator_degree`).  A later stage adds nothing to blocks <= i, so
        after stage i their degrees are final in every completion of a sum;
        a sum whose blocks i - 1 and i share a run and are out of order
        (b_(i-1) > b_i) has no completion in a representative piece and is
        dropped, at every level.  The prune is exact: every sum of a
        representative piece has all its blocks in order within each run at
        every stage, so it is kept.
        """
        packing = self.packing
        bits, mask = packing.bits, (1 << packing.bits) - 1
        stages: list[list[_PackedGenerator]] = [[] for _ in range(self.gens.n)]
        for gen in self.generators(top):
            # the lowest set bit of a grading lies in its lowest nonzero block's field
            stages[((gen.grading & -gen.grading).bit_length() - 1) // bits].append(gen)
        joined = {i for start, stop in runs for i in range(start + 1, stop)}
        levels: list[set[int]] = [{0}] + [set() for _ in range(top)]
        for i, stage in enumerate(stages):
            for gen in stage:
                d, m = gen.degree, gen.lead
                for r in range(d, top + 1):
                    levels[r].update(map(m.__add__, levels[r - d]))
            if i in joined:
                low, high = packing.shift + bits * (i - 1), packing.shift + bits * i
                levels = [{s for s in level if s >> low & mask <= s >> high & mask} for level in levels]
        return levels


@cache
def _tables(gens: GeneratorSet, packing: Packing) -> _Tables:
    """The tables of `gens` in `packing`, built once per label set and packing; equal sets share them."""
    return _Tables(gens, packing)


def _products(view: _WalkView, degree: int, grading: int) -> Iterator[tuple[tuple[str, ...], PackedTerms]]:
    """(labels, packed terms) of the products of total ring degree exactly `degree` in one piece, lazily, in label order.

    `view` is the degree's walk view, `_Tables.walk(degree)` of the label
    set's tables in the degree's packing, which the caller reads once for
    all the pieces of the degree it walks.  The piece is the packed grading
    of a degree-`degree` monomial (`Packing.grading` of that packing, the
    one the generators' rows are read in).  Label order is higher multiplicity of earlier
    generators first.  The products may be linearly dependent, and a piece
    that holds none yields nothing.  A reader that stops early stops the
    walk with it.

    Each level multiplies its parent's terms by the packed terms of the
    generator it adds (`mul_terms`), so a product is expanded as the walk
    reaches it, and each prefix of two or more labels on the way once per
    walk; a prefix is freed when the walk leaves its branch.  Every
    product's degree is `degree`, which the packing holds, so no digit
    carries (see `Packing`).  Integer generators give int coefficients.  A
    one-label product is its generator's own term map (`_Tables.row`),
    shared: a reader copies a product before changing it.

    The walk adds one factor per level: a branch whose last factor is
    generator idx adds a generator j >= idx and goes on at j, so a product
    is its nondecreasing sequence of generator indices, its depth is its
    number of factors, and a generator it holds no copy of costs no level.
    Trying j in ascending order yields the sequences in ascending lex
    order, which is label order: where two sequences of one degree first
    differ, the one with the smaller index holds the same number of every
    earlier generator and more copies of that one (a sequence of positive
    degrees is never a prefix of another of the same degree).

    The walk carries what the branch still needs, the piece's grading
    minus the gradings of its factors, so adding a factor is one integer
    subtraction.  Adding generator j with r degrees left after it keeps
    the child only if need - g_j is in reach[j][r], the gradings of the
    multisets of generators j.. (j included) of degree r (`_Tables.walk`):
    one set lookup per child.  The prune is exact: the completions of the
    child are exactly those multisets, so a child is dropped only when no
    product below it lies in the piece, and every child kept ends in one.
    The piece and every completion are gradings of degree-`degree`
    monomials, so each field is at most k*degree < 2^bits, no field
    carries, and packed equality is componentwise equality.
    """
    steps, top = view

    def walk(
        idx: int, remaining: int, labels: tuple[str, ...], terms: PackedTerms, need: int
    ) -> Iterator[tuple[tuple[str, ...], PackedTerms]]:
        if remaining == 0:
            yield labels, terms
            return
        for j in range(idx, len(steps)):
            label, d, g, reach, factor = steps[j]
            r = remaining - d
            if r >= 0 and (left := need - g) in reach[r]:
                yield from walk(j, r, labels + (label,), mul_terms(terms, factor) if labels else factor, left)

    if grading in top:
        yield from walk(0, degree, (), {0: 1}, grading)


# -- block-permutation orbits -------------------------------------------------


@cache
def _symmetry_runs(n: int, k: int, excluded: frozenset[str]) -> tuple[tuple[int, int], ...]:
    """Runs [start, stop) of blocks that the swaps keeping `generators(n, k).without(*excluded)` stable join.

    The swap of blocks i and i+1 keeps the rest stable exactly when it maps
    every excluded generator to plus or minus an excluded one (the argument
    is at `completeness_check`), so only those are permuted; with none
    excluded no generator is built and the n blocks are one run.
    Consecutive stable swaps join their blocks into one run; a block that
    no stable swap touches is a run of its own.  The runs' symmetric groups
    generate the Young subgroup of block permutations that map the set onto
    itself up to sign.  Generators are compared as frozen term maps,
    swapped by slicing exponent tuples.
    """
    values = {frozenset(generators(n, k).value(label).items()) for label in excluded}
    runs = [[0, 1]]
    for i in range(n - 1):
        a, b, c = i * (k + 1), (i + 1) * (k + 1), (i + 2) * (k + 1)
        swapped = (frozenset((e[:a] + e[b:c] + e[a:b] + e[c:], v) for e, v in p) for p in values)
        if all(q in values or frozenset((e, -v) for e, v in q) in values for q in swapped):
            runs[-1][1] = i + 2
        else:
            runs.append([i + 1, i + 2])
    return tuple((start, stop) for start, stop in runs)


def _representatives(total: int, runs: tuple[tuple[int, int], ...]) -> Iterator[tuple[int, ...]]:
    """The b of n = runs[-1][1] degrees summing to `total` that are non-decreasing within every run, ascending lex.

    A depth-first walk with a stack of the values left to blocks 0..n-2.
    Block i is at least block i - 1 unless it starts its run, and at most
    what the blocks i.. of its run leave over, each being at least block i,
    so every value kept has a completion and the last block takes the rest.
    """
    stops = [stop for start, stop in runs for _ in range(start, stop)]
    starts = {start for start, _ in runs}
    n = len(stops)
    if n < 2:  # no block: () for a total of 0; one block: the total
        if total == 0 or n and total > 0:
            yield (total,) * n
        return
    b, lefts = [], [total]  # the blocks below the top entry; lefts[i]: what blocks i.. share
    stack = [iter(range(total // stops[0] + 1))]
    while stack:
        i = len(stack) - 1
        del b[i:]
        for v in stack[i]:
            if i == n - 2:
                yield (*b, v, lefts[i] - v)
                continue
            b.append(v)
            lefts.append(left := lefts[i] - v)
            stack.append(iter(range(0 if i + 1 in starts else v, left // (stops[i + 1] - i - 1) + 1)))
            break
        else:
            stack.pop()
            lefts.pop()


def _orbit_size(b: tuple[int, ...], runs: tuple[tuple[int, int], ...]) -> int:
    """The number of rearrangements of b within its runs: per run, a multinomial coefficient."""
    parts = [b[i:j] for i, j in runs if j - i > 1]  # a run of one block has one arrangement
    return prod(factorial(len(part)) // prod(factorial(part.count(v)) for v in set(part)) for part in parts)


def _base_complete(k: int, degree: int) -> bool:
    """Whether the full family of k + 1 blocks spans ker D in degree `degree`.

    The one decision `completeness_check` reads for every n > k + 1 with
    the full family (the argument is there): the record of k + 1 blocks in
    one run (`_decisions`), the one a `completeness_check` of k + 1 blocks
    reads, keeps no short piece in the degree.  No report or key is built.
    """
    return not _decisions(generators(k + 1, k), ((0, k + 1),)).short(degree)


def completeness_check(n: int, k: int, degree: int, exclude: Sequence[str] = ()) -> CompletenessReport:
    """Compare kernel dimension with the generator-product span, piece by piece.

    Every piece with a nonzero kernel is reported in `per_piece`, in
    `piece_keys` order.  Its span_dim is the exact rank over Q of the
    piece's products, or 0 if it holds none.  Only the representative
    pieces of the generator set's block symmetry (`_symmetry_runs`,
    `_representatives`: the b non-decreasing within each run) are decided,
    by their counts of least monomials and, where a count falls short, by
    rank.  With the full family and n > k + 1,
    the degree is first decided on k + 1 blocks (`_base_complete`); if it
    is complete there, the runs are the one run of all n blocks, no
    generator of n blocks is built and nothing is enumerated, expanded or
    ranked, and no piece is short.  Otherwise, and with any `exclude`, the
    degree is decided on its own n blocks, once per label set and runs
    (`_Decisions`), which keeps only the short pieces, each with its exact
    span_dim.  The report keeps those and the runs, and lists the
    representatives (span_dim = kernel_dim but for the short ones) when
    first read.  Its kernel total is `kernel_dim(n, k, degree)`, its span
    total that less (kernel_dim - span_dim) times the orbit's size
    (`_orbit_size`) over the short pieces only.  Raises
    ValueError for a negative degree, before any symmetry or composition
    is computed, TypeError if `exclude` is a bare string rather than a
    sequence of labels, and UnknownLabel for a label not in the family,
    both before the runs.

    The totals are exact.  Every piece of nonzero kernel lies in one
    representative's orbit, whose members share its kernel_dim (one
    `_kernel_dims` table) and span_dim (below), so kernel_dim times orbit
    size summed over the representatives telescopes to `kernel_dim` (the
    argument is there).  span_dim <= kernel_dim in every piece, as
    products lie in ker D, so only the short representatives lower the
    span total, and the degree is complete exactly when none is short.

    The copy is exact.  A block permutation s that maps every generator to
    plus or minus a generator is a ring automorphism that commutes with D
    and maps piece (b, w) onto (s b, w).  It sends the label multisets of
    (b, w) bijectively onto those of (s b, w), each product to plus or
    minus the image multiset's product, so it maps the span of the first
    piece's products linearly and bijectively onto the second's, and the
    span dimensions agree.  `_piece_kernel_dim` agrees too: b and s b read
    the one table of their multiset of nonzero block degrees
    (`_kernel_dims`).  Every block permutation maps the full family onto
    itself up to sign and is a bijection on its labels (x_i goes to
    x_(s i), and J, H and D to plus or minus the generator of the permuted
    indices), so it keeps the generators left after `exclude` stable
    exactly when it maps every excluded one to plus or minus an excluded
    one, which is all `_symmetry_runs` tests.

    Deciding on k + 1 blocks is exact too, by polarization.  Each block is
    a copy of V = K^(k+1), on which D acts alike, so the ring is K[V^n] and
    ker D is the algebra of invariants of the unipotent group exp(tD) in
    GL(V).  Write v_(i,l) for the level-l variable of block i.
    - Elementary half: from n blocks to the multilinear pieces of d
      blocks, d = |b| = `degree`.  Full polarization P replaces block i by
      a sum of b_i new blocks and keeps the part of degree 1 in every new
      block; it maps piece (b, w) into the multilinear piece (1^d, w) of d
      blocks.  Restitution R is the ring map that sends every new block
      back to the block it came from.  Both commute with D, which acts on
      every block alike, and R(P f) = b! f with b! = b_1! ... b_n!.  R maps
      every product of the family to plus or minus a product or to 0,
      since J_(a,a) = 0, a D with a repeated index is 0, and H_(i,j) goes
      to H_(a,a).  So if the multilinear piece's kernel is spanned by
      products, every f in ker D on (b, w) is R(P f)/b!, a combination of
      products.
    - The rest is Weyl's polarization theorem (H. Weyl, The Classical
      Groups, 1939; Kraft-Procesi, Classical Invariant Theory, a Primer,
      the chapter on polarization, proved by the Capelli identity): for
      any group G in GL(V) and n >= dim V, each homogeneous component of
      K[V^n]^G is spanned by the images of the same component of
      K[V^(dim V)]^G under products of the polarization operators
      Delta_ij = sum_l v_(j,l) d/dv_(i,l).  Each Delta_ij maps a generator
      of the family to plus or minus a generator, twice one, or 0
      (Delta_ij x_i = x_j, Delta_ij J_(i,l) = J_(j,l),
      Delta_ij H_(i,i) = 2 H_(i,j), Delta_ij D_(i,l,m) = D_(j,l,m)), so by
      Leibniz's rule it maps the span of products into itself.  Hence a
      degree complete on k + 1 blocks is complete on every n >= k + 1.
    - Conversely, setting blocks k + 2..n to 0 fixes ker D of the first
      k + 1 blocks and maps every product to a product or 0, so a degree
      complete on n blocks is complete on k + 1: the bool decides the
      degree exactly, and an incomplete one is still decided on n blocks
      only so that its report keeps exact per-piece span dimensions.
    """
    Ambient(n, k)  # validates n and k
    if degree < 0:
        raise ValueError("degree must be >= 0")
    if isinstance(exclude, str):
        raise TypeError(f"exclude must be a sequence of labels, not the string {exclude!r}")
    exclude = tuple(exclude)
    # complete on k + 1 blocks, so on n (polarization, above)
    polarized = not exclude and n > k + 1 and _base_complete(k, degree)
    gens = None if polarized else generators(n, k).without(*exclude)
    runs = _symmetry_runs(n, k, frozenset(exclude))
    total = kernel_dim(n, k, degree)
    short = {} if polarized else _decisions(gens, runs).short(degree)
    # only a short representative's orbit lowers the span total (the totals are exact, below)
    lost = sum((_piece_kernel_dim(k, key) - span) * _orbit_size(key.block_degrees, runs) for key, span in short.items())
    return CompletenessReport._decided(n, k, degree, total, total - lost, runs, short)


def _count_item(levels: list[set[int]], degree: int, m: int) -> None:
    """Add the packed item m of `degree` to a table of least-monomial sums in place (`_Decisions`), level r ascending from `degree`."""
    for r in range(degree, len(levels)):
        levels[r].update(map(m.__add__, levels[r - degree]))


class _Decisions:
    """The short representative pieces of one label set and runs, decided once per degree, lowest first, and the least monomials found on the way.

    Kept per label set and symmetry runs (`_decisions`).  `short(d)`
    decides each degree up to d not decided yet, lowest first, under a lock
    so that threads decide no degree twice, on the set's own blocks: the
    least packed monomials of products and items are counted per
    representative piece, with nothing expanded; a piece with kernel_dim of
    them has span_dim = kernel_dim, one with none holds no product, and
    each other piece is walked (`_products`) into `_echelon`, its products
    expanded as the elimination reads them, until the rank reaches
    kernel_dim.  A degree keeps only its short pieces, those whose span_dim
    is below kernel_dim, each mapped to its span_dim; no key is made for
    any other piece.  The keys of its pivot rows are the least monomials of
    the span of the products read (`_echelon` pivots on the least column);
    each one the count did not hold becomes an item, (degree, exponents),
    re-packed in every packing: the least monomial of an element of the
    algebra A the generators span.  Products of elements of A lie in A, in
    ker D, so every higher degree counts the sums with items too (truncated
    SAGBI subduction, Robbiano-Sweedler).

    A count is at most the rank.  Each sum counted, of the generators'
    least packed monomials over a multiset, with or without items, is the
    least monomial of an element of A, and elements of one piece with
    distinct least monomials are linearly independent:
    - packed keys are ints in a monomial order that addition keeps,
      a < b implies a + c < b + c (see `Packing`), and no digit carries in
      a product of degree <= the packing's;
    - so the least monomial of f*g is min f + min g: any other pair of
      terms has one factor above its minimum and a strictly larger sum, so
      the pair of least terms is the only pair that reaches min f + min g
      and its coefficient, a product of two nonzero ones, cannot cancel;
    - in a vanishing combination of elements with pairwise distinct least
      monomials, of those with a nonzero coefficient the one whose least
      monomial is smallest is the only one holding that monomial, which
      therefore cannot cancel.
    Hence the number of sums in a piece is at most the rank of its
    products, itself at most its kernel_dim when the generators lie in
    ker D.  This is the SAGBI test (Robbiano-Sweedler) on one piece.

    The sums are one table per call of `short` and packing, local to the
    call: one set per total degree 0..top, where top is the degree asked or
    the packing's largest, whichever is lower.  It starts as the
    generators' sums (`_Tables._generator_sums`), which hold every
    generator of degree <= top, so a piece with no sum in it holds no
    product.  Every item found before is added when the table is built, and
    the items a degree finds once it is decided, in place, in the same
    unbounded knapsack (`_count_item`): an item m of degree e adds m + s to
    level r for every sum s of level r - e, r ascending from e, so level
    r - e already holds the sums with m.  Level d is counted when degree d
    is decided, once every item of a lower degree is in it.  Items and the
    generators' sums lie in representative pieces, whose sums do too, so
    nothing is pruned; a sum whose generator part is not a representative
    is not counted, which only lowers the count.  No table is kept: every
    degree is decided once, in ascending order, so no later call would
    read one, and within a call a packing's table is freed before the next
    packing's is built.
    """

    def __init__(self, gens: GeneratorSet, runs: tuple[tuple[int, int], ...]):
        self.gens, self.runs = gens, runs
        self.decided: list[dict[GradedPieceKey, int]] = []
        self.items: list[tuple[int, Exponents]] = []
        self.lock = Lock()

    def short(self, degree: int) -> dict[GradedPieceKey, int]:
        """The short representative pieces of `degree`, each mapped to its span_dim, each degree up to it decided once; read, never changed."""
        with self.lock:
            if len(self.decided) <= degree:
                # the asked degree's one-block counts first, as without a record: past Python's
                # recursion limit they raise before a lower degree caches the counts below them
                _block_weight_counts(degree, self.gens.k)
                amb = Ambient(self.gens.n, self.gens.k)
                while len(self.decided) <= degree:
                    # one table per packing, up to the highest degree of this call it serves; the
                    # last packing's is read no more, and is freed before this one is built
                    packing, levels = packing_for(amb, len(self.decided)), None
                    tables, top = _tables(self.gens, packing), min(degree, packing.degree)
                    levels = tables._generator_sums(top, self.runs)
                    for e, exps in self.items:
                        _count_item(levels, e, packing.pack(exps))
                    while len(self.decided) <= top:
                        self.decided.append(self._decide(len(self.decided), tables, levels))
        return self.decided[degree]

    def _decide(self, degree: int, tables: _Tables, levels: list[set[int]]) -> dict[GradedPieceKey, int]:
        """The short pieces of `degree`, the lowest degree not decided, counted on `levels[degree]`; the items found are added to `levels`.

        Each representative b reads its row of kernel dims (`_kernel_dims`),
        and the piece (b, w) is b's packed grading at weight 0 plus w weight
        steps, so no key is made for a piece the count certifies.  The
        degree's walk view (`_Tables.walk`) is read once, when its first
        piece is ranked, and every walk of the degree reads it.
        """
        gens, packing = self.gens, tables.packing
        counted = levels[degree]
        view = None  # the degree's walk view, read when its first piece is ranked
        counts = Counter(s >> packing.shift for s in counted)
        step = packing.grading((0,) * gens.n, 1)  # one unit of weight
        short: dict[GradedPieceKey, int] = {}
        found = []
        for b in _representatives(degree, self.runs):
            grading = packing.grading(b, 0)
            for w, kdim in enumerate(_kernel_dims(tuple(sorted(d for d in b if d)), gens.k)):
                span = count = counts.get(grading, 0)
                if 0 < count < kdim:
                    view = view or tables.walk(degree)
                    pivot_rows = _echelon((terms for _, terms in _products(view, degree, grading)), limit=kdim)
                    span = len(pivot_rows)
                    found.extend(lead for lead in pivot_rows if lead not in counted)
                if span < kdim:
                    short[GradedPieceKey(b, w)] = span
                grading += step
        for lead in found:
            _count_item(levels, degree, lead)
        self.items.extend((degree, packing.unpack(lead)) for lead in found)
        return short


_RECORDS = Lock()


def _decisions(gens: GeneratorSet, runs: tuple[tuple[int, int], ...]) -> _Decisions:
    """The record of `gens` on `runs`, built once per label set and runs; equal sets share it.

    Under a lock: threads missing the cache at once would each build one and decide every degree.
    """
    with _RECORDS:
        return _record(gens, runs)


@cache
def _record(gens: GeneratorSet, runs: tuple[tuple[int, int], ...]) -> _Decisions:
    return _Decisions(gens, runs)


Combination = dict[tuple[str, ...], Fraction]


@cache
def _generators_in_kernel(gens: GeneratorSet) -> bool:
    """Whether D annihilates every generator of the set (each in the set's own ambient), decided once per set.

    A set whose every (label, value) is the very object that the built-in
    family `generators(n, k)` holds for that label (k = 1 or 2), such as the
    family itself or a `without` of it, lies in ker D by the family's closed
    forms, which `test_membership_up_to_n6` checks, so no D is applied.  Any
    other set, a pickled copy or a hand-built set among them, has D applied
    to each generator, unless an equal set was decided before: the decision
    is cached per set, and equal sets share it.
    """
    if gens.k in (1, 2) and gens.n >= 1:
        family = dict(generators(gens.n, gens.k))
        if all(family.get(label) is value for label, value in gens):
            return True
    deriv = WeitzenboeckDerivation(gens.n, gens.k)
    amb = deriv.ambient
    return all(g.ambient == amb and deriv.is_in_kernel(g) for _, g in gens)


def express_in_generators(p: Polynomial, gens: GeneratorSet) -> Combination:
    """Write a homogeneous kernel element as a combination of generator products.

    Returns a map from label multisets to coefficients such that
    sum(coeff * prod(generators)) reconstructs p exactly, in label order
    (ascending by generator-index sequence).  Products satisfy relations,
    e.g. x_i*J_{j,l} - x_j*J_{i,l} + x_l*J_{i,j} = 0, so the representation
    is not unique; this one writes p in the greedy basis, each product in
    enumeration order that is not a combination of those before it, where
    the coefficients are unique, and gives every other product 0.  Raises
    NotInKernel if D(p) != 0 and NotInSpan if p is not in the span of the
    products.

    Only p's pieces are solved, each on its own.  Pieces have disjoint
    monomial support, so the greedy basis of all degree-d products is the
    union of the pieces' own bases, and a product outside p's pieces gets
    0.  A piece's basis is built once per label set and packing
    (`_Tables.bases`): its walk (`_products`) feeds `_echelon` in label
    order, each product expanded when it is read, and when every generator
    lies in ker D the elimination stops at the piece's kernel_dim, since no
    more products can be independent; the products after that one are
    dependent, get 0, and are neither listed, expanded nor kept.  Each call
    reduces only p's part in a piece against that piece's pivot rows.

    D(p) is computed only where this would raise.  A combination of
    products of kernel generators is itself in ker D, so a found one
    proves D(p) = 0; for a set with a generator outside ker D
    (`_generators_in_kernel`), D(p) is checked first.  NotInKernel is thus
    raised exactly when D(p) != 0, before any other error but the
    AmbientMismatch of a p outside the set's ring.
    """
    deriv = WeitzenboeckDerivation(gens.n, gens.k)
    deriv._check(p)
    in_kernel = _generators_in_kernel(gens)
    if not in_kernel and not deriv.is_in_kernel(p):
        raise NotInKernel(f"D({p}) != 0")
    try:
        return _combination(p, gens, in_kernel)
    except Exception:  # whatever failed, a nonzero D(p) is reported instead, as when it was checked first
        if in_kernel and not deriv.is_in_kernel(p):
            raise NotInKernel(f"D({p}) != 0") from None
        raise


def _combination(p: Polynomial, gens: GeneratorSet, stop: bool) -> Combination:
    """The body of `express_in_generators` with D(p) left to the caller; `stop` ends each elimination at kernel_dim."""
    if p.is_zero:
        return {}
    degree = p.homogeneous_degree()
    if degree is None:
        raise NonHomogeneous(f"polynomial mixes total degrees: {p}")
    # p is packed and split by piece in one pass over its terms, the grading in the high
    # digits of each packed monomial (as `Packing.pack_terms`); each part is the target
    # row of its piece
    packing = packing_for(p.ambient, degree)
    slots, shift = packing.slots, packing.shift
    parts: dict[int, PackedTerms] = defaultdict(dict)
    for exps, c in p.items():
        mono = sum(map(mul, exps, slots))
        parts[mono >> shift][mono] = c
    gradings = {g: packing.read_grading(g) for g in parts}
    if any(cov for _, _, cov in gradings.values()):
        raise NotInSpan("polynomial involves covariant variables")

    # product j of a piece is a row of its packed terms and a 1 in the tag column
    # tag + 1 + j.  Every packed monomial lies below the packing's end, so tag lies past
    # every one, a row's lead is a monomial until it has none left, and a product row
    # left with tag columns only is dropped (bound = tag): it is a combination of the
    # products before it, so the kept ones are the piece's greedy basis in label order.
    # A set with a non-integral coefficient scales each product row to integers and puts
    # the scale in its tag column, which still holds the product's coefficient
    tag = packing.end
    tables = _tables(gens, packing)
    bases = tables.bases  # kept with the tables, so a later call only reduces its own rows
    view = tables.walk(degree)  # read once for every piece of the call

    def rows(grading: int, products: list[tuple[str, ...]]) -> Iterator[dict[int, int]]:
        # the walk's products as the elimination reads them, each one kept
        for j, (labels, terms) in enumerate(_products(view, degree, grading)):
            products.append(labels)
            row, scale = (terms, 1) if tables.integral else _integer_row(terms)
            yield row | {tag + 1 + j: scale}

    for g, (bd, w, _) in gradings.items():
        if g not in bases:
            products: list[tuple[str, ...]] = []
            limit = _piece_kernel_dim(gens.k, (bd, w)) if stop else None
            pivot_rows = _echelon(rows(g, products), bound=tag, limit=limit)
            # a pivot row's last column is its own product's tag
            bases[g] = products[: max(map(max, pivot_rows.values()), default=tag) - tag], pivot_rows

    # p's part in each piece, scaled to integers with the scale in column tag, is reduced
    # against the piece's pivot rows; its lead reaches tag exactly when its monomials
    # cancel, leaving row[tag]*part + sum(row[tag + 1 + j] * product j) = 0 over the basis
    combination: Combination = {}
    for g, terms in parts.items():
        products, pivot_rows = bases[g]
        row, scale = _integer_row(terms)
        row[tag] = scale
        while (lead := min(row)) < tag and (pivot := pivot_rows.get(lead)) is not None:
            _eliminate(row, pivot, lead)
        if lead < tag:
            raise NotInSpan(f"{p} is not spanned by generator products of degree {degree}")
        solved = row.pop(tag)
        combination.update((products[c - tag - 1], Fraction(-v, solved)) for c, v in row.items())
    index = {label: i for i, label in enumerate(gens.labels())}
    return dict(sorted(combination.items(), key=lambda item: [index[label] for label in item[0]]))


def evaluate_combination(combination: Combination, gens: GeneratorSet) -> Polynomial:
    """Expand a label-multiset combination: sum(coeff * prod(generators)).

    Each product is folded with `mul_terms` over its generators' packed
    rows (`_Tables.row`, which checks each generator it reads) in the
    packing of the largest total degree of the combination's multisets
    (`_generator_degree` of each label); a label outside the set raises
    UnknownLabel, a KeyError.
    """
    try:
        degree = max((sum(_generator_degree(label, gens.value(label)) for label in labels) for labels in combination), default=0)
    except KeyError as exc:
        raise UnknownLabel(*exc.args) from None
    packing = packing_for(Ambient(gens.n, gens.k), degree)
    row = _tables(gens, packing).row
    total: PackedTerms = {}
    for labels, coeff in combination.items():
        for mono, c in reduce(mul_terms, (row(label).terms for label in labels), {0: 1}).items():
            total[mono] = total.get(mono, 0) + coeff * c
    return Polynomial(packing.ambient, packing.unpack_terms(total))
