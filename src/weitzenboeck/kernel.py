"""Exact kernel computation and generator completeness certificates.

The derivation preserves the per-block multidegree of a monomial and
lowers its weight (sum of level * exponent) by exactly 1.  The space of
degree-d ring monomials therefore splits into graded pieces keyed by
(block_degrees, weight), D maps the piece (b, w) into (b, w-1), and the
kernel in degree d is the direct sum of the per-piece kernels.  Their
dimensions are counted from numbers of monomials (`_piece_kernel_dim`),
with no matrix: the number N(b, w) of monomials in piece (b, w) is read
from a cached table of weight counts per (b, k), the convolution over
the blocks of one cached table per (block degree, k).  Bases and
`express` go through one sparse Gauss-Jordan routine (`rref`,
first-nonzero pivoting) on matrices whose columns are polynomials
(`matrix_rows`).  It eliminates fraction-free in Python ints and returns
the rational reduced echelon form entry for entry, so bases are
deterministic and reproducible.  Ranks need no reduced form: they are
counted exactly by the forward half of the same elimination (`_rank`).

A completeness certificate for a degree d compares, piece by piece, the
kernel dimension against the dimension spanned by all degree-d products
of the known generators; equality certifies that they span the kernel
in that degree.  A product's piece is the sum of its factors' pieces, so
products are grouped by piece from their labels alone, and each is
expanded once, only where it is used, by one expander that multiplies a
memoised prefix by a single generator (`_product_expander`).

Products are enumerated as label multisets on packed integer keys
(`generator_products`): a piece (b, w) is one mixed-radix int, so adding
copies of a generator to a partial product is one integer add.  A cached
table (`_reach`) holds, for each suffix of the generator list and each
degree r, the packed keys of every multiset of those generators of degree
exactly r.  A branch survives only if some wanted piece minus its partial
key is in the table for what is left to choose, so the prune drops a
branch only when none of its products lies in a wanted piece, and every
branch it keeps ends in a product.  The radix exceeds twice the largest
component a key can reach, so a difference of packed keys equals a packed
reachable key only when the components agree.  `express` enumerates only
the products in its input's pieces this way.  Each piece's products are
ranked exactly by `_rank`, which stops at the piece's kernel dimension:
products lie in ker D, so their rank cannot exceed it.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import gcd, lcm
from typing import Callable, Collection, Iterator, NamedTuple, Sequence

from .derivation import GeneratorSet, WeitzenboeckDerivation, generators
from .errors import AmbientMismatch, InvalidKey, NonHomogeneous, NotInKernel, NotInSpan
from .poly import Ambient, Exponents, Polynomial, Terms, monomial_sort_key, mul_terms


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


class Product(NamedTuple):
    """A product of generators: the label multiset and the graded piece it lies in."""

    labels: tuple[str, ...]
    key: GradedPieceKey


# -- monomial enumeration ----------------------------------------------------


def compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All tuples of `parts` non-negative integers summing to `total`, ascending lex."""
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


def matrix_rows(polys: Sequence[Polynomial | Terms]) -> list[SparseRow]:
    """Sparse rows of the matrix whose j-th column holds the coefficients of polys[j].

    One row per monomial occurring in some polynomial (or term map),
    mapping column index to nonzero coefficient.
    """
    by_monomial: dict[Exponents, SparseRow] = {}
    for j, p in enumerate(polys):
        for exps, c in p.items():
            by_monomial.setdefault(exps, {})[j] = c
    return list(by_monomial.values())


def _eliminate(row: dict[int, int], pivot: dict[int, int], col: int) -> int:
    """Clear column `col` of an integer row in place: row = a*row - b*pivot; returns a.

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
    return a


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


def _rank(rows: Sequence[SparseRow], limit: int | None = None) -> int:
    """Exact rank over Q of sparse rows (int or Fraction entries), or `limit` if it reaches it.

    The forward half of `rref`, with its row scaling and row operations: a
    row is reduced against the pivot row of its first nonzero column until
    it is zero or is kept as a new primitive pivot row.  The pivot rows
    span the rows read so far and have distinct lead columns, so they
    count the rank; no reduced echelon form is built.
    """
    pivot_rows: dict[int, dict[int, int]] = {}
    for source in rows:
        if len(pivot_rows) == limit:
            break
        row = _integer_row(source)[0]
        while row:
            lead = min(row)
            pivot = pivot_rows.get(lead)
            if pivot is None:
                _make_primitive(row, lead)
                pivot_rows[lead] = row
                break
            _eliminate(row, pivot, lead)
    return len(pivot_rows)


def rref(rows: Sequence[SparseRow], ncols: int) -> tuple[list[SparseRow], list[int]]:
    """Sparse reduced row echelon form over Q (entries may be int or Fraction).

    Pivots only on columns < ncols; later columns are carried along as an
    augmented right-hand side.  Each row is reduced against the pivots so
    far and pivots on its first nonzero column, which is then cleared from
    every earlier pivot row, so the pivot rows stay fully reduced.  Returns
    the pivot rows (pivot entry 1, the only nonzero of its column among
    them) in pivot order followed by the rows left nonzero only in the
    augmented columns, and the ascending pivot column list.  The reduced
    echelon form of a matrix is unique, so the result does not depend on
    the order of `rows`.

    The elimination is fraction-free, in Python ints.  Each input row is
    scaled by the lcm of its denominators, a row is reduced against a
    pivot row by row = a*row - b*pivot_row with a > 0, and every pivot row
    is kept primitive (its entries divided by their gcd, pivot entry
    positive).  Fractions are built only for the output, where a pivot
    row's entries are divided by its pivot entry.  The output is the
    rational Gauss-Jordan result entry for entry.  Every row here is a
    nonzero multiple of the row the same steps give over Q: it has the same
    support, so the same lead columns are chosen, and scaling rows keeps
    the space the pivot rows span at every step.  The reduced echelon
    form of a row space is unique, so the pivot rows divided by their
    pivot entries are the rational pivot rows.  A row left nonzero only
    in augmented columns equals scale*source plus a combination of pivot
    rows, where `scale` is its lcm times every factor a; divided by
    `scale` it is the one vector of source + span(pivot rows so far) that
    is zero in every column < ncols, which is the row the rational
    elimination leaves.
    """
    pivot_rows: dict[int, dict[int, int]] = {}
    leftover: list[SparseRow] = []
    for source in rows:
        row, scale = _integer_row(source)
        # pivot rows are zero in every other pivot column, so one pass clears them all
        for c in [c for c in row if c in pivot_rows]:
            scale *= _eliminate(row, pivot_rows[c], c)
        lead = min((c for c in row if c < ncols), default=None)
        if lead is None:
            if row:
                leftover.append({c: Fraction(v, scale) for c, v in row.items()})
            continue
        _make_primitive(row, lead)
        for pc, prow in pivot_rows.items():
            if lead in prow:
                # row is zero in column pc and a > 0, so prow[pc] stays positive
                _eliminate(prow, row, lead)
                _make_primitive(prow, pc)
        pivot_rows[lead] = row
    reduced = [{c: Fraction(v, row[p]) for c, v in row.items()} for p, row in sorted(pivot_rows.items())]
    return reduced + leftover, sorted(pivot_rows)


def nullspace(rows: Sequence[SparseRow], ncols: int) -> list[tuple[Fraction, ...]]:
    """Canonical basis of {v : M v = 0}, exact, for the sparse rows of M.

    The basis itself is in reduced echelon form (each vector's leading
    entry is 1 and is the only nonzero entry of its column across the
    basis), which makes the output unique and order-deterministic.  It
    comes from one elimination of M with its columns reversed: pivots
    then sit as far right as possible, so every free column leads the
    null vector it defines.
    """
    last = ncols - 1
    reduced, pivots = rref([{last - c: v for c, v in row.items()} for row in rows], ncols)
    pivot_set = {last - p for p in pivots}
    basis = {free: [Fraction(0)] * ncols for free in range(ncols) if free not in pivot_set}
    for free, v in basis.items():
        v[free] = Fraction(1)
    for row, p in zip(reduced, pivots):
        for c, value in row.items():
            if c != p:
                basis[last - c][last - p] = -value
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
    """Dimension of the degree-d homogeneous component of ker D.

    Sums the per-piece count of `_piece_kernel_dim`; builds no matrix.
    """
    return sum(_piece_kernel_dim(n, k, key) for key in piece_keys(n, k, degree))


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


def generator_products(gens: GeneratorSet, degree: int, pieces: Collection[GradedPieceKey] | None = None) -> list[Product]:
    """All monomials in the generators of total ring degree exactly `degree`.

    Label multisets in label order (higher multiplicity of earlier
    generators first), each keyed by the sum of its factors' graded
    pieces; nothing is expanded, and the values may be linearly dependent.
    With `pieces`, only the products whose key lies in `pieces`, in the
    same order: `[p for p in generator_products(gens, degree) if p.key in pieces]`.

    The recursion carries a piece (b, w) as one packed int, sum_i b_i R^i +
    w R^n, so adding `mult` copies of a generator is one integer add.  Every
    component of a key reachable at this degree lies in 0..top, where top
    is `degree` times the largest component of a generator (a product of
    total degree `degree` has at most `degree` factors).  A branch at
    partial key `key` that next chooses from generators idx.. with `r`
    degrees left survives only if t - key is in reach[idx][r] for some
    target t (for any reachable key, when `pieces` is None); every product
    it drops therefore has a key outside `pieces`, and every surviving
    branch ends in a product, so the prune is exact and wastes no branch.

    The packing cannot alias.  Targets with a component outside 0..top
    are unreachable and dropped.  For the rest, t - key has components in
    -top..top and a reachable key s has components in 0..top, so the packed
    difference t - key - s = sum_i c_i R^i with |c_i| <= 2 top < R; the
    lowest nonzero c_i would leave a remainder c_i R^i != 0 modulo R^(i+1),
    so the packed equality t - key == s holds only componentwise.
    """
    if degree < 0:
        raise ValueError("degree must be >= 0")
    n = gens.n
    table = gens.table  # each generator lies in one piece
    top = degree * max((max(*row.block_degrees, row.weight) for row in table), default=0)
    radix = 2 * top + 1

    def pack(bd: Sequence[int], w: int) -> int:
        return sum(c * radix**i for i, c in enumerate((*bd, w)))

    items = [(row.label, row.degree, pack(row.block_degrees, row.weight)) for row in table]
    reach = _reach(tuple((d, g) for _, d, g in items), degree)
    targets = None
    if pieces is not None:
        targets = [pack(bd, w) for bd, w in pieces if len(bd) == n and all(0 <= c <= top for c in (*bd, w))]

    def wanted(keys: frozenset[int], key: int) -> bool:
        return bool(keys) if targets is None else any(t - key in keys for t in targets)

    unpacked: dict[int, GradedPieceKey] = {}  # one key object per piece

    def unpack(key: int) -> GradedPieceKey:
        parts = []
        for _ in range(n):
            key, c = divmod(key, radix)
            parts.append(c)
        return GradedPieceKey(tuple(parts), key)

    out: list[Product] = []

    def rec(idx: int, remaining: int, labels: tuple[str, ...], key: int):
        if remaining == 0:
            piece = unpacked.get(key)
            if piece is None:
                piece = unpacked[key] = unpack(key)
            out.append(Product(labels, piece))
            return
        # a live branch with degrees left has a generator left (reach[len][r > 0] is empty)
        label, d, g = items[idx]
        later = reach[idx + 1]
        for mult in range(remaining // d, -1, -1):
            r = remaining - mult * d
            m_key = key + mult * g
            if wanted(later[r], m_key):
                rec(idx + 1, r, labels + (label,) * mult, m_key)

    if wanted(reach[0][degree], 0):
        rec(0, degree, (), 0)
    return out


def span_dimension(polys: Sequence[Polynomial], where: int | GradedPieceKey | None = None) -> int:
    """Rank of the coefficient matrix of the polynomials, exact (`_rank`).

    Every nonzero polynomial must be homogeneous; `where` narrows the
    check to a total degree (int) or to a single graded piece key.
    Raises NonHomogeneous on violations, AmbientMismatch on mixed ambients.
    """
    nonzero = []
    for p in polys:
        if p.is_zero:
            continue
        if nonzero and p.ambient != nonzero[0].ambient:
            raise AmbientMismatch(f"span of polynomials from different ambients: {nonzero[0].ambient} vs {p.ambient}")
        d = p.homogeneous_degree()
        if d is None:
            raise NonHomogeneous(f"polynomial mixes total degrees: {p}")
        if isinstance(where, GradedPieceKey):
            if p.gradings() != {(tuple(where.block_degrees), where.weight, 0)}:
                raise NonHomogeneous(f"polynomial lies outside piece {where}: {p}")
        elif where is not None and d != where:
            raise NonHomogeneous(f"expected degree {where}, got {d}: {p}")
        nonzero.append(p)
    return _rank(matrix_rows(nonzero))


def _product_expander(gens: GeneratorSet) -> Callable[[tuple[str, ...]], Terms]:
    """The one expander of generator products: label multiset -> term map.

    A multiset's terms are those of its prefix labels[:-1], memoised for
    the expander's lifetime, times one generator's terms, read from `gens`
    once per expander and multiplied by `mul_terms` on raw term maps.  The
    generators' integral coefficients are `int`, so products of integer
    generators are expanded in integer arithmetic.  Raises KeyError on an
    unknown label.
    """
    values = {label: dict(p.items()) for label, p in gens}
    one = (0,) * Ambient(gens.n, gens.k).width
    prefixes: dict[tuple[str, ...], Terms] = {}

    def expand(labels: tuple[str, ...]) -> Terms:
        if not labels:
            return {one: 1}
        head = labels[:-1]
        terms = prefixes.get(head)
        if terms is None:
            terms = prefixes[head] = expand(head)
        return mul_terms(terms, values[labels[-1]])

    return expand


def completeness_check(n: int, k: int, degree: int, exclude: Sequence[str] = ()) -> CompletenessReport:
    """Compare kernel dimension with the generator-product span, piece by piece.

    Every reported span_dim is the exact rank over Q of the piece's
    products (`_rank`), each of whose monomials is checked to lie in the
    piece.
    """
    amb = Ambient(n, k)
    gens = generators(n, k).without(*exclude)
    expand = _product_expander(gens)
    by_piece: dict[GradedPieceKey, list[tuple[str, ...]]] = defaultdict(list)
    for product in generator_products(gens, degree):
        by_piece[product.key].append(product.labels)

    pieces: list[PieceReport] = []
    kernel_total = 0
    span_total = 0
    for key in piece_keys(n, k, degree):
        kdim = _piece_kernel_dim(n, k, key)
        # number each distinct monomial as a column, checking that it lies in the
        # piece the labels name: label arithmetic is cross-checked against values
        piece = (key.block_degrees, key.weight, 0)
        column: dict[Exponents, int] = {}
        rows: list[SparseRow] = []
        for labels in by_piece.get(key, ()):
            row: SparseRow = {}
            for exps, c in expand(labels).items():
                j = column.get(exps)
                if j is None:
                    if (amb.block_degrees(exps), amb.weight(exps), amb.cov_degree(exps)) != piece:
                        raise NonHomogeneous(f"product {labels} lies outside piece {key}: monomial {exps}")
                    j = column[exps] = len(column)
                row[j] = c
            rows.append(row)
        # products lie in ker D on this piece, so their rank is at most kdim and
        # stopping the elimination there still gives the exact rank
        sdim = _rank(rows, kdim)
        if kdim:
            pieces.append(PieceReport(key, kdim, sdim))
            kernel_total += kdim
            span_total += sdim
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
    sum(coeff * prod(generators)) reconstructs p exactly.  The solution is
    the one picked by the deterministic echelon solve over the products in
    enumeration order, with free coefficients set to zero (products satisfy
    relations, e.g. x_i*J_{j,l} - x_j*J_{i,l} + x_l*J_{i,j} = 0, so the
    representation is not unique).  Raises NotInKernel if D(p) != 0 and
    NotInSpan if the system is inconsistent.
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

    # restricting to products in p's pieces reproduces the full echelon
    # solution: pieces have disjoint monomial support, so out-of-piece
    # coefficients of the free-variables-zero solution are exactly 0
    products = [pr.labels for pr in generator_products(gens, degree, target_keys)]

    # column j holds product j; p rides along as the augmented column `rhs`
    rhs = len(products)
    expand = _product_expander(gens)
    reduced, pivots = rref(matrix_rows([expand(labels) for labels in products] + [p]), rhs)
    if len(reduced) > len(pivots):
        raise NotInSpan(f"{p} is not spanned by generator products of degree {degree}")
    return {products[col]: row[rhs] for row, col in zip(reduced, pivots) if rhs in row}


def evaluate_combination(combination: Combination, gens: GeneratorSet) -> Polynomial:
    """Expand a label-multiset combination: sum(coeff * prod(generators))."""
    expand = _product_expander(gens)
    total: Terms = {}
    for labels, coeff in combination.items():
        for exps, c in expand(labels).items():
            total[exps] = total.get(exps, 0) + coeff * c
    return Polynomial(Ambient(gens.n, gens.k), total)
