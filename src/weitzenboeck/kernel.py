"""Exact kernel computation and generator completeness certificates.

The derivation preserves the per-block multidegree of a monomial and
lowers its weight (sum of level * exponent) by exactly 1.  The space of
degree-d ring monomials therefore splits into graded pieces keyed by
(block_degrees, weight), D maps the piece (b, w) into (b, w-1), and the
kernel in degree d is the direct sum of the per-piece kernels.  Their
dimensions are counted from numbers of monomials (`_piece_kernel_dim`),
with no matrix.  Bases, span ranks and `express` go through one sparse
Gauss-Jordan routine over Fraction (`rref`, first-nonzero pivoting) on
matrices whose columns are polynomials (`matrix_rows`); its reduced
echelon form is unique, so bases are deterministic and reproducible.

A completeness certificate for a degree d compares, piece by piece, the
kernel dimension against the dimension spanned by all degree-d products
of the known generators; equality certifies that they span the kernel
in that degree.  A product's piece is the sum of its factors' pieces, so
products are grouped by piece from their labels alone, and each is
expanded once (`evaluate_combination`), only where it is used.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, NamedTuple, Sequence

from .derivation import GeneratorSet, WeitzenboeckDerivation, generators
from .errors import AmbientMismatch, InvalidKey, NonHomogeneous, NotInKernel, NotInSpan
from .poly import Ambient, Exponents, Polynomial, monomial_sort_key


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
    canonical order, highest first.
    """
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
    """Every graded piece key of total degree `degree`, sorted."""
    keys = [
        GradedPieceKey(bd, w)
        for bd in compositions(degree, n)
        for w in range(k * degree + 1)
    ]
    keys.sort()
    return keys


# -- exact linear algebra ----------------------------------------------------

SparseRow = dict[int, Fraction]


def matrix_rows(polys: Sequence[Polynomial]) -> list[SparseRow]:
    """Sparse rows of the matrix whose j-th column holds the coefficients of polys[j].

    One row per monomial occurring in some polynomial, mapping column
    index to nonzero coefficient.
    """
    by_monomial: dict[Exponents, SparseRow] = {}
    for j, p in enumerate(polys):
        for exps, c in p.items():
            by_monomial.setdefault(exps, {})[j] = c
    return list(by_monomial.values())


def _subtract(row: SparseRow, f: Fraction, other: SparseRow) -> None:
    """row -= f * other, in place, keeping only nonzero entries."""
    for c, v in other.items():
        nv = row.get(c, 0) - f * v
        if nv:
            row[c] = nv
        else:
            del row[c]


def rref(rows: Sequence[SparseRow], ncols: int) -> tuple[list[SparseRow], list[int]]:
    """Sparse reduced row echelon form over Fraction.

    Pivots only on columns < ncols; later columns are carried along as an
    augmented right-hand side.  Each row is reduced against the pivots so
    far and pivots on its first nonzero column, which is then cleared from
    every earlier pivot row, so the pivot rows stay fully reduced.  Returns
    the pivot rows (pivot entry 1, the only nonzero of its column among
    them) in pivot order followed by the rows left nonzero only in the
    augmented columns, and the ascending pivot column list.  The reduced
    echelon form of a matrix is unique, so the result does not depend on
    the order of `rows`.
    """
    pivot_rows: dict[int, SparseRow] = {}
    leftover: list[SparseRow] = []
    for source in rows:
        row = dict(source)
        # pivot rows are zero in every other pivot column, so one pass clears them all
        for c in [c for c in row if c in pivot_rows]:
            _subtract(row, row[c], pivot_rows[c])
        lead = min((c for c in row if c < ncols), default=None)
        if lead is None:
            if row:
                leftover.append(row)
            continue
        inv = 1 / row[lead]
        row = {c: v * inv for c, v in row.items()}
        for prow in pivot_rows.values():
            if lead in prow:
                _subtract(prow, prow[lead], row)
        pivot_rows[lead] = row
    pivots = sorted(pivot_rows)
    return [pivot_rows[c] for c in pivots] + leftover, pivots


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
    """
    block_degrees, weight = key
    if 2 * weight > k * sum(block_degrees):
        return 0
    below = len(graded_monomials(n, k, GradedPieceKey(block_degrees, weight - 1))) if weight else 0
    return len(graded_monomials(n, k, key)) - below


def kernel_dim(n: int, k: int, degree: int) -> int:
    """Dimension of the degree-d homogeneous component of ker D.

    Sums the per-piece count of `_piece_kernel_dim`; builds no matrix.
    """
    Ambient(n, k)  # validates n and k
    if degree < 0:
        raise ValueError("degree must be >= 0")
    return sum(_piece_kernel_dim(n, k, key) for key in piece_keys(n, k, degree))


def kernel_basis(n: int, k: int, degree: int) -> list[Polynomial]:
    """Basis of the degree-d homogeneous component of ker D.

    Direct sum of per-piece nullspaces, concatenated over sorted piece
    keys; every element is annihilated by D exactly.
    """
    Ambient(n, k)  # validates n and k
    if degree < 0:
        raise ValueError("degree must be >= 0")
    basis: list[Polynomial] = []
    for key in piece_keys(n, k, degree):
        basis.extend(kernel_piece_basis(n, k, key))
    return basis


# -- generator products and spans ---------------------------------------------


def generator_products(gens: GeneratorSet, degree: int) -> list[Product]:
    """All monomials in the generators of total ring degree exactly `degree`.

    Label multisets in label order (higher multiplicity of earlier
    generators first), each keyed by the sum of its factors' graded
    pieces; nothing is expanded, and the values may be linearly dependent.
    """
    if degree < 0:
        raise ValueError("degree must be >= 0")
    items = [(label, *g.gradings()) for label, g in gens.items]  # each generator lies in one piece
    out: list[Product] = []

    def rec(idx: int, remaining: int, labels: tuple[str, ...], bd: tuple[int, ...], w: int):
        if remaining == 0:
            out.append(Product(labels, GradedPieceKey(bd, w)))
            return
        if idx == len(items):
            return
        label, (g_bd, g_w, _) = items[idx]
        d = sum(g_bd)
        for mult in range(remaining // d, -1, -1):
            m_bd = tuple(a + mult * b for a, b in zip(bd, g_bd))
            rec(idx + 1, remaining - mult * d, labels + (label,) * mult, m_bd, w + mult * g_w)

    rec(0, degree, (), (0,) * gens.n, 0)
    return out


def span_dimension(polys: Sequence[Polynomial], where: int | GradedPieceKey | None = None) -> int:
    """Rank of the coefficient matrix of the polynomials, exact.

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
    return len(rref(matrix_rows(nonzero), len(nonzero))[1])


def completeness_check(n: int, k: int, degree: int, exclude: Sequence[str] = ()) -> CompletenessReport:
    """Compare kernel dimension with the generator-product span, piece by piece."""
    gens = generators(n, k).without(*exclude)
    by_piece: dict[GradedPieceKey, list[Polynomial]] = defaultdict(list)
    for product in generator_products(gens, degree):
        by_piece[product.key].append(evaluate_combination({product.labels: 1}, gens))

    pieces: list[PieceReport] = []
    kernel_total = 0
    span_total = 0
    for key in piece_keys(n, k, degree):
        kdim = _piece_kernel_dim(n, k, key)
        # the piece check also cross-checks each label-arithmetic key against its expanded value
        sdim = span_dimension(by_piece.get(key, ()), key)
        if kdim or sdim:
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
    products = [pr.labels for pr in generator_products(gens, degree) if pr.key in target_keys]

    # column j holds product j; p rides along as the augmented column `rhs`
    rhs = len(products)
    reduced, pivots = rref(matrix_rows([evaluate_combination({labels: 1}, gens) for labels in products] + [p]), rhs)
    if len(reduced) > len(pivots):
        raise NotInSpan(f"{p} is not spanned by generator products of degree {degree}")
    return {products[col]: row[rhs] for row, col in zip(reduced, pivots) if rhs in row}


def evaluate_combination(combination: Combination, gens: GeneratorSet) -> Polynomial:
    """Expand a label-multiset combination; the one routine that expands generator products."""
    amb = Ambient(gens.n, gens.k)
    total = Polynomial.zero(amb)
    for labels, coeff in combination.items():
        term = Polynomial.constant(amb, coeff)
        for label in labels:
            term = term * gens.value(label)
        total = total + term
    return total
