import io
import itertools
import json
import pickle
import random
import sys
import threading
from collections import defaultdict
from contextlib import redirect_stdout
from fractions import Fraction
from functools import cache
from math import comb, gcd, lcm
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    clear_kernel_caches,
    fraction_rref,
    generator_rows,
    kernel_tables,
    products_by_piece,
    sparse_leads,
    sparse_rank,
    ungraded_kernel_dimension,
    walk_products,
)
from weitzenboeck import (
    Ambient,
    GradedPieceKey,
    InvalidKey,
    NonHomogeneous,
    NotInKernel,
    NotInSpan,
    Polynomial,
    UnknownLabel,
    UnsupportedK,
    Variable,
    WeitzenboeckDerivation,
    completeness_check,
    evaluate_combination,
    express_in_generators,
    generators,
    graded_monomials,
    kernel_basis,
    kernel_dim,
    kernel_piece_basis,
    parse,
    piece_keys,
)
from weitzenboeck import cli, kernel
from weitzenboeck.derivation import GeneratorSet
from weitzenboeck.kernel import (
    PieceReport,
    _echelon,
    _orbit_size,
    _piece_kernel_dim,
    _representatives,
    compositions,
    matrix_rows,
    nullspace,
)
from weitzenboeck.poly import packing_for

GOLDEN_DIR = Path(__file__).parent / "golden"


def _stable_swaps(gens):
    """Blocks i (0-based) whose swap with block i+1 maps the set of +-generators onto itself, by brute force."""
    amb = Ambient(gens.n, gens.k)

    def swapped(p, i):
        def move(slot):
            v = amb.variable_at(slot)
            block = {i + 1: i + 2, i + 2: i + 1}.get(v.block, v.block)
            return amb.index(Variable(block, v.level))

        terms = {}
        for exps, c in p.items():
            image = [0] * amb.width
            for slot, e in enumerate(exps):
                image[move(slot) if slot < amb.ring_width else slot] += e
            terms[tuple(image)] = c
        return Polynomial(amb, terms)

    signed = {q for _, p in gens for q in (p, -p)}
    return {i for i in range(gens.n - 1) if {q for _, p in gens for q in (swapped(p, i), -swapped(p, i))} == signed}


def _mono_strs(n, k, monos):
    amb = Ambient(n, k)
    return [str(Polynomial(amb, {m: 1})) for m in monos]


class TestGradedMonomials:
    def test_unique_solution(self):
        monos = graded_monomials(1, 1, GradedPieceKey((2,), 1))
        assert _mono_strs(1, 1, monos) == ["x1*y1"]

    def test_weight_two_pair(self):
        # derived by enumerating exponent vectors of degree 2 and filtering by weight
        monos = graded_monomials(1, 2, GradedPieceKey((2,), 2))
        assert _mono_strs(1, 2, monos) == ["x1*z1", "y1^2"]

    def test_weight_zero(self):
        monos = graded_monomials(2, 1, GradedPieceKey((1, 1), 0))
        assert _mono_strs(2, 1, monos) == ["x1*x2"]

    def test_invalid_keys(self):
        with pytest.raises(InvalidKey):
            graded_monomials(1, 1, GradedPieceKey((2,), 3))  # weight above 2 = k * degree
        with pytest.raises(InvalidKey):
            graded_monomials(2, 1, GradedPieceKey((1,), 0))  # wrong number of blocks
        with pytest.raises(InvalidKey):
            graded_monomials(1, 1, GradedPieceKey((1,), -1))
        with pytest.raises(ValueError, match="n >= 1 and k >= 1"):
            graded_monomials(2, 0, GradedPieceKey((1, 1), 0))  # no ring with k = 0

    def test_partition_of_degree_space(self):
        # pieces of a fixed degree tile the monomial space without overlap
        from conftest import all_ring_monomials

        amb = Ambient(2, 2)
        collected = []
        for key in piece_keys(2, 2, 3):
            collected.extend(graded_monomials(2, 2, key))
        assert sorted(collected) == sorted(all_ring_monomials(amb, 3))
        assert len(set(collected)) == len(collected)


def test_compositions():
    assert list(compositions(2, 2)) == [(0, 2), (1, 1), (2, 0)]
    assert list(compositions(0, 3)) == [(0, 0, 0)]
    assert list(compositions(3, 1)) == [(3,)]
    # a negative total has no composition, whatever the number of parts
    assert [list(compositions(-1, parts)) for parts in range(4)] == [[], [], [], []]


def _runs_of(cuts, n):
    edges = [0, *cuts, n]
    return tuple(zip(edges, edges[1:]))


def test_one_lister_against_a_filtered_product():
    # compositions is _representatives with one run per block; both list, in ascending
    # lex order, exactly the tuples of the product that sum to the total and are
    # non-decreasing within every run, for every split of up to 5 blocks into runs
    for n in range(1, 6):
        for cut_count in range(n):
            for cuts in itertools.combinations(range(1, n), cut_count):
                runs = _runs_of(cuts, n)
                for total in range(-1, 6):
                    wanted = [
                        b for b in itertools.product(range(total + 1), repeat=n)
                        if sum(b) == total and all(b[i] <= b[i + 1] for start, stop in runs for i in range(start, stop - 1))
                    ]
                    assert list(_representatives(total, runs)) == wanted, (total, runs)
                    if cut_count == n - 1:
                        assert list(compositions(total, n)) == wanted, (total, n)


def test_listers_answer_past_the_recursion_limit():
    # the one lister keeps its branch on a stack, so 1200 blocks, far past Python's
    # recursion limit, list like 3
    n = 1200
    unit = [(0,) * (n - 1 - i) + (1,) + (0,) * i for i in range(n)]
    assert list(compositions(1, n)) == unit
    assert list(_representatives(1, ((0, n),))) == [unit[0]]
    assert list(_representatives(2, ((0, n),))) == [(0,) * (n - 1) + (2,), (0,) * (n - 2) + (1, 1)]
    # two runs of 600: each run's part of b is non-decreasing, the first run's ascending first
    half = (0,) * 600
    low, high = (0,) * 599 + (1,), (0,) * 598 + (1, 1)
    two = (0,) * 599 + (2,)
    assert list(_representatives(2, _runs_of([600], n))) == [
        half + two, half + high, low + low, two + half, high + half
    ]


def test_negative_degree_is_rejected_before_orbits_are_built(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("no symmetry or block-degree table may be built for a negative degree")

    monkeypatch.setattr(kernel, "_symmetry_runs", boom)
    monkeypatch.setattr(kernel, "compositions", boom)
    with pytest.raises(ValueError, match="degree must be >= 0"):
        completeness_check(1, 1, -1)


def test_kernel_dim_rejects_a_negative_degree():
    # compositions of a negative total are empty, so the sum alone would read 0
    with pytest.raises(ValueError, match="degree must be >= 0"):
        kernel_dim(2, 1, -1)
    assert kernel_dim(2, 1, 0) == 1


def test_piece_keys_validate_their_input():
    # n and k are checked by Ambient, a negative degree as in kernel_dim
    for n, k, degree in ((0, 1, 2), (2, 0, 2), (2, -1, 3), (2, 1, -1)):
        with pytest.raises(ValueError):
            piece_keys(n, k, degree)
    assert piece_keys(2, 1, 0) == [GradedPieceKey((0, 0), 0)]


class TestNullspace:
    def test_identity(self):
        assert nullspace([{0: 1}, {1: 1}], 2) == []

    def test_zero_matrix(self):
        vecs = nullspace([{}, {}], 3)
        assert vecs == [
            (1, 0, 0),
            (0, 1, 0),
            (0, 0, 1),
        ]

    def test_single_relation(self):
        assert nullspace([{0: 1, 1: 1}], 2) == [(1, -1)]

    def test_no_rows(self):
        assert nullspace([], 2) == [(1, 0), (0, 1)]

    def test_reduced_echelon_basis(self):
        rng = random.Random(11)
        for _ in range(100):
            rows = rng.randint(0, 4)
            cols = rng.randint(1, 5)
            m = [[Fraction(rng.randint(-3, 3)) for _ in range(cols)] for _ in range(rows)]
            basis = nullspace([{j: c for j, c in enumerate(row) if c} for row in m], cols)
            for v in basis:
                # M v = 0 exactly
                for row in m:
                    assert sum(a * b for a, b in zip(row, v)) == 0
                lead = next(i for i, c in enumerate(v) if c)
                assert v[lead] == 1
                # the leading column is zero in every other basis vector
                for w in basis:
                    if w is not v:
                        assert w[lead] == 0
            assert len(basis) == cols - sparse_rank({j: c for j, c in enumerate(row) if c} for row in m)


@st.composite
def sparse_matrices(draw):
    """Small sparse rational matrices with some trailing augmented columns: (rows, ncols)."""
    width = draw(st.integers(1, 6))
    ncols = draw(st.integers(0, width))
    entry = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    dense = draw(st.lists(st.lists(entry, min_size=width, max_size=width), max_size=6))
    return [{j: c for j, c in enumerate(row) if c} for row in dense], ncols


@st.composite
def dependent_matrices(draw):
    """Sparse matrices with augmented columns whose later rows may combine earlier ones: (rows, ncols).

    Entries are small rationals, or ints of up to about 70 bits.  A combined
    row may be shifted in one augmented column, so that it is left over.
    """
    width = draw(st.integers(1, 8))
    ncols = draw(st.integers(0, width))
    if draw(st.booleans()):
        entry = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 12))
    else:
        entry = st.integers(-(2**70), 2**70)
    cell = st.one_of(st.just(0), entry)
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        if rows and draw(st.booleans()):
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            f, g = draw(entry), draw(st.integers(-3, 3))
            row = {c: f * a.get(c, 0) + g * b.get(c, 0) for c in range(width)}
            if ncols < width and draw(st.booleans()):
                row[width - 1] += draw(entry)
        else:
            row = {c: draw(cell) for c in range(width)}
        rows.append({c: v for c, v in row.items() if v})
    return rows, ncols


def _fraction_nullspace(rows, ncols):
    """The reduced echelon basis of {v : M v = 0}, read off `fraction_rref` of M with reversed columns."""
    last = ncols - 1
    reduced, pivots = fraction_rref([{last - c: v for c, v in row.items()} for row in rows], ncols)
    pivot_set = {last - p for p in pivots}
    basis = {free: [Fraction(0)] * ncols for free in range(ncols) if free not in pivot_set}
    for free, v in basis.items():
        v[free] = Fraction(1)
    for row, p in zip(reduced, pivots):
        for c, value in row.items():
            if c != p:
                basis[last - c][last - p] = -value
    return [tuple(v) for v in basis.values()]


@given(st.one_of(sparse_matrices(), dependent_matrices()))
@settings(max_examples=300, deadline=None)
def test_nullspace_equals_basis_read_off_fraction_gauss_jordan(matrix):
    # the forward elimination and its back substitution give the basis that
    # Gauss-Jordan over Fraction gives, entry for entry, in either row order;
    # every column of the matrix is a column of M here, and columns past the
    # last nonzero entry are zero columns, free in every basis
    rows, ncols = matrix
    width = max([ncols, *(c + 1 for row in rows for c in row)])
    expected = _fraction_nullspace(rows, width)
    assert nullspace(rows, width) == expected
    assert nullspace(rows[::-1], width) == expected


PRIME = (1 << 61) - 1


def _integer_rows(rows):
    """Each row scaled by the lcm of its denominators: the integer rows `_echelon` takes."""
    out = []
    for row in rows:
        scale = lcm(*(Fraction(v).denominator for v in row.values()))
        out.append({c: int(v * scale) for c, v in row.items()})
    return out


class TestRank:
    @given(st.one_of(sparse_matrices(), dependent_matrices()), st.integers(0, 8))
    @example(([{0: PRIME, 2: -3 * PRIME}], 3), 2)
    @settings(max_examples=300, deadline=None)
    def test_equals_fraction_rank(self, matrix, limit):
        rows = _integer_rows(matrix[0])
        rank = sparse_rank(rows)
        assert len(_echelon(rows)) == rank
        # the elimination stops at its limit, so a limit below the rank is returned, and
        # it reads no row past the shortest prefix whose rank reaches the limit
        read = []
        assert len(_echelon((read.append(row) or row for row in rows), limit=limit)) == min(rank, limit)
        reached = next((i for i in range(len(rows) + 1) if sparse_rank(rows[:i]) == limit), len(rows))
        assert read == rows[:reached]
        # rows scaled by multiples of the prime 2^61 - 1 keep their rank over Q,
        # which a rank modulo that prime would lose
        assert len(_echelon([{c: v * PRIME * (i + 1) for c, v in row.items()} for i, row in enumerate(rows)])) == rank

    @given(st.one_of(sparse_matrices(), dependent_matrices()), st.integers(0, 8))
    @settings(max_examples=300, deadline=None)
    def test_bound_drops_rows_that_vanish_before_it(self, matrix, bound):
        # a row is dropped once it is zero in every column below the bound, so
        # the pivot rows count the rank of the rows cut to those columns
        rows = _integer_rows(matrix[0])
        pivot_rows = _echelon(rows, bound=bound)
        assert len(pivot_rows) == sparse_rank({c: v for c, v in row.items() if c < bound} for row in rows)
        for lead, row in pivot_rows.items():
            assert lead == min(row) < bound and row[lead] > 0
            assert gcd(*row.values()) == 1
        assert _echelon(rows) == _echelon(rows, bound=max((c + 1 for row in rows for c in row), default=0))


class TestKernelBasis:
    def test_degree_one_linear(self):
        basis = kernel_basis(2, 1, 1)
        assert {str(b) for b in basis} == {"x1", "x2"}

    def test_degree_two_linear(self):
        # oracle: ungraded nullspace over all 10 degree-2 monomials
        basis = kernel_basis(2, 1, 2)
        assert len(basis) == 4
        expected = [parse(s, Ambient(2, 1)) for s in ("x1^2", "x1*x2", "x2^2", "x1*y2 - x2*y1")]
        assert sparse_rank(dict(p.items()) for p in basis + expected) == 4

    def test_degree_two_quadratic_chain(self):
        basis = kernel_basis(1, 2, 2)
        assert len(basis) == 2
        expected = [parse(s, Ambient(1, 2)) for s in ("x1^2", "2*x1*z1 - y1^2")]
        assert sparse_rank(dict(p.items()) for p in basis + expected) == 2

    def test_elements_annihilated_and_deterministic(self):
        for n, k, d in ((2, 1, 3), (2, 2, 3), (3, 1, 2)):
            deriv = WeitzenboeckDerivation(n, k)
            basis = kernel_basis(n, k, d)
            assert all(deriv.is_in_kernel(b) for b in basis)
            assert basis == kernel_basis(n, k, d)

    def test_piece_bases_in_reduced_echelon_form(self):
        # a subspace has exactly one reduced echelon basis, so this pins the bases
        pieces = (
            (3, 1, GradedPieceKey((1, 1, 2), 1)),
            (2, 2, GradedPieceKey((2, 2), 2)),
            (3, 2, GradedPieceKey((1, 1, 1), 2)),
            (2, 3, GradedPieceKey((2, 2), 4)),
            (1, 3, GradedPieceKey((6,), 6)),
        )
        for n, k, key in pieces:
            amb = Ambient(n, k)
            deriv = WeitzenboeckDerivation(n, k)
            cols = graded_monomials(n, k, key)
            basis = kernel_piece_basis(n, k, key)
            vecs = [[b.coefficient(m) for m in cols] for b in basis]
            assert [len(b) for b in basis] == [sum(1 for c in v if c) for v in vecs]
            leads = [next(j for j, c in enumerate(v) if c) for v in vecs]
            assert leads == sorted(set(leads))
            for v, lead in zip(vecs, leads):
                assert v[lead] == 1
                assert [w[lead] for w in vecs].count(0) == len(vecs) - 1
            assert all(deriv.is_in_kernel(b) for b in basis)
            images = [dict(deriv.apply(Polynomial(amb, {m: 1})).items()) for m in cols]
            assert len(basis) == len(cols) - sparse_rank(images) > 1

    def test_oracle_self_consistency_spot_check(self):
        assert len(kernel_basis(2, 2, 3)) == ungraded_kernel_dimension(2, 2, 3)

    def test_skips_the_pieces_above_the_middle_weight(self, monkeypatch):
        # D is injective on a piece of weight 2w > k|b|, so kernel_basis leaves it out;
        # elimination confirms each skipped piece has an empty basis, and the basis is
        # the concatenation over every piece key, as before the skip
        real = kernel.kernel_piece_basis
        for n, k, d in itertools.product(range(1, 4), (1, 2), range(5)):
            keys = piece_keys(n, k, d)
            skipped = [key for key in keys if 2 * key.weight > k * d]
            assert all(real(n, k, key) == [] for key in skipped)
            eliminated = []
            monkeypatch.setattr(kernel, "kernel_piece_basis", lambda n, k, key: eliminated.append(key) or real(n, k, key))
            basis = kernel_basis(n, k, d)
            monkeypatch.setattr(kernel, "kernel_piece_basis", real)
            assert eliminated == [key for key in keys if key not in skipped]
            assert basis == [b for key in keys for b in real(n, k, key)]


def _expand(labels, gens):
    return evaluate_combination({labels: 1}, gens)


def _all_products(gens, degree):
    """Every degree-`degree` product as (labels, key): the products of every piece, in label order.

    Label order is by multiplicity vector, higher multiplicity of earlier
    generators first, as in the itertools oracle.
    """
    by_piece = products_by_piece(gens, degree)
    order = gens.labels()
    products = [(labels, key) for key, found in by_piece.items() for labels in found]
    return sorted(products, key=lambda pr: [-pr[0].count(label) for label in order])


class TestGeneratorProducts:
    def test_degree_two_products(self):
        gens = generators(2, 1)
        prods = _all_products(gens, 2)
        assert [labels for labels, _ in prods] == [("x1", "x1"), ("x1", "x2"), ("x2", "x2"), ("J1,2",)]
        assert [str(_expand(labels, gens)) for labels, _ in prods] == ["x1^2", "x1*x2", "x2^2", "x1*y2 - x2*y1"]
        assert [key for _, key in prods] == [
            GradedPieceKey((2, 0), 0),
            GradedPieceKey((1, 1), 0),
            GradedPieceKey((0, 2), 0),
            GradedPieceKey((1, 1), 1),
        ]
        # one entry per piece that holds products, in piece order
        by_piece = products_by_piece(gens, 2)
        assert list(by_piece) == sorted(key for _, key in prods)

    def test_degree_one_products(self):
        gens = generators(2, 1)
        prods = _all_products(gens, 1)
        assert [str(_expand(labels, gens)) for labels, _ in prods] == ["x1", "x2"]

    def test_key_is_the_piece_of_the_expanded_product(self):
        # the key comes from label arithmetic alone; it must name the one
        # graded piece the expanded product lies in
        for n, k in ((1, 1), (2, 1), (3, 1), (1, 2), (2, 2), (3, 2)):
            full = generators(n, k)
            for gens in (full, full.without(full.labels()[0]), full.without(full.labels()[-1])):
                for d in range(5):
                    for key, found in products_by_piece(gens, d).items():
                        assert found
                        for labels in found:
                            ((bd, w, cov),) = _expand(labels, gens).gradings()
                            assert (GradedPieceKey(bd, w), cov) == (key, 0)

    @given(st.integers(1, 4), st.sampled_from([1, 2]), st.integers(0, 6), st.data())
    @settings(max_examples=60, deadline=None)
    def test_pieces_prune_matches_filtered_enumeration(self, n, k, degree, data):
        # the pruned walk of each piece must yield exactly the products of the unpruned
        # enumeration that lie in that piece, in the same order, and a piece that holds
        # none must yield nothing. The unpruned enumeration is every nondecreasing
        # sequence of generator indices of total degree `degree`, in ascending lex
        # order, and a product's piece is the packed sum of its rows' gradings
        full = generators(n, k)
        exclude = data.draw(st.lists(st.sampled_from(full.labels()), unique=True, max_size=3))
        gens = full.without(*exclude)
        rows = generator_rows(gens)
        packing = packing_for(Ambient(n, k), degree)
        unpruned = sorted(
            combo
            for size in range(degree + 1)
            for combo in itertools.combinations_with_replacement(range(len(rows)), size)
            if sum(rows[i].degree for i in combo) == degree
        )

        by_piece = defaultdict(list)
        for combo in unpruned:
            blocks = [sum(rows[i].block_degrees[b] for i in combo) for b in range(n)]
            by_piece[packing.grading(blocks, sum(rows[i].weight for i in combo))].append(tuple(rows[i].label for i in combo))
        walked = 0
        for key in piece_keys(n, k, degree):
            found = [labels for labels, _ in walk_products(gens, degree, packing.grading(*key))]
            assert found == by_piece.get(packing.grading(*key), [])
            walked += len(found)
        assert walked == len(unpruned)

    @given(st.integers(1, 4), st.sampled_from([1, 2]), st.integers(0, 5), st.data())
    @settings(max_examples=40, deadline=None)
    def test_order_and_keys_match_an_itertools_oracle(self, n, k, degree, data):
        # every multiset of the table's rows of total degree `degree`, listed by
        # itertools and sorted by multiplicity vector, higher multiplicity of earlier
        # generators first; each key is the sum of its rows' block degrees and weights.
        # Every piece holds its own products in that order, and the products of all
        # pieces sorted by generator-index sequence (as express merges them) are in it
        full = generators(n, k)
        exclude = data.draw(st.lists(st.sampled_from(full.labels()), unique=True, max_size=3))
        gens = full.without(*exclude)
        rows = generator_rows(gens)
        multisets = [
            combo
            for size in range(degree + 1)
            for combo in itertools.combinations_with_replacement(range(len(rows)), size)
            if sum(rows[i].degree for i in combo) == degree
        ]
        multisets.sort(key=lambda combo: [-combo.count(i) for i in range(len(rows))])
        expected = defaultdict(list)
        for combo in multisets:
            key = GradedPieceKey(
                tuple(sum(rows[i].block_degrees[b] for i in combo) for b in range(n)),
                sum(rows[i].weight for i in combo),
            )
            expected[key].append(tuple(rows[i].label for i in combo))
        by_piece = products_by_piece(gens, degree)
        assert by_piece == expected
        index = {row.label: i for i, row in enumerate(rows)}
        merged = sorted((labels for found in by_piece.values() for labels in found), key=lambda labels: [index[label] for label in labels])
        assert merged == [tuple(rows[i].label for i in combo) for combo in multisets]

    def test_degree_four_multisets(self):
        assert products_by_piece(generators(1, 2), 4) == {
            GradedPieceKey((4,), 0): [("x1", "x1", "x1", "x1")],
            GradedPieceKey((4,), 2): [("x1", "x1", "H1,1")],
            GradedPieceKey((4,), 4): [("H1,1", "H1,1")],
        }

    def test_degree_zero(self):
        gens = generators(2, 1)
        assert products_by_piece(gens, 0) == {GradedPieceKey((0, 0), 0): [()]}
        assert _expand((), gens) == 1

    def test_monotone_consistency(self):
        gens = generators(2, 2)
        linear = [p for _, p in gens.items if p.total_degree() == 1]
        for d in (2, 3, 4):
            smaller = _all_products(gens, d - 1)
            larger = {_expand(labels, gens) for labels, _ in _all_products(gens, d)}
            for labels, _ in smaller:
                for g in linear:
                    assert _expand(labels, gens) * g in larger


def _walk_and_least(gens, degree, runs):
    """The walk view of `degree`, each reach row cut to the entries the degree reads, and its least-monomial table."""
    tables = kernel_tables(gens, degree)
    steps, top = tables.walk(degree)
    return [(label, d, g, row[: degree + 1], terms) for label, d, g, row, terms in steps], top, tables.least(degree, runs)


class TestGrownTables:
    """The packed rows, reach rows and least-monomial tables of a label set grow with the degree asked."""

    @pytest.mark.parametrize("text", ["x1*y2*CX", "x1^2*y2 + x1*x2*y2"], ids=["covariant", "several-pieces"])
    def test_a_bad_generator_raises_from_the_first_degree_that_holds_it(self, text):
        # a hand-built set whose degree-3 generator has no one piece of the ring: its row
        # is packed and checked only when a degree >= 3 asks for it, so degrees 1 and 2
        # are answered before and after, and every call that reads it raises, those of
        # degree 3, in the packing degree 2 shares, and of degree 16, in the next one, included
        amb = Ambient(2, 1)
        gens = GeneratorSet(2, 1, (("x1", parse("x1", amb)), ("J", parse("x1*y2 - x2*y1", amb)), ("bad", parse(text, amb))))
        assert packing_for(amb, 2) is packing_for(amb, 3) is not packing_for(amb, 16)
        clear_kernel_caches()
        for _ in range(2):
            assert products_by_piece(gens, 1) == {GradedPieceKey((1, 0), 0): [("x1",)]}
            assert products_by_piece(gens, 2) == {GradedPieceKey((2, 0), 0): [("x1", "x1")], GradedPieceKey((1, 1), 1): [("J",)]}
            assert express_in_generators(parse("x1^2 + x1*y2 - x2*y1", amb), gens) == {("x1", "x1"): 1, ("J",): 1}
            for call in (
                lambda: products_by_piece(gens, 3),
                lambda: products_by_piece(gens, 16),
                lambda: express_in_generators(parse("x1^3", amb), gens),
                lambda: evaluate_combination({("bad",): 1}, gens),
                lambda: evaluate_combination({("x1", "bad"): 1}, gens),
            ):
                with pytest.raises(NonHomogeneous, match="^generator bad "):
                    call()

    @pytest.mark.parametrize(
        "n, k, exclude", [(3, 2, ()), (3, 2, ("H1,1",)), (4, 2, ("H2,3",)), (4, 1, ("J1,2",)), (5, 1, ())]
    )
    def test_grown_tables_equal_tables_built_at_their_degree(self, n, k, exclude):
        # the walk view and the least-monomial table of degree d, read from tables grown
        # to a larger degree of the same packing, ascending or in one step, equal the
        # tables built at d alone; the view reads the stored reach rows and packed terms
        # themselves. The degrees run one past the floor packing (k*d <= 15) into the next
        gens = generators(n, k).without(*exclude)
        runs = kernel._symmetry_runs(n, k, frozenset(exclude))
        amb = Ambient(n, k)
        top = 15 // k + 1
        assert packing_for(amb, 0) is packing_for(amb, top - 1) is not packing_for(amb, top)
        fresh = {}
        for degree in range(top + 1):
            clear_kernel_caches()
            fresh[degree] = _walk_and_least(gens, degree, runs)
            assert all(len(row) == degree + 1 for _, _, _, row, _ in kernel_tables(gens, degree).walk(degree)[0])
        try:
            for grow in (range(top + 1), range(top, -1, -1)):
                clear_kernel_caches()
                for big in grow:
                    packing = packing_for(amb, big)
                    tables = kernel_tables(gens, big)
                    _walk_and_least(gens, big, runs)
                    for degree in range(big + 1):
                        if packing_for(amb, degree) is not packing:
                            continue
                        assert _walk_and_least(gens, degree, runs) == fresh[degree]
                        assert all(row[: degree + 1] == tables.reach[label][: degree + 1] for label, _, _, row, _ in tables.walk(degree)[0])
                        assert all(terms is tables.rows[label].terms for label, _, _, _, terms in tables.walk(degree)[0])
                if grow[0] == top:
                    # grown in one step to the floor packing's largest degree, the views of
                    # its smaller degrees read its rows, uncopied
                    tables = kernel_tables(gens, top - 1)
                    assert all(row is tables.reach[label] for degree in range(top - 1) for label, _, _, row, _ in tables.walk(degree)[0])
            # every degree of one packing reads the same packed rows
            tables = kernel_tables(gens, 4)
            assert tables.generators(4) == tables.generators(top - 1)[: len(tables.generators(4))]
            assert all(row is tables.rows[row.label] for row in tables.generators(5))
        finally:
            clear_kernel_caches()

    def test_threads_growing_one_label_set_read_the_tables_one_thread_builds(self):
        # threads that grow one label set's tables at once, each asking the top degrees of
        # the floor packing and the first of the next in its own order with a short switch
        # interval, read at each degree the tables one thread builds at that degree alone
        gens = generators(4, 1)
        runs = kernel._symmetry_runs(4, 1, frozenset())
        degrees = list(range(8, 17))  # degrees 8..15 share one packing for k = 1, and 16 starts the next

        def tables(degree):
            return _walk_and_least(gens, degree, runs)

        expected = {}
        for degree in degrees:
            clear_kernel_caches()
            expected[degree] = tables(degree)
        interval = sys.getswitchinterval()
        try:
            for trial in range(3):
                clear_kernel_caches()
                results, errors = [], []

                def work(order):
                    try:
                        results.extend((degree, tables(degree)) for degree in order)
                    except Exception as exc:  # reported by the assertion below
                        errors.append(exc)

                orders = [random.Random(10 * trial + i).sample(degrees, len(degrees)) for i in range(6)]
                threads = [threading.Thread(target=work, args=(order,)) for order in orders]
                sys.setswitchinterval(1e-6)
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
                sys.setswitchinterval(interval)
                assert not any(thread.is_alive() for thread in threads) and errors == []
                assert len(results) == len(threads) * len(degrees)
                assert all(found == expected[degree] for degree, found in results)
        finally:
            sys.setswitchinterval(interval)
            clear_kernel_caches()

    def test_each_generator_is_packed_once_per_packing(self, monkeypatch):
        # certificates of degrees 4..9, in any order, pack every generator once in each
        # of the two packings they read at k = 2: the floor one (d <= 7) and the next
        clear_kernel_caches()
        packed = []
        real = kernel.Packing.pack_terms
        monkeypatch.setattr(kernel.Packing, "pack_terms", lambda self, terms: packed.append((self, terms)) or real(self, terms))
        try:
            gens = generators(3, 2).without("H1,1")
            for degree in (9, 4, 7, 8, 6, 5):
                completeness_check(3, 2, degree, exclude=["H1,1"])
            floor, wide = packing_for(Ambient(3, 2), 7), packing_for(Ambient(3, 2), 8)
            assert {packing for packing, _ in packed} == {floor, wide}
            for packing in (floor, wide):
                assert sorted(str(terms) for found, terms in packed if found is packing) == sorted(str(p) for _, p in gens)
        finally:
            clear_kernel_caches()

    def test_one_table_set_per_label_set_for_the_small_degrees(self, monkeypatch):
        # certificates of degrees 0..7 of the full (3, 2) family and of (4, 1) without J1,2,
        # asked in a shuffled order from empty caches, build one _Tables per label set, pack
        # each generator once, and report what an ascending loop reports
        cases = [(3, 2, ()), (4, 1, ("J1,2",))]
        calls = [(n, k, exclude, degree) for n, k, exclude in cases for degree in range(8)]
        random.Random(32).shuffle(calls)
        packed = []
        real = kernel.Packing.pack_terms
        monkeypatch.setattr(kernel.Packing, "pack_terms", lambda self, terms: packed.append(terms) or real(self, terms))
        clear_kernel_caches()
        try:
            shuffled = {call: completeness_check(*call[:2], call[3], exclude=call[2]) for call in calls}
            assert kernel._tables.cache_info().currsize == len(cases)
            assert sorted(map(str, packed)) == sorted(str(p) for n, k, exclude in cases for _, p in generators(n, k).without(*exclude))
            clear_kernel_caches()
            for n, k, exclude in cases:
                for degree in range(8):
                    assert completeness_check(n, k, degree, exclude=exclude) == shuffled[n, k, exclude, degree]
        finally:
            clear_kernel_caches()


def _one_per_product_and_prefix(walks):
    """The `mul_terms` calls of walks that yield these products: per walk, one per distinct prefix of two or more labels on their paths, products included.

    A one-label product, or prefix, is its generator's packed row, with no call.
    """
    return sum(len({labels[:i] for labels in walk.labels for i in range(2, len(labels) + 1)}) for walk in walks)


def _walked(gens, labels):
    """The packed terms that the walk of the labels' degree and piece yields for their product, in that degree's packing."""
    rows = {row.label: row for row in generator_rows(gens)}
    degree = sum(rows[label].degree for label in labels)
    blocks = [sum(rows[label].block_degrees[i] for label in labels) for i in range(gens.n)]
    packing = packing_for(Ambient(gens.n, gens.k), degree)
    piece = packing.grading(blocks, sum(rows[label].weight for label in labels))
    return packing, next(terms for found, terms in walk_products(gens, degree, piece) if found == labels)


class TestProductExpander:
    @pytest.mark.parametrize("calls", ["express at degrees 5 and 6", "verify then express"])
    def test_no_prefix_is_expanded_twice(self, monkeypatch, spy, calls):
        # each mul_terms call of a walk gives one label multiset's terms: a product an
        # elimination reads, or a prefix of two or more labels on the way to one. k = 1
        # express calls at degrees 5 and 6 (one packing), or a certificate without H1,1,
        # which ranks short pieces in degrees 3..6, and then express in one of them, make
        # one call per distinct such prefix of the products each walk yields, per walk, so
        # no walk expands a prefix twice. Nothing expanded outlives its walk: the steps
        # together make as many calls as each from empty tables
        if calls == "verify then express":
            gens = generators(3, 2).without("H1,1")
            short = products_by_piece(gens, 6)[GradedPieceKey((3, 1, 2), 4)]
            p = evaluate_combination({labels: j + 1 for j, labels in enumerate(short)}, gens)
            grading = packing_for(Ambient(3, 2), 6).grading((3, 1, 2), 4)
            steps = [lambda: completeness_check(3, 2, 6, exclude=["H1,1"]), lambda: express_in_generators(p, gens)]
        else:
            gens = generators(3, 1)
            assert packing_for(Ambient(3, 1), 5) is packing_for(Ambient(3, 1), 6)
            inputs = [evaluate_combination({labels: j + 1 for j, (labels, _) in enumerate(_all_products(gens, d))}, gens) for d in (5, 6)]
            steps = [lambda p=p: express_in_generators(p, gens) for p in inputs]
        multiplied = []
        real = kernel.mul_terms
        monkeypatch.setattr(kernel, "mul_terms", lambda a, b: multiplied.append(a) or real(a, b))
        alone = 0
        for step in [*steps, None]:
            clear_kernel_caches()
            spy.clear()
            multiplied.clear()
            for run in [step] if step else steps:
                run()
            assert spy.labels_walked() and len(multiplied) == _one_per_product_and_prefix(spy.walks)
            if calls == "verify then express":  # both steps walk the piece
                assert (6, grading) in {(walk.degree, walk.grading) for walk in spy.walks}
            alone += len(multiplied) if step else 0
        assert len(multiplied) == alone

    @given(st.sampled_from([(1, 1), (2, 1), (3, 1), (1, 2), (2, 2), (3, 2)]), st.data())
    @settings(max_examples=60, deadline=None)
    def test_equals_polynomial_products(self, nk, data):
        # the walk multiplies packed term maps, and so does evaluate_combination's fold;
        # Polynomial.__mul__ is the reference. With random generators left out, every
        # expanded monomial lies in the piece the labels name, which certificates and
        # express take from the packed table
        n, k = nk
        full = generators(n, k)
        gens = full.without(*data.draw(st.lists(st.sampled_from(full.labels()), unique=True, max_size=len(full) - 1)))
        rows = {row.label: row for row in generator_rows(gens)}
        amb = Ambient(n, k)
        # k*D = 2^bits - 1 at D = 1, 3, 7, 15 for k = 1; at D >= 12 every multiset of up to 4 labels fits
        degree = data.draw(st.sampled_from([1, 3, 7, 12, 15]))
        linear = [label for label in gens.labels() if rows[label].degree == 1]
        for _ in range(3):
            labels = []
            for label in data.draw(st.lists(st.sampled_from(gens.labels()), max_size=4)):
                if sum(rows[lab].degree for lab in labels) + rows[label].degree <= degree:
                    labels.append(label)
            if linear and data.draw(st.booleans()):  # fill up to the bound with a kept x
                labels += linear[:1] * (degree - sum(rows[lab].degree for lab in labels))
            labels = tuple(sorted(labels, key=gens.labels().index))  # as the walk yields the multiset
            expected = Polynomial.one(amb)
            for label in labels:
                expected = expected * gens.value(label)
            packing, terms = _walked(gens, labels)
            # the piece the labels name, packed: factors' pieces add up
            piece = packing.grading(
                [sum(rows[lab].block_degrees[i] for lab in labels) for i in range(n)], sum(rows[lab].weight for lab in labels)
            )
            assert packing.unpack_terms(terms) == dict(expected.items())
            assert all(type(c) is int for c in terms.values())
            assert evaluate_combination({labels: 1}, gens) == expected
            for mono in terms:
                exps = packing.unpack(mono)
                assert mono >> packing.shift == packing.grading(amb.block_degrees(exps), amb.weight(exps)) == piece

    def test_products_at_the_degree_bound(self):
        # D = 15 is the floor packing's largest degree, with 4-bit fields, and D = 31 that of
        # the next, with 5-bit ones: x1^D fills its exponent field, the others reach D with J factors
        gens = generators(2, 1)
        for bound in (15, 31):
            half = bound // 2
            for labels in (("x1",) * bound, ("x1",) + ("J1,2",) * half, ("x2",) * 3 + ("J1,2",) * (half - 1)):
                expected = Polynomial.one(Ambient(2, 1))
                for label in labels:
                    expected = expected * gens.value(label)
                packing, terms = _walked(gens, labels)
                assert packing is packing_for(Ambient(2, 1), bound) and packing.degree == bound == 2**packing.bits - 1
                assert packing.unpack_terms(terms) == dict(expected.items())

    def test_no_reader_changes_a_generator_row(self):
        # a one-label product is its generator's packed row itself. After certificates
        # that rank short pieces (one in degree 3, whose products include D1,2,3 alone),
        # express into pieces of one-label products, and evaluate_combination, on one
        # label set, every row of the packings they read still holds its generator's
        # packed terms
        gens = generators(3, 2)
        amb = Ambient(3, 2)
        clear_kernel_caches()
        try:
            for degree in (3, 6):
                assert completeness_check(3, 2, degree).complete
            basis = kernel_basis(3, 2, 3)
            express_in_generators(sum((b * (i + 2) for i, b in enumerate(basis)), Polynomial.zero(amb)), gens)
            express_in_generators(parse("x1 + 2*x2", amb), gens)
            evaluate_combination({(label,): 3 for label in gens.labels()} | {("x1", "x2", "J1,2"): 1}, gens)
            for degree in (1, 3, 6):
                tables = kernel_tables(gens, degree)
                assert tables.rows and tables.walks
                for label, row in tables.rows.items():
                    assert row.terms == tables.packing.pack_terms(gens.value(label))
        finally:
            clear_kernel_caches()


class TestEvaluateCombination:
    def test_matches_plain_polynomial_products(self):
        # express builds its columns with this function, so check it against
        # products written out with Polynomial arithmetic directly
        rng = random.Random(7)
        for n, k in ((2, 1), (3, 1), (2, 2), (3, 2)):
            gens = generators(n, k)
            labels = gens.labels()
            amb = Ambient(n, k)
            for _ in range(20):
                combination = {}
                expected = Polynomial.zero(amb)
                for _ in range(rng.randint(0, 4)):
                    factors = tuple(sorted(rng.choices(labels, k=rng.randint(0, 3)), key=labels.index))
                    coeff = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                    if factors in combination or not coeff:
                        continue
                    combination[factors] = coeff
                    term = Polynomial.constant(amb, coeff)
                    for label in factors:
                        term = term * gens.value(label)
                    expected = expected + term
                assert evaluate_combination(combination, gens) == expected

    def test_unknown_label(self):
        # a label outside the set is named by UnknownLabel, a KeyError, as
        # GeneratorSet.without names one
        gens = generators(2, 1)
        for combination, label in (({("x1", "J9,9"): 1}, "J9,9"), ({("x1",): 1, ("H1,1",): 2}, "H1,1")):
            with pytest.raises(UnknownLabel) as caught:
                evaluate_combination(combination, gens)
            assert isinstance(caught.value, KeyError) and caught.value.args == (label,)
        with pytest.raises(UnknownLabel, match="J9,9"):
            gens.without("J9,9")


class TestCompleteness:
    def test_linear_degree_two(self):
        rep = completeness_check(2, 1, 2)
        assert (rep.kernel_dim, rep.span_dim, rep.complete) == (4, 4, True)
        assert sum(piece.kernel_dim for piece in rep.per_piece) == rep.kernel_dim
        assert sum(piece.span_dim for piece in rep.per_piece) == rep.span_dim

    def test_diagonal_h_adjudication(self):
        with_h = completeness_check(1, 2, 2)
        assert (with_h.kernel_dim, with_h.span_dim, with_h.complete) == (2, 2, True)
        without_h = completeness_check(1, 2, 2, exclude=["H1,1"])
        assert (without_h.kernel_dim, without_h.span_dim, without_h.complete) == (2, 1, False)

    def test_triple_determinant_degree(self):
        rep = completeness_check(3, 2, 3)
        assert rep.complete

    def test_span_never_exceeds_kernel(self):
        for n, k, d in ((2, 1, 3), (1, 2, 4), (2, 2, 3)):
            for exclude in ((), ("x1",)):
                rep = completeness_check(n, k, d, exclude=exclude)
                assert rep.span_dim <= rep.kernel_dim
                for piece in rep.per_piece:
                    assert piece.span_dim <= piece.kernel_dim

    def test_unsupported_k(self):
        with pytest.raises(UnsupportedK):
            completeness_check(2, 3, 2)

    @given(st.integers(1, 4), st.sampled_from([1, 2]), st.data())
    @settings(max_examples=25, deadline=None)
    def test_span_dim_is_the_exact_rank(self, n, k, data):
        # compare every report, orbit copies included, with the rank, by the Fraction
        # oracle, of the piece's own products expanded by plain Polynomial products
        degree = data.draw(st.integers(0, 3 if n == 4 else 4))
        full = generators(n, k)
        exclude = data.draw(st.lists(st.sampled_from(full.labels()), unique=True))
        gens = full.without(*exclude)
        amb = Ambient(n, k)
        by_piece = defaultdict(list)
        for key, found in products_by_piece(gens, degree).items():
            for labels in found:
                value = Polynomial.one(amb)
                for label in labels:
                    value = value * gens.value(label)
                by_piece[key].append(value)
        rep = completeness_check(n, k, degree, exclude=exclude)
        assert [piece.key for piece in rep.per_piece] == [key for key in piece_keys(n, k, degree) if _piece_kernel_dim(k, key)]
        for piece in rep.per_piece:
            assert piece.kernel_dim == _piece_kernel_dim(k, piece.key)
            assert piece.span_dim == sparse_rank(dict(p.items()) for p in by_piece[piece.key])
        reported = {piece.key for piece in rep.per_piece}
        assert all(sparse_rank(dict(p.items()) for p in polys) == 0 for key, polys in by_piece.items() if key not in reported)

    def test_builds_no_reduced_echelon_form(self, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("a certificate counts ranks and needs no reduced echelon form")

        monkeypatch.setattr(kernel, "nullspace", boom)
        rep = completeness_check(3, 2, 4)
        assert rep.complete and rep.per_piece
        assert all(piece.span_dim == piece.kernel_dim for piece in rep.per_piece)
        assert not completeness_check(1, 2, 2, exclude=["H1,1"]).complete

    @pytest.mark.parametrize(
        "n, k, degree, exclude",
        [(3, 2, 4, ()), (4, 1, 5, ("J1,2",)), (3, 1, 4, ("x1", "x3")), (4, 1, 6, ()), (4, 2, 4, ("H2,3",))],
    )
    def test_ranks_each_piece_that_holds_products_once(self, monkeypatch, spy, n, k, degree, exclude):
        # only representative pieces (block degrees non-decreasing within each run
        # of stable swaps, found by brute force) are counted, each decided once: a call
        # decides every degree up to its own, lowest first, and counts one least-monomial
        # table per degree. It holds exactly the least packed keys of the products in the
        # representative pieces, and the sums of those of lower degrees with every multiset
        # of the items found below: the least monomials of a ranked piece's span that the
        # count did not hold. A piece with kernel_dim of them is certified with nothing
        # expanded; exactly the pieces that fall short are walked, once each, and ranked,
        # once each, on a lazy row iterator that expands a prefix of the piece's products
        # in label order, each product once: the prefix ends at the product that brings the
        # rank to kernel_dim, or covers every product when the rank stays below it, and the
        # walk yields that prefix and no more. The least monomials (the least packed key of
        # each), the ranks of the prefixes and the least monomials of the spans (by the
        # Fraction oracle) come from plain Polynomial products here. With no stable swap,
        # as for (3, 1, 4) without x1 and x3, every piece is its own representative. The
        # full k = 1 family leaves no piece short and the full k = 2 family one, in degree 3.
        # With the full family and n > k + 1 the degree is decided on k + 1 blocks, so
        # no table of n blocks is built and no piece of n blocks is requested or
        # expanded; the assertions above are then checked with that base decision
        # forced incomplete, which runs the per-n path
        if not exclude and n > k + 1:
            assert completeness_check(n, k, degree).complete
            assert {table.n for table in spy.tables} == {k + 1}
            assert {walk.n for walk in spy.walks} <= {k + 1}
        monkeypatch.setattr(kernel, "_base_complete", lambda k, degree: False)
        gens = generators(n, k).without(*exclude)
        stable = _stable_swaps(gens)
        amb = Ambient(n, k)

        def representative(block_degrees):
            return all(block_degrees[i] <= block_degrees[i + 1] for i in stable)

        assert bool(stable) == (exclude != ("x1", "x3"))
        ranked = []
        real_echelon = kernel._echelon

        def counting(rows, bound=None, limit=None):
            # each row is recorded as the elimination reads it; the walk it reads is the
            # last one, and yields one product per row read
            read = []
            pivot_rows = real_echelon((read.append(row) or row for row in rows), bound, limit)
            walk = spy.walks[-1]
            packing = packing_for(amb, walk.degree)
            assert {mono >> packing.shift for row in read for mono in row} == {walk.grading} and len(read) == len(walk.labels)
            ranked.append((walk.degree, walk.grading, walk.labels))
            return pivot_rows

        monkeypatch.setattr(kernel, "_echelon", counting)
        spy.clear()
        rep = completeness_check(n, k, degree, exclude=exclude)
        assert [table.degree for table in spy.tables] == list(range(degree + 1))
        leads = {}  # degree -> the least monomials, as exponents, of its representative pieces' products
        items, prefixes = [], {}
        for d, table in enumerate(spy.tables):
            packing = packing_for(amb, d)
            values = defaultdict(list)
            for labels, key in _all_products(gens, d):
                if representative(key.block_degrees):
                    value = Polynomial.one(amb)
                    for label in labels:
                        value = value * gens.value(label)
                    values[key].append((labels, {packing.pack(exps): c for exps, c in value.items()}))
            leads[d] = {packing.unpack(min(row)) for found in values.values() for _, row in found}
            assert table.items == tuple(items)
            expected = {packing.pack(exps) for exps in leads[d]}
            for size in range(1, d + 1):
                for multiset in itertools.combinations_with_replacement(items, size):
                    rest = d - sum(e for e, _ in multiset)
                    for exps in leads.get(rest, ()) if rest >= 0 else ():
                        expected.add(packing.pack(tuple(map(sum, zip(exps, *(item for _, item in multiset))))))
            assert table.levels == expected
            wanted = [key for key in piece_keys(n, k, d) if _piece_kernel_dim(k, key) and representative(key.block_degrees)]
            assert {key for key in values if _piece_kernel_dim(k, key)} <= set(wanted)
            for key in wanted:
                kdim = _piece_kernel_dim(k, key)
                count = sum(s >> packing.shift == packing.grading(*key) for s in expected)
                assert (count == 0) == (key not in values)
                if 0 < count < kdim:
                    rows = [row for _, row in values[key]]
                    stop = next((i for i in range(1, len(rows) + 1) if sparse_rank(rows[:i]) == kdim), len(rows))
                    prefixes[d, packing.grading(*key)] = [labels for labels, _ in values[key][:stop]]
                    items += [(d, packing.unpack(lead)) for lead in sorted(sparse_leads(rows) - expected)]
        walks = [(walk.degree, walk.grading, walk.labels) for walk in spy.walks]
        assert len({(d, grading) for d, grading, _ in walks}) == len(walks)
        assert {(d, grading): labels for d, grading, labels in walks} == prefixes
        assert ranked == walks
        assert sum(len(prefix) for prefix in prefixes.values()) == len(spy.labels_walked())
        assert bool(prefixes) == (k == 2 or exclude != ())
        if not exclude and k == 2:
            assert list(prefixes) == [(3, packing_for(amb, 3).grading((1, 1, 1), 2))]
        for piece in rep.representatives:
            if (degree, packing_for(amb, degree).grading(*piece.key)) not in prefixes and piece.span_dim:
                assert piece.span_dim == piece.kernel_dim

    @pytest.mark.parametrize("n, k, degree, exclude", [(3, 2, 6, ()), (4, 2, 4, ("H2,3",))])
    def test_ranks_packed_monomials_of_the_piece(self, monkeypatch, spy, n, k, degree, exclude):
        # the columns handed to the elimination are the expander's packed monomials
        # themselves, not renumbered, so the least-column pivot is the least monomial
        # in the packing's monomial order; every key lies in the piece being ranked.
        # The ranked pieces are those whose products are walked, the ones the count of
        # least monomials leaves short in the degrees the call decides, its own and those
        # below (one representative piece of the full family at (3, 2, <=6), in degree 3).
        # Rows are recorded as the elimination reads them
        ranked = []
        real_echelon = kernel._echelon

        def spying(rows, bound=None, limit=None):
            ranked.append(read := [])
            return real_echelon((read.append(dict(row)) or row for row in rows), bound, limit)

        monkeypatch.setattr(kernel, "_echelon", spying)
        completeness_check(n, k, degree, exclude=exclude)
        pieces = [(packing_for(Ambient(n, k), walk.degree), walk.grading) for walk in spy.walks]
        assert len(ranked) == len(pieces) >= 1
        if not exclude:
            assert [walk.degree for walk in spy.walks] == [3]
        for (packing, piece), rows in zip(pieces, ranked):
            keys = {key for row in rows for key in row}
            assert keys and all(key >> packing.shift == piece for key in keys)
            assert all(packing.pack(packing.unpack(key)) == key for key in keys)

    def test_walk_stops_where_the_rank_reaches_kernel_dim(self, monkeypatch, spy):
        # without H2,3, the representative piece ((1, 1, 1, 1), 2) of degree 4 holds 8
        # products, and its count, with the items the degrees below found, falls short of
        # kernel_dim 6. Its rank, by the Fraction oracle on plain Polynomial products,
        # reaches 6 at the 6th product in label order, so its one walk yields those 6 and
        # stops. Every walk of the degree expands the products it yields and the prefixes
        # on their paths only: one mul_terms call per distinct prefix of two or more labels
        key = GradedPieceKey((1, 1, 1, 1), 2)
        gens = generators(4, 2).without("H2,3")
        amb = Ambient(4, 2)
        packing = packing_for(amb, 4)
        grading = packing.grading(*key)
        every = products_by_piece(gens, 4)[key]
        values = []
        for labels in every:
            value = Polynomial.one(amb)
            for label in labels:
                value = value * gens.value(label)
            values.append(dict(value.items()))
        assert len(every) == 8 and _piece_kernel_dim(2, key) == 6
        assert [sparse_rank(values[:i]) for i in range(4, 9)] == [4, 5, 6, 6, 6]
        completeness_check(4, 2, 3, exclude=["H2,3"])  # the degrees below, and their items
        spy.clear()
        multiplied = []
        real = kernel.mul_terms
        monkeypatch.setattr(kernel, "mul_terms", lambda a, b: multiplied.append(a) or real(a, b))
        rep = completeness_check(4, 2, 4, exclude=["H2,3"])
        (table,) = spy.tables
        assert table.items and 0 < sum(s >> packing.shift == grading for s in table.levels) < 6
        walks = {walk.grading: walk.labels for walk in spy.walks}
        assert len(walks) == len(spy.walks) and walks[grading] == every[:6]
        assert len(multiplied) == _one_per_product_and_prefix(spy.walks)
        assert PieceReport(key, 6, 6) in rep.representatives

    @pytest.mark.parametrize(
        "n, k, exclude, runs",
        [
            (4, 2, (), ((0, 4),)),
            (4, 1, ("J1,2",), ((0, 2), (2, 4))),
            (4, 2, ("H2,3",), ((0, 1), (1, 3), (3, 4))),
            (3, 1, ("x1", "x3"), ((0, 1), (1, 2), (2, 3))),
            (1, 2, (), ((0, 1),)),
            (8, 2, (), ((0, 8),)),
            (10, 1, (), ((0, 10),)),
        ],
    )
    def test_symmetry_runs(self, n, k, exclude, runs):
        # dropping J1,2 keeps the swaps (1 2) and (3 4); dropping H2,3 keeps only (2 3).
        # The full family is one run at every n
        assert kernel._symmetry_runs(n, k, frozenset(exclude)) == runs

    @given(st.integers(1, 4), st.sampled_from([1, 2]), st.data())
    @settings(max_examples=60, deadline=None)
    def test_symmetry_runs_match_brute_force(self, n, k, data):
        full = generators(n, k)
        exclude = data.draw(st.lists(st.sampled_from(full.labels()), unique=True))
        gens = full.without(*exclude)
        runs = kernel._symmetry_runs(n, k, frozenset(exclude))
        assert [start for start, _ in runs] == [0] + [stop for _, stop in runs[:-1]] and runs[-1][1] == n
        detected = {i for start, stop in runs for i in range(start, stop - 1)}
        assert detected == _stable_swaps(gens)

    @pytest.mark.parametrize("n, top", [(3, 6), (8, 8)])
    def test_full_family_runs_build_no_generator(self, monkeypatch, n, top):
        # with nothing excluded the swap test permutes no generator, so finding the runs
        # builds none, on the per-n path of (3, 2) as on the polarized one of (8, 2). The
        # runs are found on a fresh cache, so their body runs here; an excluded label is
        # the control, whose generator is built inside
        inside, calls, built = [], [], []
        real_generators, fresh = kernel.generators, cache(kernel._symmetry_runs.__wrapped__)

        def runs(*args):
            calls.append(args)
            inside.append(True)
            try:
                return fresh(*args)
            finally:
                inside.pop()

        monkeypatch.setattr(kernel, "_symmetry_runs", runs)
        monkeypatch.setattr(kernel, "generators", lambda n, k: built.append(bool(inside)) or real_generators(n, k))
        code, out = _verify_stdout("--n", str(n), "--k", "2", "--max-degree", str(top))
        assert code == 0 and out.endswith("verify: all degrees complete\n")
        assert calls and all(excluded == frozenset() for *_, excluded in calls)
        assert True not in built
        completeness_check(4, 2, 2, exclude=["H2,3"])
        assert built[-1] is True

    def test_exclude_must_not_be_a_bare_string(self):
        # a string would be split into one-character labels
        with pytest.raises(TypeError, match="'x1'"):
            completeness_check(2, 1, 2, exclude="x1")
        assert not completeness_check(2, 1, 2, exclude=["x1"]).complete

    def test_short_piece_reports_its_exact_rank(self):
        rep = completeness_check(1, 2, 2, exclude=["H1,1"])
        # H1,1's piece, where no other product lies, has rank 0 < kernel_dim 1
        assert [(piece.key, piece.kernel_dim, piece.span_dim) for piece in rep.per_piece] == [
            (GradedPieceKey((2,), 0), 1, 1),
            (GradedPieceKey((2,), 2), 1, 0),
        ]
        assert (rep.kernel_dim, rep.span_dim, rep.complete) == (2, 1, False)
        # without x1 at (2, 2, 3), piece ((1, 2), 2) holds one product, x2*H1,2, so its
        # one least monomial falls short of kernel_dim 2 and the rank reports 1
        short = GradedPieceKey((1, 2), 2)
        grading = packing_for(Ambient(2, 2), 3).grading(*short)
        assert [labels for labels, _ in walk_products(generators(2, 2).without("x1"), 3, grading)] == [("x2", "H1,2")]
        pieces = {piece.key: piece for piece in completeness_check(2, 2, 3, exclude=["x1"]).per_piece}
        assert (pieces[short].kernel_dim, pieces[short].span_dim) == (2, 1)

    @given(st.integers(1, 4), st.sampled_from([1, 2]), st.integers(0, 4), st.lists(st.integers(0, 40), unique=True, max_size=3))
    @example(3, 2, 4, [])
    @example(4, 2, 3, [])
    @settings(max_examples=40, deadline=None)
    def test_least_monomial_count_never_exceeds_the_rank(self, n, k, degree, drop):
        # the least-monomial table, cross-checked on a random degree and exclude set.
        # Built with no two blocks in one run it prunes nothing and holds the least
        # packed key of every product, expanded by plain Polynomial products; built on
        # the set's runs it keeps exactly those in representative pieces (block degrees
        # non-decreasing over every stable swap, found by brute force). In every
        # representative piece its count equals that of the products' least keys and
        # never exceeds their exact rank by the Fraction oracle. The examples are full
        # k = 2 families in which some pieces hold products with equal least monomials
        degree = min(degree, 3) if n == 4 else degree
        full = generators(n, k)
        labels = full.labels()
        exclude = frozenset(labels[i % len(labels)] for i in drop)
        gens = full.without(*exclude)
        amb = Ambient(n, k)
        packing = packing_for(amb, degree)
        stable = _stable_swaps(gens)
        values = defaultdict(list)
        for labels, key in _all_products(gens, degree):
            value = Polynomial.one(amb)
            for label in labels:
                value = value * gens.value(label)
            values[key].append(value)
        leads = {key: {min(packing.pack(exps) for exps, _ in value.items()) for value in found} for key, found in values.items()}
        unpruned = kernel_tables(gens, degree).least(degree, tuple((i, i + 1) for i in range(n)))
        assert unpruned == set().union(*leads.values())

        def representative(block_degrees):
            return all(block_degrees[i] <= block_degrees[i + 1] for i in stable)

        table = kernel_tables(gens, degree).least(degree, kernel._symmetry_runs(n, k, exclude))
        assert table == {s for s in unpruned if representative(packing.read_grading(s >> packing.shift)[0])}
        for key in piece_keys(n, k, degree):
            if representative(key.block_degrees):
                count = sum(s >> packing.shift == packing.grading(*key) for s in table)
                rank = sparse_rank(dict(value.items()) for value in values.get(key, ()))
                assert count == len(leads.get(key, ())) <= rank <= _piece_kernel_dim(k, key)
                assert (count >= 1) == (key in values)

    @given(st.integers(1, 4), st.sampled_from([1, 2]), st.integers(0, 5), st.lists(st.integers(0, 40), unique=True, max_size=3))
    @example(3, 2, 5, [])
    @example(4, 2, 4, [15])  # without H2,3
    @example(3, 2, 5, [6])  # without H1,1
    @settings(max_examples=30, deadline=None)
    def test_extended_count_never_exceeds_the_rank(self, n, k, degree, drop):
        # the least-monomial count with items, cross-checked on a random degree and
        # exclude set: a certificate decides every degree up to its own from empty caches,
        # each on the set's own blocks, and in every representative piece of each of
        # them (block degrees non-decreasing over every stable swap, found by brute
        # force) the count of the generators' and items' sums is at most the exact rank,
        # by the Fraction oracle, of the piece's products expanded by plain Polynomial
        # products; a piece holds a sum exactly when it holds a product. The examples
        # count items: the full k = 2 family's one, and many without H2,3 or H1,1
        degree = min(degree, 4 if drop == [15] else 3) if n == 4 else degree
        full = generators(n, k)
        labels = full.labels()
        exclude = sorted({labels[i % len(labels)] for i in drop})
        gens = full.without(*exclude)
        amb = Ambient(n, k)
        stable = _stable_swaps(gens)
        tables = []
        least = kernel._Tables.least
        clear_kernel_caches()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(kernel, "_base_complete", lambda k, degree: False)
            patch.setattr(kernel._Tables, "least", lambda self, *args: tables.append((args[0], least(self, *args))) or tables[-1][1])
            completeness_check(n, k, degree, exclude=exclude)
        assert [d for d, _ in tables] == list(range(degree + 1))
        for d, table in tables:
            packing = packing_for(amb, d)
            values = defaultdict(list)
            for labels, key in _all_products(gens, d):
                value = Polynomial.one(amb)
                for label in labels:
                    value = value * gens.value(label)
                values[key].append(dict(value.items()))
            for key in piece_keys(n, k, d):
                if all(key.block_degrees[i] <= key.block_degrees[i + 1] for i in stable):
                    count = sum(s >> packing.shift == packing.grading(*key) for s in table)
                    assert count <= sparse_rank(values.get(key, ())) <= _piece_kernel_dim(k, key)
                    assert (count >= 1) == (key in values)
        if (n, k, degree, drop) in ((3, 2, 5, []), (4, 2, 4, [15]), (3, 2, 5, [6])):
            assert kernel._decisions(gens, kernel._symmetry_runs(n, k, frozenset(exclude))).items

    @given(st.integers(1, 5), st.sampled_from([1, 2]), st.integers(0, 4), st.lists(st.integers(0, 60), unique=True, max_size=3))
    @example(5, 2, 4, [])
    @example(5, 2, 4, [16])  # without H1,2: runs of two and three blocks
    @settings(max_examples=40, deadline=None)
    def test_totals_count_each_orbit_member(self, n, k, degree, drop):
        # the report holds the representatives only, the b of each orbit that is
        # non-decreasing within every run, and weights each by its orbit's size; the
        # totals equal the sums over the expanded per_piece, and with the full family
        # the kernel total is `kernel_dim`'s count, which lists no piece
        labels = generators(n, k).labels()
        exclude = sorted({labels[i % len(labels)] for i in drop})
        rep = completeness_check(n, k, degree, exclude=exclude)
        assert rep.kernel_dim == sum(piece.kernel_dim for piece in rep.per_piece)
        assert rep.span_dim == sum(piece.span_dim for piece in rep.per_piece)
        assert rep.complete == (rep.span_dim == rep.kernel_dim)
        if not exclude:
            assert rep.kernel_dim == kernel_dim(n, k, degree)
        stable = _stable_swaps(generators(n, k).without(*exclude))
        representatives = [b for b in compositions(degree, n) if all(b[i] <= b[i + 1] for i in stable)]
        assert list(_representatives(degree, rep.runs)) == representatives
        assert sum(_orbit_size(b, rep.runs) for b in representatives) == comb(degree + n - 1, n - 1)
        assert rep.representatives == tuple(piece for piece in rep.per_piece if piece.key.block_degrees in representatives)

    @given(st.integers(1, 5), st.sampled_from([1, 2]), st.integers(0, 4), st.lists(st.integers(0, 60), unique=True, max_size=2))
    @settings(max_examples=15, deadline=None)
    def test_text_verify_builds_representative_reports_only(self, n, k, max_degree, drop):
        # a decided degree makes a GradedPieceKey only for its short representative
        # pieces and builds no PieceReport, so text output builds no report at all and
        # makes exactly the keys of the short pieces. Machine output builds one PieceReport
        # per representative piece with a nonzero kernel (block degrees non-decreasing
        # within every run of stable swaps, found by brute force), listed when written,
        # and none for the other orbit members; it writes every piece of every orbit to
        # its JSON straight from the representatives' dims. With the full family and
        # n > k + 1 each degree is decided on k + 1 blocks, where the full family leaves
        # no piece short, so no key or report of k + 1 blocks is made. A label set's
        # record is kept once decided, so each call starts from empty kernel caches
        labels = generators(n, k).labels()
        exclude = sorted({labels[i % len(labels)] for i in drop})
        stable = _stable_swaps(generators(n, k).without(*exclude))
        pieces = [key for d in range(max_degree + 1) for key in piece_keys(n, k, d) if _piece_kernel_dim(k, key)]
        wanted = [key for key in pieces if all(key.block_degrees[i] <= key.block_degrees[i + 1] for i in stable)]
        argv = ["verify", "--n", str(n), "--k", str(k), "--max-degree", str(max_degree)]
        argv += [arg for label in exclude for arg in ("--exclude", label)]
        made = {}
        for output in ("text", "machine"):
            reports, keys = [], []
            clear_kernel_caches()
            with pytest.MonkeyPatch.context() as patch, redirect_stdout(io.StringIO()) as out:
                patch.setattr(kernel, "PieceReport", lambda *args: reports.append(PieceReport(*args)) or reports[-1])
                patch.setattr(kernel, "GradedPieceKey", lambda *args: keys.append(GradedPieceKey(*args)) or keys[-1])
                cli.main([*argv, "--output", output])
            made[output] = reports, keys
            if output == "machine":
                written = [(tuple(piece["block_degrees"]), piece["weight"]) for doc in json.loads(out.getvalue())["result"] for piece in doc["per_piece"]]
                assert written == pieces
        (text_reports, text_keys), (machine_reports, machine_keys) = made["text"], made["machine"]
        assert text_reports == []
        assert [piece.key for piece in machine_reports] == wanted
        short = [piece.key for piece in machine_reports if piece.span_dim < piece.kernel_dim]
        assert not short or exclude
        assert text_keys == short
        # machine output: the short pieces' keys as each degree is decided, then every
        # representative's when the reports are written
        assert machine_keys == short + wanted

    @given(st.integers(1, 4), st.sampled_from([1, 2]), st.lists(st.integers(0, 60), unique=True, max_size=3))
    @example(2, 1, [])
    @example(3, 2, [])  # the full family on k + 1 blocks: one piece ranked, none short
    @example(4, 2, [15])  # without H2,3: short pieces in runs of one and two blocks
    @example(3, 2, [6])  # without H1,1
    @settings(max_examples=30, deadline=None)
    def test_record_keeps_exactly_the_short_pieces(self, n, k, drop):
        # every degree <= 5 of a label set's record keeps, in piece order, exactly the
        # representative pieces (block degrees non-decreasing over every stable swap,
        # found by brute force) whose exact rank, by the Fraction oracle over the piece's
        # products expanded by plain Polynomial products, is below kernel_dim, each mapped
        # to that rank. `_base_complete(k, d)` reads the record of k + 1 blocks on one
        # run, and is true exactly when that record keeps no short piece in degree d, by
        # the oracle when the drawn set is the full family on k + 1 blocks
        labels = generators(n, k).labels()
        exclude = sorted({labels[i % len(labels)] for i in drop})
        gens = generators(n, k).without(*exclude)
        stable = _stable_swaps(gens)
        amb = Ambient(n, k)
        clear_kernel_caches()
        record = kernel._decisions(gens, kernel._symmetry_runs(n, k, frozenset(exclude)))
        base = kernel._decisions(generators(k + 1, k), ((0, k + 1),))
        for d in range(6):
            representatives = [key for key in piece_keys(n, k, d) if all(key.block_degrees[i] <= key.block_degrees[i + 1] for i in stable)]
            values = defaultdict(list)
            for found, key in _all_products(gens, d):
                if key in representatives:
                    value = Polynomial.one(amb)
                    for label in found:
                        value = value * gens.value(label)
                    values[key].append(dict(value.items()))
            expected = {}
            for key in representatives:
                kdim = _piece_kernel_dim(k, key)
                if (rank := sparse_rank(values.get(key, ()))) < kdim:
                    expected[key] = rank
            assert list(record.short(d).items()) == list(expected.items()), d
            assert kernel._base_complete(k, d) == (not base.short(d))
            if n == k + 1 and not exclude:
                assert kernel._base_complete(k, d) == (not expected)

    def test_wide_reports_are_read_from_d_blocks(self, monkeypatch):
        # polarization: with the full family a product in piece (b, w) has every factor
        # in the blocks where b is nonzero, so the report of (6, k, d) at b is the one of
        # (d, k, d) at b's nonzero parts, sorted non-increasing and padded to d blocks.
        # Both sides are decided on their own blocks, not read off a k + 1 block base
        monkeypatch.setattr(kernel, "_base_complete", lambda k, degree: False)
        compared = 0
        for k in (1, 2):
            for d in (3, 4):
                narrow = {piece.key: piece[1:] for piece in completeness_check(d, k, d).per_piece}
                for piece in completeness_check(6, k, d).per_piece:
                    parts = sorted((v for v in piece.key.block_degrees if v), reverse=True)
                    trimmed = GradedPieceKey(tuple(parts + [0] * (d - len(parts))), piece.key.weight)
                    assert piece[1:] == narrow[trimmed], piece
                    compared += 1
        assert compared == 1242

    @given(st.lists(st.integers(0, 3), max_size=7))
    def test_arrangements_are_the_distinct_permutations_in_lex_order(self, values):
        # the orbit of a representative in one run, as the report lists it
        part = tuple(sorted(values))
        assert kernel._arrangements(part) == sorted(set(itertools.permutations(part)))

    def test_serialization_fields(self):
        doc = completeness_check(2, 1, 2).to_dict()
        assert set(doc) == {"n", "k", "degree", "kernel_dim", "span_dim", "complete", "per_piece"}
        assert set(doc["per_piece"][0]) == {"block_degrees", "weight", "kernel_dim", "span_dim"}
        json.dumps(doc)  # machine format must be JSON-ready


def _types_left_out(n, k, kept):
    """The labels of `generators(n, k)` whose type (the label's letter: x, J, H or D) is not in `kept`."""
    return [label for label in generators(n, k).labels() if label[0] not in kept]


def _verify_stdout(*argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(["verify", *argv])
    return code, out.getvalue()


class TestCarriedLeastMonomials:
    """The least monomials a rank finds are counted again in every higher degree of the label set."""

    @pytest.mark.parametrize("lone", [False, True], ids=["verify loop", "lone degree"])
    def test_full_family_at_k_plus_one_ranks_one_piece(self, spy, lone):
        # verify --n 3 --k 2 --max-degree 12, or a lone completeness_check(3, 2, 12) from
        # empty caches, decides degrees 0..12 once each, in ascending order, and ranks one
        # piece: ((1, 1, 1), 2) in degree 3, whose 3 products show 2 least monomials
        # against kernel_dim 3. Its rank adds x3*y1*y2, and with it every representative
        # piece of degrees 4..12 is certified by its count
        amb = Ambient(3, 2)
        if lone:
            assert completeness_check(3, 2, 12).complete
        else:
            assert _verify_stdout("--n", "3", "--k", "2", "--max-degree", "12") == (0, (GOLDEN_DIR / "verify_n3_k2_d12.txt").read_text())
        assert [table.degree for table in spy.tables] == list(range(13))
        assert [(walk.degree, walk.grading) for walk in spy.walks] == [(3, packing_for(amb, 3).grading((1, 1, 1), 2))]
        assert [len(walk.labels) for walk in spy.walks] == [3]
        (item,) = {item for table in spy.tables for item in table.items}
        assert item == (3, next(iter(dict(parse("x3*y1*y2", amb).items()))))
        assert [bool(table.items) for table in spy.tables] == [d > 3 for d in range(13)]

    def test_a_max_degree_loop_builds_each_packing_table_once(self, monkeypatch, spy):
        # verify --n 3 --k 2 --max-degree 8 asks for degree 8 first, and its record decides
        # degrees 0..8 in that one call, lowest first: the generators' least-monomial table
        # is built once in the floor packing (k*d <= 15), up to degree 7, the highest it
        # serves, and once in the 5-bit packing, up to degree 8. Asked lowest first, each
        # degree of the floor packing would outgrow the table before it and build it anew
        built = []
        sums = kernel._Tables._generator_sums

        def building(self, top, runs):
            built.append((self.packing.bits, top))
            return sums(self, top, runs)

        monkeypatch.setattr(kernel._Tables, "_generator_sums", building)
        lines = (GOLDEN_DIR / "verify_n3_k2_d12.txt").read_text().splitlines(keepends=True)
        assert _verify_stdout("--n", "3", "--k", "2", "--max-degree", "8") == (0, "".join(lines[:9] + lines[-1:]))
        assert built == [(4, 7), (5, 8)]
        assert [table.degree for table in spy.tables] == list(range(9))

    def test_threads_deciding_one_label_set_decide_each_degree_once(self, spy):
        # threads that ask one label set's degrees at once, each in its own order with a
        # short switch interval, read the reports an ascending loop gives; the record's
        # lock lets one thread decide each degree, once, so no count is built twice and
        # no item is carried twice
        exclude = ["H1,1"]
        degrees = list(range(8))
        clear_kernel_caches()
        expected = {d: completeness_check(3, 2, d, exclude=exclude) for d in degrees}
        record = kernel._decisions(generators(3, 2).without(*exclude), kernel._symmetry_runs(3, 2, frozenset(exclude)))
        items = list(record.items)
        interval = sys.getswitchinterval()
        try:
            for trial in range(3):
                clear_kernel_caches()
                spy.clear()
                results, errors = [], []

                def work(order):
                    try:
                        results.extend((d, completeness_check(3, 2, d, exclude=exclude)) for d in order)
                    except Exception as exc:  # reported by the assertion below
                        errors.append(exc)

                orders = [random.Random(10 * trial + i).sample(degrees, len(degrees)) for i in range(6)]
                threads = [threading.Thread(target=work, args=(order,)) for order in orders]
                sys.setswitchinterval(1e-6)
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
                sys.setswitchinterval(interval)
                assert not any(thread.is_alive() for thread in threads) and errors == []
                assert len(results) == len(threads) * len(degrees)
                assert all(found == expected[d] for d, found in results)
                assert sorted(table.degree for table in spy.tables) == degrees
                record = kernel._decisions(generators(3, 2).without(*exclude), kernel._symmetry_runs(3, 2, frozenset(exclude)))
                assert record.items == items
        finally:
            sys.setswitchinterval(interval)
            clear_kernel_caches()

    @pytest.mark.parametrize("n, k, exclude", [(3, 2, ()), (4, 2, ("H2,3",)), (4, 1, ("J1,2",)), (3, 2, ("H1,1",))])
    def test_a_count_of_zero_means_no_product_in_any_order(self, spy, n, k, exclude):
        # a piece whose count is 0 reports span_dim 0 unranked, which is sound only while
        # the generators' part of the count holds every generator of degree <= the degree
        # counted; items only add sums to it. A table built up to a higher degree from the
        # generators of a lower one only would miss those between, as a draft of the
        # carried count did when verify --n 4 --k 2 --degree 2 printed span_dim=0 FAIL.
        # Single-degree certificates asked in shuffled orders in one interpreter report
        # what an ascending loop from empty caches reports, and every count they read holds
        # a sum in each representative piece that holds a product
        amb = Ambient(n, k)
        gens = generators(n, k).without(*exclude)
        stable = _stable_swaps(gens)
        degrees = list(range(8 if n == 3 else 6))
        ascending = [completeness_check(n, k, d, exclude=exclude) for d in degrees]
        for seed in range(3):
            clear_kernel_caches()
            spy.clear()
            order = random.Random(seed).sample(degrees, len(degrees))
            assert {d: completeness_check(n, k, d, exclude=exclude) for d in order} == dict(enumerate(ascending))
            assert sorted(table.degree for table in spy.tables) == degrees
            for table in spy.tables:
                packing = packing_for(amb, table.degree)
                for key in products_by_piece(gens, table.degree):
                    if all(key.block_degrees[i] <= key.block_degrees[i + 1] for i in stable):
                        assert any(s >> packing.shift == packing.grading(*key) for s in table.levels), (table.degree, key)
        if not exclude:  # the full family of 4 blocks is decided on the record of 3
            clear_kernel_caches()
            assert _verify_stdout("--n", "4", "--k", "2", "--degree", "1")[0] == 0
            assert _verify_stdout("--n", "4", "--k", "2", "--degree", "2") == (0, "degree 2: kernel_dim=26 span_dim=26 OK\nverify: all degrees complete\n")


class TestPolarization:
    def test_unions_of_whole_types_are_decided_on_k_plus_one_blocks(self, monkeypatch):
        # Weyl's polarization theorem, checked on its own: for every union of whole types
        # (4 subfamilies for k = 1, 16 for k = 2), degree d is complete on n >= k + 1
        # blocks exactly when it is on k + 1. Every side is decided on its own blocks, the
        # full family too, so the fast path does not check itself
        monkeypatch.setattr(kernel, "_base_complete", lambda k, degree: False)
        compared = 0
        for k, types, blocks, top in ((1, "xJ", range(3, 8), 6), (2, "xJHD", range(4, 7), 5)):
            for size in range(len(types) + 1):
                for kept in itertools.combinations(types, size):
                    for d in range(top + 1):
                        base = completeness_check(k + 1, k, d, exclude=_types_left_out(k + 1, k, kept)).complete
                        for n in blocks:
                            assert completeness_check(n, k, d, exclude=_types_left_out(n, k, kept)).complete == base, (n, k, d, kept)
                            compared += 1
        assert compared == 428
        # without D the family is complete in degree 4 but not in 3 or 5, at every n
        assert [completeness_check(5, 2, d, exclude=_types_left_out(5, 2, "xJH")).complete for d in (3, 4, 5)] == [False, True, False]

    def test_wide_full_family_ranks_only_k_plus_one_blocks(self, monkeypatch, spy):
        # verify --n 8 --k 2 --max-degree 8 counts least monomials, walks products,
        # expands and ranks on 3 blocks only, one table per degree, builds no 8-block
        # generator, and prints what deciding every 8-block piece printed. On 3 blocks
        # one piece is short, ((1, 1, 1), 2) in degree 3, and its rank certifies the rest
        ranked, built = [], []
        real_echelon, real_generators = kernel._echelon, kernel.generators

        def counting(rows, bound=None, limit=None):
            # the ranked piece is the piece last walked; its gradings are read off each
            # row as the elimination reads it
            n, degree, grading, _ = spy.walks[-1]
            packing = packing_for(Ambient(n, 2), degree)
            gradings = set()
            pivot_rows = real_echelon((gradings.update(mono >> packing.shift for mono in row) or row for row in rows), bound, limit)
            assert gradings == {grading}
            ranked.append(n)
            return pivot_rows

        monkeypatch.setattr(kernel, "_echelon", counting)
        monkeypatch.setattr(kernel, "generators", lambda n, k: built.append(n) or real_generators(n, k))
        assert _verify_stdout("--n", "8", "--k", "2", "--max-degree", "8") == (0, (GOLDEN_DIR / "verify_n8_k2_d8.txt").read_text())
        assert built and set(built) == {3}
        assert [(table.n, table.degree) for table in spy.tables] == [(3, d) for d in range(9)]
        # one walk per short piece, each of 3 blocks, and one elimination per walk
        requests = [(walk.n, walk.degree, walk.grading) for walk in spy.walks]
        assert requests and [n for n, _, _ in requests] == [3] * len(requests)
        assert requests == [(3, 3, packing_for(Ambient(3, 2), 3).grading((1, 1, 1), 2))]
        assert spy.labels_walked()
        assert ranked == [3] * len(requests)

    @pytest.mark.parametrize("golden, n, k, top", [("verify_n6_k1_d4.txt", 6, 1, 4), ("verify_n4_k1_d6.txt", 4, 1, 6)])
    def test_incomplete_base_decides_on_n_blocks(self, monkeypatch, spy, golden, n, k, top):
        # a base decision that reads incomplete sends the degree down the per-n path,
        # which counts the least monomials of n-block products, one table per degree,
        # and prints the frozen report; the full k = 1 family leaves no piece short, so
        # no products are listed
        monkeypatch.setattr(kernel, "_base_complete", lambda k, degree: False)
        argv = ("--n", str(n), "--k", str(k), "--max-degree", str(top), "--output", "machine")
        assert _verify_stdout(*argv) == (0, (GOLDEN_DIR / golden).read_text())
        assert [table.n for table in spy.tables] == [n] * (top + 1) and spy.walks == []

    @given(st.integers(1, 5), st.sampled_from([1, 2]), st.integers(0, 5), st.lists(st.integers(0, 60), unique=True, max_size=3))
    @example(5, 2, 5, [])
    @example(4, 2, 5, [15])  # without H2,3: short pieces in runs of one and two blocks
    @settings(max_examples=40, deadline=None)
    def test_totals_are_one_coefficient_less_the_short_orbits(self, n, k, degree, drop):
        # the kernel total is `kernel_dim`'s coefficient and the span total is it less
        # the short representatives' shortfalls, each weighed by its orbit's size; both
        # equal the sums over the representatives read back, on the polarized path and
        # with the base decision forced incomplete. Every report lists its
        # representatives only when they are read, and a polarized report's are the ones
        # its own n blocks decide piece by piece
        labels = generators(n, k).labels()
        exclude = sorted({labels[i % len(labels)] for i in drop})
        reports = []
        for forced in (False, True):
            with pytest.MonkeyPatch.context() as patch:
                if forced:
                    patch.setattr(kernel, "_base_complete", lambda k, degree: False)
                reports.append(rep := completeness_check(n, k, degree, exclude=exclude))
            assert "representatives" not in vars(rep)
            orbit = {piece.key: _orbit_size(piece.key.block_degrees, rep.runs) for piece in rep.representatives}
            assert rep.kernel_dim == sum(piece.kernel_dim * orbit[piece.key] for piece in rep.representatives) == kernel_dim(n, k, degree)
            assert rep.span_dim == sum(piece.span_dim * orbit[piece.key] for piece in rep.representatives)
            assert rep.complete == all(piece.span_dim == piece.kernel_dim for piece in rep.representatives)
            assert all(piece.span_dim <= piece.kernel_dim for piece in rep.representatives)
        assert reports[0].representatives == reports[1].representatives and reports[0] == reports[1]

    def test_wide_certificate_reuses_the_base_record(self, spy, capsys):
        # verify of 4 blocks decides each degree on the (3, 2) record; verify of 3 blocks
        # then reads that record, so each of its degrees is decided once in all, and no
        # table of 4 blocks is built
        assert cli.main(["verify", "--n", "4", "--k", "2", "--max-degree", "4"]) == 0
        assert cli.main(["verify", "--n", "3", "--k", "2", "--max-degree", "4"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[:5] == [f"degree {d}: kernel_dim={kernel_dim(4, 2, d)} span_dim={kernel_dim(4, 2, d)} OK" for d in range(5)]
        assert out[6:11] == [f"degree {d}: kernel_dim={kernel_dim(3, 2, d)} span_dim={kernel_dim(3, 2, d)} OK" for d in range(5)]
        assert [(table.n, table.degree) for table in spy.tables] == [(3, d) for d in range(5)]

    @pytest.mark.parametrize("n, k, top", [(4, 1, 5), (5, 1, 5), (6, 1, 5), (4, 2, 4), (5, 2, 4)])
    def test_machine_output_equals_the_per_n_path(self, n, k, top):
        argv = ("--n", str(n), "--k", str(k), "--max-degree", str(top), "--output", "machine")
        polarized = _verify_stdout(*argv)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(kernel, "_base_complete", lambda k, degree: False)
            assert _verify_stdout(*argv) == polarized


class TestExpress:
    def test_single_generator(self):
        gens = generators(2, 1)
        comb = express_in_generators(parse("x1*y2 - x2*y1", Ambient(2, 1)), gens)
        assert comb == {("J1,2",): 1}

    def test_sum_of_generator_products(self):
        gens = generators(2, 1)
        comb = express_in_generators(parse("x1^2 + x1*y2 - x2*y1", Ambient(2, 1)), gens)
        assert comb == {("x1", "x1"): 1, ("J1,2",): 1}

    def test_plucker_relation_collapses_to_zero(self):
        amb = Ambient(3, 1)
        gens = generators(3, 1)
        p = (
            parse("x1", amb) * parse("x2*y3 - x3*y2", amb)
            - parse("x2", amb) * parse("x1*y3 - x3*y1", amb)
            + parse("x3", amb) * parse("x1*y2 - x2*y1", amb)
        )
        assert p.is_zero
        assert express_in_generators(p, gens) == {}

    def test_not_in_kernel(self):
        with pytest.raises(NotInKernel):
            express_in_generators(parse("y1", Ambient(2, 1)), generators(2, 1))

    def test_not_in_span(self):
        gens = generators(1, 2).without("H1,1")
        with pytest.raises(NotInSpan):
            express_in_generators(parse("2*x1*z1 - y1^2", Ambient(1, 2)), gens)

    @pytest.mark.parametrize("text", ["CX", "CX*x1"])
    def test_covariant_input_is_not_in_span(self, text):
        with pytest.raises(NotInSpan, match="^polynomial involves covariant variables$"):
            express_in_generators(parse(text, Ambient(2, 1)), generators(2, 1))

    def test_mixed_degrees_are_rejected(self):
        with pytest.raises(NonHomogeneous, match="mixes total degrees"):
            express_in_generators(parse("x1 + x1*x2", Ambient(2, 1)), generators(2, 1))

    def test_rational_input(self):
        # rows with denominators are scaled to integers before elimination
        p = parse("1/2*x1*y2 - 1/2*x2*y1 + 2/3*x1^2", Ambient(2, 1))
        assert express_in_generators(p, generators(2, 1)) == {("x1", "x1"): Fraction(2, 3), ("J1,2",): Fraction(1, 2)}
        with pytest.raises(NotInSpan):
            express_in_generators(parse("1/2*x1*y2 - 1/2*x2*y1", Ambient(2, 1)), generators(2, 1).without("J1,2"))

    def test_generators_with_non_integral_coefficients(self):
        # a hand-built set whose generator a = x1/2 has a Fraction coefficient: each
        # product row is scaled to integers, the scale in its tag column, so the
        # combination reconstructs p and equals a Gauss-Jordan solve over Fraction
        amb = Ambient(2, 1)
        gens = GeneratorSet(2, 1, (("a", parse("1/2*x1", amb)), ("J", parse("x1*y2 - x2*y1", amb))))
        assert express_in_generators(parse("x1^2", amb), gens) == {("a", "a"): 4}
        assert express_in_generators(parse("x1^2 + 3*x1*y2 - 3*x2*y1", amb), gens) == {("a", "a"): 4, ("J",): 3}
        for text in ("x1^2 + 3*x1*y2 - 3*x2*y1", "2/3*x1^3 - 5*x1^2*y2 + 5*x1*x2*y1", "x1", "7/2*x2*y1 - 7/2*x1*y2"):
            p = parse(text, amb)
            degree = p.homogeneous_degree()
            products = [labels for labels, _ in _all_products(gens, degree)]
            columns = [evaluate_combination({labels: 1}, gens) for labels in products]
            reduced, pivots = fraction_rref(matrix_rows(columns + [p]), len(products))
            assert len(reduced) == len(pivots)
            combination = express_in_generators(p, gens)
            assert combination == {products[c]: row[len(products)] for row, c in zip(reduced, pivots) if len(products) in row}
            assert evaluate_combination(combination, gens) == p
        with pytest.raises(NotInSpan):
            express_in_generators(parse("x2", amb), gens)

    def test_piece_filter_matches_solve_over_all_products(self):
        # express solves only over the products in p's graded pieces; pieces
        # have disjoint monomial support, so an echelon solve over every
        # degree-d product must give exactly the same combination
        for n, k, top in ((2, 1, 4), (1, 2, 4), (3, 1, 3)):
            gens = generators(n, k)
            for d in range(top + 1):
                products = [labels for labels, _ in _all_products(gens, d)]
                columns = [evaluate_combination({labels: 1}, gens) for labels in products]
                rhs = len(products)
                for b in kernel_basis(n, k, d):
                    reduced, pivots = fraction_rref(matrix_rows(columns + [b]), rhs)
                    assert len(reduced) == len(pivots)
                    full = {products[c]: row[rhs] for row, c in zip(reduced, pivots) if rhs in row}
                    assert express_in_generators(b, gens) == full

    @given(st.sampled_from([(2, 1, 4), (1, 2, 4), (3, 1, 3), (2, 2, 3)]), st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_fraction_solve_with_generators_left_out(self, case, data):
        # without some generators a kernel element may lie outside the span:
        # express raises NotInSpan exactly when Gauss-Jordan over Fraction leaves
        # a row in the input's column, and otherwise gives the same combination
        n, k, top = case
        gens = generators(n, k)
        gens = gens.without(*data.draw(st.lists(st.sampled_from(gens.labels()), unique=True, max_size=2)))
        d = data.draw(st.integers(0, top))
        scale = data.draw(st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 9)))
        products = [labels for labels, _ in _all_products(gens, d)]
        columns = [evaluate_combination({labels: 1}, gens) for labels in products]
        rhs = len(products)
        for b in kernel_basis(n, k, d):
            p = b * scale
            reduced, pivots = fraction_rref(matrix_rows(columns + [p]), rhs)
            if len(reduced) > len(pivots):
                with pytest.raises(NotInSpan):
                    express_in_generators(p, gens)
            else:
                assert express_in_generators(p, gens) == {products[c]: row[rhs] for row, c in zip(reduced, pivots) if rhs in row}

    def test_round_trip_reconstruction(self):
        for n, k in ((2, 1), (1, 2)):
            gens = generators(n, k)
            for d in range(4):
                for b in kernel_basis(n, k, d):
                    comb = express_in_generators(b, gens)
                    assert evaluate_combination(comb, gens) == b

    @pytest.mark.parametrize(
        "n, k, degree, exclude, truncated",
        [
            (3, 2, 4, (), True),
            (3, 2, 5, (), True),
            (2, 1, 6, (), False),
            (4, 1, 4, (), True),
            (3, 2, 4, ("H1,1",), True),
            (4, 1, 5, ("J1,2",), True),
        ],
    )
    def test_each_piece_expands_the_prefix_that_reaches_kernel_dim(self, spy, n, k, degree, exclude, truncated):
        # p holds every product of the degree, so it lies in every piece that holds one.
        # Its first express builds each piece's basis once: exactly p's pieces are walked,
        # once each, and each piece expands, once each and in label order, the prefix of
        # its products that ends at the product bringing the rank to kernel_dim, or all
        # of them when the rank stays below it; a walk expands exactly the products it
        # yields, in the same order. The ranks of the
        # prefixes come from the Fraction oracle on plain Polynomial products. At (2, 1, 6)
        # every product is independent, so every piece expands all of its products
        gens = generators(n, k).without(*exclude)
        amb = Ambient(n, k)
        products = _all_products(gens, degree)
        p = evaluate_combination({labels: j + 1 for j, (labels, _) in enumerate(products)}, gens)
        values = defaultdict(list)
        for labels, key in products:
            value = Polynomial.one(amb)
            for label in labels:
                value = value * gens.value(label)
            values[key].append((labels, dict(value.items())))
        prefixes = {}
        for key, rows in values.items():
            kdim = _piece_kernel_dim(k, key)
            stop = next((i for i in range(1, len(rows) + 1) if sparse_rank(row for _, row in rows[:i]) == kdim), len(rows))
            prefixes[key] = [labels for labels, _ in rows[:stop]]
        assert any(len(prefix) < len(values[key]) for key, prefix in prefixes.items()) == truncated

        packing = packing_for(amb, degree)
        clear_kernel_caches()
        spy.clear()
        combination = express_in_generators(p, gens)
        expanded = spy.labels_walked()
        assert evaluate_combination(combination, gens) == p
        assert sorted(walk.grading for walk in spy.walks) == sorted(packing.grading(*key) for key in values)
        key_of = dict(products)
        by_piece = defaultdict(list)
        for labels in expanded:
            by_piece[key_of[labels]].append(labels)
        assert dict(by_piece) == {key: prefix for key, prefix in prefixes.items() if prefix}
        assert len(expanded) == sum(map(len, prefixes.values()))

    def test_second_express_into_the_same_pieces_reuses_their_bases(self, spy):
        # the bases are kept per label set and packing, so a second input in the same
        # pieces, or the same input again, lists and expands no product
        gens = generators(3, 2)
        amb = Ambient(3, 2)
        first = sum((b * (i + 1) for i, b in enumerate(kernel_basis(3, 2, 4))), Polynomial.zero(amb))
        second = sum((b * (i - 5) for i, b in enumerate(kernel_basis(3, 2, 4))), Polynomial.zero(amb))
        expected = express_in_generators(first, gens)
        assert spy.labels_walked()
        spy.clear()
        assert express_in_generators(first, gens) == expected
        combination = express_in_generators(second, gens)
        assert spy.walks == []
        assert evaluate_combination(combination, gens) == second

    def test_hand_built_sets_with_equal_labels_keep_their_own_bases(self):
        # two sets with the same labels hash alike but are not equal, so each gets its
        # own bases, in either order
        amb = Ambient(2, 1)
        j = parse("x1*y2 - x2*y1", amb)
        plain = GeneratorSet(2, 1, (("g", parse("x1", amb)), ("J", j)))
        doubled = GeneratorSet(2, 1, (("g", parse("2*x1", amb)), ("J", j)))
        assert hash(plain) == hash(doubled) and plain != doubled
        p = parse("x1^2 + x1*y2 - x2*y1", amb)
        for order in ((plain, doubled), (doubled, plain)):
            clear_kernel_caches()
            results = {gens: express_in_generators(p, gens) for gens in order}
            assert results[plain] == {("g", "g"): 1, ("J",): 1}
            assert results[doubled] == {("g", "g"): Fraction(1, 4), ("J",): 1}
            plain_bases, doubled_bases = kernel_tables(plain, 2).bases, kernel_tables(doubled, 2).bases
            assert plain_bases is not doubled_bases
            assert plain_bases.keys() == doubled_bases.keys()
            assert plain_bases != doubled_bases

    def test_hand_built_generator_outside_the_kernel(self):
        # a set holding a generator outside ker D is checked against D(p) first, and its
        # pieces are eliminated to the end: the product x1*y2 lies outside ker D, so it
        # does not stop the piece ((1, 1), 1) at its kernel_dim of 1, and J still joins
        amb = Ambient(2, 1)
        holding_y1 = GeneratorSet(2, 1, (("x1", parse("x1", amb)), ("y1", parse("y1", amb))))
        with pytest.raises(NotInKernel):
            express_in_generators(parse("y1", amb), holding_y1)
        assert express_in_generators(parse("x1^2", amb), holding_y1) == {("x1", "x1"): 1}
        j = parse("x1*y2 - x2*y1", amb)
        ahead = GeneratorSet(2, 1, (("a", parse("x1*y2", amb)), ("J", j)))
        assert express_in_generators(j, ahead) == {("J",): 1}
        with pytest.raises(NotInKernel):
            express_in_generators(parse("2*x1*y2 + x2*y1", amb), ahead)

    def test_only_the_built_in_family_skips_d_on_its_generators(self, monkeypatch):
        # a set made of the very polynomials generators(n, k) holds lies in ker D by the
        # closed forms (test_membership_up_to_n6), so no D is applied to its generators;
        # a pickled copy or a hand-built set, one under the family's labels included, is
        # checked with D on every generator. The decision is cached per set, and an equal
        # set reads it, so each set is asked with the cache empty
        family = generators(3, 2)
        amb = Ambient(3, 2)
        applied = []
        real_apply = WeitzenboeckDerivation.apply
        monkeypatch.setattr(WeitzenboeckDerivation, "apply", lambda self, p: applied.append(p) or real_apply(self, p))
        try:
            for members in (family, family.without("H1,1", "x2")):
                kernel._generators_in_kernel.cache_clear()
                assert kernel._generators_in_kernel(members)
            assert applied == []
            copied = pickle.loads(pickle.dumps(family))
            kernel._generators_in_kernel.cache_clear()
            assert copied == family and kernel._generators_in_kernel(copied)
            assert applied == [p for _, p in family]
            impostor = GeneratorSet(3, 2, (("x1", family.value("x1")), ("J1,2", parse("x1*y1", amb))))
            assert not kernel._generators_in_kernel(impostor)
            with pytest.raises(NotInKernel):
                express_in_generators(parse("y1", amb), impostor)
        finally:
            kernel._generators_in_kernel.cache_clear()

    @pytest.mark.parametrize("text", ["y1", "x1 + y1", "CX*y1", "x1*y2", "y1^2 + x1*y1"])
    def test_not_in_kernel_comes_before_every_other_error(self, text):
        # D(p) is computed only on the way to an error, and a nonzero one wins: a piece
        # with no kernel, mixed degrees, a covariant variable or a part outside the span
        with pytest.raises(NotInKernel, match=r"^D\(.*\) != 0$"):
            express_in_generators(parse(text, Ambient(2, 1)), generators(2, 1))

    def test_derivation_runs_only_when_no_combination_is_found(self, monkeypatch):
        gens = generators(2, 2)
        amb = Ambient(2, 2)
        express_in_generators(parse("x1", amb), gens)  # the set's own check, once
        applied = []
        real_apply = WeitzenboeckDerivation.apply
        monkeypatch.setattr(WeitzenboeckDerivation, "apply", lambda self, p: applied.append(p) or real_apply(self, p))
        found = parse("x1*z2 - y1*y2 + z1*x2 + x1^2", amb)
        assert express_in_generators(found, gens) == {("x1", "x1"): 1, ("H1,2",): 1}
        assert applied == []
        with pytest.raises(NotInSpan):
            express_in_generators(parse("CX*x1", amb), gens)
        assert applied == [parse("CX*x1", amb)]


# every ambient with n * (k + 1) <= 9 ring variables
SMALL_AMBIENTS = [(n, k) for n in range(1, 5) for k in range(1, 9) if n * (k + 1) <= 9]


def _census(n, k, max_degree):
    return {d: kernel_dim(n, k, d) for d in range(max_degree + 1)}


class TestCensus:
    def test_single_block_linear(self):
        assert _census(1, 1, 3) == {0: 1, 1: 1, 2: 1, 3: 1}

    def test_two_block_linear(self):
        assert _census(2, 1, 2) == {0: 1, 1: 2, 2: 4}

    def test_open_case_golden(self):
        golden = json.loads((GOLDEN_DIR / "census_n2_k3.json").read_text())
        computed = _census(golden["n"], golden["k"], max(map(int, golden["kernel_dims"])))
        assert computed == {int(d): dim for d, dim in golden["kernel_dims"].items()}

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_kernel_dim_is_the_composition_sum(self, k):
        # kernel_dim reads one coefficient of the monomial counts; the sum over every
        # composition of the degree of its pieces' kernel dims, read off the table of its
        # nonzero block degrees and written out here, agrees, and so does the
        # certificate's kernel total for k <= 2
        for n in range(1, 6):
            for d in range(6):
                tables = (kernel._kernel_dims(tuple(sorted(v for v in b if v)), k) for b in itertools.product(range(d + 1), repeat=n) if sum(b) == d)
                total = sum(map(sum, tables))
                assert kernel_dim(n, k, d) == total, (n, k, d)
                if k <= 2:
                    assert completeness_check(n, k, d).kernel_dim == total, (n, k, d)

    def test_census_reads_one_coefficient(self, monkeypatch, capsys):
        # census reads M(d, floor(k*d/2)) off one table of monomial counts: no table of
        # kernel dims or block counts, no orbit representative and no orbit size
        asked = []
        for name in ("_kernel_dims", "_block_weight_counts", "_representatives", "_orbit_size"):
            monkeypatch.setattr(kernel, name, lambda *args, name=name: asked.append(name))
        assert cli.main(["census", "--n", "6", "--k", "2", "--max-degree", "6"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 7
        assert asked == []

    @given(st.sampled_from(SMALL_AMBIENTS), st.integers(0, 6))
    @settings(max_examples=40, deadline=None)
    def test_kernel_dim_is_the_sum_over_pieces(self, ambient, degree):
        # the telescoped coefficient against the per-piece Cayley-Sylvester counts
        n, k = ambient
        assert kernel_dim(n, k, degree) == sum(_piece_kernel_dim(k, key) for key in piece_keys(n, k, degree))

    def test_closed_forms_past_the_old_recursion_limit(self):
        # one block at k = 1 is generated by x; at k = 2 by x and H1,1, one monomial
        # x^a H^c per a + 2c = d; in degree 1 only the n variables x_i lie in ker D.
        # Every small size, then a spread up to the largest
        for d in [*range(100), *range(100, 1000, 37), 1000]:
            assert kernel_dim(1, 1, d) == 1, d
            assert kernel_dim(1, 2, d) == d // 2 + 1, d
        for n in range(1, 1201):
            assert kernel_dim(n, 1, 1) == n, n
        for k in [*range(1, 200), *range(200, 1500, 53), 1500]:
            assert kernel_dim(1, k, 1) == 1, k

    def test_band_agrees_with_the_full_table(self):
        # kernel_dim keeps only the band of each degree's row that some level computes or
        # reads; the whole (d+1) x (top+1) table of M(j, w), every level added to every
        # entry, gives the same coefficient
        def full_table(n, k, d):
            top = k * d // 2
            counts = [[comb(n + j - 1, j)] + [0] * top for j in range(d + 1)]  # level 0
            for level in range(1, k + 1):
                for j in range(d, 0, -1):
                    for w in range(top, 0, -1):
                        counts[j][w] += sum(comb(n + i - 1, i) * counts[j - i][w - i * level] for i in range(1, min(j, w // level) + 1))
            return counts[d][top]

        for n in range(1, 5):
            for k in range(1, 8):
                for d in range(13):
                    assert kernel_dim(n, k, d) == full_table(n, k, d), (n, k, d)

    def test_open_case_matches_ungraded_oracle(self):
        assert kernel_dim(2, 3, 2) == ungraded_kernel_dimension(2, 3, 2)

    @pytest.mark.parametrize("call", [kernel_dim, kernel_basis])
    @pytest.mark.parametrize("n,k", [(0, 1), (2, -1), (1, 0)])
    def test_invalid_ambient_rejected(self, call, n, k):
        with pytest.raises(ValueError, match="n >= 1 and k >= 1"):
            call(n, k, 2)

    @given(st.sampled_from(SMALL_AMBIENTS), st.integers(0, 4))
    @settings(max_examples=25, deadline=None)
    def test_count_matches_elimination_and_oracle(self, ambient, degree):
        # the count decides verify's verdicts: an undercount would certify
        # completeness falsely, so check it against two elimination paths
        n, k = ambient
        amb = Ambient(n, k)
        deriv = WeitzenboeckDerivation(n, k)
        for key in piece_keys(n, k, degree):
            cols = graded_monomials(n, k, key)
            images = [dict(deriv.apply(Polynomial(amb, {m: 1})).items()) for m in cols]
            assert _piece_kernel_dim(k, key) == len(kernel_piece_basis(n, k, key)) == len(cols) - sparse_rank(images)
        assert kernel_dim(n, k, degree) == ungraded_kernel_dimension(n, k, degree)

    @given(st.lists(st.integers(0, 3), min_size=1, max_size=3), st.integers(1, 4), st.data())
    @settings(max_examples=40, deadline=None)
    def test_weight_table_matches_enumeration(self, block_degrees, k, data):
        # the count reads N(b, w) - N(b, w-1) from the table of b's sorted nonzero block
        # degrees; graded_monomials lists the monomials themselves, a path independent of
        # the table's recurrence. The key's premise: a permutation of b, or b with a zero
        # block added, has the same counts, so it reads the same table
        degrees = tuple(sorted(d for d in block_degrees if d))
        dims = kernel._kernel_dims(degrees, k)
        assert len(dims) == k * sum(degrees) // 2 + 1
        permuted = data.draw(st.permutations(block_degrees))
        zero_at = data.draw(st.integers(0, len(block_degrees)))
        for b in (tuple(block_degrees), tuple(permuted), (*permuted[:zero_at], 0, *permuted[zero_at:])):
            counts = [len(graded_monomials(len(b), k, GradedPieceKey(b, w))) for w in range(len(dims))]
            assert list(dims) == [here - below for below, here in zip([0, *counts], counts)], b
            assert [_piece_kernel_dim(k, GradedPieceKey(b, w)) for w in range(len(dims))] == list(dims)

    def test_dimensions_need_no_elimination(self, monkeypatch, capsys):
        def boom(*args, **kwargs):
            raise AssertionError("dimensions must not eliminate, apply D or list monomials")

        monkeypatch.setattr(kernel, "_echelon", boom)
        monkeypatch.setattr(WeitzenboeckDerivation, "apply", boom)
        monkeypatch.setattr(kernel, "graded_monomials", boom)
        assert kernel_dim(2, 3, 4) == 50
        assert kernel_dim(2, 3, 6) == 192
        assert cli.main(["census", "--n", "2", "--k", "3", "--max-degree", "4"]) == 0
        dims = [1, 2, 8, 20, 50]
        assert capsys.readouterr().out.splitlines() == [f"degree {d}: kernel_dim={dim}" for d, dim in enumerate(dims)]
        # with span ranks stubbed out, what remains of the certificate is the count
        monkeypatch.setattr(kernel, "_echelon", lambda rows, bound=None, limit=None: {})
        assert completeness_check(2, 2, 3).kernel_dim == kernel_dim(2, 2, 3) == 12


def _series(numerator, denominator, top):
    """Coefficients up to t^top of numerator / prod(1 - t^a s^b), as {(a, b): c}.

    `numerator` maps (t exponent, s exponent) to a coefficient, and
    `denominator` lists the (a, b) of each factor, a >= 1.
    """
    coeffs = dict(numerator)
    for a, b in denominator:
        out = defaultdict(int)
        for (i, j), c in coeffs.items():
            for r in range((top - i) // a + 1):
                out[i + r * a, j + r * b] += c
        coeffs = out
    return coeffs


def _degree_series(numerator, denominator, top):
    """Coefficients of t^0..t^top of a univariate series given as in `_series` with s unused."""
    coeffs = _series({(a, 0): c for a, c in numerator.items()}, [(a, 0) for a in denominator], top)
    return [coeffs.get((d, 0), 0) for d in range(top + 1)]


class TestClassicalHilbertSeries:
    """Kernel dimensions against Hilbert series from classical invariant theory.

    By Roberts' isomorphism, ker D for n chains of length k + 1 is the
    algebra of joint covariants of n binary forms of degree k, graded by
    degree; the piece (b, w) holds the covariants of order k|b| - 2w.  The
    series below are classical (Grace and Young, The Algebra of Invariants,
    1903; Sturmfels, Algorithms in Invariant Theory, 2nd ed., 2008) and no
    code in this package produced them.
    """

    TOP = 14

    def test_binary_cubic(self):
        # f, H, T, Delta in degrees 1, 2, 3, 4, with the one syzygy T^2 in degree 6
        expected = _degree_series({0: 1, 3: 1}, [1, 2, 4], self.TOP)
        assert [kernel_dim(1, 3, d) for d in range(self.TOP + 1)] == expected

    def test_binary_quartic(self):
        # f, H, i, T, j in degrees 1, 2, 2, 3, 3, with the one syzygy T^2 in degree 6
        expected = _degree_series({0: 1, 3: 1}, [1, 2, 2, 3], self.TOP)
        assert [kernel_dim(1, 4, d) for d in range(self.TOP + 1)] == expected

    def test_two_linear_forms(self):
        # the two forms in degree 1 and their joint invariant in degree 2
        expected = _degree_series({0: 1}, [1, 1, 2], self.TOP)
        assert [kernel_dim(2, 1, d) for d in range(self.TOP + 1)] == expected

    def test_binary_cubic_by_degree_and_order(self):
        # f = t s^3, H = t^2 s^2, Delta = t^4, and T = t^3 s^3 at most once (T^2 lies in the others)
        series = _series({(0, 0): 1, (3, 3): 1}, [(1, 3), (2, 2), (4, 0)], self.TOP)
        for d in range(self.TOP + 1):
            for w in range(3 * d + 1):
                order = 3 * d - 2 * w
                assert _piece_kernel_dim(3, GradedPieceKey((d,), w)) == series.get((d, order), 0), (d, w)
