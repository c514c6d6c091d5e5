import json
import random
from collections import defaultdict
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import fraction_rref, sparse_rank, ungraded_kernel_dimension
from weitzenboeck import (
    Ambient,
    GradedPieceKey,
    InvalidKey,
    NonHomogeneous,
    NotInKernel,
    NotInSpan,
    Polynomial,
    UnsupportedK,
    Variable,
    WeitzenboeckDerivation,
    completeness_check,
    evaluate_combination,
    express_in_generators,
    generator_products,
    generators,
    graded_monomials,
    kernel_basis,
    kernel_dim,
    kernel_piece_basis,
    parse,
    piece_keys,
)
from weitzenboeck import cli, kernel
from weitzenboeck.kernel import _echelon, _piece_kernel_dim, _rank, compositions, matrix_rows, nullspace
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


def test_negative_degree_is_rejected_before_orbits_are_built(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("orbit tables must not be built for a negative degree")

    monkeypatch.setattr(kernel, "_orbits", boom)
    with pytest.raises(ValueError, match="degree must be >= 0"):
        completeness_check(1, 1, -1)


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
    """Each row scaled by the lcm of its denominators: the integer rows `_rank` takes."""
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
        assert _rank(rows) == rank
        # the elimination stops at its limit, so a limit below the rank is returned
        assert _rank(rows, limit) == min(rank, limit)
        # rows scaled by multiples of the prime 2^61 - 1 keep their rank over Q,
        # which a rank modulo that prime would lose
        assert _rank([{c: v * PRIME * (i + 1) for c, v in row.items()} for i, row in enumerate(rows)]) == rank

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


def _expand(product, gens):
    return evaluate_combination({product.labels: 1}, gens)


class TestGeneratorProducts:
    def test_degree_two_products(self):
        gens = generators(2, 1)
        prods = generator_products(gens, 2)
        assert [p.labels for p in prods] == [("x1", "x1"), ("x1", "x2"), ("x2", "x2"), ("J1,2",)]
        assert [str(_expand(p, gens)) for p in prods] == ["x1^2", "x1*x2", "x2^2", "x1*y2 - x2*y1"]
        assert [p.key for p in prods] == [
            GradedPieceKey((2, 0), 0),
            GradedPieceKey((1, 1), 0),
            GradedPieceKey((0, 2), 0),
            GradedPieceKey((1, 1), 1),
        ]

    def test_degree_one_products(self):
        gens = generators(2, 1)
        prods = generator_products(gens, 1)
        assert [str(_expand(p, gens)) for p in prods] == ["x1", "x2"]

    def test_key_is_the_piece_of_the_expanded_product(self):
        # the key comes from label arithmetic alone; it must name the one
        # graded piece the expanded product lies in
        for n, k in ((1, 1), (2, 1), (3, 1), (1, 2), (2, 2), (3, 2)):
            full = generators(n, k)
            for gens in (full, full.without(full.labels()[0]), full.without(full.labels()[-1])):
                for d in range(5):
                    for pr in generator_products(gens, d):
                        ((bd, w, cov),) = _expand(pr, gens).gradings()
                        assert (GradedPieceKey(bd, w), cov) == (pr.key, 0)

    @given(st.integers(1, 4), st.sampled_from([1, 2]), st.integers(0, 6), st.data())
    @settings(max_examples=60, deadline=None)
    def test_pieces_prune_matches_filtered_enumeration(self, n, k, degree, data):
        # the pruned enumeration must keep exactly the products of the plain
        # one whose key lies in `pieces`, in the same order
        full = generators(n, k)
        exclude = data.draw(st.lists(st.sampled_from(full.labels()), unique=True, max_size=3))
        gens = full.without(*exclude)
        every = generator_products(gens, degree)
        reachable = sorted({pr.key for pr in every})
        candidates = piece_keys(n, k, degree) + piece_keys(n, k, degree + 1)  # reachable, unreachable and other-degree keys
        if degree:
            candidates += piece_keys(n, k, degree - 1)
        pieces = data.draw(st.sets(st.sampled_from(candidates), max_size=6))
        if reachable and data.draw(st.booleans()):
            # keys past every reachable component: each moves m units of one
            # component into its neighbour, which aliases a reachable key
            # under any packing whose fields hold m = 2^bits values
            top = max(max(*key.block_degrees, key.weight) for key in reachable)
            base = data.draw(st.sampled_from(reachable))
            comps = [*base.block_degrees, base.weight]
            for i in range(n):
                for m in range(1, 4 * top + 5):
                    for lo, hi in ((m, -1), (-m, 1)):
                        shifted = comps[:i] + [comps[i] + lo, comps[i + 1] + hi] + comps[i + 2 :]
                        pieces.add(GradedPieceKey(tuple(shifted[:n]), shifted[n]))
        assert generator_products(gens, degree, pieces) == [pr for pr in every if pr.key in pieces]
        assert generator_products(gens, degree, set()) == []
        assert generator_products(gens, degree, set(reachable)) == every

    def test_targets_that_pack_like_a_reachable_piece(self):
        # at k*degree = 3 the fields hold 2 bits, so (18, -15) with weight 3 packs
        # like the reachable (2, 1) with weight 0; its block sum is the degree
        # too, and only the sign of its blocks marks it unreachable
        packing = packing_for(Ambient(2, 1), 3)
        assert packing.grading((18, -15), 3) == packing.grading((2, 1), 0)
        gens = generators(2, 1)
        assert generator_products(gens, 3, {GradedPieceKey((18, -15), 3)}) == []
        assert [pr.labels for pr in generator_products(gens, 3, {GradedPieceKey((2, 1), 0)})] == [("x1", "x1", "x2")]

    def test_degree_four_multisets(self):
        prods = generator_products(generators(1, 2), 4)
        assert [p.labels for p in prods] == [
            ("x1", "x1", "x1", "x1"),
            ("x1", "x1", "H1,1"),
            ("H1,1", "H1,1"),
        ]

    def test_degree_zero(self):
        gens = generators(2, 1)
        prods = generator_products(gens, 0)
        assert len(prods) == 1 and prods[0].labels == () and _expand(prods[0], gens) == 1
        assert prods[0].key == GradedPieceKey((0, 0), 0)

    def test_monotone_consistency(self):
        gens = generators(2, 2)
        linear = [p for _, p in gens.items if p.total_degree() == 1]
        for d in (2, 3, 4):
            smaller = generator_products(gens, d - 1)
            larger = {_expand(pr, gens) for pr in generator_products(gens, d)}
            for pr in smaller:
                for g in linear:
                    assert _expand(pr, gens) * g in larger


class TestProductExpander:
    @given(st.sampled_from([(1, 1), (2, 1), (3, 1), (1, 2), (2, 2), (3, 2)]), st.data())
    @settings(max_examples=60, deadline=None)
    def test_equals_polynomial_products(self, nk, data):
        # the expander multiplies packed term maps; Polynomial.__mul__ is the reference
        n, k = nk
        gens = generators(n, k)
        rows = {row.label: row for row in gens.table}
        amb = Ambient(n, k)
        # k*D = 2^bits - 1 at D = 1, 3, 7, 15 for k = 1; at D >= 12 every multiset of up to 4 labels fits
        degree = data.draw(st.sampled_from([1, 3, 7, 12, 15]))
        packing = packing_for(amb, degree)
        expand = kernel._product_expander(gens, degree)
        for _ in range(3):
            labels = []
            for label in data.draw(st.lists(st.sampled_from(gens.labels()), max_size=4)):
                if sum(rows[lab].degree for lab in labels) + rows[label].degree <= degree:
                    labels.append(label)
            if data.draw(st.booleans()):  # fill up to the bound with x1
                labels += ["x1"] * (degree - sum(rows[lab].degree for lab in labels))
            labels = tuple(labels)
            # the piece the labels name, packed: factors' pieces add up
            blocks = [sum(rows[lab].block_degrees[i] for lab in labels) for i in range(n)]
            piece = packing.grading(blocks, sum(rows[lab].weight for lab in labels))
            expected = Polynomial.one(amb)
            for label in labels:
                expected = expected * gens.value(label)
            terms = expand(labels)
            assert Polynomial(amb, packing.unpack_terms(terms)) == expected
            assert packing.unpack_terms(terms) == dict(expected.items())
            assert all(type(c) is int for c in terms.values())
            assert expand(labels) == terms  # again, from the memoised prefix
            for mono in terms:
                exps = packing.unpack(mono)
                assert mono >> packing.shift == packing.grading(amb.block_degrees(exps), amb.weight(exps)) == piece

    def test_products_at_the_degree_bound(self):
        # D = 7 gives 3-bit fields: x1^7 fills its exponent field, the others reach D with J factors
        gens = generators(2, 1)
        expand = kernel._product_expander(gens, 7)
        packing = packing_for(Ambient(2, 1), 7)
        for labels in (("x1",) * 7, ("x1", "J1,2", "J1,2", "J1,2"), ("x2",) * 3 + ("J1,2",) * 2):
            expected = Polynomial.one(Ambient(2, 1))
            for label in labels:
                expected = expected * gens.value(label)
            assert packing.unpack_terms(expand(labels)) == dict(expected.items())

    def test_over_the_bound_raises(self):
        expand = kernel._product_expander(generators(2, 1), 3)
        assert expand(("x1", "J1,2"))
        with pytest.raises(ValueError, match="exceeds the expander's degree bound 3"):
            expand(("x1", "x1", "J1,2"))
        with pytest.raises(ValueError):
            kernel._product_expander(generators(2, 2), 1)(("H1,1",))

    def test_unknown_label(self):
        with pytest.raises(KeyError):
            kernel._product_expander(generators(2, 1), 3)(("x1", "H1,1"))


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
        for pr in generator_products(gens, degree):
            value = Polynomial.one(amb)
            for label in pr.labels:
                value = value * gens.value(label)
            by_piece[pr.key].append(value)
        rep = completeness_check(n, k, degree, exclude=exclude)
        assert [piece.key for piece in rep.per_piece] == [key for key in piece_keys(n, k, degree) if _piece_kernel_dim(n, k, key)]
        for piece in rep.per_piece:
            assert piece.kernel_dim == _piece_kernel_dim(n, k, piece.key)
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

    @pytest.mark.parametrize("n, k, degree, exclude", [(3, 2, 4, ()), (4, 1, 5, ("J1,2",)), (3, 1, 4, ("x1", "x3"))])
    def test_ranks_each_piece_that_holds_products_once(self, monkeypatch, n, k, degree, exclude):
        # only representative pieces (block degrees non-increasing within each run
        # of stable swaps, found by brute force) are expanded, each ranked once;
        # pieces without products report span_dim 0 with no elimination. With no
        # stable swap, as for (3, 1, 4) without x1 and x3, every piece is its own
        # representative and every piece that holds products is ranked
        gens = generators(n, k).without(*exclude)
        stable = _stable_swaps(gens)

        def representative(block_degrees):
            return all(block_degrees[i] >= block_degrees[i + 1] for i in stable)

        label_key = {pr.labels: pr.key for pr in generator_products(gens, degree)}
        assert bool(stable) == (exclude != ("x1", "x3"))
        calls, expanded = [], []
        real_rank, real_expander = kernel._rank, kernel._product_expander

        def counting(rows, limit=None):
            calls.append(len(rows))
            return real_rank(rows, limit)

        def recording(gens, degree):
            expand = real_expander(gens, degree)
            return lambda labels: expanded.append(labels) or expand(labels)

        monkeypatch.setattr(kernel, "_rank", counting)
        monkeypatch.setattr(kernel, "_product_expander", recording)
        rep = completeness_check(n, k, degree, exclude=exclude)
        keys = {key for key in label_key.values() if representative(key.block_degrees)}
        if not stable:
            assert keys == set(label_key.values())
        assert len(calls) == len(keys) and 0 not in calls
        assert {label_key[labels] for labels in expanded} == keys
        spanning = {piece.key for piece in rep.per_piece if piece.span_dim}
        assert {key for key in spanning if representative(key.block_degrees)} <= keys

    @pytest.mark.parametrize(
        "n, k, exclude, runs",
        [
            (4, 2, (), ((0, 4),)),
            (4, 1, ("J1,2",), ((0, 2), (2, 4))),
            (4, 2, ("H2,3",), ((0, 1), (1, 3), (3, 4))),
            (3, 1, ("x1", "x3"), ((0, 1), (1, 2), (2, 3))),
            (1, 2, (), ((0, 1),)),
        ],
    )
    def test_symmetry_runs(self, n, k, exclude, runs):
        # dropping J1,2 keeps the swaps (1 2) and (3 4); dropping H2,3 keeps only (2 3)
        assert kernel._symmetry_runs(n, k, tuple(generators(n, k).without(*exclude).labels())) == runs

    @given(st.integers(1, 4), st.sampled_from([1, 2]), st.data())
    @settings(max_examples=60, deadline=None)
    def test_symmetry_runs_match_brute_force(self, n, k, data):
        full = generators(n, k)
        exclude = data.draw(st.lists(st.sampled_from(full.labels()), unique=True))
        gens = full.without(*exclude)
        runs = kernel._symmetry_runs(n, k, tuple(gens.labels()))
        assert [start for start, _ in runs] == [0] + [stop for _, stop in runs[:-1]] and runs[-1][1] == n
        detected = {i for start, stop in runs for i in range(start, stop - 1)}
        assert detected == _stable_swaps(gens)

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

    def test_products_are_checked_against_their_piece(self, monkeypatch):
        # an expansion that leaves the piece its labels name is an error, not a rank
        real = kernel._product_expander
        stray = packing_for(Ambient(2, 1), 2).pack(parse("x1*x2", Ambient(2, 1)).terms()[0][0])

        def skewed(gens, degree):
            expand = real(gens, degree)
            return lambda labels: {**expand(labels), stray: 1} if labels == ("J1,2",) else expand(labels)

        monkeypatch.setattr(kernel, "_product_expander", skewed)
        with pytest.raises(NonHomogeneous, match=r"\('J1,2',\) lies outside piece"):
            completeness_check(2, 1, 2)
        monkeypatch.setattr(kernel, "_product_expander", real)
        assert completeness_check(2, 1, 2).complete

    def test_serialization_fields(self):
        doc = completeness_check(2, 1, 2).to_dict()
        assert set(doc) == {"n", "k", "degree", "kernel_dim", "span_dim", "complete", "per_piece"}
        assert set(doc["per_piece"][0]) == {"block_degrees", "weight", "kernel_dim", "span_dim"}
        json.dumps(doc)  # machine format must be JSON-ready


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

    def test_rational_input(self):
        # rows with denominators are scaled to integers before elimination
        p = parse("1/2*x1*y2 - 1/2*x2*y1 + 2/3*x1^2", Ambient(2, 1))
        assert express_in_generators(p, generators(2, 1)) == {("x1", "x1"): Fraction(2, 3), ("J1,2",): Fraction(1, 2)}
        with pytest.raises(NotInSpan):
            express_in_generators(parse("1/2*x1*y2 - 1/2*x2*y1", Ambient(2, 1)), generators(2, 1).without("J1,2"))

    def test_piece_filter_matches_solve_over_all_products(self):
        # express solves only over the products in p's graded pieces; pieces
        # have disjoint monomial support, so an echelon solve over every
        # degree-d product must give exactly the same combination
        for n, k, top in ((2, 1, 4), (1, 2, 4), (3, 1, 3)):
            gens = generators(n, k)
            for d in range(top + 1):
                products = [pr.labels for pr in generator_products(gens, d)]
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
        products = [pr.labels for pr in generator_products(gens, d)]
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
            assert _piece_kernel_dim(n, k, key) == len(kernel_piece_basis(n, k, key)) == len(cols) - sparse_rank(images)
        assert kernel_dim(n, k, degree) == ungraded_kernel_dimension(n, k, degree)

    @given(st.lists(st.integers(0, 3), min_size=1, max_size=3), st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_weight_table_matches_enumeration(self, block_degrees, k):
        # the count reads N(b, w) from the table; graded_monomials lists the
        # monomials themselves, a path independent of the table's recurrence
        b = tuple(block_degrees)
        top = k * sum(b)
        counts = kernel._weight_counts(b, k)
        assert list(counts) == [len(graded_monomials(len(b), k, GradedPieceKey(b, w))) for w in range(top + 1)]

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
        monkeypatch.setattr(kernel, "_rank", lambda rows, limit=None: 0)
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
                assert _piece_kernel_dim(1, 3, GradedPieceKey((d,), w)) == series.get((d, order), 0), (d, w)
