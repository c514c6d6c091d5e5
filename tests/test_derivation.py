import itertools
import math
import os
import pickle
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import kernel_tables, product_family, products_by_piece, random_polynomial, random_rational
from weitzenboeck import (
    Ambient,
    AmbientMismatch,
    GeneratorSet,
    GradedPieceKey,
    NonHomogeneous,
    Polynomial,
    UnsupportedK,
    WeitzenboeckDerivation,
    express_in_generators,
    generators,
    parse,
    ring_var,
)
from weitzenboeck import kernel
from weitzenboeck.poly import packing_for, x, y, z

D1 = WeitzenboeckDerivation(2, 1)


def constructor_family(n, k):
    """The k = 1 or k = 2 family's closed forms as (label, polynomial) pairs, each built by the checking constructor."""
    amb = Ambient(n, k)

    def mono(*variables):
        exps = [0] * amb.width
        for v in variables:
            exps[amb.index(v)] += 1
        return tuple(exps)

    blocks = range(1, n + 1)
    items = [(f"x{i}", Polynomial(amb, {mono(x(i)): 1})) for i in blocks]
    items += [(f"J{i},{j}", Polynomial(amb, [(mono(x(i), y(j)), 1), (mono(x(j), y(i)), -1)])) for i, j in itertools.combinations(blocks, 2)]
    if k == 2:
        for i, j in itertools.combinations_with_replacement(blocks, 2):
            # at i = j the constructor adds the two x_i*z_i terms
            items.append((f"H{i},{j}", Polynomial(amb, [(mono(x(i), z(j)), 1), (mono(y(i), y(j)), -1), (mono(z(i), x(j)), 1)])))
        for i, j, l in itertools.combinations(blocks, 3):
            terms = [(mono(x(a), y(b), z(c)), (-1) ** ((a > b) + (a > c) + (b > c))) for a, b, c in itertools.permutations((i, j, l))]
            items.append((f"D{i},{j},{l}", Polynomial(amb, terms)))
    return items
A21 = Ambient(2, 1)
A12 = Ambient(1, 2)


class TestApply:
    def test_kills_bottom_layer(self):
        assert D1.apply(parse("x1", A21)).is_zero

    def test_leibniz_on_square(self):
        assert D1.apply(parse("y1^2", A21)) == parse("2*x1*y1", A21)

    def test_quadratic_chain_invariant(self):
        deriv = WeitzenboeckDerivation(2, 2)
        h12 = parse("x1*z2 - y1*y2 + z1*x2", Ambient(2, 2))
        assert deriv.apply(h12).is_zero

    def test_annihilates_covariant_variables(self):
        assert D1.apply(parse("x1*CX^2", A21)).is_zero
        assert D1.apply(parse("y1*CX", A21)) == parse("x1*CX", A21)

    def test_ambient_mismatch(self):
        with pytest.raises(AmbientMismatch):
            D1.apply(parse("x1", A12))

    def test_integer_polynomial_gives_int_coefficients(self):
        amb = Ambient(3, 2)
        image = WeitzenboeckDerivation(3, 2).apply(parse("3*z1*z2^2 - 5*x1*y3*z2 + 7*y1^4", amb))
        assert image and all(type(c) is int for _, c in image.items())
        # 1/2*y1^2 maps to x1*y1: an integral result of Fraction arithmetic is an int
        assert [type(c) for _, c in D1.apply(parse("1/2*y1^2 + 1/3*y2", A21)).terms()] == [int, Fraction]


class TestKernelMembership:
    def test_jacobian_in_kernel(self):
        assert D1.is_in_kernel(parse("x1*y2 - x2*y1", A21))

    def test_y_not_in_kernel(self):
        assert not D1.is_in_kernel(parse("y1", A21))

    def test_triple_determinant_in_kernel(self):
        # oracle: expand the 3x3 determinant by cofactors, independently of
        # the generator builder, and push the derivation through term by term
        amb = Ambient(3, 2)

        def v(i, j):
            return Polynomial.variable(amb, ring_var(i, j))

        cols = [1, 2, 3]
        det = Polynomial.zero(amb)
        for pos, i in enumerate(cols):
            rest = [c for c in cols if c != i]
            minor = v(rest[0], 1) * v(rest[1], 2) - v(rest[1], 1) * v(rest[0], 2)
            det = det + (-1) ** pos * v(i, 0) * minor
        deriv = WeitzenboeckDerivation(3, 2)
        assert deriv.is_in_kernel(det)
        assert det == generators(3, 2).value("D1,2,3")


class TestNilpotency:
    def test_zero(self):
        assert D1.nilpotency_index(Polynomial.zero(A21)) == 0

    def test_one_step(self):
        assert D1.nilpotency_index(parse("y1", A21)) == 2

    def test_two_steps(self):
        assert WeitzenboeckDerivation(1, 2).nilpotency_index(parse("z1", A12)) == 3

    def test_variable_indices_exact(self):
        deriv = WeitzenboeckDerivation(2, 3)
        amb = Ambient(2, 3)
        for i in (1, 2):
            for j in range(4):
                p = Polynomial.variable(amb, ring_var(i, j))
                assert deriv.nilpotency_index(p) == j + 1

    def test_weight_bound(self):
        rng = random.Random(3)
        for _ in range(100):
            n, k = rng.randint(1, 3), rng.randint(1, 3)
            deriv = WeitzenboeckDerivation(n, k)
            p = random_polynomial(rng, Ambient(n, k), covariants=True)
            if p.is_zero:
                continue
            max_weight = max(w for _, w, _ in p.gradings())
            assert deriv.nilpotency_index(p) <= max_weight + 1


def test_leibniz_rule_on_random_pairs():
    rng = random.Random(20260811)
    for _ in range(500):
        n, k = rng.randint(1, 3), rng.randint(1, 3)
        deriv = WeitzenboeckDerivation(n, k)
        amb = Ambient(n, k)
        p = random_polynomial(rng, amb)
        q = random_polynomial(rng, amb)
        assert deriv.apply(p * q) == deriv.apply(p) * q + p * deriv.apply(q)


def test_linearity_on_random_pairs():
    rng = random.Random(17)
    for _ in range(200):
        n, k = rng.randint(1, 3), rng.randint(1, 2)
        deriv = WeitzenboeckDerivation(n, k)
        amb = Ambient(n, k)
        p = random_polynomial(rng, amb, covariants=True)
        q = random_polynomial(rng, amb, covariants=True)
        a, b = random_rational(rng), random_rational(rng)
        assert deriv.apply(a * p + b * q) == a * deriv.apply(p) + b * deriv.apply(q)


class TestGenerators:
    def test_linear_family(self):
        gens = generators(2, 1)
        assert [label for label, _ in gens] == ["x1", "x2", "J1,2"]
        assert str(gens.value("J1,2")) == "x1*y2 - x2*y1"

    def test_single_block_quadratic_family(self):
        gens = generators(1, 2)
        assert [label for label, _ in gens] == ["x1", "H1,1"]
        assert str(gens.value("H1,1")) == "2*x1*z1 - y1^2"

    def test_counts(self):
        assert len(generators(3, 2)) == 3 + 3 + 6 + 1
        for n in range(1, 7):
            assert len(generators(n, 1)) == n + math.comb(n, 2)
            assert len(generators(n, 2)) == n + math.comb(n, 2) + math.comb(n + 1, 2) + math.comb(n, 3)

    def test_label_order_deterministic(self):
        labels = generators(3, 2).labels()
        assert labels == [
            "x1", "x2", "x3",
            "J1,2", "J1,3", "J2,3",
            "H1,1", "H1,2", "H1,3", "H2,2", "H2,3", "H3,3",
            "D1,2,3",
        ]

    @pytest.mark.parametrize("k", [1, 2])
    def test_closed_forms_match_polynomial_products(self, k):
        # the family is written term by term; the oracle builds it with Polynomial
        # products and differences: same labels in the same order, equal polynomials,
        # every coefficient an int
        for n in range(1, 7):
            family = list(generators(n, k))
            expected = product_family(n, k)
            assert [label for label, _ in family] == [label for label, _ in expected]
            for (label, p), (_, q) in zip(family, expected):
                assert p == q, label
                assert all(type(c) is int for _, c in p.items()), label

    @pytest.mark.parametrize("k", [1, 2])
    def test_closed_forms_match_the_checking_constructor(self, k):
        # the family's terms are wrapped unchecked; the checking constructor, given the
        # same closed forms with repeated monomials to add, builds the same term maps
        for n in range(1, 7):
            family = generators.__wrapped__(n, k)
            expected = constructor_family(n, k)
            assert family.labels() == [label for label, _ in expected]
            for (label, p), (_, q) in zip(family, expected):
                assert p.ambient == q.ambient and dict(p.items()) == dict(q.items()), label
                assert all(type(c) is int and c for _, c in p.items()), label

    def test_family_is_built_without_polynomial_arithmetic(self, monkeypatch):
        calls = []
        for name in ("__mul__", "__rmul__", "__add__", "__sub__", "__neg__"):
            real = getattr(Polynomial, name)
            monkeypatch.setattr(Polynomial, name, lambda *args, real=real, name=name: calls.append(name) or real(*args))
        gens = generators.__wrapped__(5, 2)  # built afresh, past the cache
        assert len(gens) == 5 + 10 + 15 + 10 and calls == []
        assert Polynomial.variable(A21, ring_var(1, 0)) * 2 is not None and calls == ["__mul__"]  # the spy counts

    def test_membership_up_to_n6(self):
        for k in (1, 2):
            for n in range(1, 7):
                deriv = WeitzenboeckDerivation(n, k)
                for label, p in generators(n, k):
                    assert deriv.is_in_kernel(p), label

    def test_unsupported_k(self):
        with pytest.raises(UnsupportedK):
            generators(2, 3)
        with pytest.raises(ValueError):
            generators(0, 1)

    def test_without(self):
        gens = generators(1, 2)
        assert generators(1, 2) is gens  # built once per (n, k)
        assert gens.without("H1,1").labels() == ["x1"]
        assert str(gens.without("x1").value("H1,1")) == "2*x1*z1 - y1^2"
        with pytest.raises(KeyError):
            gens.without("H1,1").value("H1,1")
        with pytest.raises(KeyError):
            gens.without("H9,9")

    def test_equal_sets_hash_equal_and_share_cache_entries(self):
        # the hash is taken once, at construction, from n, k and the labels; a set built
        # apart from polynomials built apart is equal, hashes equal and reads the same
        # cached tables and records: packed rows, walk views and decisions
        first = generators(3, 2).without("H1,1")
        amb = Ambient(3, 2)
        second = GeneratorSet(3, 2, tuple((label, parse(str(p), amb)) for label, p in first))
        assert second is not first and second == first and hash(second) == hash(first)
        assert vars(second)["_hash"] == hash(first) == hash((3, 2, tuple(first.labels())))
        runs = kernel._symmetry_runs(3, 2, frozenset({"H1,1"}))
        for degree in (2, 5):
            tables = kernel_tables(first, degree)
            assert kernel_tables(second, degree) is tables
            rows = tables.generators(degree)
            assert all(a is b for a, b in zip(kernel_tables(second, degree).generators(degree), rows, strict=True))
            assert kernel_tables(second, degree).walk(degree) is tables.walk(degree)
            assert kernel._decisions(second, runs) is kernel._decisions(first, runs)
        # the same labels with other polynomials hash alike but are another key
        other = GeneratorSet(3, 2, tuple((label, -p) for label, p in first))
        assert hash(other) == hash(first) and other != first
        assert kernel_tables(other, 2) is not kernel_tables(first, 2)

    def test_set_pickled_under_another_hash_seed_hashes_as_here(self):
        # the stored hash of str labels depends on the interpreter's hash seed, so a set
        # pickled by another interpreter is rebuilt here and hashes as an equal set here
        src = Path(__file__).parents[1] / "src"
        script = "import pickle, sys; from weitzenboeck import generators; sys.stdout.buffer.write(pickle.dumps(generators(2, 1)))"
        env = {**os.environ, "PYTHONPATH": str(src)}
        dumps = [subprocess.run([sys.executable, "-c", script], env={**env, "PYTHONHASHSEED": seed}, capture_output=True, check=True).stdout for seed in ("1", "2")]
        for data in dumps:
            loaded = pickle.loads(data)
            assert loaded == generators(2, 1) and hash(loaded) == hash(generators(2, 1))

    def test_packed_generators(self):
        # the one table of each generator's degree and piece, read from its packed
        # terms, in label order; `homogeneous_degree` and `gradings` are the oracle
        gens = generators(2, 2)
        for degree in (1, 2, 3):
            packing = packing_for(Ambient(2, 2), degree)
            table = kernel_tables(gens, degree).generators(degree)
            # a generator above the degree is in no product of it and is not packed
            assert [gen.label for gen in table] == [label for label, p in gens if p.homogeneous_degree() <= degree]
            for gen in table:
                p = gens.value(gen.label)
                assert gen.degree == p.homogeneous_degree()
                assert {packing.grading(*grading) for grading in p.gradings()} == {gen.grading}
                assert gen.terms == packing.pack_terms(p) and gen.lead == min(gen.terms)
                assert all(type(c) is int for c in gen.terms.values())
            # each row is packed once per set and packing, and read by an equal set too
            for again in (kernel_tables(gens, degree).generators(degree), kernel_tables(GeneratorSet(2, 2, gens.items), degree).generators(degree)):
                assert all(a is b for a, b in zip(again, table, strict=True))
        subset = gens.without("x2", "H1,1")
        assert [gen.label for gen in kernel_tables(subset, 2).generators(2)] == subset.labels()

    @pytest.mark.parametrize(
        "text, reason",
        [
            ("0", "is zero"),
            ("x1 + y1", "spans several graded pieces"),
            ("x1 + x1*x2", "mixes total degrees"),
            ("x1*CX", "involves covariant variables"),
            # a constant would be a factor of products of every degree, any number of
            # times, and has no lowest nonzero block to stage the least-monomial table by
            ("3", "is a constant"),
        ],
    )
    def test_invalid_generator_is_named(self, text, reason):
        gens = GeneratorSet(2, 1, (("x1", parse("x1", A21)), ("bad", parse(text, A21))))
        with pytest.raises(NonHomogeneous, match=f"generator bad {reason}"):
            products_by_piece(gens, 2)
        with pytest.raises(NonHomogeneous, match=f"generator bad {reason}"):
            express_in_generators(parse("x1^2", A21), gens)

    @pytest.mark.parametrize(
        "text, reason, named_from",
        [
            ("x1*y2*CX", r"involves covariant variables: x1\*y2\*CX", 3),
            ("x1*x2 + x1*y1", r"spans several graded pieces: x1\*y1 \+ x1\*x2", 2),
            ("0", "is zero", 0),
            ("x1 + x1*x2", "mixes total degrees", 0),
            ("3", "is a constant", 0),
        ],
        ids=["covariant", "several-pieces", "zero", "mixed-degrees", "constant"],
    )
    def test_generator_is_named_from_the_first_degree_that_reads_it(self, text, reason, named_from):
        # a generator's piece is read from its packed terms, which are packed only for a
        # degree that can hold it: below its own degree it is in no product. Its degree is
        # read at every degree, so a zero, constant or mixed-degree generator is named at all
        gens = GeneratorSet(2, 1, (("x1", parse("x1", A21)), ("bad", parse(text, A21))))
        for degree in range(named_from):
            assert products_by_piece(gens, degree) == {GradedPieceKey((degree, 0), 0): [("x1",) * degree]}
        for degree in (named_from, named_from + 1):
            with pytest.raises(NonHomogeneous, match=f"generator bad {reason}"):
                products_by_piece(gens, degree)


def test_kernel_is_a_subalgebra():
    rng = random.Random(5)
    for n, k in ((2, 1), (3, 1), (2, 2)):
        deriv = WeitzenboeckDerivation(n, k)
        gens = generators(n, k)
        polys = [p for _, p in gens]
        for _ in range(50):
            a = random_rational(rng) * rng.choice(polys) * rng.choice(polys)
            b = random_rational(rng) * rng.choice(polys) * rng.choice(polys)
            assert deriv.is_in_kernel(a + b)
            assert deriv.is_in_kernel(a * b)
