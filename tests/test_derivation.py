import math
import random
from fractions import Fraction

import pytest

from conftest import product_family, products_by_piece, random_polynomial, random_rational
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
from weitzenboeck.poly import packing_for

D1 = WeitzenboeckDerivation(2, 1)
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

    def test_packed_generators(self):
        # the one table of each generator's degree and piece, read from its packed
        # terms, in label order; `homogeneous_degree` and `gradings` are the oracle
        gens = generators(2, 2)
        for degree in (1, 2, 3):
            packing = packing_for(Ambient(2, 2), degree)
            table = kernel._packed_generators(gens, degree)
            # a generator above the degree is in no product of it and is not packed
            assert [gen.label for gen in table] == [label for label, p in gens if p.homogeneous_degree() <= degree]
            for gen in table:
                p = gens.value(gen.label)
                assert gen.degree == p.homogeneous_degree()
                assert {packing.grading(*grading) for grading in p.gradings()} == {gen.grading}
                assert gen.terms == packing.pack_terms(p) and gen.lead == min(gen.terms)
                assert all(type(c) is int for c in gen.terms.values())
            # built once per set and degree, for an equal set too
            assert kernel._packed_generators(gens, degree) is table
            assert kernel._packed_generators(GeneratorSet(2, 2, gens.items), degree) is table
        subset = gens.without("x2", "H1,1")
        assert [gen.label for gen in kernel._packed_generators(subset, 2)] == subset.labels()

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
