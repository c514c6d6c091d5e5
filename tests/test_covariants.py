import itertools
import random

import pytest

from conftest import products_by_piece, random_covariant_polynomial, random_rational
from weitzenboeck import (
    Ambient,
    Covariant,
    IndexOutOfRange,
    NegativeOrder,
    NonHomogeneousOrder,
    WeitzenboeckDerivation,
    evaluate_combination,
    generators,
    jacobian,
    linear_form,
    parse,
    tau,
    transvectant,
)


class TestLinearForm:
    def test_first(self):
        f = linear_form(1, 2)
        assert str(f.value) == "x1*CX + y1*CY"
        assert f.order == 1

    def test_boundary(self):
        assert str(linear_form(4, 4).value) == "x4*CX + y4*CY"

    def test_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            linear_form(0, 2)
        with pytest.raises(IndexOutOfRange):
            linear_form(3, 2)


class TestCovariantType:
    def test_order_derived(self):
        amb = Ambient(2, 1)
        assert Covariant.from_polynomial(parse("x1*CX^2 + y2*CX*CY", amb)).order == 2
        assert Covariant.from_polynomial(parse("x1*y2", amb)).order == 0
        assert Covariant.from_polynomial(parse("0", amb)).order == 0

    def test_mixed_order_rejected(self):
        amb = Ambient(2, 1)
        with pytest.raises(NonHomogeneousOrder):
            Covariant.from_polynomial(parse("x1*CX + y1", amb))
        with pytest.raises(NonHomogeneousOrder):
            Covariant(parse("x1*CX + y1", amb), 1)
        with pytest.raises(NonHomogeneousOrder, match="term of covariant degree 2 in a covariant of order 1"):
            Covariant(value=parse("x1*CX^2", amb), order=1)

    def test_product_orders_add(self):
        f1, f2 = linear_form(1, 2), linear_form(2, 2)
        assert (f1 * f2).order == 2
        assert (3 * f1).order == 1

    def test_difference_and_text(self):
        f1, f2 = linear_form(1, 2), linear_form(2, 2)
        diff = f1 - f2
        assert diff.order == 1
        assert str(diff) == str(diff.value) == "x1*CX + y1*CY - x2*CX - y2*CY"
        assert (f1 - f1).value.is_zero
        assert f1.__sub__(f1.value) is NotImplemented


class TestTransvectant:
    def test_order_zero_is_product(self):
        f1, f2 = linear_form(1, 2), linear_form(2, 2)
        assert transvectant(f1, f2, 0).value == f1.value * f2.value

    def test_first_transvectant_is_determinant(self):
        f1, f2 = linear_form(1, 2), linear_form(2, 2)
        t = transvectant(f1, f2, 1)
        assert t.value == parse("x1*y2 - x2*y1", Ambient(2, 1))
        assert t.order == 0

    def test_linear_forms_vanish_above_one(self):
        for n in range(1, 7):
            forms = [linear_form(i, n) for i in range(1, n + 1)]
            for u, v in itertools.product(forms, repeat=2):
                for r in (2, 3, 4):
                    assert transvectant(u, v, r).is_zero

    def test_negative_order(self):
        f1 = linear_form(1, 2)
        with pytest.raises(NegativeOrder):
            transvectant(f1, f1, -1)

    def test_resulting_order(self):
        f1, f2 = linear_form(1, 2), linear_form(2, 2)
        t = transvectant(f1 * f1, f2 * f2, 1)
        assert not t.is_zero
        assert t.order == 2  # 2 + 2 - 2*1

    def test_sign_symmetry_random(self):
        rng = random.Random(23)
        for _ in range(200):
            amb = Ambient(rng.randint(1, 3), 1)
            u = Covariant.from_polynomial(random_covariant_polynomial(rng, amb, rng.randint(0, 3)))
            v = Covariant.from_polynomial(random_covariant_polynomial(rng, amb, rng.randint(0, 3)))
            r = rng.randint(0, 3)
            assert transvectant(u, v, r).value == (-1) ** r * transvectant(v, u, r).value

    def test_bilinearity(self):
        rng = random.Random(29)
        for _ in range(50):
            amb = Ambient(2, 1)
            order = rng.randint(0, 3)
            u1 = Covariant.from_polynomial(random_covariant_polynomial(rng, amb, order))
            u2 = Covariant.from_polynomial(random_covariant_polynomial(rng, amb, order))
            v = Covariant.from_polynomial(random_covariant_polynomial(rng, amb, rng.randint(0, 3)))
            a, b = random_rational(rng), random_rational(rng)
            r = rng.randint(0, 2)
            lhs = transvectant(a * u1 + b * u2, v, r).value
            rhs = a * transvectant(u1, v, r).value + b * transvectant(u2, v, r).value
            assert lhs == rhs


class TestJacobian:
    def test_pair(self):
        f1, f2 = linear_form(1, 2), linear_form(2, 2)
        assert jacobian(f1, f2).value == parse("x1*y2 - x2*y1", Ambient(2, 1))

    def test_antisymmetry_diagonal(self):
        f1 = linear_form(1, 2)
        assert jacobian(f1, f1).is_zero

    def test_with_order_zero_covariant(self):
        f1, f2, f3 = (linear_form(i, 3) for i in (1, 2, 3))
        assert jacobian(jacobian(f1, f2), f3).is_zero


class TestTau:
    def test_linear_forms(self):
        for n in (1, 3):
            for i in range(1, n + 1):
                assert tau(linear_form(i, n)) == parse(f"x{i}", Ambient(n, 1))

    def test_jacobian(self):
        f1, f2 = linear_form(1, 2), linear_form(2, 2)
        assert tau(jacobian(f1, f2)) == parse("x1*y2 - x2*y1", Ambient(2, 1))

    def test_product_of_forms(self):
        f1, f2 = linear_form(1, 2), linear_form(2, 2)
        assert tau(f1 * f2) == parse("x1*x2", Ambient(2, 1))

    def test_order_zero_identity(self):
        amb = Ambient(2, 1)
        p = parse("x1*y2 - x2*y1", amb)
        assert tau(Covariant.from_polynomial(p)) == p

    def test_multiplicative_random(self):
        rng = random.Random(31)
        for _ in range(100):
            amb = Ambient(rng.randint(1, 3), 1)
            c1 = Covariant.from_polynomial(random_covariant_polynomial(rng, amb, rng.randint(0, 3)))
            c2 = Covariant.from_polynomial(random_covariant_polynomial(rng, amb, rng.randint(0, 3)))
            assert tau(c1 * c2) == tau(c1) * tau(c2)

    def test_semi_invariance_of_words(self):
        rng = random.Random(37)
        for _ in range(100):
            n = rng.randint(2, 4)
            deriv = WeitzenboeckDerivation(n, 1)
            forms = [linear_form(i, n) for i in range(1, n + 1)]
            pool = forms + [
                jacobian(forms[i], forms[j]) for i in range(n) for j in range(i + 1, n)
            ]
            word = Covariant.from_polynomial(parse("1", Ambient(n, 1)))
            for _ in range(rng.randint(1, 4)):
                word = word * rng.choice(pool)
            assert deriv.is_in_kernel(tau(word))


def _sparse_pivots(polys):
    pivots = {}
    for p in polys:
        row = dict(p.items())
        row = _sparse_reduce(row, pivots)
        if row:
            pivots[min(row)] = row
    return pivots


def _sparse_reduce(row, pivots):
    row = dict(row)
    while row:
        c = min(row)
        if c not in pivots:
            return row
        piv = pivots[c]
        factor = row[c] / piv[c]
        for cc, vv in piv.items():
            nv = row.get(cc, 0) - factor * vv
            if nv:
                row[cc] = nv
            else:
                row.pop(cc, None)
    return row


def test_closure_of_transvection_with_linear_forms():
    # desk-scale generation witness: transvecting a generator product with a
    # linear form lands back in the span of generator products
    for n in (2, 3):
        gens = generators(n, 1)
        forms = [linear_form(i, n) for i in range(1, n + 1)]
        cov_pool = forms + [
            jacobian(forms[i], forms[j]) for i in range(n) for j in range(i + 1, n)
        ]
        words = list(cov_pool)
        words += [w1 * w2 for w1, w2 in itertools.combinations_with_replacement(cov_pool, 2)]
        words = [t for t in words if t.value.total_degree() - t.order <= 3]
        span_pivots = {}
        checked = 0
        for f in forms:
            for t in words:
                for r in range(4):
                    c = transvectant(f, t, r)
                    if c.is_zero:
                        continue
                    image = tau(c)
                    degree = image.homogeneous_degree()
                    if degree not in span_pivots:
                        span_pivots[degree] = _sparse_pivots(
                            evaluate_combination({labels: 1}, gens)
                            for found in products_by_piece(gens, degree).values()
                            for labels in found
                        )
                    assert not _sparse_reduce(dict(image.items()), span_pivots[degree])
                    checked += 1
        assert checked > 0
