import copy
import pickle
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import naive_mul, random_polynomial
from weitzenboeck import (
    COV_X,
    COV_Y,
    Ambient,
    AmbientMismatch,
    CompletenessReport,
    Covariant,
    GeneratorSet,
    GradedPieceKey,
    PieceReport,
    Polynomial,
    UnknownVariable,
    Variable,
    WeitzenboeckDerivation,
    completeness_check,
    generators,
    kernel_dim,
    parse,
    ring_var,
    x,
    y,
    z,
)
from weitzenboeck.poly import Packing, packing_for

A21 = Ambient(2, 1)
A12 = Ambient(1, 2)


class TestRationalContract:
    """fractions.Fraction provides the exact coefficient arithmetic we rely on."""

    def test_gcd_reduction(self):
        assert (Fraction(2, 4).numerator, Fraction(2, 4).denominator) == (1, 2)

    def test_positive_denominator(self):
        f = Fraction(3, -6)
        assert f.denominator > 0
        assert (f.numerator, f.denominator) == (-1, 2)

    def test_canonical_zero(self):
        assert (Fraction(0, 7).numerator, Fraction(0, 7).denominator) == (0, 1)

    def test_eager_normalization(self):
        f = Fraction(1, 6) + Fraction(1, 3)
        assert (f.numerator, f.denominator) == (1, 2)


class TestAdd:
    def test_cancellation(self):
        p = parse("x1 + y1", A21)
        assert p + parse("-y1", A21) == parse("x1", A21)

    def test_zero_identity(self):
        p = parse("x1*y2 - x2*y1", A21)
        assert p + Polynomial.zero(A21) == p

    def test_coefficient_merge(self):
        p = parse("x1*y2", A21)
        assert p + p == parse("2*x1*y2", A21)

    def test_ambient_mismatch(self):
        with pytest.raises(AmbientMismatch):
            parse("x1", A21) + parse("x1", A12)

    def test_duplicate_terms_cancel_in_the_constructor(self):
        # terms given twice are added, and a sum of 0 leaves no term behind
        mono = (1, 0, 0, 0, 0, 0)
        assert Polynomial(A21, [(mono, 2), (mono, -2)]).is_zero
        assert Polynomial(A21, [(mono, 2), (mono, -2), (mono, 3)]) == parse("3*x1", A21)

    def test_scalar_minus_polynomial(self):
        p = parse("x1 - 2*y1", A21)
        assert 3 - p == parse("3 - x1 + 2*y1", A21)
        assert Fraction(1, 2) - p == -(p - Fraction(1, 2))


class TestMul:
    def test_monomials(self):
        assert parse("x1", A21) * parse("y1", A21) == parse("x1*y1", A21)

    def test_difference_of_squares(self):
        lhs = parse("x1 + y1", A21) * parse("x1 - y1", A21)
        assert lhs == parse("x1^2 - y1^2", A21)

    def test_zero_annihilates(self):
        p = parse("x1 + 2*y2", A21)
        assert (p * Polynomial.zero(A21)).is_zero

    def test_scalar_and_power(self):
        p = parse("x1 - y1", A21)
        assert 2 * p == parse("2*x1 - 2*y1", A21)
        assert p**2 == p * p
        assert p**0 == Polynomial.one(A21)

    def test_negative_power_raises(self):
        with pytest.raises(ValueError, match="non-negative integers"):
            parse("x1", A21) ** -1

    def test_ambient_mismatch(self):
        with pytest.raises(AmbientMismatch):
            parse("x1", A21) * parse("x1", A12)

    def test_matches_naive_reference(self):
        # the packed product against the schoolbook product on exponent tuples,
        # with covariant factors and exponents past any small field width
        rng = random.Random(11)
        for amb in (A21, A12, Ambient(1, 1), Ambient(3, 2), Ambient(2, 3)):
            for _ in range(40):
                p = random_polynomial(rng, amb, max_degree=6, covariants=True)
                q = random_polynomial(rng, amb, max_degree=6, covariants=True)
                if rng.random() < 0.5:
                    big = [0] * amb.width
                    big[rng.randrange(amb.width)] = rng.randint(32, 70)
                    big[-rng.randint(1, 2)] += rng.randint(0, 40)
                    p = p + Polynomial(amb, {tuple(big): rng.randint(-9, 9)})
                assert p * q == naive_mul(p, q)
                assert dict((p * q).items()) == dict(naive_mul(p, q).items())
        cx, cy = Polynomial.variable(A21, COV_X), Polynomial.variable(A21, COV_Y)
        assert str(cx**33 * (cy + parse("y2", A21)) ** 2) == "y2^2*CX^33 + 2*y2*CX^33*CY + CX^33*CY^2"


class TestPartialDerivative:
    def test_covariant_slot(self):
        p = parse("x1*CX + y1*CY", A21)
        assert p.partial(COV_X) == parse("x1", A21)

    def test_absent_variable(self):
        assert parse("x2^2", A21).partial(y(1)).is_zero

    def test_power_rule(self):
        assert parse("x1^3", A21).partial(x(1)) == parse("3*x1^2", A21)

    def test_unknown_variable(self):
        with pytest.raises(UnknownVariable):
            parse("x1", A21).partial(z(1))  # no level-2 layer when k = 1

    def test_commutes(self):
        rng = random.Random(7)
        for _ in range(100):
            amb = Ambient(rng.randint(1, 3), rng.randint(1, 2))
            p = random_polynomial(rng, amb, covariants=True)
            variables = amb.variables()
            u, v = rng.choice(variables), rng.choice(variables)
            assert p.partial(u).partial(v) == p.partial(v).partial(u)


def test_ring_axioms_on_random_triples():
    rng = random.Random(20260811)
    for _ in range(500):
        amb = Ambient(rng.randint(1, 3), rng.randint(1, 2))
        p = random_polynomial(rng, amb)
        q = random_polynomial(rng, amb)
        r = random_polynomial(rng, amb)
        assert p + q == q + p
        assert (p + q) + r == p + (q + r)
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r


def test_canonical_form_no_stored_zeros():
    rng = random.Random(99)
    for _ in range(200):
        amb = Ambient(rng.randint(1, 3), rng.randint(1, 2))
        p = random_polynomial(rng, amb)
        q = random_polynomial(rng, amb)
        for poly in (p + q, p * q, p - p, p * Polynomial.zero(amb)):
            assert all(c != 0 for _, c in poly.items())
    assert (parse("x1", A21) - parse("x1", A21)).is_zero


def test_equal_polynomials_have_identical_term_maps():
    p = parse("x1*y2 - x2*y1", A21)
    q = parse("-x2*y1 + y2*x1", A21)
    assert p == q
    assert dict(p.items()) == dict(q.items())
    assert hash(p) == hash(q)


class TestGrading:
    def test_single_monomial(self):
        assert parse("x1*y2", A21).gradings() == {((1, 1), 1, 0)}

    def test_jacobian_terms_share_grading(self):
        assert parse("x1*y2 - x2*y1", A21).gradings() == {((1, 1), 1, 0)}

    def test_quadratic_chain_invariant(self):
        # per-monomial count: x has level 0, y level 1, z level 2
        assert parse("2*x1*z1 - y1^2", A12).gradings() == {((2,), 2, 0)}

    def test_covariant_degree_counted_separately(self):
        assert parse("3/2*CX^2", A21).gradings() == {((0, 0), 0, 2)}

    def test_zero_polynomial(self):
        assert Polynomial.zero(A21).gradings() == set()


class TestCanonicalOrder:
    def test_terms_sorted_graded_lex(self):
        p = parse("1 + x1^2 + y1 - x1*y1", A21)
        degrees = [sum(exps) for exps, _ in p.terms()]
        assert degrees == sorted(degrees, reverse=True)
        assert str(p) == "x1^2 - x1*y1 + y1 + 1"

    def test_degree_helpers(self):
        p = parse("x1*y1^2 + x2", A21)
        assert p.total_degree() == 3
        assert p.homogeneous_degree() is None
        assert parse("x1*y1^2", A21).homogeneous_degree() == 3
        assert Polynomial.zero(A21).homogeneous_degree() == 0


def test_variable_names_and_indices():
    amb = Ambient(2, 3)
    names = [v.name for v in amb.variables()]
    assert names == ["x1", "y1", "z1", "v1.3", "x2", "y2", "z2", "v2.3", "CX", "CY"]
    for idx, v in enumerate(amb.variables()):
        assert amb.index(v) == idx
    assert ring_var(1, 3).name == "v1.3"
    assert COV_X.name == "CX" and COV_Y.name == "CY"

    with pytest.raises(UnknownVariable, match="unknown covariant variable"):
        amb.index(Variable(0, 2))
    for idx in (-1, amb.width):
        with pytest.raises(UnknownVariable, match=f"no variable at slot {idx}"):
            amb.variable_at(idx)


def test_immutability():
    p = parse("x1", A21)
    with pytest.raises(AttributeError):
        p.ambient = A12


# each value class, its fields by keyword, and its repr as the frozen dataclass it replaces printed it
VALUE_CLASSES = [
    (Ambient, {"n": 2, "k": 1}, "Ambient(n=2, k=1)"),
    (Variable, {"block": 2, "level": 1}, "Variable(y2)"),
    (WeitzenboeckDerivation, {"n": 3, "k": 2}, "WeitzenboeckDerivation(n=3, k=2)"),
    (
        Covariant,
        {"value": parse("x1*CX + y1*CY", A21), "order": 1},
        "Covariant(value=Polynomial(n=2, k=1, 'x1*CX + y1*CY'), order=1)",
    ),
    (
        GeneratorSet,
        {"n": 2, "k": 1, "items": (("x1", parse("x1", A21)), ("x2", parse("x2", A21)), ("J1,2", parse("x1*y2 - x2*y1", A21)))},
        "GeneratorSet(n=2, k=1, items=(('x1', Polynomial(n=2, k=1, 'x1')), ('x2', Polynomial(n=2, k=1, 'x2')),"
        " ('J1,2', Polynomial(n=2, k=1, 'x1*y2 - x2*y1'))))",
    ),
    (
        CompletenessReport,
        {
            "n": 2,
            "k": 1,
            "degree": 2,
            "kernel_dim": 4,
            "span_dim": 4,
            "complete": True,
            "representatives": tuple(PieceReport(GradedPieceKey(b, w), 1, 1) for b, w in (((0, 2), 0), ((1, 1), 0), ((1, 1), 1))),
            "runs": ((0, 2),),
        },
        "CompletenessReport(n=2, k=1, degree=2, kernel_dim=4, span_dim=4, complete=True, representatives=("
        "PieceReport(key=GradedPieceKey(block_degrees=(0, 2), weight=0), kernel_dim=1, span_dim=1), "
        "PieceReport(key=GradedPieceKey(block_degrees=(1, 1), weight=0), kernel_dim=1, span_dim=1), "
        "PieceReport(key=GradedPieceKey(block_degrees=(1, 1), weight=1), kernel_dim=1, span_dim=1)), runs=((0, 2),))",
    ),
]


@pytest.mark.parametrize("cls, fields, text", VALUE_CLASSES, ids=[cls.__name__ for cls, _, _ in VALUE_CLASSES])
def test_value_classes_keep_their_dataclass_behaviour(cls, fields, text):
    values = tuple(fields.values())
    value = cls(**fields)
    assert repr(value) == text
    assert value == cls(*values) and not value != cls(*values)
    assert [getattr(value, name) for name in fields] == list(values)
    # the hash is the field tuple's; a generator set hashes its labels instead of its polynomials
    hashed = (2, 1, ("x1", "x2", "J1,2")) if cls is GeneratorSet else values
    assert hash(value) == hash(cls(*values)) == hash(hashed)
    # equal only to the same class: other operands get NotImplemented
    assert value != values and value.__eq__(values) is NotImplemented
    for name in (*fields, "other"):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(value, name, None)
    for name in fields:
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(value, name)
    assert value == cls(**fields)


def test_value_classes_compare_unequal_across_classes():
    assert Ambient(2, 1) != Variable(2, 1) and Variable(2, 1) != Ambient(2, 1)
    assert Ambient(2, 1) != WeitzenboeckDerivation(2, 1)
    assert Ambient(2, 1) != (2, 1) and Ambient(2, 1).__eq__(Variable(2, 1)) is NotImplemented
    assert hash(Ambient(2, 1)) == hash((2, 1)) == hash(Variable(2, 1))
    assert len({Ambient(2, 1), Variable(2, 1), WeitzenboeckDerivation(2, 1), Ambient(n=2, k=1)}) == 3


def test_completeness_report_equality_and_lazy_per_piece():
    report = completeness_check(2, 1, 2)
    fresh = CompletenessReport(**VALUE_CLASSES[-1][1])
    assert fresh == report and hash(fresh) == hash(report)
    assert report != completeness_check(2, 1, 3)
    # per_piece is computed on first read and cached in the instance; it is not a field
    assert "per_piece" not in vars(fresh)
    pieces = fresh.per_piece
    assert vars(fresh)["per_piece"] is pieces is fresh.per_piece
    assert [(piece.key, piece.kernel_dim, piece.span_dim) for piece in pieces] == [
        (GradedPieceKey((0, 2), 0), 1, 1),
        (GradedPieceKey((1, 1), 0), 1, 1),
        (GradedPieceKey((1, 1), 1), 1, 1),
        (GradedPieceKey((2, 0), 0), 1, 1),
    ]
    assert fresh == report and fresh == CompletenessReport(**VALUE_CLASSES[-1][1])


@pytest.mark.parametrize("clone", [lambda v: pickle.loads(pickle.dumps(v)), copy.copy, copy.deepcopy], ids=["pickle", "copy", "deepcopy"])
def test_values_pickle_and_copy(clone):
    # Polynomial keeps its state in __slots__ behind a raising __setattr__, and every
    # GeneratorSet and Covariant holds polynomials; a clone equals its original, keeps
    # its class and stays immutable
    p = parse("1/2*x1*y2 - x2*y1 + 3", A21)
    report = completeness_check(3, 2, 3, exclude=["H1,1"])
    report.per_piece  # cached in the instance, and cloned with it
    # complete by polarization: its representatives are listed on first read, so it is
    # cloned both before and after (the loop below reads them)
    polarized = completeness_check(4, 2, 3)
    unread = clone(polarized)
    assert "representatives" not in vars(polarized) and "representatives" not in vars(unread)
    assert unread == polarized and hash(unread) == hash(polarized) and unread.per_piece == polarized.per_piece
    values = [p, generators(3, 2), Covariant.from_polynomial(parse("x1*CX + y1*CY", A21)), report, completeness_check(2, 1, 2), polarized]
    for value in values:
        cloned = clone(value)
        assert type(cloned) is type(value) and cloned == value and hash(cloned) == hash(value)
    cloned = clone(p)
    assert str(cloned) == str(p) and cloned.terms() == p.terms() and cloned * p == p * p
    with pytest.raises(AttributeError, match="immutable"):
        cloned.ambient = A12
    gens = clone(generators(3, 2))
    assert gens.labels() == generators(3, 2).labels() and gens.value("H1,1") == generators(3, 2).value("H1,1")
    assert clone(report).per_piece == report.per_piece and not clone(report).complete


def test_exponents_must_be_non_negative_ints():
    # A21 has width 6: x1, y1, x2, y2, CX, CY
    for exps in ((1, 0, 0, 0, 0), (-1, 0, 0, 0, 0, 0), (1.5, 0, 0, 0, 0, 0), (True, 0, 0, 0, 0, 0), (1.0, 0, 0, 0, 0, 0)):
        with pytest.raises(AmbientMismatch):
            Polynomial(A21, {exps: 1})
    p = Polynomial(A21, {(2, 0, 0, 1, 0, 0): 3})
    assert parse(str(p), A21) == p


def test_coefficients_must_be_int_or_fraction():
    one = (1, 0, 0, 0)  # Ambient(1, 1) has width 4: x1, y1, CX, CY
    for bad in (0.1, 0.5, "1/3", True, False, 1.0, None):
        with pytest.raises(TypeError, match="coefficient"):
            Polynomial(Ambient(1, 1), {one: bad})
        with pytest.raises(TypeError, match="coefficient"):
            Polynomial.constant(Ambient(1, 1), bad)
        with pytest.raises(TypeError, match="coefficient"):
            Polynomial.monomial(A21, {x(1): 1}, bad)
    assert Polynomial(Ambient(1, 1), {one: Fraction(1, 10)}).coefficient(one) == Fraction(1, 10)
    assert Polynomial.constant(A21, -2) == -2
    assert Polynomial.monomial(A21, {x(1): 2}, Fraction(2, 3)) == parse("2/3*x1^2", A21)
    # arithmetic keeps Python's numeric treatment of bool
    assert Polynomial.one(A21) + True == 2


def test_scalar_polynomials_hash_as_their_scalar():
    for c in (0, 3, Fraction(1, 2)):
        p = Polynomial.constant(A21, c)
        assert p == c and hash(p) == hash(c)
        assert len({p, c}) == 1
    assert hash(Polynomial.zero(A12)) == hash(0)
    assert len({Polynomial.constant(A21, 3), Polynomial.constant(A21, Fraction(6, 2)), 3}) == 1
    assert len({Polynomial.constant(A21, 3), Polynomial.constant(A12, 3)}) == 2  # equal hashes, unequal values


def _canonical(p):
    """Every coefficient is an int, or a Fraction that is not integral."""
    return all(type(c) is int or (type(c) is Fraction and c.denominator != 1) for _, c in p.items())


class TestCoefficientFormat:
    """Integral coefficients are stored as int, the rest as Fraction."""

    def test_integral_inputs_give_int(self):
        one = (1, 0, 0, 0, 0, 0)  # x1 in A21
        assert type(parse("4/2*x1", A21).coefficient(one)) is int
        assert type(Polynomial(A21, {one: Fraction(6, 3)}).coefficient(one)) is int
        assert type(Polynomial.variable(A21, x(1)).coefficient(one)) is int
        assert type(Polynomial.constant(A21, Fraction(4, 2)).coefficient((0,) * 6)) is int
        # duplicate terms are accumulated before the format is decided
        assert type(Polynomial(A21, [(one, Fraction(1, 2)), (one, Fraction(1, 2))]).coefficient(one)) is int

    def test_non_integral_stay_fraction(self):
        p = parse("1/2*x1*y2 - 1/2*x2*y1 + 3*x1^2", A21)
        assert _canonical(p)
        assert sorted(type(c).__name__ for _, c in p.items()) == ["Fraction", "Fraction", "int"]
        assert parse("-2/3", A21).coefficient((0,) * 6) == Fraction(-2, 3)

    def test_arithmetic_with_integral_results_gives_int(self):
        half = parse("1/2*x1 + 1/3*y2", A21)
        results = [
            half + half + half,
            half * 6,
            6 * half,
            half * parse("2*x1 + 3*y2", A21),
            parse("1/2*x1^2", A21).partial(x(1)),
            half - parse("-1/2*x1", A21),
        ]
        for p in results:
            assert _canonical(p)
        assert str(half * 6) == "3*x1 + 2*y2"


def _monomials_up_to(draw, amb, degree):
    """A monomial of total degree <= degree, its mass piled on few slots so digits reach the bound."""
    exps = [0] * amb.width
    left = draw(st.integers(0, degree))
    for _ in range(draw(st.integers(1, 3))):
        e = draw(st.integers(0, left))
        exps[draw(st.integers(0, amb.width - 1))] += e
        left -= e
    return tuple(exps)


# (n, k, degree) with k*degree = 2^bits - 1 fill every weight field, plus some that do not
PACKINGS = [(1, 1, 7), (2, 1, 3), (2, 3, 5), (3, 1, 31), (1, 3, 1), (2, 2, 4), (3, 2, 6), (1, 1, 0)]


def _fields(packing, grading):
    """(block_degrees, weight, cov_degree) read digit by digit from a packed grading."""
    mask = (1 << packing.bits) - 1
    *blocks, weight, cov_degree = [grading >> packing.bits * i & mask for i in range(packing.ambient.n + 2)]
    return tuple(blocks), weight, cov_degree


class TestPacking:
    """Monomials pack into disjoint bit fields: exponents low, grading high."""

    @given(st.sampled_from(PACKINGS), st.data())
    @settings(max_examples=150, deadline=None)
    def test_pack_is_linear_injective_and_graded(self, nkd, data):
        n, k, degree = nkd
        amb = Ambient(n, k)
        packing = Packing(amb, degree)
        a = _monomials_up_to(data.draw, amb, degree)
        b = _monomials_up_to(data.draw, amb, degree - sum(a))
        s = tuple(i + j for i, j in zip(a, b))
        for e in (a, b, s):
            assert packing.unpack(packing.pack(e)) == e
            fields = (amb.block_degrees(e), amb.weight(e), amb.cov_degree(e))
            grading = packing.grading(*fields)
            assert packing.pack(e) >> packing.shift == grading
            assert 0 <= packing.pack(e) < packing.end
            assert _fields(packing, grading) == fields
            assert packing.read_grading(grading) == fields
        assert packing.pack(a) + packing.pack(b) == packing.pack(s)

    def test_top_digits_fill_their_fields(self):
        # weight k*D and an exponent D reach 2^bits - 1 and still read back exactly
        amb = Ambient(2, 3)
        packing = Packing(amb, 5)
        assert packing.bits == 4 and amb.k * 5 == 2**packing.bits - 1
        top = (0, 0, 0, 5, 0, 0, 0, 0, 0, 0)  # v1.3^5: weight 15
        assert packing.unpack(packing.pack(top)) == top
        assert packing.pack(top) >> packing.shift == packing.grading((5, 0), 15)
        assert _fields(packing, packing.grading((5, 0), 15, 5)) == ((5, 0), 15, 5)
        assert packing.read_grading(packing.grading((5, 0), 15, 5)) == ((5, 0), 15, 5)
        # the end is one past every grading field full: the layout holds no larger key
        assert (packing.grading((15, 15), 15, 15) + 1) << packing.shift == packing.end

    def test_bits_grow_with_the_bound(self):
        assert [Packing(A21, d).bits for d in (0, 1, 2, 3, 4, 7, 8)] == [1, 1, 2, 2, 3, 3, 4]
        assert Packing(A12, 3).bits == 3  # k*D = 6

    @given(st.sampled_from(PACKINGS), st.data())
    @settings(max_examples=100, deadline=None)
    def test_pack_terms_packs_as_pack_without_its_check(self, nkd, data):
        # inside the bound, pack_terms gives pack's key for every term, and it calls no
        # pack: the degree bound is its callers'
        n, k, degree = nkd
        amb = Ambient(n, k)
        packing = Packing(amb, degree)
        count = data.draw(st.integers(0, 6))
        p = Polynomial(amb, {_monomials_up_to(data.draw, amb, degree): data.draw(st.integers(-9, 9)) for _ in range(count)})
        expected = {packing.pack(e): c for e, c in p.items()}
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(Packing, "pack", lambda self, exps: pytest.fail("pack_terms called pack"))
            assert packing.pack_terms(p) == expected
            assert packing.pack_terms(dict(p.items())) == expected

    def test_monomial_over_the_bound_raises(self):
        with pytest.raises(ValueError, match="exceeds the packing degree 2"):
            Packing(A21, 2).pack((1, 1, 1, 0, 0, 0))
        with pytest.raises(ValueError):
            Packing(A21, -1)

    def test_one_shared_packing_per_bit_width(self):
        # every degree with k*d <= 15 gets the one 4-bit floor packing; above the floor,
        # every degree of one bit width gets one packing, which holds the largest of them
        for amb in (A21, A12, Ambient(2, 3), Ambient(1, 5), Ambient(1, 9)):
            floor = packing_for(amb, 0)
            assert floor.bits == 4 and floor.degree == 15 // amb.k
            for degree in range(40):
                packing = packing_for(amb, degree)
                assert packing is packing_for(amb, packing.degree) and packing.degree >= degree
                if amb.k * degree <= 15:
                    assert packing is floor
                else:
                    assert packing.bits == Packing(amb, degree).bits > 4
                    assert packing.degree == (2**packing.bits - 1) // amb.k
                    assert packing_for(amb, packing.degree + 1).bits == packing.bits + 1
        assert packing_for(A21, 15) is packing_for(A21, 0) is not packing_for(A21, 16)
        assert packing_for(A12, 7) is packing_for(A12, 0) is not packing_for(A12, 8)
        # at k >= 16 the floor width holds degree 0 only; every degree asked is still held,
        # its top weight k*d included
        for k in (16, 17, 31, 40):
            amb = Ambient(1, k)
            assert packing_for(amb, 0).degree == 0
            for degree in range(5):
                packing = packing_for(amb, degree)
                assert packing.degree >= degree
                top = (0,) * k + (degree,) + (0, 0)  # v1.k^degree: weight k*degree
                assert packing.unpack(packing.pack(top)) == top
                assert packing.read_grading(packing.pack(top) >> packing.shift) == ((degree,), k * degree, 0)
        with pytest.raises(ValueError):
            packing_for(A21, -1)

    @given(st.sampled_from(PACKINGS), st.integers(0, 3), st.data())
    @settings(max_examples=100, deadline=None)
    def test_packings_that_hold_a_degree_agree_on_it(self, nkd, wider, data):
        # two bit widths that both hold degree d order the monomials of degree <= d alike
        # and read the same grading from each: no field carries in either
        n, k, degree = nkd
        amb = Ambient(n, k)
        narrow = Packing(amb, degree)
        wide = Packing(amb, (2 ** (narrow.bits + wider) - 1) // k)
        assert wide.bits == narrow.bits + wider
        monos = [_monomials_up_to(data.draw, amb, degree) for _ in range(data.draw(st.integers(1, 8)))]
        assert sorted(monos, key=narrow.pack) == sorted(monos, key=wide.pack)
        for e in monos:
            fields = (amb.block_degrees(e), amb.weight(e), amb.cov_degree(e))
            assert narrow.read_grading(narrow.pack(e) >> narrow.shift) == fields
            assert wide.read_grading(wide.pack(e) >> wide.shift) == fields


def test_ambient_requires_int_shape():
    for n, k in ((2.0, 1), (2, 1.5), (True, 1), (2, True), (Fraction(2), 1), ("2", 1)):
        name, bad = ("k", k) if type(n) is int else ("n", n)
        with pytest.raises(TypeError, match=re.escape(f"ambient {name} must be an int, got {bad!r}")):
            Ambient(n, k)
    with pytest.raises(TypeError):
        kernel_dim(2.0, 1, 2)
    with pytest.raises(TypeError):
        kernel_dim(2, 1.5, 2)
    assert Ambient(2, 1).width == 6
    for n, k in ((0, 1), (1, 0), (-1, 2)):
        with pytest.raises(ValueError, match=re.escape(f"ambient requires n >= 1 and k >= 1, got ({n}, {k})")):
            Ambient(n, k)
    with pytest.raises(TypeError, match="ambient k must be an int"):
        Ambient(n=2, k=None)
