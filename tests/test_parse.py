from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weitzenboeck import Ambient, AmbientMismatch, ParseError, Polynomial, parse, ring_var

# (n, k, input text, canonical form) - the canonical column is also reparsed,
# so this doubles as the format/parse round-trip corpus
GOLDEN = [
    (2, 1, "x1*y2 - x2*y1", "x1*y2 - x2*y1"),
    (2, 1, "0", "0"),
    (2, 1, "3/2*CX^2", "3/2*CX^2"),
    (2, 1, "y2*x1 - y1*x2", "x1*y2 - x2*y1"),
    (2, 1, "x1 + x1", "2*x1"),
    (1, 2, "2*x1*z1 - y1^2", "2*x1*z1 - y1^2"),
    (1, 3, "v1.3^2*x1", "x1*v1.3^2"),
    (2, 1, "7/3", "7/3"),
    (2, 1, "-y1", "-y1"),
    (2, 1, "x1 - 1", "x1 - 1"),
    (2, 1, "1", "1"),
    (2, 1, "CX*CY", "CX*CY"),
    (2, 2, "x1*z2 - y1*y2 + z1*x2", "x1*z2 - y1*y2 + x2*z1"),
    (2, 1, "4/2*x1", "2*x1"),
    (2, 1, "x1*x1", "x1^2"),
    (2, 1, "0*x1 + y2", "y2"),
    (2, 1, "x2*y1 - y2*x1", "-x1*y2 + x2*y1"),
    (1, 1, "1/2*y1^2 - 3*x1*y1 + x1^2", "x1^2 - 3*x1*y1 + 1/2*y1^2"),
    (2, 1, "v1.1 + x2", "y1 + x2"),
    (2, 1, "v1.0*v2.1", "x1*y2"),
]


@pytest.mark.parametrize("n,k,text,canonical", GOLDEN)
def test_golden_corpus_round_trip(n, k, text, canonical):
    amb = Ambient(n, k)
    p = parse(text, amb)
    assert str(p) == canonical
    assert parse(str(p), amb) == p


def test_parse_jacobian_matches_construction():
    amb = Ambient(2, 1)
    built = (
        Polynomial.variable(amb, ring_var(1, 0)) * Polynomial.variable(amb, ring_var(2, 1))
        - Polynomial.variable(amb, ring_var(2, 0)) * Polynomial.variable(amb, ring_var(1, 1))
    )
    assert parse("x1*y2 - x2*y1", amb) == built


def test_parse_zero_and_constants():
    amb = Ambient(2, 1)
    assert parse("0", amb).is_zero
    assert parse("3/2*CX^2", amb).coefficient((0, 0, 0, 0, 2, 0)) == Fraction(3, 2)
    assert parse("-5", amb) == Polynomial.constant(amb, -5)


@pytest.mark.parametrize(
    "text,position",
    [
        ("x1 + * y1", 5),
        ("", 0),
        ("x1*", 3),
        ("3 x1", 2),
        ("x1 & y1", 3),
        ("x1^0", 3),
        ("3/0", 2),
        ("x1**y1", 3),
    ],
)
def test_syntax_errors_carry_position(text, position):
    with pytest.raises(ParseError) as err:
        parse(text, Ambient(2, 1))
    assert err.value.position == position


@pytest.mark.parametrize(
    "n,k,text",
    [
        (2, 1, "x3*y1"),
        (2, 1, "z1"),
        (2, 3, "v1.4"),
        (2, 1, "v3.0"),
        (1, 1, "CX*y2"),
    ],
)
def test_out_of_ambient_variables(n, k, text):
    with pytest.raises(AmbientMismatch) as err:
        parse(text, Ambient(n, k))
    assert err.value.position is not None


@pytest.mark.parametrize("name", ["x0", "y0", "v0.0", "v0.1"])
def test_block_zero_names_are_rejected(name):
    # block 0 holds CX and CY, which have no chain names
    for text, position in ((name, 0), (f"x1*{name}", 3)):
        with pytest.raises(ParseError, match=f"'{name}'") as err:
            parse(text, Ambient(2, 1))
        assert err.value.position == position


def test_whitespace_insignificant():
    amb = Ambient(2, 1)
    assert parse("x1*y2-x2*y1", amb) == parse("  x1 * y2  -  x2 * y1 ", amb)


@st.composite
def _polynomials(draw):
    amb = Ambient(draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    terms = {}
    for _ in range(draw(st.integers(0, 6))):
        exps = [0] * amb.width
        for _ in range(draw(st.integers(0, 5))):
            exps[draw(st.integers(0, amb.width - 1))] += 1
        key = tuple(exps)
        # an int, or a Fraction that may be integral
        coeff = draw(st.integers(-99, 99) | st.builds(Fraction, st.integers(-99, 99), st.integers(1, 12)))
        terms[key] = terms.get(key, 0) + coeff
    return Polynomial(amb, terms)


@given(_polynomials())
@settings(max_examples=150, deadline=None)
def test_parse_format_round_trip_random(p):
    assert parse(str(p), p.ambient) == p


@given(_polynomials())
@settings(max_examples=100, deadline=None)
def test_coefficient_format_random(p):
    # integral coefficients are stored as int whatever their input type
    assert all(type(c) is int or (type(c) is Fraction and c.denominator != 1) for _, c in p.items())
    reparsed = parse(str(p), p.ambient)
    assert dict(reparsed.items()) == dict(p.items())
    assert [type(c) for _, c in reparsed.terms()] == [type(c) for _, c in p.terms()]
    as_fractions = Polynomial(p.ambient, {e: Fraction(c) for e, c in p.items()})
    assert as_fractions == p and hash(as_fractions) == hash(p)
