from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import reference_parse
from test_cli import express_golden_calls
from weitzenboeck import Ambient, AmbientMismatch, ParseError, Polynomial, parse, poly, ring_var

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
        ("x1 + * y1 &", 10),  # an unexpected character wins over an earlier syntax error
        ("x1^", 3),
        ("3/", 2),
        ("x1\ty1", 3),
        ("-", 1),
        ("2/3/4*x1", 3),
        ("x1*y", 3),
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
    assert parse("x1 *\u3000y1", amb) == parse("x1*y1", amb)  # Unicode whitespace too


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


# the grammar's alphabet, its whitespace (with U+3000, U+00A0, U+001C and U+2028), a
# non-ASCII decimal digit (U+0663) and a few characters it rejects, among them a
# superscript digit that is a digit but not a decimal one (U+00B2)
_ALPHABET = "0123456789xyzv.CXY+-*/^ \t\u3000\u00a0\u001c\u2028\u0663\u00b2&()#"
_TOKENS = [
    "x1", "y2", "z1", "x3", "x0", "v1.3", "v2.0", "CX", "CY", "0", "1", "3", "12", "+", "-", "*", "/", "^", " ", "\t",
    "\u0663", "\u00b2", "\u00a0", "\u001c", "\u2028",
]


def _outcome(parser, text, amb):
    """What `parser` gives: the term list with coefficient types, or the error's type, message and position."""
    try:
        p = parser(text, amb)
    except ValueError as err:
        return type(err), str(err), getattr(err, "position", None)
    return p.ambient, [(exps, c, type(c)) for exps, c in p.items()]


@given(
    st.one_of(
        st.text(_ALPHABET, max_size=24),
        st.lists(st.sampled_from(_TOKENS), max_size=14).map("".join),
        _polynomials().map(str),  # mostly well-formed text
    ),
    st.integers(1, 3),
    st.integers(1, 3),
)
@settings(max_examples=600, deadline=None)
@example("x1 + * y1 &", 2, 1)
@example("2/3/4*x1", 2, 1)
@example("1/2*x1 + 1/2*x1 - x3", 3, 1)
@example("v1.3^2 *\u3000CY - 4/2", 1, 3)
@example("\u00b2*x1", 2, 1)
@example("x\u0661^\u0662*y2", 2, 1)
@example("1/\u0663*x1 + y2", 2, 1)
def test_parse_matches_reference_parser(text, n, k):
    amb = Ambient(n, k)
    assert _outcome(parse, text, amb) == _outcome(reference_parse, text, amb)


@pytest.mark.parametrize(
    "template",
    ["{}*x1", "{}*x1 + &", "x1^{}", "x1^{} + &", "x{} + &", "x{} + 3 x1", "3/{}*x1", "{}/2 + x1^0", "x1^0 + {}", "v1.{}", "y1 - {}*CX"],
)
def test_ints_too_long_to_convert_fail_where_the_reference_fails(template):
    # an int one digit past the default limit of int's string conversion raises
    # ValueError when it is read, so an error before it in token order, or an
    # unexpected character anywhere, still comes first
    text = template.format("1" * 4301)
    amb = Ambient(2, 1)
    assert _outcome(parse, text, amb) == _outcome(reference_parse, text, amb)


def _token_loop_entered(text, ambient):
    raise AssertionError(f"well-formed text reached the token loop: {text!r}")


def test_express_golden_inputs_are_read_by_the_scan(monkeypatch):
    # every --poly of the express golden is well formed, so the token loop, which only
    # looks for the error of text the scan did not take, is never entered
    monkeypatch.setattr(poly, "_raise_syntax_error", _token_loop_entered)
    for argv in express_golden_calls():
        n, k, text = int(argv[argv.index("--n") + 1]), int(argv[argv.index("--k") + 1]), argv[argv.index("--poly") + 1]
        amb = Ambient(n, k)
        assert _outcome(parse, text, amb) == _outcome(reference_parse, text, amb)


@given(_polynomials())
@settings(max_examples=150, deadline=None)
def test_printed_polynomials_are_read_by_the_scan(p):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(poly, "_raise_syntax_error", _token_loop_entered)
        assert parse(str(p), p.ambient) == p


def test_factor_table_is_bounded(monkeypatch):
    # once an ambient's factor table is full, a factor new to it is read and not kept
    amb = Ambient(2, 1)
    poly._factor_table.cache_clear()
    monkeypatch.setattr(poly, "_FACTORS_MAX", 3)
    text = " + ".join(f"x1^{e}*y2" for e in range(1, 8))
    try:
        assert _outcome(parse, text, amb) == _outcome(reference_parse, text, amb)
        assert list(poly._factor_table(amb)) == ["x1^1", "y2", "x1^2"]
        assert _outcome(parse, text, amb) == _outcome(reference_parse, text, amb)
    finally:
        poly._factor_table.cache_clear()
