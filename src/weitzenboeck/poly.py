"""Sparse multivariate polynomials with exact rational coefficients.

The ambient ring is K[x_1..x_n, y_1..y_n, ..., CX, CY]: n chains of k+1
variables each ("block" i, "level" j), plus the two covariant variables
CX and CY.  Every computation is exact; floating point is never used.
This module owns the coefficient format: a coefficient is an `int` when
it is integral and a `fractions.Fraction` only when it is not, so the
integer polynomials of the generators and their products are computed
in integer arithmetic.

A monomial is a dense exponent tuple with one slot per variable, laid out
block-major and level-minor, covariant slots last:

    x1, y1, ..., x2, y2, ..., CX, CY        (for k = 1)

A polynomial maps exponent tuples to nonzero coefficients; the zero
polynomial is the empty map.  Term iteration and printing use graded
lexicographic order (higher total degree first, ties broken by the
exponent tuple, earlier variables dominating), which makes output and
downstream pivot selection deterministic.

Products are computed on packed monomials (`Packing`): an exponent tuple
of total degree <= D becomes one int whose low bit fields are the
exponents and whose high fields are the monomial's grading (block
degrees, weight, covariant degree).  Packing is linear, so multiplying
two monomials is one int addition, and the grading of a packed monomial
is one right shift.  `mul_terms` is the one polynomial product;
`Polynomial.__mul__` packs its operands, multiplies and unpacks.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cache
from operator import attrgetter, lshift, mul
from typing import Iterable, Iterator, Mapping, NoReturn, Sequence, Union

from .errors import AmbientMismatch, ParseError, UnknownVariable

Scalar = Union[int, Fraction]
Exponents = tuple[int, ...]
Terms = dict[Exponents, Scalar]  # exponents -> nonzero coefficient
PackedTerms = dict[int, Scalar]  # packed monomial -> nonzero coefficient


class _Frozen:
    """Base of the package's small immutable value classes, built from the field names in `_fields`.

    `__init__` is the subclass's own and stores the fields through
    `self.__dict__`.  Instances are equal only to instances of the same
    class with equal fields (any other operand gets NotImplemented), hash
    as the tuple of their fields, print as `Name(field=value, ...)`, and
    raise AttributeError on assigning or deleting any attribute.  There
    are no `__slots__`: `functools.cached_property` stores its value in
    the instance `__dict__`.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # reads an instance's field tuple in one C call (a tuple: every subclass has two or more fields)
        cls._values = staticmethod(attrgetter(*cls._fields))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Variable(_Frozen):
    """One variable of the ring.

    Chain variables carry block 1..n and level 0..k (level 0 is the
    x-layer, level 1 the y-layer, and so on).  The covariant variables
    use block 0: level 0 is CX, level 1 is CY.
    """

    _fields = ("block", "level")

    def __init__(self, block: int, level: int):
        self.__dict__.update(block=block, level=level)

    @property
    def is_covariant(self) -> bool:
        return self.block == 0

    @property
    def name(self) -> str:
        if self.block == 0:
            return "CX" if self.level == 0 else "CY"
        if self.level < 3:
            return f"{'xyz'[self.level]}{self.block}"
        return f"v{self.block}.{self.level}"

    def __repr__(self):
        return f"Variable({self.name})"


COV_X = Variable(0, 0)
COV_Y = Variable(0, 1)


def ring_var(block: int, level: int) -> Variable:
    if block < 1 or level < 0:
        raise UnknownVariable(f"no ring variable with block {block}, level {level}")
    return Variable(block, level)


def x(i: int) -> Variable:
    return ring_var(i, 0)


def y(i: int) -> Variable:
    return ring_var(i, 1)


def z(i: int) -> Variable:
    return ring_var(i, 2)


class Ambient(_Frozen):
    """The ring shape: n chain blocks of k+1 variables plus CX, CY."""

    _fields = ("n", "k")

    def __init__(self, n: int, k: int):
        for name, value in (("n", n), ("k", k)):
            if type(value) is not int:
                raise TypeError(f"ambient {name} must be an int, got {value!r}")
        if n < 1 or k < 1:
            raise ValueError(f"ambient requires n >= 1 and k >= 1, got ({n}, {k})")
        self.__dict__.update(n=n, k=k)

    @property
    def ring_width(self) -> int:
        return self.n * (self.k + 1)

    @property
    def width(self) -> int:
        return self.ring_width + 2

    def index(self, v: Variable) -> int:
        """Dense slot of a variable; raises UnknownVariable if outside the ring."""
        if v.is_covariant:
            if v.level not in (0, 1):
                raise UnknownVariable(f"unknown covariant variable {v!r}")
            return self.ring_width + v.level
        if not (1 <= v.block <= self.n) or not (0 <= v.level <= self.k):
            raise UnknownVariable(f"{v.name} does not exist in ambient (n={self.n}, k={self.k})")
        return (v.block - 1) * (self.k + 1) + v.level

    def variable_at(self, idx: int) -> Variable:
        if idx < 0 or idx >= self.width:
            raise UnknownVariable(f"no variable at slot {idx}")
        if idx >= self.ring_width:
            return Variable(0, idx - self.ring_width)
        return Variable(idx // (self.k + 1) + 1, idx % (self.k + 1))

    def variables(self) -> list[Variable]:
        return [self.variable_at(i) for i in range(self.width)]

    def level_at(self, idx: int) -> int:
        """Chain level of a ring slot (0 for covariant slots)."""
        return idx % (self.k + 1) if idx < self.ring_width else 0

    def block_degrees(self, exps: Exponents) -> tuple[int, ...]:
        step = self.k + 1
        return tuple(sum(exps[b * step : (b + 1) * step]) for b in range(self.n))

    def weight(self, exps: Exponents) -> int:
        step = self.k + 1
        return sum((i % step) * e for i, e in enumerate(exps[: self.ring_width]) if e)

    def cov_degree(self, exps: Exponents) -> int:
        return exps[-2] + exps[-1]


def monomial_sort_key(exps: Exponents):
    """Ascending key for graded lex order; reverse for the canonical display order."""
    return (sum(exps), exps)


def _integral(terms: Terms) -> Terms:
    """Store every integral coefficient as an `int`, in place; returns `terms`."""
    for exps, c in terms.items():
        if type(c) is not int and c.denominator == 1:
            terms[exps] = c.numerator
    return terms


class Packing:
    """Monomials of total degree <= `degree` packed into ints, grading in the high digits.

    An exponent tuple packs as the dot product sum(e_i * slot_i) into
    disjoint fields of `bits` bits: the `width` exponent digits, then the
    n block degrees, then the weight, then the covariant degree.  Slot i
    holds a 1 in exponent digit i plus the slot's contribution to the
    grading (a 1 in its block's digit and its level in the weight digit
    for a ring slot, a 1 in the covariant digit for CX and CY).  Packing
    is linear, so the packed product of two monomials is the sum of their
    packings, and `key >> shift` is the packed grading (`grading`).

    No field carries into the next: a monomial of total degree <= D has
    every exponent, block degree and the covariant degree <= D and weight
    <= k*D, and bits = max(1, (k*D).bit_length()) makes each field hold
    values up to 2^bits - 1 >= k*D.  So every digit reads back exactly,
    packing is injective, the high field is exactly the grading, and every
    key lies below `end` = 2^(shift + bits*(n + 2)).  Keys compare as ints
    in a monomial order (grading first, then exponents), which products,
    int sums, keep: a < b implies a + c < b + c.
    `pack` raises ValueError for a monomial above the degree bound, and
    `pack_terms` leaves that bound to its callers; a monomial or a product
    of packed monomials whose total degree exceeds it would carry.
    The library's packings come from `packing_for`: per ambient, one for
    every degree with k*D <= 15, then one per bit width, each with the
    largest degree its width holds.  A packing read for a lower degree
    than its own has fields wider than that degree needs, which still
    hold every digit, so nothing above changes.
    """

    __slots__ = ("ambient", "degree", "bits", "shift", "end", "slots", "_digits", "_fields", "_mask")

    def __init__(self, ambient: Ambient, degree: int):
        if type(degree) is not int or degree < 0:
            raise ValueError(f"packing degree must be a non-negative int, got {degree!r}")
        n, k, width = ambient.n, ambient.k, ambient.width
        bits = max(1, (k * degree).bit_length())
        shift = bits * width
        slots = [1 << bits * i for i in range(width)]
        for i in range(ambient.ring_width):
            slots[i] += (1 << shift + bits * (i // (k + 1))) + (i % (k + 1) << shift + bits * n)
        for i in range(ambient.ring_width, width):
            slots[i] += 1 << shift + bits * (n + 1)
        self.ambient = ambient
        self.degree = degree
        self.bits = bits
        self.shift = shift
        self.end = 1 << shift + bits * (n + 2)
        self.slots = tuple(slots)
        self._digits = tuple(range(0, shift, bits))
        self._fields = tuple(range(0, bits * (n + 2), bits))
        self._mask = (1 << bits) - 1

    def pack(self, exps: Exponents) -> int:
        if sum(exps) > self.degree:
            raise ValueError(f"monomial {exps} exceeds the packing degree {self.degree}")
        return sum(map(mul, exps, self.slots))

    def unpack(self, key: int) -> Exponents:
        mask = self._mask
        return tuple([key >> s & mask for s in self._digits])

    def grading(self, block_degrees: Sequence[int], weight: int, cov_degree: int = 0) -> int:
        """The packed grading that `key >> shift` gives for monomials of this grading."""
        return sum(map(lshift, (*block_degrees, weight, cov_degree), self._fields))

    def read_grading(self, grading: int) -> tuple[tuple[int, ...], int, int]:
        """(block_degrees, weight, cov_degree) of a packed grading, such as `key >> shift`."""
        mask = self._mask
        *block_degrees, weight, cov_degree = [grading >> s & mask for s in self._fields]
        return tuple(block_degrees), weight, cov_degree

    def pack_terms(self, terms: "Polynomial | Terms") -> PackedTerms:
        """The packed term map of `terms`, unchecked: every term must be of total degree <= `degree`.

        Unlike `pack`, no term's degree is tested; one above the bound would
        carry into the next field.  Each caller picks its packing from a
        bound on the terms it packs: `kernel._Tables.row` packs only
        generators of one total degree <= its packing's, and
        `Polynomial.__mul__` each operand in the packing of the sum of their
        total degrees.  `kernel._combination` packs a homogeneous p term by
        term, with these slots, in the packing of p's degree.
        """
        slots = self.slots
        return {sum(map(mul, exps, slots)): c for exps, c in terms.items()}

    def unpack_terms(self, terms: PackedTerms) -> Terms:
        return {self.unpack(key): c for key, c in terms.items()}


# the bit width of the small degrees' one packing; a wider floor makes every key a wider int
_FLOOR_BITS = 4


def packing_for(ambient: Ambient, degree: int) -> Packing:
    """The shared `Packing` of `ambient` for total degree <= `degree`: one for every small degree, then one per bit width.

    The bit width is the one `Packing(ambient, degree)` takes, but at least
    `_FLOOR_BITS`, and the packing's `degree` is the largest that width
    holds, (2^bits - 1) // k.  So every degree with k*degree <= 15 (d <= 7
    at k = 2, d <= 15 at k = 1) shares the one floor packing, every larger
    degree of one width shares one packing, and the tables built on a
    packing (`kernel._Tables`) serve all its degrees.  That changes no
    order: a key is its fields, most significant first, and no field
    carries while every value is below 2^bits, so two packings that both
    hold degree d order the monomials of degree <= d alike and read the
    same grading from each; a wider field still holds every digit.
    """
    if type(degree) is not int or degree < 0:
        raise ValueError(f"packing degree must be a non-negative int, got {degree!r}")
    return _packing(ambient, max(_FLOOR_BITS, (ambient.k * degree).bit_length()))


@cache
def _packing(ambient: Ambient, bits: int) -> Packing:
    """The `Packing` of `ambient` for the largest degree that `bits` bits hold, built once per pair.

    At k >= 16 the floor width holds degree 0 only, the one degree
    `packing_for` asks of it there.
    """
    return Packing(ambient, ((1 << bits) - 1) // ambient.k)


def mul_terms(a: PackedTerms, b: PackedTerms) -> PackedTerms:
    """a * b for packed term maps, the one polynomial product; int inputs give int coefficients.

    Both maps must be packed by one `Packing` whose degree bound covers
    the product.  Coefficients are multiplied as they are: an integral
    `Fraction` result is left to the caller.
    """
    out: PackedTerms = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = ea + eb
            acc = out.get(key, 0) + ca * cb
            if acc:
                out[key] = acc
            else:
                out.pop(key, None)
    return out


class Polynomial:
    """Immutable sparse polynomial over an `Ambient`.

    Treat instances as frozen: all arithmetic returns new objects, and the
    internal term map is never mutated after construction, so values may be
    shared freely between threads or tasks.
    """

    __slots__ = ("ambient", "_terms")

    def __init__(self, ambient: Ambient, terms: Mapping[Exponents, Scalar] | Iterable[tuple[Exponents, Scalar]] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        clean: Terms = {}
        width = ambient.width
        for exps, coeff in items:
            if len(exps) != width or any(type(e) is not int or e < 0 for e in exps):
                raise AmbientMismatch(f"exponent tuple {exps} does not fit ambient (n={ambient.n}, k={ambient.k})")
            if type(coeff) is bool or not isinstance(coeff, (int, Fraction)):
                raise TypeError(f"coefficient {coeff!r} is not an int or a Fraction")
            if coeff:
                acc = clean.get(exps, 0) + coeff
                if acc:
                    clean[exps] = acc
                else:
                    clean.pop(exps, None)
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "_terms", _integral(clean))

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    def __reduce__(self):
        # pickle, copy and deepcopy rebuild through `_wrap`; their default would restore
        # the slots through the raising __setattr__
        return _wrap, (self.ambient, self._terms)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, ambient: Ambient) -> "Polynomial":
        return cls(ambient)

    @classmethod
    def one(cls, ambient: Ambient) -> "Polynomial":
        return cls.constant(ambient, 1)

    @classmethod
    def constant(cls, ambient: Ambient, value: Scalar) -> "Polynomial":
        return cls(ambient, {(0,) * ambient.width: value})

    @classmethod
    def variable(cls, ambient: Ambient, v: Variable) -> "Polynomial":
        exps = [0] * ambient.width
        exps[ambient.index(v)] = 1
        return cls(ambient, {tuple(exps): 1})

    @classmethod
    def monomial(cls, ambient: Ambient, powers: Mapping[Variable, int], coeff: Scalar = 1) -> "Polynomial":
        exps = [0] * ambient.width
        for v, e in powers.items():
            exps[ambient.index(v)] += e
        return cls(ambient, {tuple(exps): coeff})

    # -- inspection --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def items(self) -> Iterator[tuple[Exponents, Scalar]]:
        """Unordered term iteration (fast path for internal computation)."""
        return iter(self._terms.items())

    def terms(self) -> list[tuple[Exponents, Scalar]]:
        """Terms in canonical order: graded lex, highest first."""
        return sorted(self._terms.items(), key=lambda kv: monomial_sort_key(kv[0]), reverse=True)

    def coefficient(self, exps: Exponents) -> Scalar:
        return self._terms.get(tuple(exps), 0)

    def total_degree(self) -> int:
        """Largest total degree over all terms; 0 for the zero polynomial."""
        return max((sum(e) for e in self._terms), default=0)

    def homogeneous_degree(self) -> int | None:
        """The common total degree of all terms, or None if degrees are mixed."""
        degrees = {sum(e) for e in self._terms}
        if not degrees:
            return 0
        if len(degrees) > 1:
            return None
        return degrees.pop()

    def gradings(self) -> set[tuple[tuple[int, ...], int, int]]:
        """Distinct (block_degrees, weight, covariant_degree) triples of the terms."""
        amb = self.ambient
        return {
            (amb.block_degrees(exps), amb.weight(exps), amb.cov_degree(exps))
            for exps in self._terms
        }

    # -- arithmetic --------------------------------------------------------

    def _check_ambient(self, other: "Polynomial"):
        if self.ambient != other.ambient:
            raise AmbientMismatch(
                f"ambients differ: (n={self.ambient.n}, k={self.ambient.k}) vs (n={other.ambient.n}, k={other.ambient.k})"
            )

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):  # a bool operand acts as an int, as in Python arithmetic
            other = Polynomial.constant(self.ambient, Fraction(other))
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_ambient(other)
        out = dict(self._terms)
        for exps, c in other._terms.items():
            acc = out.get(exps, 0) + c
            if acc:
                out[exps] = acc
            else:
                out.pop(exps, None)
        return _wrap(self.ambient, out)

    __radd__ = __add__

    def __neg__(self):
        return _wrap(self.ambient, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other):
        if not isinstance(other, (int, Fraction, Polynomial)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return Polynomial.zero(self.ambient)
            return _wrap(self.ambient, {e: c * other for e, c in self._terms.items()})
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_ambient(other)
        packing = packing_for(self.ambient, self.total_degree() + other.total_degree())
        product = mul_terms(packing.pack_terms(self._terms), packing.pack_terms(other._terms))
        return _wrap(self.ambient, packing.unpack_terms(product))

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial powers must be non-negative integers")
        result = Polynomial.one(self.ambient)
        for _ in range(exponent):
            result = result * self
        return result

    def partial(self, v: Variable) -> "Polynomial":
        """Formal partial derivative with respect to one variable."""
        idx = self.ambient.index(v)
        out: Terms = {}
        for exps, c in self._terms.items():
            e = exps[idx]
            if e:
                out[exps[:idx] + (e - 1,) + exps[idx + 1 :]] = c * e  # distinct terms give distinct keys
        return _wrap(self.ambient, out)

    # -- equality and display ----------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.ambient, Fraction(other))
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ambient == other.ambient and self._terms == other._terms

    def __hash__(self):
        if not any(map(any, self._terms)):  # zero or a constant: hash as the scalar it equals
            return hash(self._terms.get((0,) * self.ambient.width, 0))
        return hash((self.ambient, frozenset(self._terms.items())))

    def __str__(self):
        amb = self.ambient

        def factors(exps: Exponents) -> list[str]:
            # factors print layer by layer (x's, then y's, ...), covariants last
            order = sorted((i for i, e in enumerate(exps) if e), key=lambda i: (i >= amb.ring_width, amb.level_at(i), i))
            named = ((amb.variable_at(i).name, exps[i]) for i in order)
            return [name if e == 1 else f"{name}^{e}" for name, e in named]

        return _signed_sum((coeff, factors(exps)) for exps, coeff in self.terms())

    def __repr__(self):
        return f"Polynomial(n={self.ambient.n}, k={self.ambient.k}, {str(self)!r})"


def _signed_sum(terms: Iterable[tuple[Scalar, Sequence[str]]]) -> str:
    """Coefficient-and-factors terms as text, the one format of polynomials and combinations.

    A term's body is its factors joined by "*", after its coefficient's
    absolute value unless that is 1 on a nonempty product.  The first body
    is signed "-" only when negative, the others are joined by " + " or
    " - ", and no term at all reads "0".  Each coefficient's sign and
    magnitude are taken once.
    """
    parts: list[str] = []
    for coeff, factors in terms:
        negative = coeff < 0
        magnitude = -coeff if negative else coeff
        body = "*".join(factors if factors and magnitude == 1 else (str(magnitude), *factors))
        if parts:
            parts.append(f" - {body}" if negative else f" + {body}")
        else:
            parts.append(f"-{body}" if negative else body)
    return "".join(parts) or "0"


def _wrap(ambient: Ambient, terms: Terms) -> Polynomial:
    """Internal fast path: a Polynomial of `terms`, which have no zeros and exponent tuples of the right width."""
    p = Polynomial.__new__(Polynomial)
    object.__setattr__(p, "ambient", ambient)
    object.__setattr__(p, "_terms", _integral(terms))
    return p


# -- parsing ----------------------------------------------------------------

# a space between two characters that a token may join, in text whose whitespace
# runs are single spaces: well-formed text has none, since an int or a name is
# never followed by an int or a name (the literal space first makes the search fast)
_GLUED = re.compile(r" (?<=[\w.] )[\w.]")

# The two patterns below are kept as text, compiled by `re` on first use and
# cached there, so the import compiles neither: only a factor new to its table
# and text the scan did not take read them.

# one factor of a term, whole: a variable name, optionally raised to a power
_FACTOR = r"([xyz]\d+|v\d+\.\d+|CX|CY)(?:\^(\d+))?"
_FACTORS_MAX = 4096  # texts kept in one ambient's factor table

# one match per token, leading whitespace skipped: an unsigned integer, a
# variable name, an operator, or (last group) any other character, which no
# rule of the grammar accepts
_TOKENS = r"\s*(?:(\d+)|([xyz]\d+|v\d+\.\d+|CX|CY)|([-+*/^])|(\S))"
_END = ("", "", "", "")  # appended after the last token

_SIGNS = ("+", "-")

_LEVEL_BY_LETTER = {"x": 0, "y": 1, "z": 2}


def _position(text: str, index: int) -> int:
    """0-based character offset of token `index` of `text`; len(text) for the end."""
    for i, m in enumerate(re.finditer(_TOKENS, text)):
        if i == index:
            return m.start(m.lastindex)
    return len(text)


def _variable_from_name(name: str) -> Variable:
    """The variable a name token denotes; UnknownVariable for a chain block below 1."""
    if name == "CX":
        return COV_X
    if name == "CY":
        return COV_Y
    if name[0] == "v":
        block, level = name[1:].split(".")
        return ring_var(int(block), int(level))
    return ring_var(int(name[1:]), _LEVEL_BY_LETTER[name[0]])


@cache
def _factor_table(ambient: Ambient) -> dict[str, tuple[int, int]]:
    """Factor text -> (slot, exponent) in `ambient`, such as "y2^2" -> (slot of y2, 2), filled by `_factor`.

    One table per ambient, so a parse hashes its ambient once, not once per
    factor; it keeps at most _FACTORS_MAX texts.
    """
    return {}


def _factor(table: dict[str, tuple[int, int]], ambient: Ambient, text: str) -> tuple[int, int] | None:
    """(slot, exponent) of a factor text new to `table`, kept there while it has room; None unless well formed.

    Well formed is what the token loop reads as one factor: `_FACTOR` matches
    the whole text, the name is a variable of `ambient` and the exponent is
    positive.
    """
    match = re.fullmatch(_FACTOR, text)
    if match is None:
        return None
    name, power = match.groups()
    exponent = int(power) if power else 1
    if exponent < 1:
        return None
    try:
        slot = ambient.index(_variable_from_name(name))
    except UnknownVariable:
        return None
    if len(table) < _FACTORS_MAX:
        table[text] = (slot, exponent)
    return slot, exponent


def _scan(text: str, ambient: Ambient) -> Terms | None:
    """The term map of well-formed `text`, terms added in text order; None for any other text.

    Whitespace is dropped first, once `_GLUED` finds none between two
    characters that a token may join, so dropping it changes no token.  The
    text is split into terms on '+'/'-' (a leading sign leaves an empty first
    piece, which is dropped), and each term on '*'.  A term's head is its
    coefficient when it reads digits or digits/digits with a nonzero
    denominator; digits are the decimal characters (str.isdecimal) that the
    token regex reads as digits.
    Every other piece is a factor, looked up in the ambient's factor table
    (`_factor_table`, `_factor` for a text new to it).  An empty piece, a
    head or factor of any other form (a glued token, a zero exponent or
    denominator, an unknown or out-of-ambient name, an unexpected character)
    gives None.  So the scan takes exactly the well-formed texts, and reads
    the terms the grammar does.
    """
    words = text.split()
    if len(words) > 1 and _GLUED.search(" ".join(words)):
        return None
    table = _factor_table(ambient)
    zero = [0] * ambient.width
    terms: Terms = {}
    pieces = "".join(words).replace("-", "+-").split("+")
    if len(pieces) > 1 and not pieces[0]:
        del pieces[0]
    for piece in pieces:
        negative = piece.startswith("-")
        factors = (piece[1:] if negative else piece).split("*")
        head = factors[0]
        coeff: Scalar = 1
        if head.isdecimal():
            coeff = int(head)
            del factors[0]
        elif "/" in head:
            numerator, _, denominator = head.partition("/")
            if not (numerator.isdecimal() and denominator.isdecimal() and int(denominator)):
                return None
            coeff = Fraction(int(numerator), int(denominator))
            del factors[0]
        exps = zero.copy()
        for factor in factors:
            entry = table.get(factor) or _factor(table, ambient, factor)
            if entry is None:
                return None
            slot, exponent = entry
            exps[slot] += exponent
        key = tuple(exps)
        acc = terms.get(key, 0) + (-coeff if negative else coeff)
        if acc:
            terms[key] = acc
        else:
            terms.pop(key, None)
    return terms


def _name_error(text: str, index: int, name: str, ambient: Ambient) -> ValueError:
    """The error for name token `index`, which denotes no variable of `ambient`."""
    pos = _position(text, index)
    try:
        _variable_from_name(name)
    except UnknownVariable:
        return ParseError(f"no variable named {name!r}", pos)
    return AmbientMismatch(
        f"variable {name!r} exceeds ambient (n={ambient.n}, k={ambient.k}) at position {pos}", position=pos
    )


def _posint(text: str, tokens: list[tuple[str, str, str, str]], index: int, what: str) -> None:
    """Raise ParseError unless token `index` is a positive integer `what`."""
    digits = tokens[index][0]
    if not digits or int(digits) < 1:
        raise ParseError(f"expected a positive integer {what}", _position(text, index))


def _raise_syntax_error(text: str, ambient: Ambient) -> NoReturn:
    """Raise the error of text that `_scan` did not take, found by one loop over its tokens.

    An unexpected character anywhere is the error; else the tokens are read
    in grammar order, and the first one the grammar does not accept there is.
    Every well-formed text is taken by `_scan` but one holding an int too
    long for `int` to convert, where the loop raises that ValueError at the
    first such int, as reading it does; so the loop never reaches the end
    without an error.
    """
    tokens = re.findall(_TOKENS, text)
    for index, token in enumerate(tokens):
        if token[3]:
            raise ParseError(f"unexpected character {token[3]!r}", _position(text, index))
    tokens.append(_END)
    i = 1 if tokens[0][2] in _SIGNS else 0
    while True:
        more = True
        if digits := tokens[i][0]:  # a coefficient
            int(digits)  # raises ValueError where reading an int too long to convert does
            i += 1
            if tokens[i][2] == "/":
                _posint(text, tokens, i + 1, "denominator")
                i += 2
            more = tokens[i][2] == "*"  # else a bare constant term
            i += more
        while more:
            name = tokens[i][1]
            if not name:
                value = "".join(tokens[i])
                raise ParseError(f"expected a variable, got {value!r}" if value else "expected a variable", _position(text, i))
            try:
                ambient.index(_variable_from_name(name))
            except UnknownVariable:
                raise _name_error(text, i, name, ambient) from None
            i += 1
            if tokens[i][2] == "^":
                _posint(text, tokens, i + 1, "exponent")
                i += 2
            more = tokens[i][2] == "*"
            i += more
        token = tokens[i]
        if token is _END:
            raise AssertionError(f"the scan did not take well-formed text {text!r}")
        if token[2] not in _SIGNS:
            raise ParseError(f"expected '+' or '-', got {''.join(token)!r}", _position(text, i))
        i += 1


def parse(text: str, ambient: Ambient) -> Polynomial:
    """Parse polynomial text.

    Grammar: terms joined by '+'/'-'; a term is an optional rational
    coefficient followed by '*'-joined variable factors, each optionally
    raised with '^'; variables are x1../y1../z1../v1.3../CX/CY.  A bare
    rational is accepted as a constant term, and the first term may carry
    a leading sign.  Whitespace is insignificant.  Errors carry the 0-based
    character offset of the offending token (len(text) at the end); an
    unexpected character anywhere is reported before any syntax error.

    Well-formed text is read by one scan (`_scan`): whitespace dropped, the
    text split on signs and '*', and each factor read from a per-ambient
    table of factor texts.  Any other text goes to one loop over its regex
    tokens (`_raise_syntax_error`), the only code that raises, which finds the
    error and its offset.
    """
    try:
        terms = _scan(text, ambient)
    except ValueError:  # an int longer than `int` converts (sys.get_int_max_str_digits): the token loop raises in order
        terms = None
    if terms is None:
        _raise_syntax_error(text, ambient)
    return _wrap(ambient, terms)  # the term map is zero-free with non-negative int exponents
