"""Reference values computed without the library code paths under test.

Everything here is deliberately independent of `weitzenboeck.kernel`:

- kernel dimensions come from counting monomials (no matrix at all):
  in the graded piece (b, w) the kernel of D has dimension
  N(b, w) - N(b, w-1) when 2w <= k*|b|, and 0 otherwise, where N counts
  the monomials of block multidegree b and weight w;
- spans of generator products are expanded with plain dict arithmetic and
  ranked modulo the prime 2^61 - 1 (generators have integer coefficients,
  so their products do too);
- polynomials for the CLI are printed with a local printer, and printed
  `express` combinations are parsed and re-expanded locally.

Polynomials are dicts mapping full-width exponent tuples (ring slots laid
out block-major, level-minor, then the two covariant slots) to int or
Fraction coefficients, matching the library's dense layout.
"""

from __future__ import annotations

import re
from fractions import Fraction

PRIME = (1 << 61) - 1


def compositions(total: int, parts: int):
    """All tuples of `parts` non-negative integers summing to `total`."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in compositions(total - head, parts - 1):
            yield (head,) + tail


def block_weight_counts(degree: int, k: int) -> list[int]:
    """counts[w] = number of degree-`degree` monomials in one chain of k+1 variables with weight w."""
    # multisets of levels 0..k of size `degree`, graded by level sum
    table = [[0] * (k * degree + 1) for _ in range(degree + 1)]
    table[0][0] = 1
    for level in range(k + 1):
        for size in range(1, degree + 1):
            row, prev = table[size], table[size - 1]
            for w in range(level, k * size + 1):
                row[w] += prev[w - level]
    return table[degree]


def piece_monomial_counts(block_degrees: tuple[int, ...], k: int) -> list[int]:
    """N(b, w) for every weight w, by convolving the per-block counts."""
    total = [1]
    for d in block_degrees:
        block = block_weight_counts(d, k)
        out = [0] * (len(total) + len(block) - 1)
        for i, a in enumerate(total):
            if a:
                for j, c in enumerate(block):
                    out[i + j] += a * c
        total = out
    return total


def piece_kernel_dims(n: int, k: int, degree: int) -> dict[tuple[tuple[int, ...], int], int]:
    """Kernel dimension of every nonzero graded piece (b, w) of total degree `degree`."""
    dims = {}
    for b in compositions(degree, n):
        counts = piece_monomial_counts(b, k)
        for w in range(len(counts)):
            if 2 * w <= k * degree:
                dim = counts[w] - (counts[w - 1] if w else 0)
                if dim:
                    dims[(b, w)] = dim
    return dims


def kernel_dim(n: int, k: int, degree: int) -> int:
    return sum(piece_kernel_dims(n, k, degree).values())


def piece_count(n: int, k: int, degree: int) -> int:
    """Number of graded pieces (b, w), 0 <= w <= k*degree, in total degree `degree`."""
    return sum(1 for _ in compositions(degree, n)) * (k * degree + 1)


# -- dict polynomials ------------------------------------------------------------


def poly_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            acc = out.get(key, 0) + ca * cb
            if acc:
                out[key] = acc
            else:
                out.pop(key, None)
    return out


def poly_add_scaled(acc: dict, p: dict, scale) -> None:
    """acc += scale * p, in place."""
    for e, c in p.items():
        v = acc.get(e, 0) + scale * c
        if v:
            acc[e] = v
        else:
            acc.pop(e, None)


def poly_product(factors: list[dict], width: int) -> dict:
    value = {(0,) * width: 1}
    for f in factors:
        value = poly_mul(value, f)
    return value


def grading(exps: tuple[int, ...], n: int, k: int) -> tuple[tuple[int, ...], int]:
    """(block degrees, weight) of a ring monomial."""
    step = k + 1
    blocks = tuple(sum(exps[i * step : (i + 1) * step]) for i in range(n))
    weight = sum((i % step) * e for i, e in enumerate(exps[: n * step]))
    return blocks, weight


def variable_name(slot: int, k: int) -> str:
    block, level = divmod(slot, k + 1)
    return f"{'xyz'[level]}{block + 1}" if level < 3 else f"v{block + 1}.{level}"


def format_poly(p: dict, k: int) -> str:
    """Polynomial text in the CLI grammar (term order is irrelevant to the parser)."""
    terms = []
    for exps in sorted(p):
        factors = [variable_name(i, k) + (f"^{e}" if e > 1 else "") for i, e in enumerate(exps) if e]
        terms.append((p[exps], "*".join(factors)))
    parts = []
    for coeff, body in terms:
        text = str(abs(coeff)) + ("*" + body if body else "")
        sign = "-" if coeff < 0 else "+"
        parts.append(f"{sign} {text}")
    return " ".join(parts).lstrip("+ ") if parts else "0"


# -- generator-product spans ----------------------------------------------------


def product_label_multisets(degrees: list[int], degree: int):
    """Multiplicity vectors m with sum(m[i] * degrees[i]) == degree."""

    def rec(idx: int, remaining: int, prefix: tuple[int, ...]):
        if remaining == 0:
            yield prefix + (0,) * (len(degrees) - idx)
            return
        if idx == len(degrees):
            return
        for mult in range(remaining // degrees[idx] + 1):
            yield from rec(idx + 1, remaining - mult * degrees[idx], prefix + (mult,))

    yield from rec(0, degree, ())


def rank_mod_p(rows: list[dict]) -> int:
    """Rank of sparse integer rows modulo PRIME."""
    pivots: dict = {}
    for row in rows:
        if any(Fraction(v).denominator != 1 for v in row.values()):
            raise ValueError("rank_mod_p needs integer coefficients")
        row = {c: int(v) % PRIME for c, v in row.items() if int(v) % PRIME}
        while row:
            col = min(row)
            piv = pivots.get(col)
            if piv is None:
                inv = pow(row[col], PRIME - 2, PRIME)
                pivots[col] = {c: v * inv % PRIME for c, v in row.items()}
                break
            f = row[col]
            for c, v in piv.items():
                nv = (row.get(c, 0) - f * v) % PRIME
                if nv:
                    row[c] = nv
                else:
                    row.pop(c, None)
    return len(pivots)


def span_dim(gens: list[dict], n: int, k: int, degree: int) -> int:
    """Dimension spanned by all degree-`degree` products of `gens` (homogeneous dict polys)."""
    width = len(next(iter(gens[0])))
    degrees = [sum(next(iter(g))) for g in gens]
    powers = [[{(0,) * width: 1}] for _ in gens]
    by_piece: dict = {}
    for mults in product_label_multisets(degrees, degree):
        value = {(0,) * width: 1}
        for g, pw, m in zip(gens, powers, mults):
            while len(pw) <= m:
                pw.append(poly_mul(pw[-1], g))
            if m:
                value = poly_mul(value, pw[m])
        if value:
            by_piece.setdefault(grading(next(iter(value)), n, k), []).append(value)
    return sum(rank_mod_p(rows) for rows in by_piece.values())


# -- express output ---------------------------------------------------------------

_TERM = re.compile(r"^(?:(\d+(?:/\d+)?)\*)?([^*\s]+(?:\*[^*\s]+)*)$")


def parse_combination(text: str) -> dict[tuple[str, ...], Fraction]:
    """Parse the text form `express` prints, e.g. `x1*x1 - 3/2*x2*J1,2`."""
    text = text.strip()
    if text == "0":
        return {}
    tokens = re.split(r" ([+-]) ", text)
    signs = ["-" if tokens[0].startswith("-") else "+"] + tokens[1::2]
    bodies = [tokens[0].removeprefix("-")] + tokens[2::2]
    out: dict[tuple[str, ...], Fraction] = {}
    for sign, body in zip(signs, bodies):
        m = _TERM.match(body)
        if m is None:
            raise ValueError(f"unparseable combination term {body!r}")
        coeff = Fraction(m.group(1) or 1) * (-1 if sign == "-" else 1)
        labels = tuple(m.group(2).split("*"))
        out[labels] = out.get(labels, 0) + coeff
    return out


def expand_combination(combination: dict, gen_values: dict[str, dict], width: int) -> dict:
    total: dict = {}
    for labels, coeff in combination.items():
        poly_add_scaled(total, poly_product([gen_values[lab] for lab in labels], width), coeff)
    return total
