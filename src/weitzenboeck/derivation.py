"""The chain derivation D and its known kernel generator families.

D acts on each block by shifting one level down: D(v_{i,j}) = v_{i,j-1}
for j >= 1, D(x_i) = 0, and D annihilates CX and CY.  It extends to the
whole ring by linearity and the Leibniz rule.  Each application strictly
lowers the weight of every surviving term, so D is locally nilpotent.

For k = 1 the kernel is generated by x_1..x_n together with the 2x2
Jacobian determinants J_{i,j} = x_i*y_j - x_j*y_i (Nowicki's family).
For k = 2 the family extends by H_{i,j} = x_i*z_j - y_i*y_j + z_i*x_j
(i <= j; the diagonal H_{i,i} = 2*x_i*z_i - y_i^2 is required) and the
3x3 determinants D_{i,j,l} in the x/y/z rows.  No generating family is
implemented for k >= 3; use the kernel census for that open case.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations, combinations_with_replacement, permutations

from .errors import AmbientMismatch, UnknownLabel, UnsupportedK
from .poly import Ambient, Polynomial, Terms, _Frozen, x, y, z


class WeitzenboeckDerivation(_Frozen):
    """The down-shift derivation on n chains of length k+1."""

    _fields = ("n", "k")

    def __init__(self, n: int, k: int):
        self.__dict__.update(n=n, k=k)

    @property
    def ambient(self) -> Ambient:
        return Ambient(self.n, self.k)

    def _check(self, p: Polynomial):
        if (p.ambient.n, p.ambient.k) != (self.n, self.k):
            raise AmbientMismatch(
                f"polynomial ambient (n={p.ambient.n}, k={p.ambient.k}) "
                f"does not match derivation (n={self.n}, k={self.k})"
            )

    def apply(self, p: Polynomial) -> Polynomial:
        """Leibniz expansion of D over each term of p.

        In the dense layout a ring slot of level j >= 1 sits directly after
        its level j-1 neighbour, so differentiating one factor moves a unit
        of exponent from slot i to slot i-1 with multiplier e_i.
        """
        self._check(p)
        step = self.k + 1
        ring_width = self.n * step
        out: Terms = {}
        for exps, c in p.items():
            for i in range(ring_width):
                e = exps[i]
                if e and i % step:
                    key = exps[: i - 1] + (exps[i - 1] + 1, e - 1) + exps[i + 1 :]
                    acc = out.get(key, 0) + c * e
                    if acc:
                        out[key] = acc
                    else:
                        out.pop(key, None)
        return Polynomial(p.ambient, out)

    __call__ = apply

    def is_in_kernel(self, p: Polynomial) -> bool:
        return self.apply(p).is_zero

    def nilpotency_index(self, p: Polynomial) -> int:
        """Smallest r with D^r(p) = 0; 0 iff p = 0, 1 iff p is a nonzero kernel element."""
        self._check(p)
        r = 0
        while p:
            p = self.apply(p)
            r += 1
        return r


class GeneratorSet(_Frozen):
    """Labeled kernel generators for D on (n, k), in deterministic order."""

    _fields = ("n", "k", "items")

    def __init__(self, n: int, k: int, items: tuple[tuple[str, Polynomial], ...]):
        self.__dict__.update(n=n, k=k, items=items, _by_label=dict(items))

    def __hash__(self):
        # equal sets have equal labels; hashing the labels alone keeps caches keyed on a
        # set from hashing every polynomial (equality still compares the polynomials)
        return hash((self.n, self.k, tuple(self._by_label)))

    def __iter__(self):
        return iter(self.items)

    def __len__(self):
        return len(self.items)

    def labels(self) -> list[str]:
        return [label for label, _ in self.items]

    def value(self, label: str) -> Polynomial:
        return self._by_label[label]

    def without(self, *labels: str) -> "GeneratorSet":
        """A copy with the given generators removed (UnknownLabel, a KeyError, if a label is unknown)."""
        for lab in labels:
            if lab not in self._by_label:
                raise UnknownLabel(lab)
        dropped = set(labels)
        return GeneratorSet(self.n, self.k, tuple(it for it in self.items if it[0] not in dropped))


@cache
def generators(n: int, k: int) -> GeneratorSet:
    """The known kernel generator family for k = 1 or k = 2.

    Counts: n + C(n,2) for k = 1; additionally C(n+1,2) H's and C(n,3)
    determinants for k = 2.  Raises UnsupportedK for k >= 3, where finding
    a generating family is an open problem.  Each generator's terms are
    written from its closed form, with no polynomial arithmetic (D_{i,j,l}
    is the signed sum of x_a*y_b*z_c over the permutations (a, b, c) of
    (i, j, l)).  Built once per (n, k) and shared: the set and its
    polynomials are immutable.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if k not in (1, 2):
        raise UnsupportedK(f"no generator family for k = {k} (only k = 1 and k = 2)")
    amb = Ambient(n, k)

    def mono(*variables) -> tuple[int, ...]:
        exps = [0] * amb.width
        for v in variables:
            exps[amb.index(v)] += 1
        return tuple(exps)

    blocks = range(1, n + 1)
    items = [(f"x{i}", Polynomial(amb, {mono(x(i)): 1})) for i in blocks]
    for i, j in combinations(blocks, 2):
        items.append((f"J{i},{j}", Polynomial(amb, [(mono(x(i), y(j)), 1), (mono(x(j), y(i)), -1)])))
    if k == 2:
        for i, j in combinations_with_replacement(blocks, 2):
            # at i = j the constructor adds the two x_i*z_i terms: 2*x_i*z_i - y_i^2
            terms = [(mono(x(i), z(j)), 1), (mono(y(i), y(j)), -1), (mono(z(i), x(j)), 1)]
            items.append((f"H{i},{j}", Polynomial(amb, terms)))
        for i, j, l in combinations(blocks, 3):
            # a permutation of i < j < l is odd when it has an odd number of inversions
            terms = [(mono(x(a), y(b), z(c)), (-1) ** ((a > b) + (a > c) + (b > c))) for a, b, c in permutations((i, j, l))]
            items.append((f"D{i},{j},{l}", Polynomial(amb, terms)))
    return GeneratorSet(n, k, tuple(items))
