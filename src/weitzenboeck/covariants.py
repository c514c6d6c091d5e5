"""Binary-form covariants: linear forms, transvectants, and the leading
coefficient map tau.

A covariant is a polynomial that is homogeneous in the covariant
variables CX, CY; its degree in them is the "order".  The r-th
transvectant of u and v is

    (u, v)^r = sum_{i=0}^{r} (-1)^i * C(r, i)
               * d^r u / dCX^{r-i} dCY^i  *  d^r v / dCX^i dCY^{r-i}

with no factorial prefactor, so (u, v)^0 = u*v and (u, v)^1 is the
Jacobian of u and v in CX, CY.  tau sends a covariant of order m to its
coefficient of CX^m, a polynomial in the ring variables only; for linear
forms f_i = x_i*CX + y_i*CY this gives tau(f_i) = x_i and
tau(J(f_i, f_j)) = x_i*y_j - x_j*y_i.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .errors import IndexOutOfRange, NegativeOrder, NonHomogeneousOrder
from .poly import COV_X, COV_Y, Ambient, Polynomial, _Frozen, x, y


class Covariant(_Frozen):
    """A polynomial homogeneous of degree `order` in CX, CY."""

    _fields = ("value", "order")

    def __init__(self, value: Polynomial, order: int):
        amb = value.ambient
        for exps, _ in value.items():
            if amb.cov_degree(exps) != order:
                raise NonHomogeneousOrder(
                    f"term of covariant degree {amb.cov_degree(exps)} in a covariant of order {order}"
                )
        self.__dict__.update(value=value, order=order)

    @classmethod
    def from_polynomial(cls, p: Polynomial) -> "Covariant":
        """Wrap p, deriving the order; raises NonHomogeneousOrder if mixed."""
        orders = {p.ambient.cov_degree(exps) for exps, _ in p.items()}
        if len(orders) > 1:
            raise NonHomogeneousOrder(f"mixed covariant degrees {sorted(orders)}")
        return cls(p, orders.pop() if orders else 0)

    @property
    def is_zero(self) -> bool:
        return self.value.is_zero

    def __add__(self, other):
        if not isinstance(other, Covariant):
            return NotImplemented
        return Covariant.from_polynomial(self.value + other.value)

    def __sub__(self, other):
        if not isinstance(other, Covariant):
            return NotImplemented
        return Covariant.from_polynomial(self.value - other.value)

    def __mul__(self, other):
        if isinstance(other, Covariant):
            return Covariant.from_polynomial(self.value * other.value)
        if isinstance(other, (int, Fraction)):
            return Covariant.from_polynomial(self.value * other)
        return NotImplemented

    __rmul__ = __mul__

    def __str__(self):
        return str(self.value)


def linear_form(i: int, n: int, k: int = 1) -> Covariant:
    """The i-th linear form x_i*CX + y_i*CY (1 <= i <= n)."""
    if not (1 <= i <= n):
        raise IndexOutOfRange(f"linear form index {i} outside 1..{n}")
    amb = Ambient(n, k)
    value = Polynomial.variable(amb, x(i)) * Polynomial.variable(amb, COV_X) + Polynomial.variable(
        amb, y(i)
    ) * Polynomial.variable(amb, COV_Y)
    return Covariant(value, 1)


def _cov_partial(p: Polynomial, dx: int, dy: int) -> Polynomial:
    for _ in range(dx):
        p = p.partial(COV_X)
    for _ in range(dy):
        p = p.partial(COV_Y)
    return p


def transvectant(u: Covariant, v: Covariant, r: int) -> Covariant:
    """The r-th transvectant (u, v)^r, unnormalized."""
    if r < 0:
        raise NegativeOrder(f"transvectant order must be >= 0, got {r}")
    total = Polynomial.zero(u.value.ambient)
    for i in range(r + 1):
        du = _cov_partial(u.value, r - i, i)
        dv = _cov_partial(v.value, i, r - i)
        term = du * dv * comb(r, i)
        total = total - term if i % 2 else total + term
    return Covariant.from_polynomial(total)


def jacobian(u: Covariant, v: Covariant) -> Covariant:
    """The Jacobian of u and v in CX, CY, i.e. the first transvectant."""
    return transvectant(u, v, 1)


def tau(c: Covariant) -> Polynomial:
    """Coefficient of CX^order: the semi-invariant attached to a covariant.

    Order 0 covariants are returned unchanged.  The result involves only
    ring variables (covariant slots cleared) and lies in the kernel of the
    k = 1 chain derivation whenever c is built from linear forms and their
    transvectants.
    """
    amb = c.value.ambient
    cx_idx = amb.ring_width
    out = {}
    for exps, coeff in c.value.items():
        if exps[cx_idx] == c.order and exps[cx_idx + 1] == 0:
            out[exps[:cx_idx] + (0, 0)] = coeff
    return Polynomial(amb, out)
