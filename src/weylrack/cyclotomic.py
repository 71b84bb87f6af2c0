"""Exact arithmetic in cyclotomic fields Q(zeta_m).

A scalar is the residue of a rational polynomial modulo the m-th cyclotomic
polynomial Phi_m, stored as its coefficients on 1, zeta, ..., zeta^(d-1),
d = phi(m).  Phi_m is monic with integer coefficients, so sums, products and
reductions of elements of Z[zeta_m] stay in Z[zeta_m]: a coefficient is a
plain ``int`` whenever its value is an integer and a ``Fraction`` only
otherwise.  A product is the schoolbook product reduced modulo Phi_m, which
needs no division because Phi_m is monic.  An inverse solves the d x d system
of multiplication by the scalar on :func:`linalg.echelon`, the package's one
elimination loop, and its integral coefficients turn back into ``int``, so
the inverse of a unit +-zeta^k has ``int`` coefficients; on Q (m = 1 or 2) it
is the rational's inverse, :func:`linalg._inv`.  The roots of unity
of Q(zeta_m) are the +-zeta^k, of order dividing lcm(2, m), which bounds the
search of :meth:`CycScalar.multiplicative_order`.  No floating point anywhere.

The Nichols engine (``nichols.nichols_graded_dims``) uses these scalars only
when its braiding has a non-rational scalar; a braiding whose scalars all lie
in Q (every +-1 character, over any Q(zeta_m)) runs over Q on ``int`` and
``Fraction`` values instead.  Scalars still build the braiding and run the
``symmetrizer_rank`` oracle and every non-rational character (zeta_3 on S_3
3-cycles, say).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import add, neg, sub

from .linalg import _inv, _normal, back_substitute, echelon


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Coefficients (low to high) of the m-th cyclotomic polynomial."""
    if m == 1:
        return (-1, 1)
    num = [0] * (m + 1)
    num[0], num[m] = -1, 1
    for d in range(1, m):
        if m % d == 0:
            num, rem = _poly_divmod(num, cyclotomic_polynomial(d))
            if any(rem):
                raise ArithmeticError("non-exact polynomial division")
    return tuple(num)


def _rational(q):
    """``q`` as an exact coefficient: ``int`` if integral, else ``Fraction``."""
    return q if type(q) is int else _normal(Fraction(q))


def _tidy(coeffs: tuple) -> tuple:
    """``coeffs`` with every integral ``Fraction`` turned back into an ``int``."""
    for c in coeffs:
        if type(c) is not int:
            return tuple(map(_normal, coeffs))
    return coeffs


class CyclotomicField:
    """Q(zeta_m) with scalars hashed and compared exactly."""

    def __init__(self, m: int):
        if m < 1:
            raise ValueError("modulus must be positive")
        self.m = m
        self.poly = cyclotomic_polynomial(m)
        self.degree = len(self.poly) - 1
        self._zero = _make(self, (0,) * self.degree)
        self._one = self.scalar(1)

    def __repr__(self):
        return f"CyclotomicField({self.m})"

    def __eq__(self, other):
        return isinstance(other, CyclotomicField) and other.m == self.m

    def __hash__(self):
        return hash(("CyclotomicField", self.m))

    @property
    def zero(self) -> "CycScalar":
        return self._zero

    @property
    def one(self) -> "CycScalar":
        return self._one

    def scalar(self, q) -> "CycScalar":
        coeffs = [0] * self.degree
        coeffs[0] = _rational(q)
        return _make(self, tuple(coeffs))

    def zeta(self, k: int = 1) -> "CycScalar":
        """zeta_m^k."""
        k %= self.m
        coeffs = [0] * (k + 1)
        coeffs[k] = 1
        return _make(self, self._reduce(coeffs))

    def from_coeffs(self, coeffs) -> "CycScalar":
        return _make(self, _tidy(self._reduce([_rational(c) for c in coeffs])))

    def minus_one(self) -> "CycScalar":
        return self.scalar(-1)

    def _reduce(self, coeffs: list) -> tuple:
        """A polynomial's coefficient list modulo Phi_m (monic, so no division).

        Input of at most ``degree`` terms is already reduced and is only padded
        with zeros; longer input is copied and its high terms folded down.
        """
        deg = self.degree
        n = len(coeffs)
        if n <= deg:
            return tuple(coeffs) + (0,) * (deg - n)
        coeffs = list(coeffs)
        poly = self.poly
        for k in range(n - 1, deg - 1, -1):
            c = coeffs[k]
            if c:
                for i in range(deg + 1):
                    coeffs[k - deg + i] -= c * poly[i]
        return tuple(coeffs[:deg])


@dataclass(frozen=True, slots=True)
class CycScalar:
    field: CyclotomicField
    coeffs: tuple  # int, or Fraction where the value is not an integer

    def __bool__(self):
        return any(self.coeffs)

    def __add__(self, other):
        f = self.field
        if other.field is not f and other.field != f:
            raise ValueError("mixed cyclotomic moduli")
        return _make(f, _tidy(tuple(map(add, self.coeffs, other.coeffs))))

    def __sub__(self, other):
        f = self.field
        if other.field is not f and other.field != f:
            raise ValueError("mixed cyclotomic moduli")
        return _make(f, _tidy(tuple(map(sub, self.coeffs, other.coeffs))))

    def __neg__(self):
        return _make(self.field, tuple(map(neg, self.coeffs)))

    def __mul__(self, other):
        f = self.field
        if other.field is not f and other.field != f:
            raise ValueError("mixed cyclotomic moduli")
        prod = [0] * (2 * f.degree - 1)
        b = other.coeffs
        for i, x in enumerate(self.coeffs):
            if x:
                for j, y in enumerate(b):
                    if y:
                        prod[i + j] += x * y
        return _make(f, _tidy(f._reduce(prod)))

    def inverse(self) -> "CycScalar":
        """The y with self * y = 1, from the d x d system of multiplication by
        self.  Column j < d holds self * zeta^j and column d the constant
        term, so row i reads (self * y)_i - [i == 0] = 0; in the reduced form
        the row of lead j is y_j + tail[d], so y_j = -tail[d].  On a field of
        degree 1 (m = 1 or 2) a scalar is one rational, inverted by
        :func:`linalg._inv`."""
        f = self.field
        if not self:
            raise ZeroDivisionError("inverse of zero scalar")
        d = f.degree
        if d == 1:
            return _make(f, (_normal(_inv(self.coeffs[0])),))
        cols = [f._reduce([0] * j + list(self.coeffs)) for j in range(d)]
        rows = [{j: col[i] for j, col in enumerate(cols)} for i in range(d)]
        rows[0][d] = -1
        pivots = back_substitute(echelon(rows))
        return _make(f, _tidy(tuple(-pivots[j].get(d, 0) for j in range(d))))

    def __truediv__(self, other):
        return self * other.inverse()

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        out = self.field.one
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def multiplicative_order(self):
        """Smallest k with self**k == 1, or None if self is no root of unity:
        the roots of unity of Q(zeta_m) are the +-zeta^j, whose orders divide
        lcm(2, m)."""
        acc = self.field.one
        for k in range(1, math.lcm(2, self.field.m) + 1):
            acc = acc * self
            if acc == self.field.one:
                return k
        return None

    def __repr__(self):
        return f"Cyc{self.field.m}{list(self.coeffs)}"


_new = object.__new__
# the slot descriptors set fields past the frozen __setattr__, as
# object.__setattr__ would, without its attribute lookup
_set_field = CycScalar.field.__set__
_set_coeffs = CycScalar.coeffs.__set__


def _make(field: CyclotomicField, coeffs: tuple) -> CycScalar:
    """Build a scalar whose coefficients are reduced and tidy, unchecked."""
    x = _new(CycScalar)
    _set_field(x, field)
    _set_coeffs(x, coeffs)
    return x


def _poly_divmod(num, den):
    """Quotient and remainder by the monic ``den``: ``int`` input stays ``int``."""
    num = list(num)
    dn = len(den) - 1
    q = [0] * max(1, len(num) - dn)
    for k in range(len(num) - dn - 1, -1, -1):
        c = num[k + dn]
        q[k] = c
        if c:
            for i, d in enumerate(den):
                num[k + i] -= c * d
    return q, num[:dn]
