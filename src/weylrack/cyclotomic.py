"""Exact arithmetic in cyclotomic fields Q(zeta_m).

A scalar is the residue of a rational polynomial modulo the m-th cyclotomic
polynomial Phi_m, stored as its coefficients on 1, zeta, ..., zeta^(d-1),
d = phi(m).  Phi_m is monic with integer coefficients, so sums, products and
reductions of elements of Z[zeta_m] stay in Z[zeta_m]: a coefficient is a
plain ``int`` whenever its value is an integer and a ``Fraction`` only
otherwise.  A product is the schoolbook product reduced modulo Phi_m, which
needs no division because Phi_m is monic.  Inverses come from the extended
Euclidean algorithm over Q, and their integral coefficients turn back into
``int``, so the inverse of a unit +-zeta^k has ``int`` coefficients.  No
floating point anywhere.

The Nichols engine (``nichols.nichols_graded_dims``) uses these scalars only
when its braiding has a non-rational scalar.  A braiding whose scalars all
lie in Q (every +-1 character, over any Q(zeta_m)) runs over Q on ``int``
and ``Fraction`` values instead: the ``nichols`` benchmark (S_4
transpositions, sign character, degree 5) takes about 0.05 s instead of
0.22 s on ``CycScalar`` (2 cores, host-corrected; see
``BENCH_nichols_rational.json``).  Scalars still build the braiding and run
the ``symmetrizer_rank`` oracle and every non-rational character (zeta_3 on
S_3 3-cycles, say).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import add, neg, sub

from .linalg import _normal

ORDER_BOUND = 1000  # the largest order CycScalar.multiplicative_order looks for


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Coefficients (low to high) of the m-th cyclotomic polynomial."""
    if m == 1:
        return (-1, 1)
    num = [0] * (m + 1)
    num[0], num[m] = -1, 1
    for d in range(1, m):
        if m % d == 0:
            # Phi_d is monic, so the quotient stays ``int``
            num, rem = _poly_divmod(num, cyclotomic_polynomial(d))
            if any(rem):
                raise ArithmeticError("non-exact polynomial division")
    return tuple(num)


def _rational(q):
    """``q`` as an exact coefficient: ``int`` if integral, else ``Fraction``."""
    return q if type(q) is int else _normal(Fraction(q))


def _div(a, b):
    """The exact quotient a / b of two coefficients (the one division here)."""
    return _normal(Fraction(a) / b)


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
        f = self.field
        if not self:
            raise ZeroDivisionError("inverse of zero scalar")
        # extended Euclid in Q[x] against the (monic, irreducible) modulus
        a = list(f.poly)
        b = list(self.coeffs)
        sa, sb = [0], [1]

        def strip(p):
            while p and not p[-1]:
                p.pop()
            return p

        strip(b)
        while len(b) > 1:
            q, r = _poly_divmod(a, b)
            a, b = b, r
            sa, sb = sb, _poly_sub(sa, _poly_mul(q, sb))
            strip(b)
        if not b:
            raise ZeroDivisionError("scalar not invertible (modulus not coprime)")
        c = b[0]
        return _make(f, _tidy(f._reduce([_div(s, c) for s in sb])))

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
        """Smallest k with self**k == 1, or None if none up to ``ORDER_BOUND``."""
        acc = self.field.one
        for k in range(1, ORDER_BOUND + 1):
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
    num = list(num)
    dn = len(den) - 1
    lead = den[-1]
    q = [0] * max(1, len(num) - dn)
    for k in range(len(num) - dn - 1, -1, -1):
        c = _div(num[k + dn], lead)
        q[k] = c
        if c:
            for i, d in enumerate(den):
                num[k + i] -= c * d
    return q, num[:dn]


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _poly_sub(a, b):
    out = [0] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, y in enumerate(b):
        out[i] -= y
    return out
