"""Exact cyclotomic scalar arithmetic."""
import random
from fractions import Fraction

import pytest

from weylrack import cyclotomic
from weylrack.cyclotomic import CyclotomicField, cyclotomic_polynomial
from weylrack.linalg import _inv


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_cyclotomic_polynomials_multiply_to_x_m_minus_one():
    # x^m - 1 is the product of Phi_d over the divisors d of m
    for m in range(1, 61):
        prod = [1]
        for d in range(1, m + 1):
            if m % d == 0:
                prod = _poly_mul(prod, cyclotomic_polynomial(d))
        assert prod == [-1] + [0] * (m - 1) + [1], m
        assert all(type(c) is int for c in cyclotomic_polynomial(m)), m


def test_field_basics():
    F = CyclotomicField(2)
    assert F.degree == 1
    assert F.zeta() == F.minus_one()
    assert F.one + F.minus_one() == F.zero
    assert F.scalar(Fraction(1, 2)) * F.scalar(2) == F.one


def test_zeta_powers_and_order():
    F = CyclotomicField(12)
    z = F.zeta()
    acc = F.one
    for k in range(12):
        assert acc == F.zeta(k)
        acc = acc * z
    assert acc == F.one
    assert z.multiplicative_order() == 12
    assert F.zeta(6).multiplicative_order() == 2
    assert F.zeta(4).multiplicative_order() == 3
    assert F.minus_one().multiplicative_order() == 2
    assert F.one.multiplicative_order() == 1
    assert F.scalar(2).multiplicative_order() is None


def test_inverse_and_division():
    F = CyclotomicField(5)
    z = F.zeta()
    x = z + F.scalar(3)
    assert x * x.inverse() == F.one
    assert (x / x) == F.one
    with pytest.raises(ZeroDivisionError):
        F.zero.inverse()


def test_minimal_polynomial_relation():
    # 1 + z + z^2 + z^3 + z^4 = 0 in Q(zeta_5)
    F = CyclotomicField(5)
    total = F.zero
    for k in range(5):
        total = total + F.zeta(k)
    assert total == F.zero


def test_power_operator():
    F = CyclotomicField(7)
    z = F.zeta(3)
    assert z**0 == F.one
    assert z**5 == z * z * z * z * z
    assert z**-1 == z.inverse()


def test_exactness_no_drift():
    F = CyclotomicField(3)
    third = F.scalar(Fraction(1, 3))
    acc = F.zero
    for _ in range(3000):
        acc = acc + third
    assert acc == F.scalar(1000)


def test_cross_field_mixing_rejected():
    a = CyclotomicField(3).one
    b = CyclotomicField(4).one
    with pytest.raises(ValueError):
        _ = a + b


def test_fields_equal_but_not_identical_mix():
    a, b = CyclotomicField(3), CyclotomicField(3)
    assert a is not b and a == b
    assert a.one + b.one == a.scalar(2)
    assert (a.zeta() * b.zeta(2)) == a.one


# a reference that uses only Fraction polynomials: Phi_m written out by hand
_PHI = {
    1: (-1, 1),
    2: (1, 1),
    3: (1, 1, 1),
    4: (1, 0, 1),
    5: (1, 1, 1, 1, 1),
    6: (1, -1, 1),
    8: (1, 0, 0, 0, 1),
    12: (1, 0, -1, 0, 1),
}


def _ref_mod(poly, m):
    """poly mod Phi_m by long division, in Fraction arithmetic."""
    phi = [Fraction(c) for c in _PHI[m]]
    d = len(phi) - 1
    poly = [Fraction(c) for c in poly] + [Fraction(0)] * d
    for k in range(len(poly) - 1, d - 1, -1):
        c = poly[k] / phi[-1]
        for i, p in enumerate(phi):
            poly[k - d + i] -= c * p
    return poly[:d]


def _ref_mul(a, b, m):
    out = [Fraction(0)] * (len(a) + len(b))
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += Fraction(x) * Fraction(y)
    return _ref_mod(out, m)


def _random_coeffs(rng, d, integral):
    if integral:
        return [rng.randint(-3, 3) for _ in range(d)]
    return [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(d)]


@pytest.mark.parametrize("m", sorted(_PHI))
def test_arithmetic_matches_fraction_reference(m):
    rng = random.Random(m)
    F = CyclotomicField(m)
    d = F.degree
    assert d == len(_PHI[m]) - 1
    for trial in range(150):
        integral = trial % 2 == 0
        a = _random_coeffs(rng, d + rng.randint(0, 3), integral)
        b = _random_coeffs(rng, d, integral)
        x, y = F.from_coeffs(a), F.from_coeffs(b)
        ra, rb = _ref_mod(a, m), _ref_mod(b, m)
        assert list(x.coeffs) == ra
        assert list((x + y).coeffs) == [p + q for p, q in zip(ra, rb)]
        assert list((x - y).coeffs) == [p - q for p, q in zip(ra, rb)]
        assert list((-x).coeffs) == [-p for p in ra]
        assert list((x * y).coeffs) == _ref_mul(ra, rb, m)
        for z in (x, y, x + y, x * y, -x):
            assert all(
                type(c) is int if c.denominator == 1 else type(c) is Fraction
                for c in z.coeffs
            )
        if integral:
            for z in (x + y, x - y, -x, x * y):
                assert all(type(c) is int for c in z.coeffs), z
        if x:
            inv = x.inverse()
            assert _ref_mul(ra, list(inv.coeffs), m) == _ref_mod([1], m)
            assert all(type(c) is int for c in inv.coeffs if c.denominator == 1)


_MODULI = (1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 15)


@pytest.mark.parametrize("m", _MODULI)
def test_inverse_round_trips(m):
    # integral elements other than the units +-zeta^k are mostly non-units,
    # whose inverses need Fraction coefficients
    rng = random.Random(f"inverse:{m}")
    F = CyclotomicField(m)
    non_units = 0
    for trial in range(60):
        x = F.from_coeffs(_random_coeffs(rng, F.degree, trial % 3 != 0))
        if not x:
            continue
        inv = x.inverse()
        assert x * inv == F.one, x
        assert inv.inverse() == x, x
        non_units += any(type(c) is Fraction for c in inv.coeffs)
    assert non_units


@pytest.mark.parametrize("m", [1, 2])
def test_degree_one_inverse_is_one_rational_inverse(m, monkeypatch):
    # on Q a scalar is one rational: its inverse is linalg._inv of it, with no
    # elimination, and an integral inverse comes back as an int
    calls = []
    monkeypatch.setattr(cyclotomic, "echelon", lambda rows: calls.append(rows))
    rng = random.Random(f"degree-one inverse:{m}")
    F = CyclotomicField(m)
    for trial in range(40):
        (c,) = _random_coeffs(rng, 1, trial % 2 == 0)
        if not c:
            continue
        inv = F.from_coeffs([c]).inverse()
        assert inv.coeffs == (_inv(c),)
        assert type(inv.coeffs[0]) is (int if _inv(c).denominator == 1 else Fraction)
    for c in (Fraction(1, 3), Fraction(-1, 2), 1, -1):
        assert type(F.from_coeffs([c]).inverse().coeffs[0]) is int
    assert not calls


@pytest.mark.parametrize("m", _MODULI)
def test_unit_inverses_are_int(m):
    F = CyclotomicField(m)
    for k in range(m):
        for unit in (F.zeta(k), -F.zeta(k)):
            inv = unit.inverse()
            assert all(type(c) is int for c in unit.coeffs + inv.coeffs)
            assert unit * inv == F.one
            assert inv == (-F.zeta(-k) if unit != F.zeta(k) else F.zeta(-k))


@pytest.mark.parametrize("m", _MODULI)
def test_multiplicative_order_matches_brute_force(m):
    F = CyclotomicField(m)
    for k in range(m):
        for unit in (F.zeta(k), -F.zeta(k)):
            powers = [unit**j for j in range(1, 2 * m + 1)]
            brute = next(j for j, p in enumerate(powers, 1) if p == F.one)
            assert unit.multiplicative_order() == brute, (m, k, unit)
    assert F.scalar(2).multiplicative_order() is None


def test_non_integral_values_stay_fraction():
    F = CyclotomicField(5)
    half = F.scalar(2).inverse()
    assert half.coeffs[0] == Fraction(1, 2) and type(half.coeffs[0]) is Fraction
    assert all(type(c) is int for c in (half + half).coeffs)
    assert all(type(c) is int for c in (half * F.scalar(4)).coeffs)
    assert all(type(c) is int for c in F.from_coeffs([Fraction(4, 2), 1]).coeffs)
    # 1 + zeta_5 is a unit other than +-zeta^k, so no root of unity: its
    # inverse lies in Z[zeta_5] and comes back with int coefficients
    unit = F.one + F.zeta()
    inv = unit.inverse()
    assert unit * inv == F.one
    assert all(type(c) is int for c in inv.coeffs)
    assert unit.multiplicative_order() is None


def test_non_unit_inverse_over_q_zeta3():
    F = CyclotomicField(3)
    x = F.scalar(2) + F.zeta()  # norm 4 - 2 + 1 = 3
    inv = x.inverse()
    assert x * inv == F.one
    assert any(type(c) is Fraction for c in inv.coeffs)
