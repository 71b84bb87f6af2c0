"""Signed-permutation arithmetic against an independent monomial-matrix model."""
import dataclasses
import random

import pytest

from weylrack.signed import (
    GroupKind,
    SignedPermutation,
    _act,
    _trusted,
    conjugate,
    contains,
    elements,
    format_element,
    from_cycles,
    generators,
    group_order,
    identity,
    inverse,
    multiply,
    parse_element,
    random_element,
    signed_cycle_type,
)


# the small ranks, then ranks around the byte boundaries of _act, up to the largest
RANKS = list(range(1, 9)) + [9, 15, 16, 17, 63, 64]


def apply_point(x, j, s):
    """Image of the signed basis point s*e_j under x, read off the raw fields."""
    t = x.perm[j]
    return t, s * (1 - 2 * ((x.bits >> t) & 1))


def test_identity_and_inverse():
    e = identity(4)
    x = from_cycles(4, 0b0110, [(1, 2, 3)])
    assert multiply(x, e) == x == multiply(e, x)
    assert multiply(x, inverse(x)) == e
    assert multiply(inverse(x), x) == e
    assert inverse(x) == x.inverse()


def test_multiply_matches_monomial_action():
    rng = random.Random(11)
    for _ in range(500):
        n = rng.choice(RANKS)
        x, y = random_element(rng, n), random_element(rng, n)
        xy, x_inv = multiply(x, y), inverse(x)
        for j in range(n):
            assert apply_point(x, *apply_point(y, j, 1)) == apply_point(xy, j, 1)
            assert apply_point(x_inv, *apply_point(x, j, 1)) == (j, 1)


def _act_lowest_bit_first(p, bits):
    # the reference: one set bit at a time, lowest first
    out = 0
    while bits:
        low = bits & -bits
        out |= 1 << p[low.bit_length() - 1]
        bits ^= low
    return out


def test_act_matches_a_bit_at_a_time_walk():
    rng = random.Random(47)
    p = tuple(rng.sample(range(9), 9))
    # bits below 256 take the one-lookup path, and the rest the byte loop
    for bits in range(1 << 9):
        assert _act(p, bits) == _act_lowest_bit_first(p, bits)
    for n in (8, 16, 64):
        p = tuple(rng.sample(range(n), n))
        for bits in range(256):
            assert _act(p, bits) == _act_lowest_bit_first(p, bits)
            high = bits | 1 << rng.randrange(8, n) if n > 8 else bits
            assert _act(p, high) == _act_lowest_bit_first(p, high)
    for _ in range(500):
        p = tuple(rng.sample(range(64), 64))
        bits = rng.getrandbits(64)
        assert _act(p, bits) == _act_lowest_bit_first(p, bits)


def test_elements_are_slotted_and_frozen():
    x = from_cycles(3, 0b101, [(1, 2)])
    assert not hasattr(x, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        x.bits = 0
    y = _trusted(3, 0b101, (1, 0, 2))
    assert y == x == SignedPermutation(3, 0b101, (1, 0, 2))
    assert hash(y) == hash(x)
    with pytest.raises(ValueError):
        SignedPermutation(3, 0b1000, (0, 1, 2))  # a sign past the rank
    with pytest.raises(ValueError):
        SignedPermutation(3, 0, (0, 0, 2))  # not a permutation
    for n in (0, 65):
        with pytest.raises(ValueError):
            SignedPermutation(n, 0, tuple(range(n)))


def test_conjugate_is_triple_product():
    rng = random.Random(13)
    for _ in range(300):
        n = rng.choice(RANKS)
        x, y = random_element(rng, n), random_element(rng, n)
        assert conjugate(x, y) == multiply(multiply(x, y), inverse(x))


def test_order_divides_group_order():
    rng = random.Random(17)
    for _ in range(50):
        x = random_element(rng, 5)
        k = x.order()
        e = identity(5)
        acc = e
        for _ in range(k):
            acc = multiply(acc, x)
        assert acc == e
        assert k >= 1


def test_parse_format_roundtrip():
    rng = random.Random(19)
    for _ in range(200):
        x = random_element(rng, rng.randint(1, 8))
        assert parse_element(format_element(x)) == x
    assert format_element(identity(3)) == "000:()"


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_element("12:(1 2")
    with pytest.raises(ValueError):
        parse_element("01:(1 9)")


def test_group_orders_and_membership():
    assert group_order(GroupKind.B, 3) == 48
    assert group_order(GroupKind.D, 3) == 24
    assert group_order(GroupKind.S, 3) == 6
    x = from_cycles(3, 0b001, [(1, 2)])
    assert contains(GroupKind.B, x)
    assert not contains(GroupKind.D, x)  # odd sign count
    assert not contains(GroupKind.S, x)  # nonzero signs


def test_elements_counts():
    for kind in GroupKind:
        for n in (1, 2, 3):
            elems = list(elements(kind, n))
            assert len(elems) == group_order(kind, n)
            assert len({x.key() for x in elems}) == len(elems)
            assert all(contains(kind, x) for x in elems)


def test_generators_generate():
    for kind in GroupKind:
        gens = generators(kind, 3)
        seen = {identity(3).key(): identity(3)}
        frontier = [identity(3)]
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = multiply(g, x)
                if y.key() not in seen:
                    seen[y.key()] = y
                    frontier.append(y)
        assert len(seen) == group_order(kind, 3)


def test_signed_cycle_type_is_class_invariant():
    rng = random.Random(23)
    x = from_cycles(5, 0b00011, [(1, 2, 3), (4, 5)])
    t = signed_cycle_type(x)
    for _ in range(50):
        g = random_element(rng, 5)
        assert signed_cycle_type(conjugate(g, x)) == t


def test_signed_cycle_type_separates_sample_classes():
    a = from_cycles(3, 0, [(1, 2)])
    b = from_cycles(3, 0b001, [(1, 2)])  # negative 2-cycle
    c = from_cycles(3, 0b011, [(1, 2)])  # positive again (two signs cancel)
    assert signed_cycle_type(a) != signed_cycle_type(b)
    assert signed_cycle_type(a) == signed_cycle_type(c)


def test_memoised_cycle_structure_matches_a_plain_walk():
    # the walk below is the reference for the memoised cycles and masks
    rng = random.Random(43)
    for _ in range(300):
        x = random_element(rng, rng.randint(1, 10))
        seen, cycles = set(), []
        for i in range(1, x.n + 1):
            cyc = []
            while i not in seen:
                seen.add(i)
                cyc.append(i)
                i = x.pi[i - 1]
            if cyc:
                cycles.append(tuple(cyc))
        assert x.cycles() == cycles
        assert x.cycle_type() == tuple(sorted(map(len, cycles), reverse=True))
        signs = [sum(x.a[i - 1] for i in c) % 2 for c in cycles]
        pos = tuple(sorted(len(c) for c, s in zip(cycles, signs) if not s))
        neg = tuple(sorted(len(c) for c, s in zip(cycles, signs) if s))
        assert (signed_cycle_type(x).positive, signed_cycle_type(x).negative) == (pos, neg)
