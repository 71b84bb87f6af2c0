"""Conjugation racks, the squaring formulas, and decomposition certificates."""
import random

import pytest

from weylrack.classes import ClassMembership, enumerate_class
from weylrack.rack import (
    RackError,
    TypeDWitness,
    Undetermined,
    brute_force_type_d,
    check_decomposition,
    commuting_balance_sides,
    is_square_commutative,
    pair_orbit_witness,
    rack_from_class,
    sq,
    sq_formula_commuting,
    sq_formula_general,
)
from weylrack.signed import (
    GroupKind,
    SignedPermutation,
    conjugate,
    from_cycles,
    multiply,
    random_element,
)


def test_sq_is_triple_conjugation():
    rng = random.Random(3)
    for _ in range(200):
        n = rng.randint(2, 7)
        x, y = random_element(rng, n), random_element(rng, n)
        assert sq(x, y) == conjugate(x, conjugate(y, conjugate(x, y)))


def test_general_formula_matches_sq():
    rng = random.Random(5)
    for _ in range(2000):
        n = rng.randint(2, 8)
        x, y = random_element(rng, n), random_element(rng, n)
        assert sq_formula_general(x, y) == sq(x, y)


def test_commuting_formula_matches_sq():
    rng = random.Random(7)
    hits = 0
    while hits < 300:
        n = rng.randint(2, 6)
        x, y = random_element(rng, n), random_element(rng, n)
        if multiply(x, y) != multiply(y, x):
            continue
        hits += 1
        assert sq_formula_commuting(x, y) == sq(x, y)


def test_commuting_formula_rejects_noncommuting_perms():
    x = from_cycles(3, 0, [(1, 2)])
    y = from_cycles(3, 0, [(2, 3)])
    with pytest.raises(RackError):
        sq_formula_commuting(x, y)


def test_class_rack_axioms():
    cls = enumerate_class(GroupKind.B, from_cycles(3, 0b001, [(1, 2)]))
    rack = rack_from_class(cls.elements)
    rack.check_axioms()


def test_two_two_parity_criterion_exact_iff():
    """For disjoint (2,2) permutation parts, square-commutativity is exactly
    'equal sign parities or conjugate'; equal balance sides is exactly equal
    parities.  Exhaustive over all sign-vector pairs."""
    tau = from_cycles(4, 0, [(1, 2), (3, 4)]).perm
    mu = from_cycles(4, 0, [(1, 3), (2, 4)]).perm
    mem = ClassMembership(GroupKind.B, 4)
    for a in range(16):
        for b in range(16):
            x = SignedPermutation(4, a, tau)
            y = SignedPermutation(4, b, mu)
            parity = (bin(a).count("1") & 1) == (bin(b).count("1") & 1)
            assert is_square_commutative(x, y) == (parity or mem.same_class(x, y))
            lhs, rhs = commuting_balance_sides(x, y)
            assert (lhs == rhs) == parity


def test_two_two_parity_criterion_equal_perms_sufficient_only():
    """With equal permutation parts the parity condition is still sufficient
    but no longer necessary."""
    tau = from_cycles(4, 0, [(1, 2), (3, 4)]).perm
    mem = ClassMembership(GroupKind.B, 4)
    extra = 0
    for a in range(16):
        for b in range(16):
            x = SignedPermutation(4, a, tau)
            y = SignedPermutation(4, b, tau)
            parity = (bin(a).count("1") & 1) == (bin(b).count("1") & 1)
            sc = is_square_commutative(x, y)
            if parity or mem.same_class(x, y):
                assert sc
            elif sc:
                extra += 1
    assert extra > 0  # the converse genuinely fails here


def test_check_decomposition_rules():
    cls = enumerate_class(GroupKind.B, from_cycles(2, 0, [(1, 2)]))
    elts = sorted(cls.elements, key=lambda x: x.key())
    # a non-closed split is rejected with the violated rule named
    rep = check_decomposition(elts[:1], elts[1:])
    if not rep.ok:
        assert rep.reason
    assert not check_decomposition([], elts)
    assert not check_decomposition(elts, elts)  # parts overlap


def test_witness_validate_and_json_roundtrip():
    x = from_cycles(5, 0, [(1, 2, 3, 4, 5)])
    cls = enumerate_class(GroupKind.B, x)
    w = brute_force_type_d(cls.elements)
    assert isinstance(w, TypeDWitness)
    mem = ClassMembership(GroupKind.B, 5)
    assert w.validate(member=lambda t: mem.same_class(t, x))
    w2 = TypeDWitness.from_json(w.to_json())
    assert w2.validate(member=lambda t: mem.same_class(t, x))


def test_pair_orbit_witness_respects_orbit_cap():
    cls = enumerate_class(GroupKind.B, from_cycles(5, 0, [(1, 2, 3, 4, 5)]))
    assert isinstance(pair_orbit_witness(cls.elements), TypeDWitness)
    assert pair_orbit_witness(cls.elements, orbit_cap=1) is None


def test_brute_force_undetermined_on_singleton():
    e = from_cycles(3, 0, [])
    out = brute_force_type_d([e])
    assert isinstance(out, Undetermined)


def test_brute_force_no_witness_on_sym_transpositions():
    """The S_3 transposition rack is simple enough to have no type-D split."""
    cls = enumerate_class(GroupKind.S, from_cycles(3, 0, [(1, 2)]))
    out = brute_force_type_d(cls.elements)
    assert isinstance(out, Undetermined)
