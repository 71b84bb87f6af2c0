"""Type-D decision procedure: witness constructions, exception list, dispatch."""
import itertools
import random

import pytest

from weylrack.classes import ClassMembership, all_classes, enumerate_class
from weylrack.classify import (
    EXCEPTION,
    PROVEN,
    Classifier,
    classify,
    exception_case,
    lift_from_sym,
    propagate_juxtaposition,
    sym_orbit_span,
    witness_fixed_points,
    witness_odd_cycle,
    witness_pairs_triple,
    witness_two_triples,
)
from weylrack.rack import TypeDWitness, brute_force_type_d
from weylrack.signed import (
    GroupKind,
    SignedPermutation,
    conjugate,
    from_cycles,
    parse_element,
    random_element,
)
from weylrack.suites import run_suite


def member_for(kind, x):
    mem = ClassMembership(kind, x.n)
    return lambda t: mem.same_class(t, x)


def test_odd_cycle_witness_all_signs():
    for bits in range(32):
        x = from_cycles(5, bits, [(1, 2, 3, 4, 5)])
        member = member_for(GroupKind.B, x)
        w = witness_odd_cycle(x, member)
        assert w is not None and w.validate(member=member)


def test_two_triples_witness_all_signs():
    for bits in range(64):
        x = from_cycles(6, bits, [(1, 2, 3), (4, 5, 6)])
        member = member_for(GroupKind.B, x)
        w = witness_two_triples(x, member)
        assert w is not None and w.validate(member=member)


def test_pairs_triple_witness_all_signs():
    for bits in range(128):
        x = from_cycles(7, bits, [(1, 2), (3, 4), (5, 6, 7)])
        member = member_for(GroupKind.B, x)
        w = witness_pairs_triple(x, member)
        assert w is not None and w.validate(member=member)


def test_fixed_point_witness():
    # a 2-cycle with non-constant signs on the fixed points
    x = from_cycles(6, 0b000100, [(5, 6)])
    member = member_for(GroupKind.B, x)
    w = witness_fixed_points(x, member)
    assert w is not None and w.validate(member=member)


@pytest.mark.parametrize("kind", [GroupKind.B, GroupKind.D])
@pytest.mark.parametrize("text", ["10000001:(1 2 3)", "00110:(1 2)"])
def test_fixed_point_witness_is_cut_from_a_small_support(kind, text):
    # R u S moves only the cycle and two fixed points, and leaves every sign
    # bit but those and one more (n0) as in x
    x0 = parse_element(text)
    rng = random.Random(f"fixed-point:{kind.value}:{text}")
    for _ in range(4):
        x = conjugate(random_element(rng, x0.n, kind), x0)
        v = Classifier(kind, x.n).classify(x)
        assert v.status == PROVEN and v.rule_tag == "fixed_point_bit"
        w = v.witness
        moved = {j for c in x.cycles() if len(c) > 1 for j in c}
        support = {j + 1 for z in w.R + w.S for j in range(x.n) if z.perm[j] != j}
        assert moved <= support and len(support) == len(moved) + 2
        changed = {j + 1 for z in w.R + w.S for j in range(x.n) if (z.bits ^ x.bits) >> j & 1}
        assert len(changed - support) == 1
        assert w.validate(member=member_for(kind, x))


@pytest.mark.parametrize("kind, proven, exceptions", [("B", 94, 8), ("D", 47, 4)])
def test_classification_rank_seven(kind, proven, exceptions):
    (check,) = run_suite("classification", {"ranks": [7], "groups": [kind]})["checks"]
    assert check["passed"]
    assert check["detail"] == {
        "exceptions": exceptions,
        "mismatched": [],
        "proven": proven,
        "undetermined": [],
    }


def test_sym_lift():
    x = from_cycles(5, 0b00101, [(1, 2, 3, 4, 5)])
    sym = brute_force_type_d(
        enumerate_class(GroupKind.S, SignedPermutation(5, 0, x.perm)).elements
    )
    assert isinstance(sym, TypeDWitness)
    member = member_for(GroupKind.B, x)
    w = lift_from_sym(x, sym, member)
    assert w is not None and w.validate(member=member)


def test_propagate_juxtaposition():
    x = from_cycles(5, 0, [(1, 2, 3, 4, 5)])
    member = member_for(GroupKind.B, x)
    w = witness_odd_cycle(x, member)
    right = from_cycles(2, 0b01, [(1, 2)])
    wj = propagate_juxtaposition(w, right)
    mem7 = ClassMembership(GroupKind.B, 7)
    z = wj.a
    assert wj.validate(member=lambda t: mem7.same_class(t, z))


@pytest.mark.parametrize(
    "cycles,ones,expected",
    [
        ([(1, 2), (3, 4, 5)], 0, "i"),
        ([(1, 2), (3, 4), (5, 6)], 0, "i"),
        ([(1, 2), (3, 4), (5, 6), (7, 8)], 0, "ii"),
        ([(1, 2), (3, 4)], 1, "ii"),
        ([(1, 2, 3)], 2, "ii"),
        ([(1, 2), (3, 4)], 2, "ii"),
    ],
)
def test_exception_tags(cycles, ones, expected):
    n = max(max(c) for c in cycles) + ones
    x = from_cycles(n, 0, cycles)
    assert exception_case(x) == expected


def test_exception_tag_iii_requires_constant_fixed_signs():
    x = from_cycles(5, 0, [(1, 2)])
    assert exception_case(x) == "iii"
    # a sign on one fixed point breaks constancy: no longer exceptional
    y = from_cycles(5, 0b00100, [(1, 2)])
    assert exception_case(y) is None


def test_classify_below_rank_five_is_out_of_scope():
    v = classify(GroupKind.B, from_cycles(4, 0, [(1, 2)]))
    assert v.status == "Undetermined"


def test_classify_full_rank_five():
    for kind in (GroupKind.B, GroupKind.D):
        clf = Classifier(kind, 5)
        mem = ClassMembership(kind, 5)
        for cls in all_classes(kind, 5):
            x = cls.rep
            if all(x.perm[i] == i for i in range(5)):
                continue
            v = clf.classify(x)
            expected = exception_case(x)
            if expected is None:
                assert v.status == PROVEN, (kind, str(x), v.reason)
                assert v.witness is not None
                assert v.witness.validate(member=lambda t: mem.same_class(t, x))
            else:
                assert v.status == EXCEPTION and v.exception_case == expected


def test_classify_verdict_json():
    v = classify(GroupKind.B, from_cycles(5, 0, [(1, 2, 3, 4, 5)]))
    data = v.to_json()
    assert data["status"] == PROVEN
    assert data["witness"] is not None
    assert TypeDWitness.from_json(data["witness"]).validate()


@pytest.mark.parametrize(
    "rule, text",
    [
        (witness_odd_cycle, "000000:(1 2 3)(4 5 6)"),  # odd cycles shorter than 5
        (witness_two_triples, "00000:(1 2 3 4 5)"),
        (witness_pairs_triple, "00000:(1 2)(3 4 5)"),  # one 2-cycle only
        (witness_fixed_points, "000000:(1 2)(3 4)"),  # two moved cycles
        (witness_fixed_points, "00000:(1 2)"),  # constant bits on the fixed points
        (witness_fixed_points, "01000:(3 4 5)"),  # no third fixed point
    ],
)
def test_witness_rule_returns_none_without_its_shape(rule, text):
    x = parse_element(text)
    assert rule(x, member_for(GroupKind.B, x)) is None


def test_sym_orbit_span_is_the_span_of_the_permutations():
    for n in range(1, 6):
        for a in range(1 << n):
            perms = {
                sum(1 << p[i] for i in range(n) if a >> i & 1)
                for p in itertools.permutations(range(n))
            }
            span = {0}
            for v in perms:
                span |= {s ^ v for s in span}
            got = sym_orbit_span(a, n)
            assert len(got) == len(set(got)) and set(got) == span, (n, a)


@pytest.mark.slow
@pytest.mark.parametrize("kind, proven, exceptions", [("B", 163, 13), ("D", 87, 8)])
def test_classification_rank_eight(kind, proven, exceptions):
    (check,) = run_suite("classification", {"ranks": [8], "groups": [kind]})["checks"]
    assert check["passed"]
    assert check["detail"] == {
        "exceptions": exceptions,
        "mismatched": [],
        "proven": proven,
        "undetermined": [],
    }
