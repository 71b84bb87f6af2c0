"""Type-D decision procedure: witness constructions, exception list, dispatch."""
import importlib
import itertools
import random
from collections import Counter

import pytest

from weylrack.classes import (
    CLASS_BUDGET,
    ClassMembership,
    ConjugacyClass,
    all_classes,
    class_reps,
    enumerate_class,
    juxtapose,
    orbit,
)
from weylrack.classify import (
    EXCEPTION,
    PROVEN,
    Classifier,
    classify,
    exception_case,
    lift_from_sym,
    sym_class_witness,
    witness_fixed_points,
    witness_odd_cycle,
    witness_pairs_triple,
    witness_two_triples,
)
from weylrack.errors import BudgetExceeded
from weylrack.rack import TypeDWitness, brute_force_type_d, pair_witness
from weylrack.signed import (
    GroupKind,
    SignedPermutation,
    conjugate,
    from_cycles,
    identity,
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
    # R u S moves only the cycle and one fixed point (r), and changes sign
    # bits only there and at the two fixed points i and n0
    x0 = parse_element(text)
    rng = random.Random(f"fixed-point:{kind.value}:{text}")
    for _ in range(4):
        x = conjugate(random_element(rng, x0.n, kind), x0)
        v = Classifier(kind, x.n).classify(x)
        assert v.status == PROVEN and v.rule_tag == "fixed_point_bit"
        w = v.witness
        moved = {j for c in x.cycles() if len(c) > 1 for j in c}
        support = {j + 1 for z in w.R + w.S for j in range(x.n) if z.perm[j] != j}
        changed = {j + 1 for z in w.R + w.S for j in range(x.n) if (z.bits ^ x.bits) >> j & 1}
        assert moved <= support and len(support | changed) == len(moved) + 3
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
    w = lift_from_sym(x, member)
    assert w is not None and w.validate(member=member)
    # the memo's witness, listed from another representative, is the same
    assert (w.a.perm, w.b.perm) == (sym.a.perm, sym.b.perm)


def test_sym_class_witness_refuses_an_invalid_witness(monkeypatch):
    # the S_5 witness with one element of S other than b moved into R
    module = importlib.import_module("weylrack.classify")
    cycle_type = from_cycles(5, 0, [(1, 2, 3, 4, 5)]).cycle_type()
    sym_class_witness.cache_clear()
    try:
        sym = sym_class_witness(cycle_type)
        moved = next(z for z in sym.S if z != sym.b)
        broken = TypeDWitness(sym.R + [moved], [z for z in sym.S if z != moved], sym.a, sym.b)
        assert all(z.bits == 0 for z in broken.R + broken.S)
        monkeypatch.setattr(module, "brute_force_type_d", lambda elements: broken)
        sym_class_witness.cache_clear()
        with pytest.raises(ValueError, match="^invalid symmetric-subgroup witness: "):
            sym_class_witness(cycle_type)
    finally:
        sym_class_witness.cache_clear()


def test_sym_class_witness_checks_class_membership(monkeypatch):
    # the S_5 5-cycle witness with the identity added to R keeps every closure
    # rule and every sign bit 0, but the identity lies outside the class
    module = importlib.import_module("weylrack.classify")
    cycle_type = (5,)
    sym_class_witness.cache_clear()
    try:
        sym = sym_class_witness(cycle_type)
        broken = TypeDWitness(sym.R + [identity(5)], sym.S, sym.a, sym.b)
        monkeypatch.setattr(module, "brute_force_type_d", lambda elements: broken)
        sym_class_witness.cache_clear()
        with pytest.raises(ValueError, match="^invalid symmetric-subgroup witness: "
                           "element outside the class"):
            sym_class_witness(cycle_type)
    finally:
        sym_class_witness.cache_clear()


def test_sym_class_witness_walks_an_s10_class():
    # the (8, 2) class of S_10 holds 226,800 elements; the lazy scan reads
    # only as far as its witness
    rep = from_cycles(10, 0, [(1, 2, 3, 4, 5, 6, 7, 8), (9, 10)])
    sym_class_witness.cache_clear()
    w = sym_class_witness(rep.cycle_type())
    assert w is not None
    assert w.validate(member=ClassMembership(GroupKind.S, 10).member_test(rep))


def test_sym_class_witness_refuses_a_class_over_budget(monkeypatch):
    # the 12-cycles of S_12 are 11! > CLASS_BUDGET: refused before any walk
    module = importlib.import_module("weylrack.classify")
    scans = []
    monkeypatch.setattr(module, "brute_force_type_d", scans.append)
    sym_class_witness.cache_clear()
    try:
        with pytest.raises(BudgetExceeded):
            sym_class_witness((12,))
    finally:
        sym_class_witness.cache_clear()
    assert not scans


def _rank_six_inputs(kind):
    """Every rep of rank 6 with a nontrivial permutation, and one seeded
    conjugate of each."""
    rng = random.Random(f"sym-memo:{kind.value}")
    return [
        x
        for rep in class_reps(kind, 6)
        if rep.perm != tuple(range(6))
        for x in (rep, conjugate(random_element(rng, 6, kind), rep))
    ]


def test_sym_memo_cold_and_warm_verdicts_agree():
    for kind in (GroupKind.B, GroupKind.D):
        for x in _rank_six_inputs(kind):
            sym_class_witness.cache_clear()
            cold = Classifier(kind, 6).classify(x).to_json()
            assert Classifier(kind, 6).classify(x).to_json() == cold, str(x)


def test_sym_memo_lists_and_scans_each_cycle_type_once(monkeypatch):
    # each S_n class is scanned and its witness validated once per process,
    # whichever classifier asks, and no class is listed; lift_from_sym reads
    # the memo and does not check its witnesses again
    module = importlib.import_module("weylrack.classify")
    scanned, listed, validated, lifted = Counter(), [], [], []
    scan, list_class, lift = module.brute_force_type_d, ConjugacyClass._list, module.lift_from_sym
    validate = TypeDWitness.validate

    def spy_scan(elements):
        it = iter(elements)  # lazy: read the first element, then hand it back
        first = next(it)
        scanned[first.cycle_type()] += 1
        return scan(itertools.chain([first], it))

    def spy_list(cls):
        listed.append(cls.rep)
        return list_class(cls)

    def spy_validate(w, member=None):
        validated.append(w)  # held, so no two of them share an id
        return validate(w, member)

    def spy_lift(x, member):
        lifted.append(x)
        return lift(x, member)

    monkeypatch.setattr(module, "brute_force_type_d", spy_scan)
    monkeypatch.setattr(ConjugacyClass, "_list", spy_list)
    monkeypatch.setattr(module, "lift_from_sym", spy_lift)
    monkeypatch.setattr(TypeDWitness, "validate", spy_validate)
    sym_class_witness.cache_clear()
    b6 = _rank_six_inputs(GroupKind.B)
    for x in b6 + b6:
        Classifier(GroupKind.B, 6).classify(x)
    d_lifts = len(lifted)
    for x in _rank_six_inputs(GroupKind.D):
        classify(GroupKind.D, x)
    assert not listed and len(lifted) > d_lifts
    assert set(scanned.values()) == {1}
    assert set(scanned) == {x.cycle_type() for x in lifted}
    syms = [sym_class_witness(x.cycle_type()) for x in lifted]
    assert None not in syms and set(scanned.values()) == {1}
    assert {sum(w is sym for w in validated) for sym in syms} == {1}


@pytest.mark.parametrize("kind", [GroupKind.B, GroupKind.D])
def test_verdicts_rest_on_constructed_pairs(kind, monkeypatch):
    # every rep of rank 5-7 and one seeded conjugate each: the procedure
    # lists no class, a lifted witness keeps the permutation parts of its
    # S_n witness's pair, and every witness's R and S are the orbits of a
    # and b under conjugation by <a, b>; the S_n memo starts cold, so its
    # scans run here
    module = importlib.import_module("weylrack.classify")
    module.sym_class_witness.cache_clear()
    listed, lifts = [], []
    list_class, lift = ConjugacyClass._list, module.lift_from_sym

    def spy_list(cls):
        listed.append(cls.rep)
        return list_class(cls)

    def spy_lift(x, member):
        w = lift(x, member)
        lifts.append((module.sym_class_witness(x.cycle_type()), w))
        return w

    monkeypatch.setattr(ConjugacyClass, "_list", spy_list)
    monkeypatch.setattr(module, "lift_from_sym", spy_lift)
    rng = random.Random(f"constructed-pairs:{kind.value}")
    witnesses = []
    for n in (5, 6, 7):
        clf = Classifier(kind, n)
        for rep in class_reps(kind, n):
            if rep.perm == tuple(range(n)):
                continue
            for x in (rep, conjugate(random_element(rng, n, kind), rep)):
                v = clf.classify(x)
                assert v.status in (PROVEN, EXCEPTION), str(x)
                if v.status == PROVEN:
                    witnesses.append(v.witness)
    assert not listed
    assert {w.tag for w in witnesses} == {
        "odd_cycle_fibers",
        "two_triples_fibers",
        "pair_repairing_fibers",
        "fixed_point_bit",
        "sym_lift",
    }
    for w in witnesses:
        for part, c in ((w.R, w.a), (w.S, w.b)):
            assert {z.key() for z in part} == orbit(c, (w.a, w.b), conjugate, CLASS_BUDGET).keys()
    assert lifts and all(w is not None for _, w in lifts)
    assert all((w.a.perm, w.b.perm) == (sym.a.perm, sym.b.perm) for sym, w in lifts)


def test_propagate_juxtaposition():
    # the witness of the juxtaposed pair is the old witness with the right
    # block appended: conjugation by a # right acts on x # right as a on x
    x = from_cycles(5, 0, [(1, 2, 3, 4, 5)])
    w = witness_odd_cycle(x, member_for(GroupKind.B, x))
    right = from_cycles(2, 0b01, [(1, 2)])
    member = member_for(GroupKind.B, juxtapose(x, right))
    wj = pair_witness([(juxtapose(w.a, right), juxtapose(w.b, right))], "juxtaposed", member)
    assert wj.validate(member)
    for part, old in ((wj.R, w.R), (wj.S, w.S)):
        assert {t.key() for t in part} == {juxtapose(t, right).key() for t in old}


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


# ((2, 2), 2 fixed points) classes with unequal signs on the fixed points
# that are of type D all the same; the exception list still tags them (ii)
# until the benchmark oracle, which carries the same table, is updated
_TYPE_D_EXCEPTIONS = [
    (GroupKind.B, "000001:(1 2)(3 4)", "100000:(2 5)(3 4)", 3),
    (GroupKind.B, "000101:(1 2)(4 5)", "100100:(2 3)(4 5)", 3),
    (GroupKind.B, "010101:(2 3)(4 5)", "110100:(2 6)(4 5)", 6),
    (GroupKind.D, "000101:(1 2)(4 5)", "100100:(2 3)(4 5)", 3),
]


@pytest.mark.parametrize("kind,x,b,size", _TYPE_D_EXCEPTIONS)
def test_exception_classes_with_a_type_d_witness(kind, x, b, size):
    x, b = parse_element(x), parse_element(b)
    assert len({x.a[i] for i in range(x.n) if x.perm[i] == i}) == 2
    member = member_for(kind, x)
    w = pair_witness([(x, b)], "", member)
    assert w.validate(member)
    assert (len(w.R), len(w.S)) == (size, size)
    assert exception_case(x) == "ii"


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


def _classification_detail(n, kind):
    (check,) = run_suite("classification", {"ranks": [n], "groups": [kind]})["checks"]
    assert check["passed"]
    return check["detail"]


@pytest.mark.parametrize("kind, proven, exceptions", [("B", 163, 13), ("D", 87, 8)])
def test_classification_rank_eight(kind, proven, exceptions):
    assert _classification_detail(8, kind) == {
        "exceptions": exceptions,
        "mismatched": [],
        "proven": proven,
        "undetermined": [],
    }


@pytest.mark.parametrize("kind, proven, exceptions", [("B", 282, 8), ("D", 141, 4)])
def test_classification_rank_nine(kind, proven, exceptions):
    assert _classification_detail(9, kind) == {
        "exceptions": exceptions,
        "mismatched": [],
        "proven": proven,
        "undetermined": [],
    }


@pytest.mark.slow
@pytest.mark.parametrize("kind, proven, exceptions", [("B", 462, 8), ("D", 241, 4)])
def test_classification_rank_ten(kind, proven, exceptions):
    assert _classification_detail(10, kind) == {
        "exceptions": exceptions,
        "mismatched": [],
        "proven": proven,
        "undetermined": [],
    }


@pytest.mark.parametrize(
    "bits, size",
    [("0000000000", 1_440), pytest.param("1000000000", 368_640, marks=pytest.mark.slow)],
)
def test_b10_ten_cycles_lift(bits, size):
    # the lifted witnesses of the two B10 10-cycle classes; the larger holds
    # 737,280 elements and is certified in linear time
    v = classify(GroupKind.B, parse_element(f"{bits}:(1 2 3 4 5 6 7 8 9 10)"))
    assert (v.status, v.rule_tag) == (PROVEN, "sym_lift")
    assert (len(v.witness.R), len(v.witness.S)) == (size, size)
