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
    NOT_TYPE_D,
    PROVEN,
    Classifier,
    classify,
    exception_case,
    lift_from_sym,
    sym_class_witness,
    witness_cycle_power,
    witness_fixed_points,
    witness_odd_cycle,
    witness_pairs_triple,
    witness_two_triples,
)
from weylrack.errors import BudgetExceeded
from weylrack import rack as rack_module
from weylrack.rack import TypeDWitness, brute_force_type_d, check_decomposition, pair_witness
from weylrack.signed import (
    GroupKind,
    SignedPermutation,
    conjugate,
    contains,
    format_element,
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


def _record(w, R, S):
    """The JSON record of w with its parts replaced by R and S."""
    return {**w.to_json(), "R": [format_element(x) for x in R], "S": [format_element(y) for y in S]}


def test_sym_class_witness_refuses_an_invalid_witness(monkeypatch):
    # the S_5 witness with one element of S other than b moved into R: a
    # record holding it is refused and the pairwise check finds a broken
    # rule; a scan whose only pair takes b from a's orbit gives no witness
    module = importlib.import_module("weylrack.classify")
    cycle_type = from_cycles(5, 0, [(1, 2, 3, 4, 5)]).cycle_type()
    sym_class_witness.cache_clear()
    try:
        sym = sym_class_witness(cycle_type)
        moved = next(z for z in sym.S if z != sym.b)
        R, S = sym.R + [moved], [z for z in sym.S if z != moved]
        assert all(z.bits == 0 for z in R + S)
        with pytest.raises(ValueError, match="^R is not the orbit of a$"):
            TypeDWitness.from_json(_record(sym, R, S))
        assert not check_decomposition(R, S)
        monkeypatch.setattr(module, "sym_class", lambda t: iter([sym.a, sym.R[1]]))
        sym_class_witness.cache_clear()
        assert sym_class_witness(cycle_type) is None
    finally:
        sym_class_witness.cache_clear()


def test_sym_class_witness_checks_class_membership(monkeypatch):
    # the S_5 5-cycle witness with the identity added to R keeps every closure
    # rule and every sign bit 0, but the identity lies outside the class: the
    # scan's membership test refuses it, and a record holding it is refused;
    # a scan whose b carries a sign bit gives no witness
    module = importlib.import_module("weylrack.classify")
    cycle_type, members, scan = (5,), [], module.brute_force_type_d

    def spy_scan(elements, member=None):
        members.append(member)
        return scan(elements, member)

    monkeypatch.setattr(module, "brute_force_type_d", spy_scan)
    sym_class_witness.cache_clear()
    try:
        sym = sym_class_witness(cycle_type)
        (member,) = members
        assert sym.validate(member)
        R = sym.R + [identity(5)]
        report = check_decomposition(R, sym.S, member)
        assert not report and report.reason == "element outside the class"
        assert report.violation == (identity(5),) and check_decomposition(R, sym.S)
        with pytest.raises(ValueError, match="^R is not the orbit of a$"):
            TypeDWitness.from_json(_record(sym, R, sym.S))
        signed_b = SignedPermutation(5, 1, sym.b.perm)
        assert TypeDWitness(sym.a, signed_b).validate()
        monkeypatch.setattr(module, "sym_class", lambda t: iter([sym.a, signed_b]))
        sym_class_witness.cache_clear()
        assert sym_class_witness(cycle_type) is None
    finally:
        sym_class_witness.cache_clear()


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


def _lifted_core(module, x):
    """The smallest core of x's cycle type whose S_k class has a witness,
    read from the memo, and the layout of x's other cycles after it."""
    t = x.cycle_type()
    core = next(c for c in module._cores(t) if module.sym_class_witness(c))
    rest, k = list(t), sum(core)
    for length in core:
        rest.remove(length)
    tail, start = [], k
    for length in sorted(rest, reverse=True):
        tail += [start + (i + 1) % length for i in range(length)]
        start += length
    return module.sym_class_witness(core), tuple(tail)


def _assert_only_small_cores_listed(listed):
    # no B or D class is listed, and each S_k core at most once, none of
    # more than the 1,260 elements of S_8's (4, 4) class
    assert all(cls.kind is GroupKind.S and cls.size <= 1_260 for cls in listed)
    assert set(Counter(cls.rep.cycle_type() for cls in listed).values()) <= {1}


def test_sym_memo_lists_and_scans_each_cycle_type_once(monkeypatch):
    # each S_k core is listed, scanned and its witness validated once per
    # process, whichever classifier asks; no B or D class is listed, and
    # lift_from_sym reads the memo and does not check its witnesses again
    module = importlib.import_module("weylrack.classify")
    scanned, listed, validated, lifted = Counter(), [], [], []
    scan, list_class, lift = module.brute_force_type_d, ConjugacyClass._list, module.lift_from_sym
    validate = TypeDWitness.validate

    def spy_scan(elements, member=None):
        it = iter(elements)  # read the first element, then hand it back
        first = next(it)
        scanned[first.cycle_type()] += 1
        return scan(itertools.chain([first], it), member)

    def spy_list(cls):
        listed.append(cls)
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
    assert listed and len(lifted) > d_lifts
    _assert_only_small_cores_listed(listed)
    assert set(scanned.values()) == {1}
    assert set(scanned) == {cls.rep.cycle_type() for cls in listed}
    assert set(scanned) <= {c for x in lifted for c in module._cores(x.cycle_type())}
    syms = [_lifted_core(module, x)[0] for x in lifted]
    assert None not in syms and set(scanned.values()) == {1}
    assert {sum(w is sym for w in validated) for sym in syms} == {1}


@pytest.mark.parametrize("kind", [GroupKind.B, GroupKind.D])
def test_verdicts_rest_on_constructed_pairs(kind, monkeypatch):
    # every rep of rank 5-7 and one seeded conjugate each: the procedure
    # lists no B or D class, a lifted witness's permutation parts are its
    # core's S_k witness juxtaposed with the other cycles, and every
    # witness's R and S are the orbits of a and b under conjugation by
    # <a, b>; the S_n memo starts cold, so its scans run here
    module = importlib.import_module("weylrack.classify")
    module.sym_class_witness.cache_clear()
    listed, lifts = [], []
    list_class, lift = ConjugacyClass._list, module.lift_from_sym

    def spy_list(cls):
        listed.append(cls)
        return list_class(cls)

    def spy_lift(x, member):
        w = lift(x, member)
        lifts.append((_lifted_core(module, x), w))
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
    _assert_only_small_cores_listed(listed)
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
    assert all(
        (w.a.perm, w.b.perm) == (sym.a.perm + tail, sym.b.perm + tail) for (sym, tail), w in lifts
    )


def test_rule_built_verdict_walks_each_orbit_once(monkeypatch):
    # the odd-cycle rule decides B5's 5-cycle class: validate walks the
    # orbits of a and b once, as it builds the witness, and neither the
    # verdict's JSON nor the parts' sizes walk them again, not even after a
    # failed check
    calls = []

    def counting(seed, *args, **kwargs):
        calls.append(seed)
        return orbit(seed, *args, **kwargs)

    monkeypatch.setattr(rack_module, "orbit", counting)
    v = classify(GroupKind.B, parse_element("00000:(1 2 3 4 5)"))
    assert v.rule_tag == "odd_cycle_fibers"
    w = v.witness
    assert v.to_json()["witness"]["R"] and len(w.R) + len(w.S) == 32
    assert calls == [w.a, w.b]
    damaged = TypeDWitness(w.a, w.R[1])
    assert not damaged.validate() and len(calls) == 3
    assert w.R[1] in damaged.R and damaged.S == [] and len(calls) == 3


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


def _identity_reps(kind, n):
    return [x for x in class_reps(kind, n) if x.perm == tuple(range(n))]


@pytest.mark.parametrize(
    "kind,n", [(GroupKind.B, n) for n in range(1, 11)] + [(GroupKind.D, n) for n in range(2, 11)]
)
def test_commuting_classes_are_proven_not_type_d(kind, n):
    # diagonal sign matrices commute, so sq(a, b) = b on every pair: below
    # rank 5 too, where no other class is decided
    reps = _identity_reps(kind, n)
    assert len(reps) == (n + 1 if kind is GroupKind.B else n // 2 + 1)
    clf = Classifier(kind, n)
    for x in reps:
        v = clf.classify(x)
        assert (v.status, v.rule_tag, v.witness) == (NOT_TYPE_D, "commuting_class", None), str(x)
        assert v.to_json()["status"] == "ProvenNotTypeD"


@pytest.mark.parametrize("kind,n", [(GroupKind.B, 3), (GroupKind.B, 4), (GroupKind.D, 4)])
def test_commuting_classes_have_no_type_d_pair(kind, n):
    # the exhaustive scan agrees with the verdict
    for x in _identity_reps(kind, n):
        cls = enumerate_class(kind, x)
        assert brute_force_type_d(cls.elements, member_for(kind, x)) is None, str(x)


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
        (witness_cycle_power, "000000:(1 2 3 4 5 6)"),  # an even cycle shorter than 8
        (witness_cycle_power, "0000000:(1 2 3 4 5 6 7)"),  # odd length
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


@pytest.mark.parametrize("kind, proven, exceptions", [("B", 462, 8), ("D", 241, 4)])
def test_classification_rank_ten(kind, proven, exceptions):
    assert _classification_detail(10, kind) == {
        "exceptions": exceptions,
        "mismatched": [],
        "proven": proven,
        "undetermined": [],
    }


@pytest.mark.parametrize(
    "n, kind, proven, exceptions",
    [(11, "B", 732, 8), (11, "D", 366, 4), (12, "B", 1_144, 8), (12, "D", 588, 4)],
)
def test_classification_ranks_eleven_and_twelve(n, kind, proven, exceptions):
    # every rep decided: no lift reads an S_k class larger than its core's
    assert _classification_detail(n, kind) == {
        "exceptions": exceptions,
        "mismatched": [],
        "proven": proven,
        "undetermined": [],
    }


@pytest.mark.slow
@pytest.mark.parametrize("kind, proven, exceptions", [("B", 5_797, 8), ("D", 2_931, 4)])
def test_classification_rank_sixteen(kind, proven, exceptions):
    assert _classification_detail(16, kind) == {
        "exceptions": exceptions,
        "mismatched": [],
        "proven": proven,
        "undetermined": [],
    }


@pytest.mark.parametrize("bits", ["0000000000", "1000000000"])
def test_b10_ten_cycles_by_cycle_power(bits):
    # the two B10 10-cycle classes: mu replaces the cycle by its cube, and
    # each part holds 256 elements
    v = classify(GroupKind.B, parse_element(f"{bits}:(1 2 3 4 5 6 7 8 9 10)"))
    assert (v.status, v.rule_tag) == (PROVEN, "cycle_power_fibers")
    assert (len(v.witness.R), len(v.witness.S)) == (256, 256)


@pytest.mark.slow
@pytest.mark.parametrize("kind", [GroupKind.B, GroupKind.D])
def test_cycle_power_decides_every_ten_cycle(kind):
    # every sign vector of the 10-cycle in B10 (1,024) and D10 (512); a miss
    # would fall back to the lift and its scan of the S_10 10-cycles
    clf = Classifier(kind, 10)
    xs = [from_cycles(10, bits, [tuple(range(1, 11))]) for bits in range(1 << 10)]
    xs = [x for x in xs if contains(kind, x)]
    assert len(xs) == (1_024 if kind is GroupKind.B else 512)
    for x in xs:
        v = clf.classify(x)
        assert (v.status, v.rule_tag) == (PROVEN, "cycle_power_fibers"), str(x)
