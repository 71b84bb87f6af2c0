"""Conjugation racks, the squaring formulas, and decomposition certificates."""
import ast
import importlib
import random
from pathlib import Path

import pytest

from weylrack.classes import ClassMembership, enumerate_class
from weylrack.classify import PROVEN, classify
from weylrack import rack as rack_module
from weylrack.errors import BudgetExceeded
from weylrack.rack import (
    FiniteRack,
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
    parse_element,
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


def test_check_axioms_budget():
    # the trivial rack x |> y = y satisfies the axioms at any size: the
    # exhaustive check runs at the cap and refuses one element beyond it
    FiniteRack(200, (tuple(range(200)),) * 200).check_axioms()
    with pytest.raises(BudgetExceeded):
        FiniteRack(201, (tuple(range(201)),) * 201).check_axioms()


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


def test_pair_orbit_witness_respects_orbit_cap(monkeypatch):
    cls = enumerate_class(GroupKind.B, from_cycles(5, 0, [(1, 2, 3, 4, 5)]))
    assert isinstance(pair_orbit_witness(cls.elements), TypeDWitness)
    monkeypatch.setattr(rack_module, "ORBIT_CAP", 1)
    assert pair_orbit_witness(cls.elements) is None


def test_brute_force_undetermined_on_singleton():
    e = from_cycles(3, 0, [])
    out = brute_force_type_d([e])
    assert isinstance(out, Undetermined)


def test_brute_force_no_witness_on_sym_transpositions():
    """The S_3 transposition rack is simple enough to have no type-D split."""
    cls = enumerate_class(GroupKind.S, from_cycles(3, 0, [(1, 2)]))
    out = brute_force_type_d(cls.elements)
    assert isinstance(out, Undetermined)


# -- the pairwise oracle for check_decomposition ----------------------------

# rule name -> (part x comes from, part y comes from, part x |> y must lie in)
_RULES = {
    "R not closed": ("R", "R", "R"),
    "S not closed": ("S", "S", "S"),
    "cross rule x|>y in S fails": ("R", "S", "S"),
    "cross rule y|>x in R fails": ("S", "R", "R"),
}


def _pairwise_oracle(R, S):
    """The rule name of the first closure rule some ordered pair breaks, in
    check_decomposition's rule order, or "" when all hold; one conjugation
    per ordered pair and rule."""
    parts = {"R": R, "S": S}
    keys = {"R": {x.key() for x in R}, "S": {y.key() for y in S}}
    for reason, (acting, acted, target) in _RULES.items():
        for x in parts[acting]:
            for y in parts[acted]:
                if conjugate(x, y).key() not in keys[target]:
                    return reason
    return ""


def _assert_violation_breaks_rule(R, S, report):
    acting, acted, target = _RULES[report.reason]
    parts = {"R": R, "S": S}
    x, y = report.violation
    assert x in parts[acting] and y in parts[acted]
    assert conjugate(x, y) not in parts[target]


def _splits(elements, rng, count):
    """Seeded (R, S) splits of a class: unions of fibers (elements sharing a
    permutation part), some with one element moved across, some thinned."""
    fibers = {}
    for x in sorted(elements, key=lambda e: e.key()):
        fibers.setdefault(x.perm, []).append(x)
    for _ in range(count):
        p = rng.choice((0.05, 0.1, 0.2, 0.4))  # share of fibers in each part
        R, S = [], []
        for fiber in fibers.values():
            side = rng.random()
            if side < p:
                R.extend(fiber)
            elif side < 2 * p:
                S.extend(fiber)
        if not R or not S:
            continue
        mutation = rng.random()
        if mutation < 0.3:
            source, dest = (R, S) if rng.random() < 0.5 else (S, R)
            if len(source) > 1:
                dest.append(source.pop(rng.randrange(len(source))))
        elif mutation < 0.6:
            part = R if rng.random() < 0.5 else S
            for x in rng.sample(part, len(part) // 3):
                part.remove(x)
        yield R, S


def test_check_decomposition_agrees_with_pairwise_oracle():
    rng = random.Random(11)
    closed = failing = 0
    for kind, rep, count in (
        (GroupKind.B, "101:(1 2)", 6000),
        (GroupKind.B, "0000:(1 2)(3 4)", 6000),
        (GroupKind.D, "1100:(1 2)", 6000),
        (GroupKind.S, "0000:(1 2 3)", 6000),
        (GroupKind.B, "10100:(1 2 3 4 5)", 1000),
    ):
        cls = enumerate_class(kind, parse_element(rep))
        for R, S in _splits(cls.elements, rng, count):
            report = check_decomposition(R, S)
            assert report.reason == _pairwise_oracle(R, S), (rep, R, S)
            if report.ok:
                closed += 1
            else:
                failing += 1
                _assert_violation_breaks_rule(R, S, report)
    assert closed > 500 and failing > 5000


def test_b8_fixed_point_witness_checked_exhaustively():
    x = parse_element("10000001:(1 2 3)")
    verdict = classify(GroupKind.B, x)
    assert verdict.status == PROVEN
    w = verdict.witness
    mem = ClassMembership(GroupKind.B, 8)
    report = w.validate(member=lambda t: mem.same_class(t, x))
    assert report.ok and report.reason == ""
    # one element of S other than b moved into R breaks a named rule
    moved = next(y for y in w.S if y != w.b)
    R = w.R + [moved]
    S = [y for y in w.S if y != moved]
    report = TypeDWitness(R, S, w.a, w.b).validate()
    assert not report.ok and report.reason in _RULES
    _assert_violation_breaks_rule(R, S, report)


def _random_imports(module):
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(node.lineno, a.name) for a in node.names if a.name.split(".")[0] == "random"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "random":
            found.append((node.lineno, node.module))
    return found


def test_certificate_layer_never_samples():
    # a type-D verdict rests on an exhaustive check, so the modules that
    # build and check witnesses, and the class layer whose juxtaposition
    # identities they rely on, draw no random numbers
    # (the package's `classify` name is the function, hence import_module)
    for name in ("weylrack.rack", "weylrack.classify", "weylrack.classes"):
        module = importlib.import_module(name)
        assert _random_imports(module) == [], module.__name__
