"""Conjugation racks, the squaring formulas, and decomposition certificates."""
import ast
import importlib
import random
from pathlib import Path

import pytest

from weylrack.classes import (
    CLASS_BUDGET,
    ClassMembership,
    all_classes,
    class_reps,
    enumerate_class,
    orbit,
)
from weylrack.classify import PROVEN, Classifier, classify
from weylrack import rack as rack_module
from weylrack.rack import (
    RackError,
    TypeDWitness,
    brute_force_type_d,
    check_decomposition,
    commuting_balance_sides,
    is_square_commutative,
    sq,
    sq_formula_commuting,
    sq_formula_general,
)
from weylrack.signed import (
    GroupKind,
    SignedPermutation,
    conjugate,
    format_element,
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
    # and ranks around the byte boundaries of the sign action, up to the largest
    ranks = list(range(2, 9)) + [9, 15, 16, 17, 63, 64]
    for _ in range(2000):
        n = rng.choice(ranks)
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


@pytest.mark.parametrize(
    "formula",
    [sq, sq_formula_general, sq_formula_commuting, commuting_balance_sides,
     pytest.param(lambda a, b: TypeDWitness(a, b).validate(), id="validate")],
)
def test_sq_formulas_refuse_a_rank_mismatch(formula):
    x, y = parse_element("101:(1 2)"), parse_element("0110:(1 2 3 4)")
    for args in ((x, y), (y, x)):
        with pytest.raises(ValueError, match=r"^rank mismatch: \d != \d$") as err:
            formula(*args)
        assert type(err.value) is ValueError


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


def test_brute_force_reads_no_further_than_its_witness():
    # the scan reads a lazy class only up to the b of its first witness
    cls = enumerate_class(GroupKind.B, from_cycles(5, 0, [(1, 2, 3, 4, 5)]))
    read = []

    def counting():
        for x in cls.elements:
            read.append(x)
            yield x

    w = brute_force_type_d(counting())
    assert isinstance(w, TypeDWitness)
    assert read[0] == w.a and read[-1] == w.b
    assert len(read) < cls.size


def test_rejected_pair_walks_a_orbit_only_up_to_b(monkeypatch):
    # b lies in the 120-point orbit of a under conjugation by <a, b>, so the
    # pair is rejected; the walk of a's orbit ends when it meets b
    a, b = parse_element("000000:(1 2 3 4 5 6)"), parse_element("000000:(1 2 3 4 6 5)")
    assert len(orbit(a, (a, b), conjugate, CLASS_BUDGET)) == 120
    calls, steps = [], []
    step = rack_module._Conjugator.conjugate

    def counting(g, x):
        calls.append(x)
        return conjugate(g, x)

    def counting_step(conjugator, x):
        steps.append(x)
        return step(conjugator, x)

    # sq conjugates through rack.conjugate, the walk through its conjugators
    monkeypatch.setattr(rack_module, "conjugate", counting)
    monkeypatch.setattr(rack_module._Conjugator, "conjugate", counting_step)
    assert rack_module.pair_witness([(a, b)], "") is None
    # 3 conjugations for sq(a, b) != b and 11 for the walk, where the whole
    # orbit takes 2 * 120
    assert len(calls) == 3
    assert len(steps) == 11


def test_validated_parts_are_the_plain_conjugation_walks():
    # validate walks through its per-generator conjugators; R and S must be the
    # orbits that plain conjugate walks, element for element, in order
    reps = [(kind, x) for kind in (GroupKind.B, GroupKind.D) for x in class_reps(kind, 6)]
    reps += [(GroupKind.B, parse_element(f"{s}000000000:(1 2 3 4 5 6 7 8 9 10)")) for s in "01"]
    witnesses = 0
    for kind, x in reps:
        w = Classifier(kind, x.n).classify(x).witness
        if w is None:
            continue
        witnesses += 1
        for part, seed in ((w.R, w.a), (w.S, w.b)):
            walk = orbit(seed, (w.a, w.b), conjugate, CLASS_BUDGET)
            assert [z.key() for z in part] == list(walk)
        # a fresh witness on the same pair walks them again, under its member test
        again = TypeDWitness(w.a, w.b, w.tag)
        assert again.validate(ClassMembership(kind, x.n).member_test(x))
        assert again.R == w.R and again.S == w.S
    assert witnesses >= 60


def test_brute_force_undetermined_on_singleton():
    e = from_cycles(3, 0, [])
    out = brute_force_type_d([e])
    assert out is None


def test_brute_force_no_witness_on_sym_transpositions():
    """The S_3 transposition rack is simple enough to have no type-D split."""
    cls = enumerate_class(GroupKind.S, from_cycles(3, 0, [(1, 2)]))
    out = brute_force_type_d(cls.elements)
    assert out is None


def _type_d_oracle(elements) -> bool:
    """Whether some pair (r, s) of the class has sq(r, s) != s and s outside
    the orbit of r under conjugation by <r, s>: every ordered pair, orbits
    uncapped."""
    for r in elements:
        for s in elements:
            if sq(r, s) == s:
                continue
            orbit_r, frontier = {r.key()}, [r]
            while frontier:
                x = frontier.pop()
                for g in (r, s):
                    z = conjugate(g, x)
                    if z.key() not in orbit_r:
                        orbit_r.add(z.key())
                        frontier.append(z)
            if s.key() not in orbit_r:
                return True
    return False


_ORACLE_CLASSES = [
    cls
    for kind, ranks in ((GroupKind.S, (4, 5, 6)), (GroupKind.B, (3, 4)), (GroupKind.D, (4, 5)))
    for n in ranks
    for cls in all_classes(kind, n)
    if cls.size <= 120
]


def test_brute_force_agrees_with_all_pairs_oracle():
    """The scan from the first element is complete: it finds a witness
    exactly when some pair of the class does."""
    verdicts = []
    for cls in _ORACLE_CLASSES:
        w = brute_force_type_d(cls.elements)
        assert (w is not None) == _type_d_oracle(cls.elements), str(cls.rep)
        if w is not None:
            keys = {x.key() for x in cls.elements}
            assert w.validate(member=lambda z: z.key() in keys)
        verdicts.append(w is not None)
    # both answers occur, so the agreement is not vacuous
    assert verdicts.count(True) == 18 and verdicts.count(False) == 59


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


def _assert_violation_breaks_rule(R, S, report, member=None):
    if report.reason == "element outside the class":
        (x,) = report.violation
        assert (x in R or x in S) and not member(x)
        return
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
    # one element of S other than b moved into R: the parts are no longer
    # the orbits of a and b, so a record holding them is refused, and the
    # pairwise check names a broken rule
    moved = next(y for y in w.S if y != w.b)
    R = w.R + [moved]
    S = [y for y in w.S if y != moved]
    with pytest.raises(ValueError, match="^R is not the orbit of a$"):
        TypeDWitness.from_json(_record(w, R, S))
    report = check_decomposition(R, S)
    assert not report.ok and report.reason in _RULES
    _assert_violation_breaks_rule(R, S, report)


def _record(w, R, S):
    """The JSON record of w with its parts replaced by R and S."""
    return {**w.to_json(), "R": [format_element(x) for x in R], "S": [format_element(y) for y in S]}


def _damaged_copies(w):
    """Three broken copies (R, S, the first part that is not an orbit) of a
    witness: an element of S other than b dropped, one moved into R, and the
    first sign bit flipped on an element of R other than a."""
    s = next(y for y in w.S if y != w.b)
    r = next(x for x in w.R if x != w.a)
    S = [y for y in w.S if y != s]
    flipped = SignedPermutation(r.n, r.bits ^ 1, r.perm)
    return [(w.R, S, "S is not the orbit of b"), (w.R + [s], S, "R is not the orbit of a"),
            ([flipped if x == r else x for x in w.R], w.S, "R is not the orbit of a")]


def test_orbit_certificate_agrees_with_pairwise_check():
    # every ProvenTypeD witness of B5-B7/D5-D7 passes both the orbit
    # certificate and the pairwise closure check, under its class test, and
    # its record loads; a record of every damaged copy is refused, and the
    # pairwise check rejects the copy with and without that test
    witnesses = damaged = 0
    for kind in (GroupKind.B, GroupKind.D):
        for n in (5, 6, 7):
            clf = Classifier(kind, n)
            for x in class_reps(kind, n):
                v = clf.classify(x)
                if v.status != PROVEN:
                    continue
                w, member = v.witness, clf.membership.member_test(x)
                assert w.validate(member) and check_decomposition(w.R, w.S, member), str(x)
                assert TypeDWitness.from_json(w.to_json()) == w
                witnesses += 1
                for R, S, reason in _damaged_copies(w):
                    with pytest.raises(ValueError, match=f"^{reason}$"):
                        TypeDWitness.from_json(_record(w, R, S))
                    for test in (member, None):
                        report = check_decomposition(R, S, test)
                        assert not report, str(x)
                        _assert_violation_breaks_rule(R, S, report, test)
                    damaged += 1
    assert (witnesses, damaged) == (214, 642)


def test_validate_is_stricter_than_the_pairwise_check():
    # z lies in the class of the B8 witness below and moves or signs no point
    # that R u S touches, so it commutes with all of R u S: R + [z], S is still
    # a closed decomposition, but R is no longer the orbit of a, so a record
    # holding it is refused
    x, z = parse_element("00000001:(1 2)"), parse_element("00000010:(5 6)")
    verdict = classify(GroupKind.B, x)
    assert verdict.status == PROVEN
    w, member = verdict.witness, ClassMembership(GroupKind.B, 8).member_test(x)
    assert member(z) and z not in w.R + w.S
    assert all(multiply(z, t) == multiply(t, z) for t in w.R + w.S)
    R = w.R + [z]
    assert check_decomposition(R, w.S, member)
    with pytest.raises(ValueError, match="^R is not the orbit of a$"):
        TypeDWitness.from_json(_record(w, R, w.S))


def test_validate_refuses_damaged_pairs():
    x = parse_element("00000:(1 2 3 4 5)")
    clf = Classifier(GroupKind.B, 5)
    w, member = clf.classify(x).witness, clf.membership.member_test(x)
    assert w.validate(member)
    # b taken from a's orbit: the walk of a's orbit under <a, b> meets it
    r = w.R[1]
    report = TypeDWitness(w.a, r).validate(member)
    assert not report and report.reason == "b is in the orbit of a"
    # a sign bit flipped on a: the pair still splits, but a leaves the class
    flipped = SignedPermutation(5, w.a.bits ^ 1, w.a.perm)
    report = TypeDWitness(flipped, w.b).validate(member)
    assert not report and report.reason == "element outside the class"
    assert report.violation == (flipped,) and TypeDWitness(flipped, w.b).validate()
    # a commuting pair: sq(a, b) == b
    a, b = parse_element("00000:(1 2)"), parse_element("00000:(3 4)")
    assert multiply(a, b) == multiply(b, a)
    report = TypeDWitness(a, b).validate()
    assert not report and report.reason == "sq(a, b) == b"
    # a record whose pair fails is refused as well
    with pytest.raises(ValueError, match="^invalid witness: sq\\(a, b\\) == b$"):
        TypeDWitness.from_json({"R": [], "S": [], "a": format_element(a), "b": format_element(b)})


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
