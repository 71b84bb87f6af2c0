"""Conjugacy classes, centralizers, and the juxtaposition calculus."""
import random

import pytest

from weylrack import classes as classes_module
from weylrack.classes import (
    BudgetExceeded,
    ClassMembership,
    ConjugacyClass,
    _reduce_generators,
    all_classes,
    centralizer,
    centralizer_order,
    class_count,
    class_key,
    class_reps,
    embed_left,
    embed_right,
    enumerate_class,
    is_orthogonal,
    juxtapose,
    orbit,
    small_class,
    split,
    verify_juxtaposition_identities,
)
from weylrack.signed import (
    GroupKind,
    conjugate,
    elements,
    from_cycles,
    generators,
    group_order,
    identity,
    multiply,
    parse_element,
    random_element,
)


def bipartition_count(n):
    """Number of pairs of partitions with total size n (independent oracle)."""
    from functools import lru_cache

    @lru_cache(maxsize=None)
    def p(k, mx):
        if k == 0:
            return 1
        return sum(p(k - i, i) for i in range(1, min(k, mx) + 1))

    return sum(p(k, k) * p(n - k, n - k) for k in range(n + 1))


@pytest.mark.parametrize("n,count", [(2, 5), (3, 10), (4, 20), (5, 36)])
def test_class_counts_match_bipartitions(n, count):
    classes = all_classes(GroupKind.B, n)
    assert len(classes) == count == bipartition_count(n)
    assert sum(c.size for c in classes) == group_order(GroupKind.B, n)


def test_class_counts_partition_sym():
    # S_n: one class per partition
    assert len(all_classes(GroupKind.S, 4)) == 5
    assert len(all_classes(GroupKind.S, 5)) == 7


FORMULA_RANKS = [(GroupKind.B, range(1, 7)), (GroupKind.D, range(2, 7)), (GroupKind.S, range(1, 7))]


@pytest.mark.parametrize("kind,ranks", FORMULA_RANKS)
def test_formula_sizes_match_the_orbit_bfs(kind, ranks):
    for n in ranks:
        for rep in class_reps(kind, n):
            assert ConjugacyClass(kind, rep).size == len(enumerate_class(kind, rep).elements)


@pytest.mark.parametrize("kind,ranks", FORMULA_RANKS)
def test_centralizer_order_matches_the_closure(kind, ranks):
    for n in range(ranks.start, 6):
        for rep in class_reps(kind, n):
            assert centralizer_order(kind, rep) == len(centralizer(kind, rep).elements())


def test_classes_list_elements_on_first_read():
    rep = from_cycles(4, 0b0001, [(1, 2, 3)])
    cls = ConjugacyClass(GroupKind.B, rep)
    assert cls._elements is None and cls.size == 32
    assert cls.section[cls.index(cls.elements[5])] == enumerate_class(GroupKind.B, rep).section[5]
    with pytest.raises(ValueError):
        ConjugacyClass(GroupKind.B, rep, cls.elements[1:], cls.section[1:])
    with pytest.raises(ValueError):
        ConjugacyClass(GroupKind.D, rep)


@pytest.mark.parametrize("kind", list(GroupKind))
def test_class_count_counts_the_reps(kind):
    for n in range(2 if kind is GroupKind.D else 1, 13):
        assert class_count(kind, n) == len(class_reps(kind, n))


def test_class_reps_refuse_more_than_their_budget():
    assert class_count(GroupKind.B, 24) == 94_235
    with pytest.raises(BudgetExceeded):
        class_reps(GroupKind.B, 40)


def test_enumerate_class_is_orbit():
    rng = random.Random(31)
    x = from_cycles(3, 0b010, [(1, 2)])
    cls = enumerate_class(GroupKind.B, x)
    keys = {t.key() for t in cls.elements}
    for _ in range(100):
        g = random_element(rng, 3)
        assert conjugate(g, x).key() in keys


def test_sym_class_reads_the_class_in_key_order():
    # every S_n class of rank <= 7, against the orbit BFS
    for n in range(1, 8):
        for rep in class_reps(GroupKind.S, n):
            listed = sorted(x.key() for x in enumerate_class(GroupKind.S, rep).elements)
            assert [x.key() for x in small_class(GroupKind.S, rep.cycle_type())] == listed
    with pytest.raises(BudgetExceeded):
        small_class(GroupKind.S, (6, 6))  # 6,652,800 elements, refused before the walk


def test_small_class_reads_signed_cores_in_key_order():
    # every B_k class of rank <= 5, the signed cores' groups, from its
    # bipartition, against the orbit BFS of its class_reps rep
    for n in range(1, 6):
        for rep in class_reps(GroupKind.B, n):
            sct = rep.signed_cycle_type()
            pos, neg = sct.positive[::-1], sct.negative[::-1]
            listed = sorted(x.key() for x in enumerate_class(GroupKind.B, rep).elements)
            assert [x.key() for x in small_class(GroupKind.B, pos, neg)] == listed, str(rep)
    assert len(small_class(GroupKind.B, (5,))) == 384  # the largest B_5 class


def test_centralizer_orbit_stabilizer():
    for rep in (
        from_cycles(3, 0, [(1, 2)]),
        from_cycles(4, 0b0011, [(1, 2), (3, 4)]),
        from_cycles(4, 0b0100, [(1, 2, 3)]),
    ):
        cls = enumerate_class(GroupKind.B, rep)
        cen = centralizer(GroupKind.B, rep, cls)
        assert cen.order * cls.size == group_order(GroupKind.B, rep.n)
        for g in cen.generators:
            assert conjugate(g, rep) == rep
        # the reduced generators still close to the whole centralizer
        assert len(cen.elements()) == cen.order
        assert _reduce_generators(cen.generators, cen.order) == cen.generators


@pytest.mark.parametrize("kind", [GroupKind.B, GroupKind.D])
def test_class_sections(kind):
    for cls in all_classes(kind, 4):
        assert cls.elements[0] == cls.rep
        for g, t in zip(cls.section, cls.elements):
            assert conjugate(g, cls.rep) == t


def test_orbit_caps_raise_budget_exceeded(monkeypatch):
    # the limits are module constants, read at call time
    rep = from_cycles(4, 0, [(1, 2)])
    cls = enumerate_class(GroupKind.B, rep)
    cen = centralizer(GroupKind.B, rep, cls)
    monkeypatch.setattr(classes_module, "CLASS_BUDGET", cls.size)
    assert enumerate_class(GroupKind.B, rep).elements == cls.elements
    monkeypatch.setattr(classes_module, "CLASS_BUDGET", cls.size - 1)
    with pytest.raises(BudgetExceeded):
        enumerate_class(GroupKind.B, rep)
    monkeypatch.setattr(classes_module, "CENTRALIZER_BUDGET", cen.order)
    assert len(cen.elements()) == cen.order
    monkeypatch.setattr(classes_module, "CENTRALIZER_BUDGET", cen.order - 1)
    with pytest.raises(BudgetExceeded):
        cen.elements()


def test_orbit_stops_at_the_stop_key():
    # b = (1 2 3 4 6 5) lies in the 120-point orbit of a = (1 2 3 4 5 6) under
    # conjugation by <a, b>; the walk ends when b is inserted, and the cap
    # still counts every point inserted before it
    a, b = parse_element("000000:(1 2 3 4 5 6)"), parse_element("000000:(1 2 3 4 6 5)")
    full = orbit(a, (a, b), conjugate, 120)
    assert len(full) == 120 and b.key() in full
    part = orbit(a, (a, b), conjugate, 120, stop=b.key())
    assert list(part) == list(full)[: len(part)] and list(part)[-1] == b.key()
    assert len(part) == 11
    assert orbit(a, (a, b), conjugate, 11, stop=b.key()) == part
    with pytest.raises(BudgetExceeded):
        orbit(a, (a, b), conjugate, 10, stop=b.key())


def test_class_membership_agrees_with_enumeration():
    mem = ClassMembership(GroupKind.B, 3)
    classes = all_classes(GroupKind.B, 3)
    for c in classes:
        for t in c.elements:
            assert mem.same_class(t, c.rep)
    # cross-class pairs disagree
    assert not mem.same_class(classes[0].rep, classes[1].rep)


def brute_force_orbits(kind, n):
    """The conjugation orbits of the whole group, by BFS from every element
    not yet reached (the trivial D_1 needs no generators)."""
    gens = [] if (kind, n) == (GroupKind.D, 1) else generators(kind, n)
    left = {x.key(): x for x in elements(kind, n)}
    orbits = []
    while left:
        tree = orbit(next(iter(left.values())), gens, conjugate, len(left))
        for k in tree:
            del left[k]
        orbits.append([x for x, _, _ in tree.values()])
    return orbits


@pytest.mark.parametrize("kind", list(GroupKind))
@pytest.mark.parametrize("n", range(1, 7))
def test_class_key_and_reps_match_brute_force_orbits(kind, n):
    orbits = brute_force_orbits(kind, n)
    keys = [{class_key(kind, x) for x in orb} for orb in orbits]
    assert all(len(k) == 1 for k in keys)  # constant on each orbit
    owner = {k.pop(): i for i, k in enumerate(keys)}
    assert len(owner) == len(orbits)  # distinct between orbits
    reps = class_reps(kind, n)
    assert sorted(owner[class_key(kind, r)] for r in reps) == list(range(len(orbits)))
    assert sum(len(orb) for orb in orbits) == group_order(kind, n)


def _reference_class_key(kind, x):
    """class_key computed directly: the cycles walked on x.perm, the signed
    lengths sorted, and the half of a split D class as the parity of the b
    with b + pi.b = a, solved along each cycle from b = 0 at its first point."""
    if (kind is GroupKind.S and x.bits) or (kind is GroupKind.D and bin(x.bits).count("1") % 2):
        return None
    seen, cycles = set(), []
    for i in range(x.n):
        cyc = []
        while i not in seen:
            seen.add(i)
            cyc.append(i)
            i = x.perm[i]
        if cyc:
            cycles.append(cyc)
    a = [x.bits >> i & 1 for i in range(x.n)]
    signs = [sum(a[i] for i in cyc) % 2 for cyc in cycles]
    pos = tuple(sorted(len(c) for c, s in zip(cycles, signs) if not s))
    neg = tuple(sorted(len(c) for c, s in zip(cycles, signs) if s))
    half = 0
    if kind is GroupKind.D and not neg and all(k % 2 == 0 for k in pos):
        # (b, 1) |> (0, pi) = (b + pi.b, pi), and (pi.b)_{pi(i)} = b_i, so
        # a at pi(i) is b at pi(i) plus b at i
        b = [0] * x.n
        for cyc in cycles:
            for prev, point in zip(cyc, cyc[1:]):
                b[point] = a[point] ^ b[prev]
        half = sum(b) % 2
    return (pos, neg), half


def _key_fields(key):
    return key if key is None else ((key[0].positive, key[0].negative), key[1])


def test_memoised_class_key_matches_a_reference():
    # every element at ranks 1-5, then seeded elements at ranks 9-16 whose
    # sign bits pass 255, each read twice so the second read hits the memo
    cases = [(kind, x) for kind in GroupKind for n in range(1, 6) for x in elements(kind, n)]
    rng = random.Random(53)
    for n in range(9, 17):
        for kind in GroupKind:
            for _ in range(40):
                x = random_element(rng, n, kind)
                while kind is not GroupKind.S and x.bits < 256:
                    x = random_element(rng, n, kind)
                cases.append((kind, x))
    for kind, x in cases + cases:
        expected = _reference_class_key(kind, x)
        assert _key_fields(class_key(kind, x)) == expected
        assert (x.signed_cycle_type().positive, x.signed_cycle_type().negative) == (
            _reference_class_key(GroupKind.B, x)[0]
        )


def test_d4_split_class_halves():
    x = from_cycles(4, 0, [(1, 2), (3, 4)])
    flip = from_cycles(4, 0b0001, [])
    y = conjugate(flip, x)
    assert x.signed_cycle_type() == y.signed_cycle_type()
    assert class_key(GroupKind.D, x) != class_key(GroupKind.D, y)
    assert class_key(GroupKind.B, x) == class_key(GroupKind.B, y)
    assert class_key(GroupKind.D, flip) is None and class_key(GroupKind.S, y) is None
    mem = ClassMembership(GroupKind.D, 4)
    assert not mem.same_class(x, y)
    assert mem.same_class(conjugate(flip, x), y) and mem.same_class(conjugate(flip, y), x)
    assert {r.key() for r in class_reps(GroupKind.D, 4)} >= {x.key(), y.key()}
    assert {t.key() for t in enumerate_class(GroupKind.D, x).elements}.isdisjoint(
        t.key() for t in enumerate_class(GroupKind.D, y).elements
    )


def test_juxtapose_split_embed():
    x = from_cycles(2, 0b01, [(1, 2)])
    y = from_cycles(3, 0b100, [(1, 2, 3)])
    z = juxtapose(x, y)
    assert z.n == 5
    assert split(z, 2) == (x, y)
    assert multiply(embed_left(x, 3), embed_right(2, y)) == z
    # splitting across a block-mixing permutation fails
    with pytest.raises(ValueError):
        split(from_cycles(5, 0, [(2, 3)]), 2)


def test_juxtapose_is_multiplicative():
    rng = random.Random(37)
    for _ in range(100):
        x, xp = random_element(rng, 3), random_element(rng, 3)
        y, yp = random_element(rng, 2), random_element(rng, 2)
        assert multiply(juxtapose(x, y), juxtapose(xp, yp)) == juxtapose(
            multiply(x, xp), multiply(y, yp)
        )


def test_orthogonality_is_disjoint_cycle_lengths():
    a = from_cycles(2, 0, [(1, 2)])
    b = from_cycles(3, 0, [(1, 2, 3)])
    c = from_cycles(3, 0, [(1, 2)])
    assert is_orthogonal(a, b)
    assert not is_orthogonal(a, c)  # both carry a 2-cycle
    assert is_orthogonal(identity(2), a)


def test_juxtaposition_identities_small():
    for n, m in ((1, 1), (1, 2), (2, 2)):
        report = verify_juxtaposition_identities(n, m, GroupKind.B)
        assert report["passed"], report["counterexamples"][:3]


@pytest.mark.parametrize("n,m", [(2, 2), (2, 3), (3, 2)])
def test_juxtaposition_identities_refuse_d(n, m):
    with pytest.raises(ValueError, match="B and S"):
        verify_juxtaposition_identities(n, m, GroupKind.D)
