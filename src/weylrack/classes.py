"""Conjugacy classes and centralizers of the signed Weyl groups, plus the
juxtaposition calculus (block concatenation # and orthogonality).

A class is known by its representative, read off a bipartition (λ⁺, λ⁻) of
n by :func:`class_reps`.  Its size |G| / |C(x)| comes from
:func:`centralizer_order`, the product formula in the signed cycle type, so
sizing every class of a rank lists no element.  The orbit BFS lists a
class's elements and section only when a caller reads them, and checks their
number against the formula.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import BudgetExceeded
from .signed import (
    GroupKind,
    SignedPermutation,
    _negative_cycles,
    _signed_type,
    conjugate,
    contains,
    cycle_structure,
    generators,
    group_order,
    identity,
    multiply,
    perm_from_cycles,
)

CLASS_BUDGET = 2_000_000
# class representatives one call may list: every class of B_24 (94,235) fits
REP_BUDGET = 200_000
CENTRALIZER_BUDGET = 200_000  # elements of one centralizer closure
# larger centralizers keep every Schreier generator, the order ``--char`` reads
REDUCE_GENERATORS_UP_TO = 20_000


def orbit(
    seed: SignedPermutation, gens: Sequence[SignedPermutation], act, cap: int, stop=None
) -> dict:
    """Breadth-first orbit of ``seed`` under ``act(g, x)`` for g in ``gens``.

    Returns a Schreier tree as an insertion-ordered dict
    ``key -> (element, parent_key, generator)`` with ``element == act(generator,
    parent)``; the seed maps to ``(seed, None, None)`` and every parent comes
    before its children.  Raises :class:`BudgetExceeded` once the orbit has
    more than ``cap`` points.  The walk ends early, with the part of the tree
    built so far, when it inserts the key ``stop``.
    """
    tree = {seed.key(): (seed, None, None)}
    frontier = [seed]
    for x in frontier:  # grows while it is walked: a FIFO queue
        xk = x.key()
        for g in gens:
            y = act(g, x)
            yk = y.key()
            if yk not in tree:
                if len(tree) >= cap:
                    raise BudgetExceeded(f"orbit of {seed}", cap)
                tree[yk] = (y, xk, g)
                if yk == stop:
                    return tree
                frontier.append(y)
    return tree


class ConjugacyClass:
    """The class of ``rep`` in ``kind``, sized by :func:`centralizer_order`.

    ``elements`` and ``section`` (section[i] |> rep == elements[i]) are
    given by the caller or listed by the orbit BFS on first access.
    """

    def __init__(
        self,
        kind: GroupKind,
        rep: SignedPermutation,
        elements: Optional[list[SignedPermutation]] = None,
        section: Optional[list[SignedPermutation]] = None,
    ):
        self.kind = kind
        self.n = rep.n
        self.rep = rep
        self.size = group_order(kind, rep.n) // centralizer_order(kind, rep)
        if elements is not None and not (len(elements) == len(section) == self.size):
            raise ValueError(f"{len(elements)} elements given for a class of size {self.size}")
        self._elements = elements
        self._section = section
        self._index: dict = {}

    @property
    def elements(self) -> list[SignedPermutation]:
        if self._elements is None:
            self._list()
        return self._elements

    @property
    def section(self) -> list[SignedPermutation]:
        if self._section is None:
            self._list()
        return self._section

    def index(self, x: SignedPermutation) -> int:
        if not self._index:
            self._index.update({t.key(): i for i, t in enumerate(self.elements)})
        return self._index[x.key()]

    def _list(self) -> None:
        """Orbit of the rep under conjugation by the fixed generator list;
        a class of more than ``CLASS_BUDGET`` elements is refused with
        :class:`BudgetExceeded` before the walk.

        The final numeration is canonical: rep first, the rest sorted, so
        output does not depend on traversal schedule.  Conjugators come from
        the Schreier tree: each is a generator times its parent's conjugator.
        """
        rep, n = self.rep, self.n
        if self.size > CLASS_BUDGET:
            raise BudgetExceeded(f"orbit of {rep}", CLASS_BUDGET)
        tree = orbit(rep, generators(self.kind, n), conjugate, CLASS_BUDGET)
        if len(tree) != self.size:
            raise RuntimeError(f"orbit of {rep} has {len(tree)} elements, the formula {self.size}")
        conj: dict = {}
        for k, (_, parent, g) in tree.items():
            conj[k] = identity(n) if parent is None else multiply(g, conj[parent])
        elements = [x for x, _, _ in tree.values()]
        self._elements = [rep] + sorted(elements[1:], key=lambda x: x.key())
        self._section = [conj[x.key()] for x in self._elements]


def enumerate_class(kind: GroupKind, rep: SignedPermutation) -> ConjugacyClass:
    """The class of ``rep`` with its elements and section listed now; raises
    :class:`BudgetExceeded` if it has more than ``CLASS_BUDGET`` elements."""
    cls = ConjugacyClass(kind, rep)
    cls._list()
    return cls


def sym_class(cycle_type: tuple[int, ...]) -> list[SignedPermutation]:
    """The S_n class of ``cycle_type`` (descending lengths, 1s included) in
    key order, listed by :func:`enumerate_class`: a class of more than
    ``CLASS_BUDGET`` elements raises BudgetExceeded before the walk."""
    n = sum(cycle_type)
    rep = SignedPermutation(n, 0, perm_from_cycles(n, _consecutive_cycles(cycle_type)))
    return sorted(enumerate_class(GroupKind.S, rep).elements, key=lambda x: x.key())


def _consecutive_cycles(lengths: Sequence[int], start: int = 0) -> list[tuple[int, ...]]:
    """Cycles of the given lengths on consecutive points, after point ``start``."""
    ends = list(itertools.accumulate(lengths, initial=start))
    return [tuple(range(first + 1, end + 1)) for first, end in zip(ends, ends[1:])]


def centralizer_order(kind: GroupKind, x: SignedPermutation) -> int:
    """|C(x)| in ``kind``, from the cycle type of x alone.

    The centralizer in B permutes the a_k positive k-cycles of x among
    themselves, and the b_k negative ones, and acts on each cycle's support
    by the cycle's powers and their negatives, 2k elements in all:
    ∏_k (2k)^(a_k + b_k) a_k! b_k!.  In S a k-cycle has k rotations and no
    signs: ∏_k k^(m_k) m_k!.  D has index 2 in B, so its centralizer is half
    of B's, unless the class splits in D: then C_B(x) lies in D (see
    :func:`class_key`)."""
    if not contains(kind, x):
        raise ValueError(f"{x} is not in group {kind.value}_{x.n}")
    if kind is GroupKind.S:
        return _wreath_order(x.cycle_type(), 1)
    sct = x.signed_cycle_type()
    order = _wreath_order(sct.positive, 2) * _wreath_order(sct.negative, 2)
    if kind is GroupKind.D and not _splits(kind, sct.positive, sct.negative):
        order //= 2
    return order


def _wreath_order(lengths: Sequence[int], rotations: int) -> int:
    # ∏_k (rotations·k)^(m_k) m_k! over the multiplicities m_k of the sorted
    # ``lengths``: the j-th cycle in a run of k-cycles contributes rotations·k·j
    order = run = 1
    for i, k in enumerate(lengths):
        run = run + 1 if i and lengths[i - 1] == k else 1
        order *= rotations * k * run
    return order


@dataclass
class Centralizer:
    """Stabilizer of ``rep`` under conjugation, with Schreier generators."""

    kind: GroupKind
    rep: SignedPermutation
    generators: list[SignedPermutation]
    order: int

    def closure_tree(self, act) -> dict:
        """Schreier tree of the generators' closure from the identity under
        ``act``, at most ``CENTRALIZER_BUDGET``; verifies the order."""
        tree = orbit(identity(self.rep.n), self.generators, act, CENTRALIZER_BUDGET)
        if len(tree) != self.order:
            raise RuntimeError(
                f"closure misses centralizer elements: order {len(tree)}, expected {self.order}"
            )
        return tree

    def elements(self) -> list[SignedPermutation]:
        """Closure of the generators, sorted by key; verifies the order."""
        tree = self.closure_tree(multiply)
        return sorted((x for x, _, _ in tree.values()), key=lambda x: x.key())


def centralizer(kind: GroupKind, rep: SignedPermutation, cls: Optional[ConjugacyClass] = None) -> Centralizer:
    """Centralizer via Schreier generators from the class BFS."""
    n = rep.n
    if cls is None:
        cls = enumerate_class(kind, rep)
    conj = {cls.elements[i].key(): cls.section[i] for i in range(cls.size)}
    gens = generators(kind, n)
    schreier: dict = {}
    for x in cls.elements:
        gx = conj[x.key()]
        for g in gens:
            y = conjugate(g, x)
            gy = conj[y.key()]
            u = multiply(gy.inverse(), multiply(g, gx))
            if not u.is_identity():
                schreier.setdefault(u.key(), u)
    order = group_order(kind, n) // cls.size
    gen_list = sorted(schreier.values(), key=lambda x: x.key())
    return Centralizer(kind, rep, _reduce_generators(gen_list, order), order)


def _reduce_generators(gens: list[SignedPermutation], order: int) -> list[SignedPermutation]:
    """Greedy small generating set; the full list above ``REDUCE_GENERATORS_UP_TO``."""
    if order > REDUCE_GENERATORS_UP_TO or not gens:
        return gens
    n = gens[0].n
    chosen: list[SignedPermutation] = []
    have: dict = {identity(n).key(): None}
    for g in gens:
        if g.key() in have:
            continue
        chosen.append(g)
        have = orbit(identity(n), chosen, multiply, order)
        if len(have) == order:
            break
    return chosen


# -- juxtaposition ---------------------------------------------------------


def juxtapose(x: SignedPermutation, y: SignedPermutation) -> SignedPermutation:
    """Block concatenation x # y in rank x.n + y.n."""
    n, m = x.n, y.n
    bits = x.bits | (y.bits << n)
    perm = x.perm + tuple(j + n for j in y.perm)
    return SignedPermutation(n + m, bits, perm)


def embed_left(x: SignedPermutation, m: int) -> SignedPermutation:
    """x # 1 in rank x.n + m."""
    return juxtapose(x, identity(m)) if m else x


def embed_right(n: int, y: SignedPermutation) -> SignedPermutation:
    """1 # y in rank n + y.n."""
    return juxtapose(identity(n), y) if n else y


def split(z: SignedPermutation, n: int) -> tuple[SignedPermutation, SignedPermutation]:
    """Inverse of juxtapose when z preserves the block {1..n}; raises otherwise."""
    m = z.n - n
    if any(j >= n for j in z.perm[:n]):
        raise ValueError("element does not preserve the left block")
    left = SignedPermutation(n, z.bits & ((1 << n) - 1), z.perm[:n])
    right = SignedPermutation(m, z.bits >> n, tuple(j - n for j in z.perm[n:]))
    return left, right


def is_orthogonal(x: SignedPermutation, y: SignedPermutation) -> bool:
    """True iff the cycle-length multisets of the permutation parts are
    disjoint (fixed points count as length-1 cycles)."""
    return not (set(x.cycle_type()) & set(y.cycle_type()))


# -- class partition and membership ---------------------------------------


def class_key(kind: GroupKind, x: SignedPermutation):
    """The conjugacy invariant of ``x`` in ``kind``: None when x is not in
    the group, else (signed cycle type, half).

    half is 0 except in a D class with only positive, even-length cycles,
    which splits in two.  There x = (a, pi) = (b, 1) |> (0, pi) for a b with
    b + pi.b = a, solved cycle by cycle from b = 0 at each first point, and
    half is the parity of b: flipping b on a whole even cycle keeps it, and
    C_B((0, pi)) lies in D, so a sign flip moves x to the other half.  On a
    cycle (c_0 .. c_{L-1}), b at c_t is the parity of a over c_1 .. c_t, so
    a at c_t enters the parity of b L - t times: for even L, exactly when t
    is odd, which is the ``odd_places`` mask of the cycle structure.

    The signed type comes from the memoised cycle structure of x's
    permutation and the bit pattern of its negative cycles, through the
    memo :func:`signed._signed_type`, so a call sorts nothing and builds no
    :class:`SignedCycleType`: the membership tests over a witness's orbits
    meet few permutations and fewer signed shapes."""
    if not contains(kind, x):
        return None
    bits = x.bits
    structure = cycle_structure(x.perm)
    sct, even = _signed_type(structure.sizes, _negative_cycles(bits, structure.masks))
    half = 0
    if even and kind is GroupKind.D:
        half = (bits & structure.odd_places).bit_count() & 1
    return sct, half


def _splits(kind: GroupKind, pos: Sequence[int], neg: Sequence[int]) -> bool:
    return kind is GroupKind.D and not neg and not any(c & 1 for c in pos)


def _partitions(k: int, largest: int):
    """Partitions of k into parts of at most ``largest``, parts descending."""
    if k == 0:
        yield ()
    for first in range(min(k, largest), 0, -1):
        for rest in _partitions(k - first, first):
            yield (first,) + rest


def class_reps(kind: GroupKind, n: int) -> list[SignedPermutation]:
    """One representative per class, read off the bipartitions (pos, neg) of
    n, sorted by key.

    The rep lays the cycles out on consecutive points, with one sign bit on
    the first point of each negative cycle.  D keeps an even number of
    negative cycles and gives a split class a second rep, the first
    conjugated by the sign flip at point 1; S keeps no negative cycles.
    Raises :class:`BudgetExceeded`, before listing any, if there are more
    than ``REP_BUDGET`` classes.
    """
    count = class_count(kind, n)
    if count > REP_BUDGET:
        raise BudgetExceeded(f"class list of {kind.value}_{n} ({count} classes)", REP_BUDGET)
    flip = SignedPermutation(n, 1, tuple(range(n)))
    reps = []
    for k in range(n + 1):
        for pos in _partitions(k, k):
            for neg in _partitions(n - k, n - k):
                if (kind is GroupKind.S and neg) or (kind is GroupKind.D and len(neg) % 2):
                    continue
                cycles = _consecutive_cycles(pos + neg)
                bits = sum(1 << (cyc[0] - 1) for cyc in cycles[len(pos):])
                rep = SignedPermutation(n, bits, perm_from_cycles(n, cycles))
                reps.append(rep)
                if _splits(kind, pos, neg):
                    reps.append(conjugate(flip, rep))
    return sorted(reps, key=lambda x: x.key())


def class_count(kind: GroupKind, n: int) -> int:
    """The number of reps :func:`class_reps` lists, counted without them."""
    # by_parity[k][e]: partitions of k into a number of parts of parity e
    by_parity = [[1, 0]] + [[0, 0] for _ in range(n)]
    for part in range(1, n + 1):
        for k in range(part, n + 1):
            by_parity[k][0] += by_parity[k - part][1]
            by_parity[k][1] += by_parity[k - part][0]
    p = [even + odd for even, odd in by_parity]
    if kind is GroupKind.S:
        return p[n]
    if kind is GroupKind.B:
        return sum(p[k] * p[n - k] for k in range(n + 1))
    # D: an even number of negative cycles, and a second rep for each
    # partition of n into even parts, all positive
    return sum(p[k] * by_parity[n - k][0] for k in range(n + 1)) + (0 if n % 2 else p[n // 2])


def all_classes(kind: GroupKind, n: int) -> list[ConjugacyClass]:
    """Every conjugacy class, one per representative in :func:`class_reps`;
    sized by formula, listed only when read."""
    return [ConjugacyClass(kind, rep) for rep in class_reps(kind, n)]


class ClassMembership:
    """Conjugacy tests by :func:`class_key`, the same for B, D and S."""

    def __init__(self, kind: GroupKind, n: int):
        self.kind = kind
        self.n = n

    def same_class(self, x: SignedPermutation, y: SignedPermutation) -> bool:
        key = class_key(self.kind, x)
        return key is not None and key == class_key(self.kind, y)

    def member_test(self, rep: SignedPermutation):
        """A membership predicate for the class of ``rep``."""
        kind, key = self.kind, class_key(self.kind, rep)
        if key is None:
            raise ValueError(f"rep {rep} is not in group {kind.value}_{rep.n}")
        return lambda z: class_key(kind, z) == key


# -- identity verification -------------------------------------------------


def verify_juxtaposition_identities(
    n: int,
    m: int,
    kind: GroupKind = GroupKind.B,
) -> dict:
    """Machine check of the juxtaposition identities.

    (i) multiplicativity, (ii) the two one-sided embeddings commute and
    compose to #, (v) conjugation distributes over # -- all checked on every
    element pair (x, y).  The second pair (x', y') of (i) and (v) runs over
    1 # 1 and every block generator g # 1 and 1 # h, which covers every second
    pair by induction on its length as a word in those generators.  Write
    (x', y') = (x''c, y''d) with (c, d) a generator and (x'', y'') shorter.
    (i) for the first pair (x'', y'') gives x' # y' = (x'' # y'')(c # d), so by
    associativity (x # y)(x' # y') = ((x # y)(x'' # y''))(c # d), which is
    (xx'' # yy'')(c # d) by induction and xx' # yy' by (i) on a generator.
    (v) then follows from (i) and the multiplicativity of conjugation in its
    second argument: (x # y) |> (x' # y') is the product of (x # y) |> (x'' # y'')
    and (x # y) |> (c # d), each splits blockwise, and (i) joins the two.  The
    ``group_laws`` suite checks ``multiply`` and ``conjugate`` against monomial
    matrices, whence associativity and that multiplicativity.

    Under orthogonality of class representatives x and y, with z = x # y:
    (iii) |C(x)| |C(y)| = |G_{n+m}| / |class of z|, the class as listed;
    (iv) every u # v with u in C(x) and v in C(y) fixes z.  C(x) and C(y)
    are the stabilizers of the reps in the block groups listed for (i).
    With (iii), and because # is injective, C(x) # C(y) is all of C(z), so
    every element of C(z) factors blockwise and uniquely.  (vi) The orbit of
    z under conjugation by the block subgroup equals the element-wise
    juxtaposition of the two classes, and that juxtaposition sits inside the
    full conjugacy class.

    Only B and S are supported: D_n x D_m is not the block subgroup of
    D_{n+m}, which also holds the pairs of sign flips odd in each block, so
    D raises ValueError.
    """
    if kind not in (GroupKind.B, GroupKind.S):
        raise ValueError(
            f"juxtaposition identities are checked in B and S only, not {kind.value}: "
            "D_n x D_m is not the block subgroup of D_(n+m)"
        )
    from .signed import elements as group_elements

    report = {"n": n, "m": m, "group": kind.value, "checks": [], "counterexamples": []}

    ok_i = ok_ii = ok_v = True
    one_n, one_m = identity(n), identity(m)
    seconds = [(one_n, one_m)]
    seconds += [(g, one_m) for g in generators(kind, n)]
    seconds += [(one_n, h) for h in generators(kind, m)]
    seconds = [(xp, yp, juxtapose(xp, yp)) for xp, yp in seconds]
    left_group, right_group = list(group_elements(kind, n)), list(group_elements(kind, m))
    for x, y in itertools.product(left_group, right_group):
        xy = juxtapose(x, y)
        for xp, yp, xyp in seconds:
            if multiply(xy, xyp) != juxtapose(multiply(x, xp), multiply(y, yp)):
                ok_i = False
                report["counterexamples"].append(("i", str(x), str(y), str(xp), str(yp)))
            if conjugate(xy, xyp) != juxtapose(conjugate(x, xp), conjugate(y, yp)):
                ok_v = False
                report["counterexamples"].append(("v", str(x), str(y), str(xp), str(yp)))
        a = multiply(embed_left(x, m), embed_right(n, y))
        b = multiply(embed_right(n, y), embed_left(x, m))
        if not (a == xy == b):
            ok_ii = False
            report["counterexamples"].append(("ii", str(x), str(y)))
    report["checks"].append({"name": "product_splits_blockwise", "rule": "i", "passed": ok_i})
    report["checks"].append({"name": "one_sided_embeddings_commute", "rule": "ii", "passed": ok_ii})
    report["checks"].append({"name": "conjugation_splits_blockwise", "rule": "v", "passed": ok_v})

    # orthogonal class-level identities
    ok_iii = ok_iv = ok_vi = True
    right_classes = all_classes(kind, m)
    block_gens = [juxtapose(g, identity(m)) for g in generators(kind, n)]
    block_gens += [juxtapose(identity(n), g) for g in generators(kind, m)]
    stabilizers: dict = {}  # rep key -> the block group's elements fixing the rep

    def stabilizer(group, rep):
        if rep.key() not in stabilizers:
            stabilizers[rep.key()] = [g for g in group if conjugate(g, rep) == rep]
        return stabilizers[rep.key()]

    for lcls in all_classes(kind, n):
        for rcls in right_classes:
            if not is_orthogonal(lcls.rep, rcls.rep):
                continue
            z = juxtapose(lcls.rep, rcls.rep)
            zc = enumerate_class(kind, z)
            expected = {juxtapose(u, v).key() for u in lcls.elements for v in rcls.elements}
            # the orbit of the juxtaposition under conjugation by the block
            # subgroup is exactly the product of the two block classes; the
            # full class is larger (conjugation by elements mixing the blocks
            # can move cycle support from one block to the other)
            zkeys = {t.key() for t in zc.elements}
            block_orbit = set(orbit(z, block_gens, conjugate, group_order(kind, n + m)))
            if expected != block_orbit or not expected <= zkeys:
                ok_vi = False
                report["counterexamples"].append(("vi", str(lcls.rep), str(rcls.rep)))
            lcen = stabilizer(left_group, lcls.rep)
            rcen = stabilizer(right_group, rcls.rep)
            if len(lcen) * len(rcen) * len(zc.elements) != group_order(kind, n + m):
                ok_iii = False
                report["counterexamples"].append(("iii", str(lcls.rep), str(rcls.rep)))
            for u, v in itertools.product(lcen, rcen):
                if conjugate(juxtapose(u, v), z) != z:
                    ok_iv = False
                    report["counterexamples"].append(("iv", str(u), str(v)))
    report["checks"].append({"name": "centralizer_order_multiplies", "rule": "iii", "passed": ok_iii})
    report["checks"].append({"name": "centralizer_factors_blockwise", "rule": "iv", "passed": ok_iv})
    report["checks"].append({"name": "class_of_juxtaposition_splits", "rule": "vi", "passed": ok_vi})
    report["passed"] = all(c["passed"] for c in report["checks"])
    return report
