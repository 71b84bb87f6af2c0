"""Conjugacy classes and centralizers of the signed Weyl groups, plus the
juxtaposition calculus (block concatenation # and orthogonality).
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .errors import BudgetExceeded
from .signed import (
    GroupKind,
    SignedPermutation,
    conjugate,
    contains,
    generators,
    group_order,
    identity,
    multiply,
)

CLASS_BUDGET = 2_000_000


def orbit(seed: SignedPermutation, gens: Sequence[SignedPermutation], act, cap: int) -> dict:
    """Breadth-first orbit of ``seed`` under ``act(g, x)`` for g in ``gens``.

    Returns a Schreier tree as an insertion-ordered dict
    ``key -> (element, parent_key, generator)`` with ``element == act(generator,
    parent)``; the seed maps to ``(seed, None, None)`` and every parent comes
    before its children.  Raises :class:`BudgetExceeded` once the orbit has
    more than ``cap`` points.
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
                frontier.append(y)
    return tree


@dataclass
class ConjugacyClass:
    """An enumerated class with a section: section[i] |> rep == elements[i]."""

    kind: GroupKind
    n: int
    rep: SignedPermutation
    elements: list[SignedPermutation]
    section: list[SignedPermutation]
    _index: dict = field(default_factory=dict, repr=False)

    @property
    def size(self) -> int:
        return len(self.elements)

    def index(self, x: SignedPermutation) -> int:
        if not self._index:
            self._index.update({t.key(): i for i, t in enumerate(self.elements)})
        return self._index[x.key()]

    def __contains__(self, x: SignedPermutation) -> bool:
        if not self._index:
            self._index.update({t.key(): i for i, t in enumerate(self.elements)})
        return x.key() in self._index


def enumerate_class(
    kind: GroupKind,
    rep: SignedPermutation,
    budget: int = CLASS_BUDGET,
) -> ConjugacyClass:
    """Orbit of ``rep`` under conjugation by the fixed generator list.

    The final numeration is canonical: rep first, the rest sorted, so output
    does not depend on traversal schedule.  Conjugators come from the
    Schreier tree: each is a generator times its parent's conjugator.
    """
    if not contains(kind, rep):
        raise ValueError(f"rep {rep} is not in group {kind.value}_{rep.n}")
    n = rep.n
    tree = orbit(rep, generators(kind, n), conjugate, budget)
    conj: dict = {}
    for k, (_, parent, g) in tree.items():
        conj[k] = identity(n) if parent is None else multiply(g, conj[parent])
    elements = [x for x, _, _ in tree.values()]
    ordered = [rep] + sorted(elements[1:], key=lambda x: x.key())
    section = [conj[x.key()] for x in ordered]
    return ConjugacyClass(kind, n, rep, ordered, section)


@dataclass
class Centralizer:
    """Stabilizer of ``rep`` under conjugation, with Schreier generators."""

    kind: GroupKind
    rep: SignedPermutation
    generators: list[SignedPermutation]
    order: int

    def closure_tree(self, act, cap: int) -> dict:
        """Schreier tree of the generators' closure from the identity under
        ``act``; verifies the orbit-stabilizer order."""
        tree = orbit(identity(self.rep.n), self.generators, act, cap)
        if len(tree) != self.order:
            raise RuntimeError(
                f"closure misses centralizer elements: order {len(tree)}, expected {self.order}"
            )
        return tree

    def elements(self, cap: int = 200_000) -> list[SignedPermutation]:
        """Closure of the generators, sorted by key; verifies the order."""
        tree = self.closure_tree(multiply, cap)
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


def _reduce_generators(gens: list[SignedPermutation], order: int, cap: int = 20_000) -> list[SignedPermutation]:
    """Greedy small generating set; falls back to the full list above the cap."""
    if order > cap or not gens:
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


def all_classes(kind: GroupKind, n: int) -> list[ConjugacyClass]:
    """Brute-force partition of the whole group into conjugacy classes."""
    from .signed import elements as group_elements

    remaining = {x.key(): x for x in group_elements(kind, n)}
    out = []
    while remaining:
        rep = remaining[min(remaining)]
        cls = enumerate_class(kind, rep)
        for t in cls.elements:
            del remaining[t.key()]
        out.append(cls)
    return out


class ClassMembership:
    """Cached conjugacy tests; invariant-based for B, orbit-based for D/S."""

    def __init__(self, kind: GroupKind, n: int):
        self.kind = kind
        self.n = n
        self._orbits: list[set] = []

    def same_class(self, x: SignedPermutation, y: SignedPermutation) -> bool:
        if x.signed_cycle_type() != y.signed_cycle_type():
            return False
        if self.kind is GroupKind.B:
            return True
        return self._orbit_keys(x) == self._orbit_keys(y) or y.key() in self._orbit_keys(x)

    def member_test(self, rep: SignedPermutation):
        """A fast membership predicate for the class of ``rep``."""
        if self.kind is GroupKind.B:
            sct = rep.signed_cycle_type()
            return lambda z: z.signed_cycle_type() == sct
        keys = self._orbit_keys(rep)
        return lambda z: z.key() in keys

    def _orbit_keys(self, x: SignedPermutation) -> set:
        for keys in self._orbits:
            if x.key() in keys:
                return keys
        keys = set(orbit(x, generators(self.kind, self.n), conjugate, CLASS_BUDGET))
        self._orbits.append(keys)
        return keys


# -- identity verification -------------------------------------------------


def verify_juxtaposition_identities(
    n: int,
    m: int,
    kind: GroupKind = GroupKind.B,
) -> dict:
    """Machine check of the juxtaposition identities.

    (i) multiplicativity, (ii) the two one-sided embeddings commute and
    compose to #, (v) conjugation distributes over # -- all checked on every
    element pair (x, y), against a seeded random second pair for (i) and
    (v).  Under orthogonality of class representatives: (iii) the centralizer
    of the juxtaposition is the internal direct product of the embedded block
    centralizers, (iv) elements factor uniquely through the embeddings, and
    (vi) the orbit of the juxtaposition under conjugation by the block
    subgroup equals the element-wise juxtaposition of the two classes, and
    that juxtaposition sits inside the full conjugacy class.
    """
    from .signed import elements as group_elements

    report = {"n": n, "m": m, "group": kind.value, "checks": [], "counterexamples": []}

    ok_i = ok_ii = ok_v = True
    rng = random.Random(7)
    lefts = list(group_elements(kind, n))
    rights = list(group_elements(kind, m))
    for x, y in itertools.product(lefts, rights):
        xp = rng.choice(lefts)
        yp = rng.choice(rights)
        lhs = multiply(juxtapose(x, y), juxtapose(xp, yp))
        if lhs != juxtapose(multiply(x, xp), multiply(y, yp)):
            ok_i = False
            report["counterexamples"].append(("i", str(x), str(y), str(xp), str(yp)))
        a = multiply(embed_left(x, m), embed_right(n, y))
        b = multiply(embed_right(n, y), embed_left(x, m))
        if not (a == juxtapose(x, y) == b):
            ok_ii = False
            report["counterexamples"].append(("ii", str(x), str(y)))
        if conjugate(juxtapose(x, y), juxtapose(xp, yp)) != juxtapose(
            conjugate(x, xp), conjugate(y, yp)
        ):
            ok_v = False
            report["counterexamples"].append(("v", str(x), str(y), str(xp), str(yp)))
    report["checks"].append({"name": "product_splits_blockwise", "rule": "i", "passed": ok_i})
    report["checks"].append({"name": "one_sided_embeddings_commute", "rule": "ii", "passed": ok_ii})
    report["checks"].append({"name": "conjugation_splits_blockwise", "rule": "v", "passed": ok_v})

    # orthogonal class-level identities
    ok_iii = ok_iv = ok_vi = True
    right_classes = all_classes(kind, m)
    block_gens = [juxtapose(g, identity(m)) for g in generators(kind, n)]
    block_gens += [juxtapose(identity(n), g) for g in generators(kind, m)]
    block_cens: dict = {}  # rep key -> centralizer of that block class
    block_keys: dict = {}  # rep key -> keys of the centralizer's elements

    def block_centralizer(cls):
        key = cls.rep.key()
        if key not in block_cens:
            block_cens[key] = centralizer(kind, cls.rep, cls)
        return block_cens[key]

    def element_keys(cen):
        key = cen.rep.key()
        if key not in block_keys:
            block_keys[key] = {u.key() for u in cen.elements()}
        return block_keys[key]

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
            lcen = block_centralizer(lcls)
            rcen = block_centralizer(rcls)
            zcen_order = group_order(kind, n + m) // zc.size
            if lcen.order * rcen.order != zcen_order:
                ok_iii = False
                report["counterexamples"].append(("iii", str(lcls.rep), str(rcls.rep)))
            # unique blockwise factorization of the juxtaposed centralizer
            try:
                zelems = Centralizer(
                    kind,
                    z,
                    centralizer(kind, z, zc).generators,
                    zcen_order,
                ).elements()
            except BudgetExceeded:
                zelems = None
            if zelems is not None:
                lkeys, rkeys = element_keys(lcen), element_keys(rcen)
                for w in zelems:
                    try:
                        lw, rw = split(w, n)
                    except ValueError:
                        ok_iv = False
                        report["counterexamples"].append(("iv", str(w)))
                        continue
                    if lw.key() not in lkeys or rw.key() not in rkeys:
                        ok_iv = False
                        report["counterexamples"].append(("iv", str(w)))
    report["checks"].append({"name": "centralizer_order_multiplies", "rule": "iii", "passed": ok_iii})
    report["checks"].append({"name": "centralizer_factors_blockwise", "rule": "iv", "passed": ok_iv})
    report["checks"].append({"name": "class_of_juxtaposition_splits", "rule": "vi", "passed": ok_vi})
    report["passed"] = all(c["passed"] for c in report["checks"])
    return report
