"""Constructive type-D witnesses and the decision procedure for conjugacy
classes of the signed Weyl groups (rank > 4, nontrivial permutation part).

Every witness is produced inside the input's own class: the relevant cycles
are squared or re-paired in place and the decomposition is cut out of the
class by permutation-part fibers, so no global normal-form conjugation is
needed.  Every verdict carries a witness that re-validates from scratch.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from .classes import ClassMembership, enumerate_class
from .rack import TypeDWitness, sq
from .signed import (
    GroupKind,
    SignedPermutation,
    _compose,
    conjugate,
    perm_from_cycles,
)

PROVEN = "ProvenTypeD"
EXCEPTION = "InExceptionList"
UNDETERMINED = "Undetermined"


@dataclass
class TypeDVerdict:
    status: str
    witness: Optional[TypeDWitness] = None
    rule_tag: str = ""
    exception_case: Optional[str] = None
    reason: str = ""

    def to_json(self) -> dict:
        return {
            "status": self.status,
            "rule_tag": self.rule_tag,
            "exception_case": self.exception_case,
            "reason": self.reason,
            "witness": self.witness.to_json() if self.witness else None,
        }


def _perm_elt(n: int, perm: tuple[int, ...]) -> SignedPermutation:
    return SignedPermutation(n, 0, perm)


def _squared_cycle(cyc: tuple[int, ...]) -> tuple[int, ...]:
    # (c1 c2 ... cp) -> (c1 c3 ... c2 c4 ...), a p-cycle again for odd p
    p = len(cyc)
    return tuple(cyc[(2 * k) % p] for k in range(p))


def _perm_with_cycles(n: int, base: SignedPermutation, replace: dict) -> tuple[int, ...]:
    """Permutation equal to ``base``'s except the cycles in ``replace``.

    ``replace`` maps an original cycle (as returned by base.cycles()) to its
    replacement cycle on the same support.
    """
    return perm_from_cycles(n, [replace.get(cyc, cyc) for cyc in base.cycles()])


def _scan_fibers(
    R: list[SignedPermutation],
    S: list[SignedPermutation],
    preferred: list[tuple[SignedPermutation, SignedPermutation]],
    tag: str,
) -> Optional[TypeDWitness]:
    if not R or not S:
        return None
    rkeys = {x.key() for x in R}
    skeys = {y.key() for y in S}
    for a, b in preferred:
        if a.key() in rkeys and b.key() in skeys and sq(a, b) != b:
            return TypeDWitness(R, S, a, b, tag=tag)
    for a in R:
        for b in S:
            if sq(a, b) != b:
                return TypeDWitness(R, S, a, b, tag=tag)
    for b in S:
        for a in R:
            if sq(b, a) != a:
                return TypeDWitness(S, R, b, a, tag=tag)
    return None


def _bit_fiber(member, n: int, perm: tuple[int, ...]) -> list[SignedPermutation]:
    """All class elements with the given permutation part (desk scale: 2^n scan)."""
    return [z for bits in range(1 << n) if member(z := SignedPermutation(n, bits, perm))]


def _bits_on(positions) -> int:
    out = 0
    for i in positions:
        out |= 1 << (i - 1)
    return out


# -- witness constructions ----------------------------------------------


def witness_odd_cycle(x: SignedPermutation, member) -> Optional[TypeDWitness]:
    """Fiber decomposition over (tau, tau-with-the-odd-cycle-squared).

    Requires an odd cycle of length >= 5 in the permutation part.
    """
    cyc = next((c for c in x.cycles() if len(c) >= 5 and len(c) % 2 == 1), None)
    if cyc is None:
        raise ValueError("no odd cycle of length >= 5")
    n = x.n
    tau = x.perm
    mu = _perm_with_cycles(n, x, {cyc: _squared_cycle(cyc)})
    R = _bit_fiber(member, n, tau)
    S = _bit_fiber(member, n, mu)

    # the fixed witness pairs, laid out on the actual cycle positions
    p = len(cyc)
    tail = x.bits & ~_bits_on(cyc)
    sign = bin(x.bits & _bits_on(cyc)).count("1") % 2
    preferred = []
    if sign:
        a_bits = tail | _bits_on(cyc)
        b_bits = tail | _bits_on([cyc[0]])
    else:
        a_bits = tail
        if p == 5:
            b_bits = tail | _bits_on([cyc[0], cyc[3]])
        else:
            b_bits = tail | _bits_on([cyc[0], cyc[1]])
    preferred.append((SignedPermutation(n, a_bits, tau), SignedPermutation(n, b_bits, mu)))
    return _scan_fibers(R, S, preferred, tag="odd_cycle_fibers")


def witness_two_triples(x: SignedPermutation, member) -> Optional[TypeDWitness]:
    """Fiber decomposition squaring one of two 3-cycles."""
    triples = [c for c in x.cycles() if len(c) == 3]
    if len(triples) < 2:
        raise ValueError("need two 3-cycles")
    c1 = triples[0]
    n = x.n
    tau = x.perm
    mu = _perm_with_cycles(n, x, {c1: _squared_cycle(c1)})
    R = _bit_fiber(member, n, tau)
    S = _bit_fiber(member, n, mu)
    c2 = triples[1]
    tail = x.bits & ~(_bits_on(c1) | _bits_on(c2))
    # the four sign-pattern cases, laid out on the two cycles
    cases = [
        (_bits_on(c1) | _bits_on(c2), _bits_on([c1[0], c2[0]])),
        (0, _bits_on([c2[0], c2[1]])),
        (_bits_on([c1[0]]), _bits_on([c1[0], c2[0], c2[1]])),
        (_bits_on([c2[0]]), _bits_on([c2[1]])),
    ]
    preferred = [
        (SignedPermutation(n, tail | ab, tau), SignedPermutation(n, tail | bb, mu))
        for ab, bb in cases
    ]
    return _scan_fibers(R, S, preferred, tag="two_triples_fibers")


def witness_pairs_triple(x: SignedPermutation, member) -> Optional[TypeDWitness]:
    """Fiber decomposition re-pairing two 2-cycles next to a 3-cycle."""
    twos = [c for c in x.cycles() if len(c) == 2]
    threes = [c for c in x.cycles() if len(c) == 3]
    if len(twos) < 2 or not threes:
        raise ValueError("need two 2-cycles and a 3-cycle")
    (p1, p2), (p3, p4) = twos[0], twos[1]
    n = x.n
    tau = x.perm
    mu_perm = _perm_with_cycles(n, x, {twos[0]: (p1, p3), twos[1]: (p2, p4)})
    R = _bit_fiber(member, n, tau)
    S = _bit_fiber(member, n, mu_perm)
    tri = threes[0]
    others = x.bits & ~(_bits_on(twos[0]) | _bits_on(twos[1]) | _bits_on(tri))
    tri_sign = bin(x.bits & _bits_on(tri)).count("1") % 2
    s12 = bin(x.bits & _bits_on(twos[0])).count("1") % 2
    s34 = bin(x.bits & _bits_on(twos[1])).count("1") % 2
    # the b-element rule keyed by the 3-cycle sign; prefix bits chosen to match
    # the class's 2-cycle signs under the re-paired matching
    a_tri = _bits_on(tri) if tri_sign else 0
    b_tri = _bits_on([tri[0]]) if tri_sign else _bits_on([tri[0], tri[1]])
    b_prefix = (_bits_on([p1]) if s12 else 0) | (_bits_on([p2]) if s34 else 0)
    a_prefix = x.bits & (_bits_on(twos[0]) | _bits_on(twos[1]))
    preferred = [
        (
            SignedPermutation(n, others | a_prefix | a_tri, tau),
            SignedPermutation(n, others | b_prefix | b_tri, mu_perm),
        )
    ]
    return _scan_fibers(R, S, preferred, tag="pair_repairing_fibers")


def witness_fixed_points(x: SignedPermutation, member) -> Optional[TypeDWitness]:
    """Decomposition by the sign bit at a common fixed point n0.

    Works for a transposition (rank > 4) or 3-cycle (rank > 5) with the rest
    fixed, when the sign bits on the fixed points are not all equal: take n0
    and i fixed with unequal bits, r another fixed point and U = the moved
    cycle with i and r.  R and S are the class elements whose permutation part
    is supported on U and whose bits off U and n0 are x's, with bit n0 = 0 in
    R and 1 in S.  Conjugation inside R u S keeps the bits off U, n0
    included, so R and S are subracks that act on each other.  No class is
    enumerated: the candidates are cut out by ``member``.
    """
    n = x.n
    fixed = [i + 1 for i in range(n) if x.perm[i] == i]
    moved = [c for c in x.cycles() if len(c) > 1]
    if len(moved) != 1 or len(moved[0]) not in (2, 3):
        raise ValueError("permutation part is not a single transposition or 3-cycle")
    a = x.a
    pair = next(((n0, i) for n0 in fixed for i in fixed if a[i - 1] != a[n0 - 1]), None)
    if pair is None:
        raise ValueError("sign bits constant on the fixed points")
    n0, i = pair
    cyc = moved[0]
    spare = [r for r in fixed if r not in (n0, i)]
    if not spare:
        raise ValueError("rank too small for a spare fixed point")
    r = spare[0]
    U = sorted(cyc + (i, r))
    free = U + [n0]
    outside = x.bits & ~_bits_on(free)
    parts: tuple[list, list] = ([], [])
    for images in itertools.permutations(U):
        perm = tuple(dict(zip(U, images)).get(j, j) - 1 for j in range(1, n + 1))
        if _perm_elt(n, perm).cycle_type() != x.cycle_type():
            continue
        for sub in range(1 << len(free)):
            bits = outside | _bits_on(j for k, j in enumerate(free) if sub >> k & 1)
            z = SignedPermutation(n, bits, perm)
            if member(z):
                parts[bits >> (n0 - 1) & 1].append(z)
    # (p q r) carries the moved cycle to one through r, and (i n0) swaps the
    # unequal bits, so y lies in the other part than x
    p, q = cyc[0], cyc[1]
    xi = perm_from_cycles(n, [(p, q, r)])
    y = conjugate(_perm_elt(n, _compose(perm_from_cycles(n, [(i, n0)]), xi)), x)
    preferred = [(x, y)] if not a[n0 - 1] else [(y, x)]
    return _scan_fibers(parts[0], parts[1], preferred, tag="fixed_point_bit")


def gf2_span(vectors: list[int]) -> list[int]:
    """All subset XORs of the given bit vectors."""
    basis: list[int] = []
    for v in vectors:
        for b in basis:
            v = min(v, v ^ b)
        if v:
            basis.append(v)
            basis.sort(reverse=True)
    span = [0]
    for b in basis:
        span += [s ^ b for s in span]
    return span


def sym_orbit_span(a_bits: int, n: int) -> list[int]:
    """The subgroup of Z_2^n generated by all coordinate permutations of a."""
    if a_bits == 0:
        return [0]
    ones = [i for i in range(n) if (a_bits >> i) & 1]
    w = len(ones)
    vecs = [_bits_on([c + 1 for c in comb]) for comb in itertools.combinations(range(n), w)]
    return gf2_span(vecs)


def lift_from_sym(
    x: SignedPermutation,
    sym_witness: TypeDWitness,
    member,
) -> Optional[TypeDWitness]:
    """Lift a zero-sign (symmetric-subgroup) witness for the class of the
    permutation part to the signed class of x."""
    ok = sym_witness.validate(member=lambda z: z.bits == 0)
    if not ok:
        raise ValueError(f"invalid symmetric-subgroup witness: {ok.reason}")
    n = x.n
    span = sym_orbit_span(x.bits, n)
    r_perms = {z.perm for z in sym_witness.R}
    s_perms = {z.perm for z in sym_witness.S}
    R = [
        SignedPermutation(n, d, perm)
        for perm in sorted(r_perms)
        for d in span
        if member(SignedPermutation(n, d, perm))
    ]
    S = [
        SignedPermutation(n, d, perm)
        for perm in sorted(s_perms)
        for d in span
        if member(SignedPermutation(n, d, perm))
    ]
    # conjugators from the symmetric class BFS give the canonical pair
    sym_cls = enumerate_class(GroupKind.S, SignedPermutation(n, 0, x.perm))
    h = sym_cls.section[sym_cls.index(SignedPermutation(n, 0, sym_witness.a.perm))]
    g = sym_cls.section[sym_cls.index(SignedPermutation(n, 0, sym_witness.b.perm))]
    preferred = [(conjugate(h, x), conjugate(g, x))]
    return _scan_fibers(R, S, preferred, tag="sym_lift")


def propagate_juxtaposition(
    witness: TypeDWitness, right: SignedPermutation
) -> TypeDWitness:
    """Juxtapose a whole witness with a fixed right block."""
    from .classes import juxtapose

    ok = witness.validate()
    if not ok:
        raise ValueError(f"input witness does not validate: {ok.reason}")
    return TypeDWitness(
        [juxtapose(r, right) for r in witness.R],
        [juxtapose(s, right) for s in witness.S],
        juxtapose(witness.a, right),
        juxtapose(witness.b, right),
        tag=(witness.tag + "+juxtaposed").lstrip("+"),
    )


# -- exception list --------------------------------------------------------


def exception_case(x: SignedPermutation) -> Optional[str]:
    """The exception-list tag for the type of the permutation part, or None."""
    n = x.n
    t = x.cycle_type()
    nontrivial = tuple(sorted((c for c in t if c > 1)))
    ones = t.count(1)
    if nontrivial == (2, 3) and ones == 0:
        return "i"
    if nontrivial == (2, 2, 2) and ones == 0:
        return "i"
    if nontrivial == (2, 2, 2, 2) and ones == 0:
        return "ii"
    if nontrivial == (2, 2) and ones == 1:
        return "ii"
    if nontrivial == (3,) and ones == 2:
        return "ii"
    if nontrivial == (2, 2) and ones == 2:
        return "ii"
    fixed_bits = [x.a[i] for i in range(n) if x.perm[i] == i]
    constant = len(set(fixed_bits)) <= 1
    if nontrivial == (2,) and ones == n - 2 and constant:
        return "iii"
    if nontrivial == (3,) and ones == n - 3 and n > 5 and constant:
        return "iii"
    return None


# -- decision procedure ----------------------------------------------------


class Classifier:
    """The decision procedure for one group and rank.  Every witness rule
    cuts its parts out with a :func:`classes.class_key` membership test; only
    the symmetric-subgroup lift and the search fallback enumerate a class.
    Symmetric-subgroup witnesses are cached across calls."""

    def __init__(self, kind: GroupKind, n: int, budget: Optional[dict] = None):
        self.kind = kind
        self.n = n
        self.budget = dict(budget or {})
        self.membership = ClassMembership(kind, n)
        self._sym_witnesses: dict[tuple, object] = {}

    def _sym_witness(self, perm: tuple[int, ...]):
        from .rack import Undetermined, brute_force_type_d

        key = SignedPermutation(self.n, 0, perm).cycle_type()
        if key not in self._sym_witnesses:
            cls = enumerate_class(GroupKind.S, SignedPermutation(self.n, 0, perm))
            self._sym_witnesses[key] = brute_force_type_d(cls.elements, self.budget)
        found = self._sym_witnesses[key]
        if isinstance(found, Undetermined):
            return None
        return found

    def classify(self, x: SignedPermutation, validate: bool = True) -> TypeDVerdict:
        n = self.n
        if x.n != n:
            raise ValueError("rank mismatch with classifier")
        if n <= 4 or _perm_elt(n, x.perm).is_identity():
            return TypeDVerdict(UNDETERMINED, reason="rank or shape outside the decision procedure")
        member = self.membership.member_test(x)
        t = x.cycle_type()

        def accept(w, tag):
            if w is None:
                return None
            if validate:
                ok = w.validate(member)
                if not ok:
                    return None
            return TypeDVerdict(PROVEN, witness=w, rule_tag=w.tag or tag)

        if any(c >= 5 and c % 2 == 1 for c in t):
            v = accept(witness_odd_cycle(x, member), "odd_cycle_fibers")
            if v:
                return v
        if sum(1 for c in t if c == 3) >= 2:
            v = accept(witness_two_triples(x, member), "two_triples_fibers")
            if v:
                return v
        if sum(1 for c in t if c == 2) >= 2 and 3 in t:
            v = accept(witness_pairs_triple(x, member), "pair_repairing_fibers")
            if v:
                return v
        nontrivial = tuple(sorted(c for c in t if c > 1))
        fp_shape = (nontrivial == (2,) and n > 4) or (nontrivial == (3,) and n > 5)
        if fp_shape:
            fixed_bits = {x.a[i] for i in range(n) if x.perm[i] == i}
            if len(fixed_bits) > 1:
                v = accept(witness_fixed_points(x, member), "fixed_point_bit")
                if v:
                    return v
        case = exception_case(x)
        if case is not None:
            return TypeDVerdict(EXCEPTION, exception_case=case, rule_tag="exception_list")
        sym = self._sym_witness(x.perm)
        if sym is not None:
            v = accept(lift_from_sym(x, sym, member), "sym_lift")
            if v:
                return v
        from .rack import Undetermined, brute_force_type_d

        cls = enumerate_class(self.kind, x)
        found = brute_force_type_d(cls.elements, self.budget)
        if not isinstance(found, Undetermined):
            v = accept(found, found.tag)
            if v:
                return v
        return TypeDVerdict(UNDETERMINED, reason="search budget exhausted")


def classify(kind: GroupKind, x: SignedPermutation, budget: Optional[dict] = None) -> TypeDVerdict:
    return Classifier(kind, x.n, budget).classify(x)
