"""Constructive type-D witnesses and the decision procedure for conjugacy
classes of the signed Weyl groups (rank > 4, nontrivial permutation part;
a class of diagonal sign matrices commutes, so it is not of type D at any
rank).

Every witness is built inside the input's own class from one pair (a, b):
each rule squares, powers or re-pairs cycles in place, moves a sign to a
fixed point, or lifts the S_k witness of a small core of the cycle type,
so no class of the signed group is listed.  The rule hands its
candidate pairs to :func:`rack.pair_witness`, which keeps the first pair
that passes :meth:`rack.TypeDWitness.validate`: R and S are the conjugation
orbits of a and b under <a, b> (Andruskiewitsch-Fantino-Garcia-Vendramin
2011), and the rule's pair keeps them disjoint.
"""
from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from dataclasses import dataclass
from typing import Optional

from .classes import ClassMembership, _consecutive_cycles, sym_class
from .rack import TypeDWitness, brute_force_type_d, pair_witness
from .signed import (
    GroupKind,
    SignedPermutation,
    _compose,
    conjugate,
    cycle_structure,
    perm_from_cycles,
)

SYM_MEMO = 256  # S_n cycle types whose symmetric-subgroup witness is kept

PROVEN = "ProvenTypeD"
NOT_TYPE_D = "ProvenNotTypeD"
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


def _cycle_power(cyc: tuple[int, ...], j: int) -> tuple[int, ...]:
    # (c0 c1 ... c_{p-1})^j = (c0 cj c2j ...), a p-cycle again for j prime to p
    p = len(cyc)
    return tuple(cyc[(j * k) % p] for k in range(p))


def _perm_with_cycles(n: int, base: SignedPermutation, replace: dict) -> tuple[int, ...]:
    """Permutation equal to ``base``'s except the cycles in ``replace``.

    ``replace`` maps an original cycle (as returned by base.cycles()) to its
    replacement cycle on the same support.
    """
    return perm_from_cycles(n, [replace.get(cyc, cyc) for cyc in base.cycles()])


def _bits_on(positions) -> int:
    out = 0
    for i in positions:
        out |= 1 << (i - 1)
    return out


def _odd(bits: int) -> int:
    return bin(bits).count("1") % 2


# -- witness rules: each returns None when x lacks its shape ----------------


def _fiber_rule(x: SignedPermutation, member, replace: dict, support, cases, tag: str):
    """a lies over tau = x's permutation and b over mu = tau with the cycles
    in ``replace`` replaced.  ``cases`` lists the sign layouts (a bits, b
    bits) on the points of ``support``; the pairs they give, with x's bits
    elsewhere, are the candidate pairs.  tau and mu commute, so conjugation
    by <a, b> fixes both permutation parts and the orbit of a stays over tau,
    that of b over mu."""
    n = x.n
    mu = _perm_with_cycles(n, x, replace)
    tail = x.bits & ~_bits_on(support)
    candidates = [
        (SignedPermutation(n, tail | a, x.perm), SignedPermutation(n, tail | b, mu))
        for a, b in cases
    ]
    return pair_witness(candidates, tag, member)


def witness_odd_cycle(x: SignedPermutation, member) -> Optional[TypeDWitness]:
    """Fiber decomposition over (tau, tau with an odd cycle of length >= 5
    squared)."""
    cyc = next((c for c in x.cycles() if len(c) >= 5 and len(c) % 2 == 1), None)
    if cyc is None:
        return None
    if _odd(x.bits & _bits_on(cyc)):
        case = (_bits_on(cyc), _bits_on(cyc[:1]))
    else:
        case = (0, _bits_on([cyc[0], cyc[3] if len(cyc) == 5 else cyc[1]]))
    return _fiber_rule(x, member, {cyc: _cycle_power(cyc, 2)}, cyc, [case], "odd_cycle_fibers")


def witness_two_triples(x: SignedPermutation, member) -> Optional[TypeDWitness]:
    """Fiber decomposition squaring the first of two 3-cycles."""
    triples = [c for c in x.cycles() if len(c) == 3]
    if len(triples) < 2:
        return None
    c1, c2 = triples[:2]
    # the four sign-pattern cases, laid out on the two cycles
    cases = [
        (_bits_on(c1 + c2), _bits_on([c1[0], c2[0]])),
        (0, _bits_on(c2[:2])),
        (_bits_on(c1[:1]), _bits_on([c1[0], c2[0], c2[1]])),
        (_bits_on(c2[:1]), _bits_on(c2[1:2])),
    ]
    return _fiber_rule(x, member, {c1: _cycle_power(c1, 2)}, c1 + c2, cases, "two_triples_fibers")


def witness_pairs_triple(x: SignedPermutation, member) -> Optional[TypeDWitness]:
    """Fiber decomposition re-pairing two 2-cycles next to a 3-cycle."""
    twos = [c for c in x.cycles() if len(c) == 2]
    tri = next((c for c in x.cycles() if len(c) == 3), None)
    if len(twos) < 2 or tri is None:
        return None
    (p1, p2), (p3, p4) = twos[:2]
    # the b-element rule keyed by the 3-cycle sign; b's 2-cycle bits match
    # the class's 2-cycle signs under the re-paired matching
    pairs = x.bits & _bits_on(twos[0] + twos[1])
    b_pairs = _bits_on([p for p, c in ((p1, twos[0]), (p2, twos[1])) if _odd(x.bits & _bits_on(c))])
    if _odd(x.bits & _bits_on(tri)):
        case = (pairs | _bits_on(tri), b_pairs | _bits_on(tri[:1]))
    else:
        case = (pairs, b_pairs | _bits_on(tri[:2]))
    replace = {twos[0]: (p1, p3), twos[1]: (p2, p4)}
    return _fiber_rule(
        x, member, replace, twos[0] + twos[1] + tri, [case], "pair_repairing_fibers"
    )


def witness_fixed_points(x: SignedPermutation, member) -> Optional[TypeDWitness]:
    """Decomposition by the sign bit at a common fixed point n0.

    Applies to a transposition or 3-cycle with the rest fixed, when there are
    three fixed points and their sign bits are not all equal: take n0 and i
    fixed with unequal bits and r another fixed point.  The pair is x and its
    conjugate y by (i n0)(p q r), which carries the moved cycle to one
    through r and swaps the unequal bits.  Both fix n0, so conjugation by
    <x, y> keeps the bit at n0, and it separates the orbit of x from that of
    y.  No class is enumerated.
    """
    n = x.n
    moved = [c for c in x.cycles() if len(c) > 1]
    if len(moved) != 1 or len(moved[0]) not in (2, 3):
        return None
    fixed = [i + 1 for i in range(n) if x.perm[i] == i]
    a = x.a
    # n0 and i fixed with unequal bits, r a third fixed point
    found = next(((n0, i, r) for n0 in fixed for i in fixed if a[i - 1] != a[n0 - 1]
                  for r in fixed if r not in (n0, i)), None)
    if found is None:
        return None
    n0, i, r = found
    p, q = moved[0][:2]
    xi = perm_from_cycles(n, [(p, q, r)])
    y = conjugate(SignedPermutation(n, 0, _compose(perm_from_cycles(n, [(i, n0)]), xi)), x)
    candidates = [(x, y)] if not a[n0 - 1] else [(y, x)]
    return pair_witness(candidates, "fixed_point_bit", member)


def witness_cycle_power(x: SignedPermutation, member) -> Optional[TypeDWitness]:
    """Fiber decomposition over (tau, tau with an even cycle c of length
    L >= 8 replaced by c^j), j the least unit mod L above 1 other than L - 1,
    so c^j is another L-cycle on c's support, commuting with c.  a = x, and
    b keeps x's bits, or flips them at c_0 and c_2."""
    cyc = next((c for c in x.cycles() if len(c) >= 8 and len(c) % 2 == 0), None)
    if cyc is None:
        return None
    L = len(cyc)
    j = next(j for j in range(2, L - 1) if math.gcd(j, L) == 1)
    bits = x.bits & _bits_on(cyc)
    cases = [(bits, bits), (bits, bits ^ _bits_on([cyc[0], cyc[2]]))]
    return _fiber_rule(x, member, {cyc: _cycle_power(cyc, j)}, cyc, cases, "cycle_power_fibers")


WITNESS_RULES = (
    witness_odd_cycle,
    witness_two_triples,
    witness_pairs_triple,
    witness_fixed_points,
    witness_cycle_power,
)


def _carry(src: tuple[int, ...], dst: tuple[int, ...]) -> tuple[int, ...]:
    """A permutation h with h src h^-1 = dst, for src and dst of one cycle
    type: it maps the cycles of src onto those of dst of equal length."""
    h = [0] * len(src)
    for c, d in zip(*(sorted(cycle_structure(p).cycles, key=len) for p in (src, dst))):
        for i, j in zip(c, d):
            h[i - 1] = j - 1
    return tuple(h)


@functools.lru_cache(maxsize=SYM_MEMO)
def sym_class_witness(cycle_type: tuple[int, ...]) -> Optional[TypeDWitness]:
    """The type-D witness of the S_k class of ``cycle_type`` (descending
    lengths, 1s included, so k is their sum) from
    :func:`rack.brute_force_type_d`, validated under the test of sign bits 0
    and that cycle type, or None; memoised per cycle type, so each process
    lists and scans a class once.  The class comes from
    :func:`classes.sym_class`, in key order."""
    return brute_force_type_d(
        sym_class(cycle_type), lambda z: z.bits == 0 and z.cycle_type() == cycle_type
    )


def _cores(cycle_type: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The nonempty sub-multisets of ``cycle_type`` (descending), each
    descending, fewest points first."""
    runs = [[(k,) * m for m in range(c + 1)] for k, c in Counter(cycle_type).items()]
    return sorted((sum(p, ()) for p in itertools.product(*runs)), key=lambda c: (sum(c), c))[1:]


def lift_from_sym(x: SignedPermutation, member) -> Optional[TypeDWitness]:
    """Lift the S_k witness of the smallest core of x's cycle type to the
    signed class of x; None when no core has one.

    The core is the first of :func:`_cores` whose S_k class has a witness
    (a1, b1) in :func:`sym_class_witness`, and c lays the other cycles of x
    out on the points after k.  (a1 # c, b1 # c) is an S_n witness for x's
    cycle type: sq(a1 # c, b1 # c) = sq(a1, b1) # c, and conjugation by
    <a1 # c, b1 # c> fixes c, so the orbits are a1's and b1's, # c.  a and b
    are the conjugates of x by (0, h), with h carrying x's permutation onto
    a1 # c and b1 # c.  The orbits of a and b under <a, b> lie over those of
    the permutation parts, which are disjoint, and the permutation part of
    sq(a, b) is sq of the permutation parts, so sq(a, b) != b."""
    cycle_type = x.cycle_type()
    for core in _cores(cycle_type):
        if sym := sym_class_witness(core):
            break
    else:
        return None
    k, rest = sum(core), list((Counter(cycle_type) - Counter(core)).elements())
    c = perm_from_cycles(x.n, _consecutive_cycles(rest, k))[k:]
    a, b = (conjugate(SignedPermutation(x.n, 0, _carry(x.perm, z.perm + c)), x) for z in (sym.a, sym.b))
    return pair_witness([(a, b)], "sym_lift", member)


# -- exception list --------------------------------------------------------


# (nontrivial cycle lengths, number of fixed points) -> tag, whatever the signs
_EXCEPTION_TYPES = {
    ((2, 3), 0): "i", ((2, 2, 2), 0): "i",
    ((2, 2, 2, 2), 0): "ii", ((2, 2), 1): "ii", ((3,), 2): "ii", ((2, 2), 2): "ii",
}


def exception_case(x: SignedPermutation) -> Optional[str]:
    """The exception-list tag for the type of the permutation part, or None.

    Case (iii), a transposition (or a 3-cycle above rank 5) with the rest
    fixed, is exceptional only when the sign bits on the fixed points agree.
    """
    n = x.n
    t = x.cycle_type()
    nontrivial = tuple(sorted(c for c in t if c > 1))
    case = _EXCEPTION_TYPES.get((nontrivial, t.count(1)))
    if case is not None:
        return case
    constant = len({x.a[i] for i in range(n) if x.perm[i] == i}) <= 1
    if constant and (nontrivial == (2,) or (nontrivial == (3,) and n > 5)):
        return "iii"
    return None


# -- decision procedure ----------------------------------------------------


class Classifier:
    """The decision procedure for one group and rank.

    A class whose permutation part is the identity holds diagonal sign
    matrices, which commute: sq(a, b) = b on every pair, so it is
    ``ProvenNotTypeD`` at every rank.  Below rank 5 every other class is
    ``Undetermined``.  Otherwise the witness rules of ``WITNESS_RULES`` are
    tried in order, then the exception list, and last
    :func:`lift_from_sym`, whose core witnesses from
    :func:`sym_class_witness` are shared by every classifier of the process.
    Each rule builds its own pair (a, b) and hands it to
    :func:`rack.pair_witness` with a :func:`classes.class_key` membership
    test; no B or D class is listed, and the only S_k classes listed are the
    cores the lift scans (through rank 16 none exceeds S_8's (4, 4) class,
    1,260 elements).  A class no rule decides is
    ``Undetermined``; every ``ProvenTypeD`` witness has passed
    :meth:`rack.TypeDWitness.validate` against that membership test once,
    when it was built: an exhaustive check, linear in the witness's size,
    which walks both orbits and tests every element."""

    def __init__(self, kind: GroupKind, n: int):
        self.kind = kind
        self.n = n
        self.membership = ClassMembership(kind, n)

    def classify(self, x: SignedPermutation) -> TypeDVerdict:
        n = self.n
        if x.n != n:
            raise ValueError("rank mismatch with classifier")
        if x.perm == tuple(range(n)):
            return TypeDVerdict(
                NOT_TYPE_D, rule_tag="commuting_class", reason="commuting class: sq(a, b) = b on every pair"
            )
        if n <= 4:
            return TypeDVerdict(UNDETERMINED, reason="rank outside the decision procedure")
        member = self.membership.member_test(x)
        for rule in WITNESS_RULES:
            if w := rule(x, member):
                return TypeDVerdict(PROVEN, witness=w, rule_tag=w.tag)
        case = exception_case(x)
        if case is not None:
            return TypeDVerdict(EXCEPTION, exception_case=case, rule_tag="exception_list")
        if w := lift_from_sym(x, member):
            return TypeDVerdict(PROVEN, witness=w, rule_tag=w.tag)
        return TypeDVerdict(UNDETERMINED, reason="no rule decides the class")


def classify(kind: GroupKind, x: SignedPermutation) -> TypeDVerdict:
    """The verdict of :class:`Classifier` on x.  The classifier is built
    afresh for each call; the S_k core witnesses of
    :func:`sym_class_witness` carry over between calls."""
    return Classifier(kind, x.n).classify(x)
