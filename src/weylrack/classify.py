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

from .classes import ClassMembership, enumerate_class, juxtapose
from .rack import MAX_PAIRS, TypeDWitness, brute_force_type_d, sq
from .signed import GroupKind, SignedPermutation, _compose, conjugate, perm_from_cycles

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


def _cut(member, n: int, perms, signs) -> list[SignedPermutation]:
    """The class elements among the pairs (sign bits, permutation) drawn from
    ``signs`` x ``perms``, permutation-major."""
    return [z for perm in perms for bits in signs if member(z := SignedPermutation(n, bits, perm))]


def _bits_on(positions) -> int:
    out = 0
    for i in positions:
        out |= 1 << (i - 1)
    return out


def _odd(bits: int) -> int:
    return bin(bits).count("1") % 2


# -- witness rules: each returns None when x lacks its shape ----------------


def _fiber_rule(x: SignedPermutation, member, replace: dict, support, cases, tag: str):
    """R and S are the class elements over tau = x's permutation and over mu
    = tau with the cycles in ``replace`` replaced.  ``cases`` lists the sign
    layouts (a bits, b bits) on the points of ``support``; the pairs they
    give, with x's bits elsewhere, are tried before the scan."""
    n = x.n
    mu = _perm_with_cycles(n, x, replace)
    tail = x.bits & ~_bits_on(support)
    preferred = [
        (SignedPermutation(n, tail | a, x.perm), SignedPermutation(n, tail | b, mu))
        for a, b in cases
    ]
    R = _cut(member, n, [x.perm], range(1 << n))
    S = _cut(member, n, [mu], range(1 << n))
    return _scan_fibers(R, S, preferred, tag)


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
    return _fiber_rule(x, member, {cyc: _squared_cycle(cyc)}, cyc, [case], "odd_cycle_fibers")


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
    return _fiber_rule(x, member, {c1: _squared_cycle(c1)}, c1 + c2, cases, "two_triples_fibers")


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
    fixed with unequal bits, r another fixed point and U = the moved cycle
    with i and r.  R and S are the class elements whose permutation part is
    supported on U and whose bits off U and n0 are x's, with bit n0 = 0 in R
    and 1 in S.  Conjugation inside R u S keeps the bits off U, n0 included,
    so R and S are subracks that act on each other.  No class is enumerated:
    the candidates are cut out by ``member``.
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
    cyc = moved[0]
    U = sorted(cyc + (i, r))
    free = U + [n0]
    perms = []
    for images in itertools.permutations(U):
        perm = tuple(dict(zip(U, images)).get(j, j) - 1 for j in range(1, n + 1))
        if SignedPermutation(n, 0, perm).cycle_type() == x.cycle_type():
            perms.append(perm)
    outside = x.bits & ~_bits_on(free)
    signs = [outside | _bits_on(j for k, j in enumerate(free) if sub >> k & 1)
             for sub in range(1 << len(free))]
    parts: tuple[list, list] = ([], [])
    for z in _cut(member, n, perms, signs):
        parts[z.bits >> (n0 - 1) & 1].append(z)
    # (p q r) carries the moved cycle to one through r, and (i n0) swaps the
    # unequal bits, so y lies in the other part than x
    p, q = cyc[0], cyc[1]
    xi = perm_from_cycles(n, [(p, q, r)])
    y = conjugate(SignedPermutation(n, 0, _compose(perm_from_cycles(n, [(i, n0)]), xi)), x)
    preferred = [(x, y)] if not a[n0 - 1] else [(y, x)]
    return _scan_fibers(parts[0], parts[1], preferred, tag="fixed_point_bit")


WITNESS_RULES = (witness_odd_cycle, witness_two_triples, witness_pairs_triple, witness_fixed_points)


def sym_orbit_span(a_bits: int, n: int) -> list[int]:
    """The subgroup of Z_2^n generated by all coordinate permutations of a.

    For 0 < |a| < n, e_i + e_j is the difference of two permutations of a, so
    the span holds every even-weight vector, and every vector if |a| is odd.
    """
    w = bin(a_bits).count("1")
    if w == 0:
        return [0]
    if w == n:
        return [0, a_bits]
    return [d for d in range(1 << n) if w % 2 or not _odd(d)]


def lift_from_sym(
    x: SignedPermutation, sym_witness: TypeDWitness, member
) -> Optional[TypeDWitness]:
    """Lift a zero-sign (symmetric-subgroup) witness for the class of the
    permutation part to the signed class of x."""
    ok = sym_witness.validate(member=lambda z: z.bits == 0)
    if not ok:
        raise ValueError(f"invalid symmetric-subgroup witness: {ok.reason}")
    n = x.n
    span = sym_orbit_span(x.bits, n)
    R = _cut(member, n, sorted({z.perm for z in sym_witness.R}), span)
    S = _cut(member, n, sorted({z.perm for z in sym_witness.S}), span)
    # conjugators from the symmetric class BFS give the canonical pair
    sym_cls = enumerate_class(GroupKind.S, SignedPermutation(n, 0, x.perm))
    h = sym_cls.section[sym_cls.index(SignedPermutation(n, 0, sym_witness.a.perm))]
    g = sym_cls.section[sym_cls.index(SignedPermutation(n, 0, sym_witness.b.perm))]
    preferred = [(conjugate(h, x), conjugate(g, x))]
    return _scan_fibers(R, S, preferred, tag="sym_lift")


def propagate_juxtaposition(witness: TypeDWitness, right: SignedPermutation) -> TypeDWitness:
    """Juxtapose a whole witness with a fixed right block."""
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

    The witness rules of ``WITNESS_RULES`` are tried in order, then the
    exception list, then the symmetric-subgroup lift and last the search of
    :func:`rack.brute_force_type_d` with ``max_pairs`` orbit pairs.  Every
    witness rule cuts its parts out with a :func:`classes.class_key`
    membership test; only the lift and the search enumerate a class.  Every
    ``ProvenTypeD`` witness has passed the exhaustive check of
    :meth:`rack.TypeDWitness.validate` against that membership test.
    Symmetric-subgroup witnesses are cached across calls."""

    def __init__(self, kind: GroupKind, n: int, max_pairs: int = MAX_PAIRS):
        self.kind = kind
        self.n = n
        self.max_pairs = max_pairs
        self.membership = ClassMembership(kind, n)
        self._sym_witnesses: dict[tuple, Optional[TypeDWitness]] = {}

    def _sym_witness(self, perm: tuple[int, ...]) -> Optional[TypeDWitness]:
        key = SignedPermutation(self.n, 0, perm).cycle_type()
        if key not in self._sym_witnesses:
            cls = enumerate_class(GroupKind.S, SignedPermutation(self.n, 0, perm))
            found = brute_force_type_d(cls.elements, self.max_pairs)
            self._sym_witnesses[key] = found if isinstance(found, TypeDWitness) else None
        return self._sym_witnesses[key]

    def classify(self, x: SignedPermutation) -> TypeDVerdict:
        n = self.n
        if x.n != n:
            raise ValueError("rank mismatch with classifier")
        if n <= 4 or x.perm == tuple(range(n)):
            return TypeDVerdict(UNDETERMINED, reason="rank or shape outside the decision procedure")
        member = self.membership.member_test(x)

        def proven(w: Optional[TypeDWitness]) -> Optional[TypeDVerdict]:
            if w is not None and w.validate(member):
                return TypeDVerdict(PROVEN, witness=w, rule_tag=w.tag)
            return None

        for rule in WITNESS_RULES:
            if v := proven(rule(x, member)):
                return v
        case = exception_case(x)
        if case is not None:
            return TypeDVerdict(EXCEPTION, exception_case=case, rule_tag="exception_list")
        sym = self._sym_witness(x.perm)
        if sym is not None and (v := proven(lift_from_sym(x, sym, member))):
            return v
        found = brute_force_type_d(enumerate_class(self.kind, x).elements, self.max_pairs)
        if isinstance(found, TypeDWitness) and (v := proven(found)):
            return v
        return TypeDVerdict(UNDETERMINED, reason="search budget exhausted")


def classify(kind: GroupKind, x: SignedPermutation, max_pairs: int = MAX_PAIRS) -> TypeDVerdict:
    """The verdict of :class:`Classifier` on x; ``max_pairs`` bounds the
    orbit-pair search of the fallback."""
    return Classifier(kind, x.n, max_pairs).classify(x)
