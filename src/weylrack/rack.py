"""Finite racks, the four-fold conjugation sq, subrack decompositions and
type-D search.

Conjugacy classes give racks via x |> y = x y x^-1; a type-D witness is a
decomposition of a subrack into R, S plus a pair with sq(a, b) != b.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .classes import orbit
from .errors import BudgetExceeded
from .signed import (
    SignedPermutation,
    _act,
    _compose,
    _invert_perm,
    conjugate,
    format_element,
    multiply,
    parse_element,
)

DEFAULT_TABLE_CAP = 20_000
AXIOM_CHECK_CAP = 200  # size**3 self-distributivity triples
EXHAUSTIVE_CAP = 14  # largest class searched over all bipartitions
MAX_PAIRS = 400  # default number of pairs the orbit-pair search tries
ORBIT_CAP = 4000  # largest two-generator orbit the orbit-pair search builds
SQ_SCAN_CAP = 40_000  # (a, b) pairs scanned for sq(a, b) != b per orbit pair


class RackError(ValueError):
    pass


@dataclass(frozen=True)
class FiniteRack:
    """A finite rack as an index table: table[x][y] = x |> y."""

    size: int
    table: tuple[tuple[int, ...], ...]
    labels: tuple = ()  # optional back-references (e.g. SignedPermutation)

    def op(self, x: int, y: int) -> int:
        return self.table[x][y]

    def sq(self, x: int, y: int) -> int:
        t = self.table
        return t[x][t[y][t[x][y]]]

    def check_axioms(self) -> None:
        """Raise on the first axiom violation; exhaustive over all triples."""
        if self.size > AXIOM_CHECK_CAP:
            raise BudgetExceeded(f"rack axiom check on {self.size} elements", AXIOM_CHECK_CAP)
        t = self.table
        for x in range(self.size):
            if t[x][x] != x:
                raise RackError(f"not idempotent at {x}")
            if len(set(t[x])) != self.size:
                raise RackError(f"row {x} is not a bijection")
        for x in range(self.size):
            for y in range(self.size):
                for z in range(self.size):
                    if t[x][t[y][z]] != t[t[x][y]][t[x][z]]:
                        raise RackError(f"self-distributivity fails at {(x, y, z)}")


def rack_from_class(elements: Sequence[SignedPermutation], cap: int = DEFAULT_TABLE_CAP) -> FiniteRack:
    """Conjugation rack on an enumerated conjugacy class."""
    if len(elements) > cap:
        raise BudgetExceeded(f"rack table for a class of size {len(elements)}", cap)
    index = {x.key(): i for i, x in enumerate(elements)}
    table = []
    for x in elements:
        row = []
        for y in elements:
            z = conjugate(x, y)
            try:
                row.append(index[z.key()])
            except KeyError:
                raise RackError("element set is not closed under conjugation") from None
        table.append(tuple(row))
    return FiniteRack(len(elements), tuple(table), tuple(elements))


def sq(x: SignedPermutation, y: SignedPermutation) -> SignedPermutation:
    """x |> (y |> (x |> y)) by direct conjugation."""
    return conjugate(x, conjugate(y, conjugate(x, y)))


def is_square_commutative(x: SignedPermutation, y: SignedPermutation) -> bool:
    return sq(x, y) == y


def sq_formula_general(x: SignedPermutation, y: SignedPermutation) -> SignedPermutation:
    """Closed formula for sq on sign parts, no commutativity assumed.

    Independent of sq(): works from the expanded sign-vector expression and
    permutation conjugations only.
    """
    n = x.n
    a, tau = x.bits, x.perm
    b, mu = y.bits, y.perm

    def pconj(p, q):  # p |> q as permutations
        return _compose(p, _compose(q, _invert_perm(p)))

    tm = pconj(tau, mu)          # tau |> mu
    mtm = pconj(mu, tm)          # mu |> (tau |> mu)
    lam = pconj(tau, mtm)        # sq of the permutation parts
    inner = b ^ _act(mu, a ^ _act(tau, b) ^ _act(tm, a)) ^ _act(mtm, b)
    c = a ^ _act(tau, inner) ^ _act(lam, a)
    return SignedPermutation(n, c, lam)


def sq_formula_commuting(x: SignedPermutation, y: SignedPermutation) -> SignedPermutation:
    """sq for commuting permutation parts: the seven-term sign sum."""
    tau, mu = x.perm, y.perm
    if _compose(tau, mu) != _compose(mu, tau):
        raise RackError("permutation parts do not commute; use the general formula")
    a, b = x.bits, y.bits
    tm = _compose(tau, mu)
    c = (
        a
        ^ _act(tm, a)
        ^ _act(_compose(tm, mu), a)
        ^ _act(mu, a)
        ^ _act(tau, b)
        ^ _act(_compose(tau, tm), b)
        ^ _act(tm, b)
    )
    return SignedPermutation(x.n, c, mu)


def commuting_balance_sides(x: SignedPermutation, y: SignedPermutation) -> tuple[int, int]:
    """The two sides of the square-commutativity balance for commuting parts.

    sq(x, y) == y iff the sides are equal.
    """
    tau, mu = x.perm, y.perm
    if _compose(tau, mu) != _compose(mu, tau):
        raise RackError("permutation parts do not commute")
    a, b = x.bits, y.bits
    tm = _compose(tau, mu)
    lhs = a ^ _act(tm, a) ^ _act(_compose(tm, mu), a) ^ _act(mu, a)
    rhs = b ^ _act(tau, b) ^ _act(_compose(tau, tm), b) ^ _act(tm, b)
    return lhs, rhs


# -- decompositions and witnesses -----------------------------------------


@dataclass
class DecompositionReport:
    ok: bool
    reason: str = ""
    violation: tuple = ()

    def __bool__(self) -> bool:
        return self.ok


def check_decomposition(
    R: Sequence[SignedPermutation],
    S: Sequence[SignedPermutation],
    member: Optional[Callable[[SignedPermutation], bool]] = None,
) -> DecompositionReport:
    """Verify the subrack-decomposition rules on X = R u S, rule by rule.

    Every ordered pair is covered, one pair of fibers (elements sharing a
    permutation part) at a time.  Empty parts are rejected (a witness needs
    elements on both sides).  If ``member`` is given, every element of X must
    satisfy it (class membership).
    """
    if not R or not S:
        return DecompositionReport(False, "empty part")
    rset = {x.key() for x in R}
    sset = {y.key() for y in S}
    if len(rset) != len(R) or len(sset) != len(S):
        return DecompositionReport(False, "repeated element in a part")
    if rset & sset:
        return DecompositionReport(False, "parts are not disjoint")
    if member is not None:
        for x in list(R) + list(S):
            if not member(x):
                return DecompositionReport(False, "element outside the class", (x,))
    if len({x.n for x in R} | {y.n for y in S}) != 1:
        raise ValueError("rank mismatch among the decomposition's elements")
    rfib, sfib = _fibers(R), _fibers(S)
    for reason, acting, acted, target in (
        ("R not closed", rfib, rfib, rfib),
        ("S not closed", sfib, sfib, sfib),
        ("cross rule x|>y in S fails", rfib, sfib, sfib),
        ("cross rule y|>x in R fails", sfib, rfib, rfib),
    ):
        pair = _first_escape(acting, acted, target)
        if pair is not None:
            return DecompositionReport(False, reason, pair)
    return DecompositionReport(True)


def _fibers(part: Sequence[SignedPermutation]) -> dict:
    """perm -> {sign bits: element} over one part."""
    fibers: dict = {}
    for x in part:
        fibers.setdefault(x.perm, {})[x.bits] = x
    return fibers


def _first_escape(acting: dict, acted: dict, target: dict) -> Optional[tuple]:
    """Some (x, y) from the fibers ``acting`` x ``acted`` with x |> y outside
    the fibers ``target``, or None when every pair lands inside.

    For x = (a, tau) and y = (b, pi), x |> y = (a ^ tau.b ^ sigma.a, sigma)
    with sigma = tau pi tau^-1.  So a fiber pair needs sigma once, the
    distinct offsets a ^ sigma.a and the moved bits tau.b; every offset ^
    moved value must lie in the sigma-fiber of ``target``.
    """
    for tau, xs in acting.items():
        for pi, ys in acted.items():
            img = [0] * len(tau)
            for i, j in zip(tau, pi):
                img[i] = tau[j]
            sigma = tuple(img)
            inside = target.get(sigma, {})
            offsets = {a ^ _act(sigma, a) for a in xs}
            moved = {_act(tau, b) for b in ys}
            for off in offsets:
                for m in moved:
                    if off ^ m not in inside:
                        x = next(xs[a] for a in xs if a ^ _act(sigma, a) == off)
                        y = next(ys[b] for b in ys if _act(tau, b) == m)
                        return x, y
    return None


@dataclass
class TypeDWitness:
    """A machine-checkable certificate that a class rack is of type D."""

    R: list[SignedPermutation]
    S: list[SignedPermutation]
    a: SignedPermutation
    b: SignedPermutation
    tag: str = ""

    def validate(
        self,
        member: Optional[Callable[[SignedPermutation], bool]] = None,
    ) -> DecompositionReport:
        """Re-check everything from scratch: decomposition rules + sq inequality."""
        if self.a.key() not in {x.key() for x in self.R}:
            return DecompositionReport(False, "witness a not in R")
        if self.b.key() not in {y.key() for y in self.S}:
            return DecompositionReport(False, "witness b not in S")
        if sq(self.a, self.b) == self.b:
            return DecompositionReport(False, "sq(a, b) == b")
        return check_decomposition(self.R, self.S, member)

    def to_json(self) -> dict:
        return {
            "R": [format_element(x) for x in self.R],
            "S": [format_element(y) for y in self.S],
            "a": format_element(self.a),
            "b": format_element(self.b),
            "tag": self.tag,
        }

    @classmethod
    def from_json(cls, data: dict) -> "TypeDWitness":
        return cls(
            [parse_element(t) for t in data["R"]],
            [parse_element(t) for t in data["S"]],
            parse_element(data["a"]),
            parse_element(data["b"]),
            data.get("tag", ""),
        )


# -- search ----------------------------------------------------------------


@dataclass
class Undetermined:
    reason: str


def pair_orbit_witness(
    elements: Sequence[SignedPermutation], max_pairs: int = MAX_PAIRS
) -> Optional[TypeDWitness]:
    """Search for a type-D witness via two-generator conjugation orbits.

    For r, s in the class, the conjugation orbits of r and s under <r, s> are
    each closed under conjugation by both, so when the orbits are disjoint
    their union is a subrack with a ready-made decomposition; it remains to
    find a pair with sq(a, b) != b.  The group is finite, so the orbits need
    no inverse conjugators.  Deterministic scan order; at most ``max_pairs``
    pairs are tried, orbits beyond ``ORBIT_CAP`` are skipped and at most
    ``SQ_SCAN_CAP`` (a, b) pairs are scanned per orbit pair.
    """
    elts = list(elements)
    tried = 0
    for i, r in enumerate(elts):
        for s in elts[i + 1 :]:
            if tried >= max_pairs:
                return None
            tried += 1
            if r.perm == s.perm:
                continue  # same fiber never separates under <r, s>
            try:
                orb_r = orbit(r, (r, s), conjugate, ORBIT_CAP)
                if s.key() in orb_r:
                    continue
                orb_s = orbit(s, (r, s), conjugate, ORBIT_CAP)
            except BudgetExceeded:
                continue
            if orb_r.keys() & orb_s.keys():
                continue
            R = sorted((x for x, _, _ in orb_r.values()), key=lambda x: x.key())
            S = sorted((y for y, _, _ in orb_s.values()), key=lambda y: y.key())
            scanned = 0
            for a in R:
                for b in S:
                    scanned += 1
                    if scanned > SQ_SCAN_CAP:
                        break
                    if sq(a, b) != b:
                        return TypeDWitness(R, S, a, b, tag="orbit_pair")
                else:
                    continue
                break
        if tried >= max_pairs:
            break
    return None


def brute_force_type_d(
    elements: Sequence[SignedPermutation], max_pairs: int = MAX_PAIRS
) -> TypeDWitness | Undetermined:
    """Exhaustive bipartition search for racks of at most ``EXHAUSTIVE_CAP``
    elements, then the orbit-pair search over ``max_pairs`` pairs."""
    elts = sorted(elements, key=lambda x: x.key())
    m = len(elts)
    if m < 2:
        return Undetermined("no nonempty bipartition exists")
    if m <= EXHAUSTIVE_CAP:
        for mask in range(1, (1 << m) - 1):
            if mask & 1 == 0:
                continue  # fix element 0 in R: halves the search, no loss
            R = [elts[i] for i in range(m) if mask >> i & 1]
            S = [elts[i] for i in range(m) if not mask >> i & 1]
            if not check_decomposition(R, S):
                continue
            for a in R:
                for b in S:
                    if sq(a, b) != b:
                        return TypeDWitness(R, S, a, b, tag="exhaustive")
                    if sq(b, a) != a:
                        # same bipartition with the roles of the parts swapped
                        return TypeDWitness(S, R, b, a, tag="exhaustive")
        # fall through: a larger ambient subrack may still separate
    w = pair_orbit_witness(elts, max_pairs)
    if w is not None:
        return w
    return Undetermined("search budget exhausted")
