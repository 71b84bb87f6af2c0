"""The four-fold conjugation sq on conjugacy-class racks, subrack
decompositions and type-D witnesses.

Conjugacy classes give racks via x |> y = x y x^-1; a type-D witness is a
decomposition of a subrack into R, S plus a pair with sq(a, b) != b, built
by :func:`pair_witness` from the pair's <a, b>-conjugation orbits, for which
:func:`brute_force_type_d` scans a whole class, read lazily and uncapped.
:meth:`TypeDWitness.validate` checks a witness as an orbit certificate, in
time linear in its size; :func:`check_decomposition`, a plain loop that
conjugates every ordered pair against the four closure rules, is its
independent oracle.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

from .classes import CLASS_BUDGET, orbit
from .errors import BudgetExceeded
from .signed import (
    SignedPermutation,
    _act,
    _compose,
    _trusted,
    conjugate,
    format_element,
    parse_element,
)


class RackError(ValueError):
    pass


def sq(x: SignedPermutation, y: SignedPermutation) -> SignedPermutation:
    """x |> (y |> (x |> y)) by direct conjugation."""
    return conjugate(x, conjugate(y, conjugate(x, y)))


def is_square_commutative(x: SignedPermutation, y: SignedPermutation) -> bool:
    return sq(x, y) == y


def _common_rank(x: SignedPermutation, y: SignedPermutation) -> int:
    """The common rank of x and y, refused as multiply and conjugate refuse it."""
    if x.n != y.n:
        raise ValueError(f"rank mismatch: {x.n} != {y.n}")
    return x.n


def _conj_perm(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    # p |> q = p q p^-1 as permutations, in one pass: it sends p(i) to p(q(i))
    img = [0] * len(p)
    for i, j in zip(p, q):
        img[i] = p[j]
    return tuple(img)


def sq_formula_general(x: SignedPermutation, y: SignedPermutation) -> SignedPermutation:
    """Closed formula for sq on sign parts, no commutativity assumed.

    Independent of sq(): works from the expanded sign-vector expression and
    permutation conjugations only.
    """
    n = _common_rank(x, y)
    a, tau = x.bits, x.perm
    b, mu = y.bits, y.perm

    tm = _conj_perm(tau, mu)     # tau |> mu
    mtm = _conj_perm(mu, tm)     # mu |> (tau |> mu)
    lam = _conj_perm(tau, mtm)   # sq of the permutation parts
    inner = b ^ _act(mu, a ^ _act(tau, b) ^ _act(tm, a)) ^ _act(mtm, b)
    c = a ^ _act(tau, inner) ^ _act(lam, a)
    return _trusted(n, c, lam)


def sq_formula_commuting(x: SignedPermutation, y: SignedPermutation) -> SignedPermutation:
    """sq for commuting permutation parts: the seven-term sign sum, read off
    the two sides of :func:`commuting_balance_sides` as lhs ^ rhs ^ y's bits."""
    try:
        lhs, rhs = commuting_balance_sides(x, y)
    except RackError as exc:
        raise RackError(f"{exc}; use the general formula") from None
    return _trusted(x.n, lhs ^ rhs ^ y.bits, y.perm)


def commuting_balance_sides(x: SignedPermutation, y: SignedPermutation) -> tuple[int, int]:
    """The two sides of the square-commutativity balance for commuting parts.

    sq(x, y) == y iff the sides are equal.
    """
    _common_rank(x, y)
    tau, mu = x.perm, y.perm
    tm = _compose(tau, mu)
    if tm != _compose(mu, tau):
        raise RackError("permutation parts do not commute")
    a, b = x.bits, y.bits
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

    Each rule conjugates every ordered pair (x, y) of its two parts and
    needs x |> y in its target part; the first pair that lands outside is
    the report's violation.  Empty parts are rejected (a witness needs
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
    for reason, acting, acted, target in (
        ("R not closed", R, R, rset),
        ("S not closed", S, S, sset),
        ("cross rule x|>y in S fails", R, S, sset),
        ("cross rule y|>x in R fails", S, R, rset),
    ):
        for x, y in itertools.product(acting, acted):
            if conjugate(x, y).key() not in target:
                return DecompositionReport(False, reason, (x, y))
    return DecompositionReport(True)


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
        """Re-check the witness from scratch as an orbit certificate.

        The parts must be nonempty, repeat no element and be disjoint, with
        a in R, b in S and sq(a, b) != b; every element must pass ``member``
        when it is given, and all share one rank.  Then the orbits of a and
        b under conjugation by <a, b> are walked afresh, each capped at the
        size of its part, and must hold exactly R's and S's keys.

        That proves the four closure rules of :func:`check_decomposition`
        (Andruskiewitsch-Fantino-Garcia-Vendramin 2011): every element of
        R u S is g a g^-1 or g b g^-1 with g in <a, b>, so it lies in
        <a, b>, and <a, b> maps each of its orbits onto itself; hence
        x |> R = R and x |> S = S for every x in R u S.  The cost is
        2(|R| + |S|) conjugations and one ``member`` test per element, where
        the pairwise check conjugates up to |R u S|^2 pairs.

        The check is stricter than :func:`check_decomposition`, which stays
        as its independent oracle: a closed decomposition whose parts are
        not exactly the two orbits fails it.  Every witness the library
        builds comes from :func:`pair_witness`, whose parts are those orbits.
        """
        R, S, a, b = self.R, self.S, self.a, self.b
        rkeys = {x.key() for x in R}
        skeys = {y.key() for y in S}
        if a.key() not in rkeys:
            return DecompositionReport(False, "witness a not in R")
        if b.key() not in skeys:
            return DecompositionReport(False, "witness b not in S")
        if sq(a, b) == b:
            return DecompositionReport(False, "sq(a, b) == b")
        if len(rkeys) != len(R) or len(skeys) != len(S):
            return DecompositionReport(False, "repeated element in a part")
        if not rkeys.isdisjoint(skeys):
            return DecompositionReport(False, "parts are not disjoint")
        if member is not None:
            for x in itertools.chain(R, S):
                if not member(x):
                    return DecompositionReport(False, "element outside the class", (x,))
        if any(x.n != a.n for x in itertools.chain(R, S)):
            raise ValueError("rank mismatch among the decomposition's elements")
        for part, name, seed, keys in (("R", "a", a, rkeys), ("S", "b", b, skeys)):
            try:
                exact = orbit(seed, (a, b), conjugate, len(keys)).keys() == keys
            except BudgetExceeded:  # the orbit outgrows the part
                exact = False
            if not exact:
                return DecompositionReport(False, f"{part} is not the orbit of {name}")
        return DecompositionReport(True)

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


def pair_witness(
    candidates: Iterable[tuple[SignedPermutation, SignedPermutation]],
    tag: str,
    member: Optional[Callable[[SignedPermutation], bool]] = None,
) -> Optional[TypeDWitness]:
    """The witness on the first candidate pair (a, b) with a and b passing
    ``member``, sq(a, b) != b and b outside the orbit of a under conjugation
    by <a, b>; None when no candidate qualifies.

    R and S are the orbits of a and b under <a, b>
    (Andruskiewitsch-Fantino-Garcia-Vendramin 2011): each is closed under
    conjugation by the group, which holds R u S, and two orbits are equal or
    disjoint.  The walk of a's orbit stops once it meets b, which rejects the
    candidate.  An orbit beyond ``CLASS_BUDGET`` elements raises BudgetExceeded.
    """
    for a, b in candidates:
        if (member is None or member(a) and member(b)) and sq(a, b) != b:
            bk = b.key()
            orb_a = orbit(a, (a, b), conjugate, CLASS_BUDGET, stop=bk)
            if bk not in orb_a:
                R, S = ([z for z, _, _ in orb.values()]
                        for orb in (orb_a, orbit(b, (a, b), conjugate, CLASS_BUDGET)))
                return TypeDWitness(R, S, a, b, tag=tag)
    return None


def brute_force_type_d(elements: Iterable[SignedPermutation]) -> Optional[TypeDWitness]:
    """A type-D witness for the class ``elements``, or None.

    A rack is of type D iff some pair (r, s) has sq(r, s) != s and lies in two
    orbits of <r, s>.  In a class r can be conjugated to any element, so the
    scan takes a as the first element it reads and runs b over the rest in
    the order given, up to its first witness.  Nothing caps the scan, so None
    proves that the class is not of type D.
    """
    it = iter(elements)
    a = next(it, None)
    return None if a is None else pair_witness(((a, b) for b in it), "orbit_pair")
