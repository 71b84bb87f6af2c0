"""The four-fold conjugation sq on conjugacy-class racks, subrack
decompositions and type-D witnesses.

Conjugacy classes give racks via x |> y = x y x^-1; a type-D witness is a
pair (a, b) with sq(a, b) != b whose <a, b>-conjugation orbits R and S are
disjoint.  :meth:`TypeDWitness.validate` walks the two orbits once, which
checks the pair and builds its parts, in time linear in their size;
:func:`pair_witness` keeps the first candidate pair that passes, and
:func:`brute_force_type_d` scans a whole class for one, read lazily and
uncapped.  :func:`check_decomposition`, a plain loop that conjugates every
ordered pair of two given parts against the four closure rules, is the
independent oracle.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

from .classes import CLASS_BUDGET, orbit
from .signed import (
    SignedPermutation,
    _act,
    _compose,
    _conjugation,
    _trusted,
    conjugate,
    format_element,
    parse_element,
)


Member = Optional[Callable[[SignedPermutation], bool]]  # a class membership test


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


class _Conjugator:
    """Conjugation by one fixed element g = (b, q), for an orbit walk that
    meets each permutation part many times: the first element over a
    permutation pi stores :func:`signed._conjugation`'s pair (q pi q^-1,
    b + (q pi q^-1).b), and each element over pi then costs one _act."""

    __slots__ = ("n", "b", "q", "parts")

    def __init__(self, g: SignedPermutation):
        self.n, self.b, self.q = g.n, g.bits, g.perm
        self.parts: dict = {}

    def conjugate(self, x: SignedPermutation) -> SignedPermutation:
        """g |> x, equal to ``conjugate(g, x)``."""
        part = self.parts.get(x.perm)
        if part is None:
            part = self.parts[x.perm] = _conjugation(self.b, self.q, x.perm)
        perm, term = part
        return _trusted(self.n, _act(self.q, x.bits) ^ term, perm)


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
    member: Member = None,
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
    """A machine-checkable certificate that a class rack is of type D: the
    pair (a, b), whose conjugation orbits R and S under <a, b> are the parts.
    :meth:`validate` walks them and keeps them; reading either before any
    check runs it once, without a membership test."""

    a: SignedPermutation
    b: SignedPermutation
    tag: str = ""
    _parts: Optional[tuple[list, list]] = field(default=None, init=False, repr=False, compare=False)

    @property
    def R(self) -> list[SignedPermutation]:
        """The orbit of a, in breadth-first order from a."""
        return self._walked()[0]

    @property
    def S(self) -> list[SignedPermutation]:
        """The orbit of b, in breadth-first order from b."""
        return self._walked()[1]

    def _walked(self) -> tuple[list, list]:
        if self._parts is None:
            self.validate()
        return self._parts

    def validate(self, member: Member = None) -> DecompositionReport:
        """Check the pair from scratch: a and b share one rank (ValueError
        if not), sq(a, b) != b, the walk of a's orbit under conjugation by
        <a, b> does not meet b, and every element of both orbits passes
        ``member`` when it is given.  R and S keep what the check walked,
        after a failure too: a's orbit up to b, and nothing when sq(a, b) == b.

        The orbits are the parts of the decomposition of
        :func:`check_decomposition` (Andruskiewitsch-Fantino-Garcia-Vendramin
        2011): every element of R u S is g a g^-1 or g b g^-1 with g in
        <a, b>, so it lies in <a, b>, and <a, b> maps each of its orbits onto
        itself; hence x |> R = R and x |> S = S for every x in R u S.  Two
        orbits are equal or disjoint, so b outside R keeps them disjoint.
        The walk makes 2(|R| + |S|) conjugations and one ``member`` test per
        element, where the pairwise check conjugates up to |R u S|^2 pairs.
        Both orbits go through one :class:`_Conjugator` per generator, which
        builds the conjugated permutation and the generator's sign term once
        per permutation part it meets; every element then costs one _act and
        one new element.  The orbits lie over few permutations with large
        sign fibers: the B6/D6 ``sym_lift`` witnesses hold 1,650 elements over
        312 permutation parts.  An orbit beyond ``CLASS_BUDGET`` elements
        raises BudgetExceeded.
        """
        a, b = self.a, self.b
        _common_rank(a, b)
        self._parts = R, S = [], []
        if sq(a, b) == b:
            return DecompositionReport(False, "sq(a, b) == b")
        bk = b.key()
        gens = (_Conjugator(a), _Conjugator(b))
        tree = orbit(a, gens, _Conjugator.conjugate, CLASS_BUDGET, stop=bk)
        R.extend(z for z, _, _ in tree.values())
        if bk in tree:
            return DecompositionReport(False, "b is in the orbit of a")
        S.extend(z for z, _, _ in orbit(b, gens, _Conjugator.conjugate, CLASS_BUDGET).values())
        if member is not None:
            for x in itertools.chain(R, S):
                if not member(x):
                    return DecompositionReport(False, "element outside the class", (x,))
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
        """The witness on a record's pair.  ValueError unless the pair
        validates and the record's R and S hold each element of its two
        orbits once, in any order."""
        w = cls(parse_element(data["a"]), parse_element(data["b"]), data.get("tag", ""))
        report = w.validate()
        if not report:
            raise ValueError(f"invalid witness: {report.reason}")
        for name, seed, part in (("R", "a", w.R), ("S", "b", w.S)):
            keys = [parse_element(t).key() for t in data[name]]
            if len(keys) != len(part) or set(keys) != {z.key() for z in part}:
                raise ValueError(f"{name} is not the orbit of {seed}")
        return w


# -- search ----------------------------------------------------------------


def pair_witness(
    candidates: Iterable[tuple[SignedPermutation, SignedPermutation]],
    tag: str,
    member: Member = None,
) -> Optional[TypeDWitness]:
    """The witness on the first candidate pair (a, b) whose a and b pass
    ``member`` and that passes :meth:`TypeDWitness.validate` under it; None
    when no candidate qualifies."""
    for a, b in candidates:
        if member is None or member(a) and member(b):
            if (w := TypeDWitness(a, b, tag)).validate(member):
                return w
    return None


def brute_force_type_d(
    elements: Iterable[SignedPermutation], member: Member = None
) -> Optional[TypeDWitness]:
    """A type-D witness for the class ``elements``, validated under
    ``member``, or None.

    A rack is of type D iff some pair (r, s) has sq(r, s) != s and lies in two
    orbits of <r, s>.  In a class r can be conjugated to any element, so the
    scan takes a as the first element it reads and runs b over the rest in
    the order given, up to its first witness.  Nothing caps the scan, so None
    proves that the class is not of type D.
    """
    it = iter(elements)
    a = next(it, None)
    return None if a is None else pair_witness(((a, b) for b in it), "orbit_pair", member)
