"""Yetter-Drinfeld modules over conjugacy classes, braidings, and symmetrizers.

A module M(O_s, chi) is spanned by e_i = g_i (x) 1 over a numbered class
t_1..t_D with section g_i |> s = t_i and a character chi of the centralizer of
s.  Every representation built here is a character, so the braiding is of
rack type and monomial: C(e_i (x) e_j) = q_ij e_{j'} (x) e_i with
t_{j'} = t_i |> t_j and q_ij = chi(nu_j(t_i)), where t_i g_j = g_{j'} nu_j(t_i)
with nu_j(t_i) in the centralizer.

A braided space stores one table, C^{-1}: every quantum symmetrizer applies
it, and the braid equation and the intertwining of the block embedding hold
for C exactly when they hold for C^{-1}.  Graded dimensions of the associated
quotient of the tensor algebra are the exact ranks of the quantum
symmetrizers S_m.  The engine that computes them degree by degree, one block
per class of Inn-degrees, lives in :mod:`weylrack.nichols` and reads only the
braided space; its names stay bound here.  The full symmetrizer, on tuple
words and always over the cyclotomic field, is kept here as its oracle.  The
module also houses the scalar screening rules used to rule out finite
dimension for juxtaposed classes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product
from typing import Optional

from . import nichols
from .classes import (
    Centralizer,
    ConjugacyClass,
    centralizer,
    enumerate_class,
    is_orthogonal,
    juxtapose,
    split,
)
from .cyclotomic import CycScalar, CyclotomicField
from .errors import BudgetExceeded
from .linalg import rank
from .nichols import _add_into
from .signed import SignedPermutation, conjugate, identity, multiply

DEFAULT_ENTRY_BUDGET = 5_000_000
BRAID_CHECK_MAX_DIM = 24

# the Nichols engine, bound here for the callers of yd
NICHOLS_ENTRY_BUDGET = nichols.NICHOLS_ENTRY_BUDGET
nichols_graded_dims = nichols.nichols_graded_dims
_coded_tables = nichols._coded_tables
_apply_lm = nichols._apply_lm


class RepInconsistency(ValueError):
    """Generator images do not satisfy the centralizer's relations."""


class HypothesisError(ValueError):
    """A precondition of a construction fails for the supplied data."""


# ---------------------------------------------------------------------------
# centralizer characters


@dataclass
class CentralizerRep:
    """A character of a centralizer, given by its values on the generators."""

    cen: Centralizer
    scalar_field: CyclotomicField
    images: dict  # generator key -> scalar
    _closure: Optional[dict] = field(default=None, repr=False)

    def closure(self) -> dict:
        """Map every centralizer element key to its value.

        Values are multiplied along every edge x -> g x of the generators'
        closure, in breadth-first order; reaching an element along two paths
        with different values means the images violate a relation, which is
        reported as :class:`RepInconsistency`.
        """
        if self._closure is not None:
            return self._closure
        edges = []

        def act(g, x):
            y = multiply(g, x)
            edges.append((g, x, y))
            return y

        self.cen.closure_tree(act)
        seen = {identity(self.cen.rep.n).key(): self.scalar_field.one}
        for g, x, y in edges:
            my = self.images[g.key()] * seen[x.key()]
            if seen.setdefault(y.key(), my) != my:
                raise RepInconsistency(f"images inconsistent at centralizer element {y}")
        self._closure = seen
        return seen

    def value(self, x: SignedPermutation) -> CycScalar:
        """The character's value at a centralizer element."""
        return self.closure()[x.key()]


def scalar_rep(cen: Centralizer, scalar_field: CyclotomicField, values) -> CentralizerRep:
    """The character taking the given values on the centralizer's generators."""
    if len(values) != len(cen.generators):
        raise ValueError("one scalar per centralizer generator required")
    return CentralizerRep(cen, scalar_field, {g.key(): v for g, v in zip(cen.generators, values)})


def trivial_rep(cen: Centralizer, scalar_field: CyclotomicField) -> CentralizerRep:
    return scalar_rep(cen, scalar_field, [scalar_field.one] * len(cen.generators))


def perm_sign_rep(cen: Centralizer, scalar_field: CyclotomicField) -> CentralizerRep:
    """The character sending each generator to the sign of its permutation part."""
    values = []
    for g in cen.generators:
        parity = sum(len(c) - 1 for c in g.cycles()) % 2
        values.append(scalar_field.scalar(-1 if parity else 1))
    return scalar_rep(cen, scalar_field, values)


# ---------------------------------------------------------------------------
# braided vector spaces


class BraidedVectorSpace:
    """Dimension-D space with an invertible monomial braiding C, stored as C^{-1}.

    ``cinv_map[(u, v)]`` is the one term ((u2, v2), coeff) of C^{-1}(e_u (x) e_v),
    the map every quantum symmetrizer applies.  Its keys, and separately its
    image pairs, must each cover the D x D basis pairs exactly once.
    """

    def __init__(self, scalar_field: CyclotomicField, D: int, cinv_map: dict):
        pairs = set(product(range(D), repeat=2))
        if set(cinv_map) != pairs:
            raise ValueError("braiding table keys are not the basis pairs")
        if {pair for pair, _ in cinv_map.values()} != pairs:  # D^2 values, so no repeats
            raise ValueError("braiding table images are not a permutation of the basis pairs")
        self.scalar_field = scalar_field
        self.D = D
        self.cinv_map = cinv_map

    def check_braid_equation(self) -> None:
        """The braid equation on all basis triples, checked on C^{-1}: it holds
        for C exactly when it holds for C^{-1} (invert both sides)."""
        if self.D > BRAID_CHECK_MAX_DIM:
            raise BudgetExceeded(f"braid-equation check on dimension {self.D}", BRAID_CHECK_MAX_DIM)
        t, one = self.cinv_map, self.scalar_field.one
        for basis in product(range(self.D), repeat=3):
            start = {basis: one}
            lhs = _apply_leg(t, _apply_leg(t, _apply_leg(t, start, 1), 0), 1)
            rhs = _apply_leg(t, _apply_leg(t, _apply_leg(t, start, 0), 1), 0)
            if lhs != rhs:
                raise ValueError(f"braid equation fails at basis triple {basis}")


def _apply_leg(table: dict, vec: dict, leg: int) -> dict:
    """The monomial map ``table`` on tensor legs (leg, leg+1) of basis tuples;
    it permutes the tuples, so no two terms meet."""
    out = {}
    for basis, coeff in vec.items():
        pair, c = table[basis[leg : leg + 2]]
        out[basis[:leg] + pair + basis[leg + 2 :]] = coeff * c
    return out


def diagonal_braiding(scalar_field: CyclotomicField, q_matrix) -> BraidedVectorSpace:
    """C(e_u (x) e_v) = q[u][v] e_v (x) e_u, stored as C^{-1}(e_u (x) e_v) =
    q[v][u]^{-1} e_v (x) e_u; all-ones q gives the flip."""
    D = len(q_matrix)
    table = {(u, v): ((v, u), q_matrix[v][u].inverse()) for u, v in product(range(D), repeat=2)}
    return BraidedVectorSpace(scalar_field, D, table)


# ---------------------------------------------------------------------------
# YD modules of group type


class YDModule:
    """M(O_s, chi): class numeration + centralizer character, with its braiding."""

    def __init__(self, cls: ConjugacyClass, rep: CentralizerRep):
        self.cls = cls
        self.rep = rep
        self.scalar_field = rep.scalar_field
        self.D = cls.size
        # the section must implement the numeration
        for g, t in zip(cls.section, cls.elements):
            if conjugate(g, cls.rep) != t:
                raise ValueError("class section inconsistent with numeration")

    def braided_space(self) -> BraidedVectorSpace:
        """Materialize C^{-1} on the D x D basis pairs, one term each."""
        if self.D * self.D > DEFAULT_ENTRY_BUDGET:
            raise BudgetExceeded(
                f"braiding materialization ({self.D * self.D} entries)", DEFAULT_ENTRY_BUDGET
            )
        cls = self.cls
        cinv_map: dict = {}
        for i, t_i in enumerate(cls.elements):
            for j, (t_j, g_j) in enumerate(zip(cls.elements, cls.section)):
                # t_i g_j = g_{j'} nu_j(t_i) with t_{j'} = t_i |> t_j
                jp = cls.index(conjugate(t_i, t_j))
                q = self.rep.value(multiply(cls.section[jp].inverse(), multiply(t_i, g_j)))
                cinv_map[(jp, i)] = ((i, j), q.inverse())
        return BraidedVectorSpace(self.scalar_field, self.D, cinv_map)

    def self_braiding_scalar(self) -> CycScalar:
        """q_{s,s} = chi(s), the character's value at the class representative."""
        return self.rep.value(self.cls.rep)


def build_yd_module(cls: ConjugacyClass, rep: CentralizerRep) -> YDModule:
    """Assemble the module and verify the rep against the centralizer relations."""
    if rep.cen.rep != cls.rep:
        raise ValueError("rep centralizer and class share no representative")
    rep.closure()  # raises RepInconsistency on bad images
    return YDModule(cls, rep)


def renumber_class(cls: ConjugacyClass, order) -> ConjugacyClass:
    """Same class under a shuffled numeration (for invariance checks)."""
    order = list(order)
    if sorted(order) != list(range(cls.size)):
        raise ValueError(f"order {order} is not a permutation of range({cls.size})")
    elements = [cls.elements[i] for i in order]
    section = [cls.section[i] for i in order]
    return ConjugacyClass(cls.kind, cls.rep, elements, section)


# ---------------------------------------------------------------------------
# quantum symmetrizers and graded dimensions


def _apply_s1j(space: BraidedVectorSpace, vec: dict, j: int, offset: int = 0) -> dict:
    """S_{1,j} = id + C12^{-1} + C12^{-1}C23^{-1} + ... on legs offset..offset+j."""
    total = dict(vec)
    for k in range(1, j + 1):
        cur = vec
        for leg in range(k, 0, -1):
            cur = _apply_leg(space.cinv_map, cur, offset + leg - 1)
        _add_into(total, cur)
    return total


def _apply_sm(space: BraidedVectorSpace, vec: dict, m: int, offset: int = 0) -> dict:
    """S_m = (id (x) S_{m-1}) . S_{1,m-1} on legs offset..offset+m-1."""
    if m <= 1:
        return vec
    vec = _apply_s1j(space, vec, m - 1, offset)
    return _apply_sm(space, vec, m - 1, offset + 1)


def symmetrizer(space: BraidedVectorSpace, m: int) -> dict:
    """Columns of S_m on V^{(x)m}: basis tuple -> sparse image vector."""
    if m < 1:
        raise ValueError("degree must be >= 1")
    if space.D ** m > DEFAULT_ENTRY_BUDGET:
        raise BudgetExceeded(f"degree-{m} symmetrizer ({space.D ** m} columns)",
                             DEFAULT_ENTRY_BUDGET)
    one = space.scalar_field.one
    return {
        basis: _apply_sm(space, {basis: one}, m)
        for basis in product(range(space.D), repeat=m)
    }


def symmetrizer_rank(space: BraidedVectorSpace, m: int) -> int:
    """rank S_m from all D^m columns: the oracle for :func:`nichols_graded_dims`."""
    if m == 0:
        return 1
    if m == 1:
        return space.D
    return rank(symmetrizer(space, m).values())


# ---------------------------------------------------------------------------
# the braided embedding of a left block into a juxtaposed class


@dataclass
class PsiEmbedding:
    """psi: M(O_{a pi}, chi1) -> M(O_{a pi # b tau}, chi1 (x) chi2)."""

    left: YDModule
    codomain: YDModule
    columns: list  # i -> (codomain index, scalar): psi(e_i) = scalar * e_index
    injective: bool
    intertwines: bool


def psi_embedding(
    left: YDModule,
    right_cls: ConjugacyClass,
    right_rep: CentralizerRep,
) -> PsiEmbedding:
    """Embed the left block's module into the juxtaposed class's module.

    Requires orthogonal blocks and a right character with trivial
    self-braiding (q = chi2(b tau) = 1); raises HypothesisError otherwise.
    Checks injectivity and exact intertwining with the braidings, as
    C'^{-1} (psi (x) psi) = (psi (x) psi) C^{-1}: multiplying C' (psi (x) psi)
    = (psi (x) psi) C by C'^{-1} on the left and C^{-1} on the right.
    """
    sf = left.scalar_field
    if right_rep.scalar_field != sf:
        raise ValueError("left and right reps must share a scalar field")
    a_pi, b_tau = left.cls.rep, right_cls.rep
    if not is_orthogonal(a_pi, b_tau):
        raise HypothesisError("blocks are not orthogonal")
    if right_rep.value(b_tau) != sf.one:
        raise HypothesisError("right self-braiding scalar q must be 1")

    n, m = a_pi.n, b_tau.n
    z = juxtapose(a_pi, b_tau)
    big = enumerate_class(left.cls.kind, z)
    cen_big = centralizer(left.cls.kind, z, big)
    left_vals = left.rep.closure()
    right_vals = right_rep.closure()
    images = {}
    for g in cen_big.generators:
        gl, gr = split(g, n)
        images[g.key()] = left_vals[gl.key()] * right_vals[gr.key()]
    codomain = build_yd_module(big, CentralizerRep(cen_big, sf, images))

    id_right = identity(m)
    columns = []
    for g_i in left.cls.section:
        emb = juxtapose(g_i, id_right)
        idx = big.index(conjugate(emb, z))
        nu = multiply(big.section[idx].inverse(), emb)
        columns.append((idx, codomain.rep.value(nu)))
    injective = rank({idx: q} for idx, q in columns) == left.D

    left_cinv = left.braided_space().cinv_map
    cod_cinv = codomain.braided_space().cinv_map

    def push(vec):
        # vec is one term, so its image is one term
        return {
            (columns[i][0], columns[j][0]): coeff * columns[i][1] * columns[j][1]
            for (i, j), coeff in vec.items()
        }

    intertwines = all(
        _apply_leg(cod_cinv, push(start), 0) == push(_apply_leg(left_cinv, start, 0))
        for start in ({(u, v): sf.one} for u in range(left.D) for v in range(left.D))
    )
    return PsiEmbedding(left, codomain, columns, injective, intertwines)


# ---------------------------------------------------------------------------
# scalar screens


INFINITE = "InfiniteDim"
INCONCLUSIVE = "Inconclusive"


@dataclass
class Verdict:
    status: str
    reason: str
    details: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {"status": self.status, "reason": self.reason, "details": self.details}


def _scalar_order(q: CycScalar) -> int:
    k = q.multiplicative_order()
    if k is None:
        raise ValueError("scalar is not a root of unity")
    return k


def q_screen(q_left: CycScalar, q_right: CycScalar, ord_left: int, ord_right: int) -> Verdict:
    """Necessary conditions on the two diagonal scalars of a juxtaposed class.

    ord_left/ord_right are the group-element orders of the two blocks.
    """
    sf = q_left.field
    if q_left * q_right != sf.minus_one():
        return Verdict(INFINITE, "product of self-braiding scalars is not -1")
    if ord_right <= 2 and _scalar_order(q_left) != 1:
        if not (q_right == sf.one and q_left == sf.minus_one()):
            return Verdict(INFINITE, "right block of order <= 2 forces scalars (1, -1)")
    if math.gcd(ord_left, ord_right) == 1 and ord_right % 2 == 1:
        if not (q_right == sf.one and q_left == sf.minus_one()):
            return Verdict(
                INFINITE, "coprime orders with odd right block force scalars (1, -1)"
            )
    return Verdict(INCONCLUSIVE, "necessary scalar conditions hold")


_T12 = ((1, 2),)
_T123 = ((1, 2, 3),)
_T12_34 = ((1, 2), (3, 4))


def _const(bits, val):
    return len(bits) >= 1 and all(b == val for b in bits)


_CASE_TABLE = {
    # case -> (tau cycles, c pattern test, d pattern test, allowed (rho1, rho2) pairs,
    #          forced chi1, forced mu1 rule)
    "ii": (_T12, lambda c: c == (0, 0), lambda d: _const(d, 1),
           {(1, -1), (-1, 1)}, 1, "match_rho1"),
    "iii": (_T12, lambda c: c == (1, 1), lambda d: _const(d, 0), {(-1, 1)}, None, None),
    "iv": (_T123, lambda c: c == (0, 0, 0), lambda d: _const(d, 1), {(1, -1)}, 1, 1),
    "v": (_T123, lambda c: c == (1, 1, 1), lambda d: _const(d, 0), {(-1, 1)}, -1, 1),
    "vi": (_T12_34, lambda c: c == (0, 0, 0, 0), lambda d: d == (1, 1), {(1, -1)}, None, None),
    "vii": (_T12_34, lambda c: c == (1, 0, 1, 0), lambda d: d == (1, 1),
            {(1, -1), (-1, 1)}, None, None),
    "viii": (_T12_34, lambda c: c == (1, 0, 1, 0), lambda d: _const(d, 0), {(-1, 1)}, None, None),
    "ix": (_T12_34, lambda c: c == (1, 0, 0, 0), lambda d: d == (1, 1),
           {(1, -1), (-1, 1)}, None, None),
    "x": (_T12_34, lambda c: c == (1, 0, 0, 0), lambda d: d == (0, 0), {(-1, 1)}, None, None),
}


def _as_sign(v) -> int:
    if isinstance(v, CycScalar):
        if v == v.field.one:
            return 1
        if v == v.field.minus_one():
            return -1
        raise ValueError("scalar must be +1 or -1")
    v = int(v)
    if v not in (1, -1):
        raise ValueError("scalar must be +1 or -1")
    return v


def case_table_screen(
    case_id: str,
    tau,
    c,
    d,
    rho1_scalar,
    rho2_scalar,
    chi1=None,
    mu1=None,
) -> Verdict:
    """Case table for juxtapositions c tau # d id with constant d.

    ``tau`` is a tuple of 1-based cycles; ``c`` and ``d`` are bit tuples.
    rho1_scalar/rho2_scalar are the values rho1(c tau), rho2(d xi); optional
    chi1, mu1 are the auxiliary character values some cases also pin down.
    Returns InfiniteDim when a forced value is violated.
    """
    r1, r2 = _as_sign(rho1_scalar), _as_sign(rho2_scalar)
    tau = tuple(tuple(cyc) for cyc in tau)
    c, d = tuple(c), tuple(d)
    case_id = case_id.lower()
    if case_id == "i":
        # the general parity constraint: the two scalars are opposite signs
        if (r1, r2) in {(1, -1), (-1, 1)}:
            return Verdict(INCONCLUSIVE, "scalars have opposite signs as forced")
        return Verdict(INFINITE, "scalars must be (id, -id) or (-id, id)")
    spec = _CASE_TABLE.get(case_id)
    if spec is None:
        raise ValueError(f"unknown case {case_id!r}")
    tau_pat, c_test, d_test, allowed, chi1_forced, mu1_rule = spec
    if tau != tau_pat or not c_test(c) or not d_test(d):
        raise ValueError(f"inputs do not match the defining pattern of case ({case_id})")
    if (r1, r2) not in allowed:
        return Verdict(
            INFINITE,
            f"case ({case_id}) forces the scalar pair into {sorted(allowed)}",
            {"got": (r1, r2)},
        )
    if chi1 is not None and chi1_forced is not None and _as_sign(chi1) != chi1_forced:
        return Verdict(INFINITE, f"case ({case_id}) forces chi1 = {chi1_forced}")
    if mu1 is not None and mu1_rule is not None:
        want = r1 if mu1_rule == "match_rho1" else mu1_rule
        if _as_sign(mu1) != want:
            return Verdict(INFINITE, f"case ({case_id}) forces mu1 = {want}")
    return Verdict(INCONCLUSIVE, f"case ({case_id}) scalar constraints hold")
