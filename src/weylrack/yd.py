"""Yetter-Drinfeld modules over conjugacy classes, braidings, and symmetrizers.

A module M(O_s, rho) is spanned by g_i (x) v over a numbered class t_1..t_M
with section g_i |> s = t_i and a centralizer representation rho.  The braiding
is C(g_i v (x) g_j w) = g_{j'} (rho(nu_j(t_i)) w) (x) g_i v, where
t_i g_j = g_{j'} nu_j(t_i) with nu_j(t_i) in the centralizer.

Graded dimensions of the associated quotient of the tensor algebra are the
exact ranks of the quantum symmetrizers S_m over a cyclotomic field, computed
degree by degree on B^{m-1} (x) V; the full symmetrizer is kept as the
oracle.  The module also houses the scalar screening rules used to rule out
finite dimension for juxtaposed classes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product
from typing import Optional

from .classes import (
    Centralizer,
    ConjugacyClass,
    centralizer,
    enumerate_class,
    is_orthogonal,
    juxtapose,
    split,
)
from .classify import TypeDVerdict, Classifier, PROVEN, EXCEPTION
from .cyclotomic import CycScalar, CyclotomicField
from .errors import BudgetExceeded
from .linalg import identity_matrix, independent_rows, invert_dense, mat_mul, rank
from .signed import GroupKind, SignedPermutation, conjugate, identity, multiply

DEFAULT_ENTRY_BUDGET = 5_000_000
# candidate entries held at one Nichols degree; each costs roughly 290 bytes of
# peak memory: S_4 transpositions with the sign character hold 457,733 at
# degree 7 and peak at 146 MB (ru_maxrss), 21 MB of it before the engine starts
NICHOLS_ENTRY_BUDGET = 1_000_000


class RepInconsistency(ValueError):
    """Generator images do not satisfy the centralizer's relations."""


class HypothesisError(ValueError):
    """A precondition of a construction fails for the supplied data."""


# ---------------------------------------------------------------------------
# centralizer representations


@dataclass
class CentralizerRep:
    """A matrix representation of a centralizer, given on its generators."""

    cen: Centralizer
    scalar_field: CyclotomicField
    dim: int
    images: dict  # generator key -> dim x dim matrix (tuple of row tuples)
    _closure: Optional[dict] = field(default=None, repr=False)

    def closure(self, cap: int = 200_000) -> dict:
        """Map every centralizer element key to its image matrix.

        Images are pushed along every edge x -> g x of the generators'
        closure, in breadth-first order; reaching an element along two paths
        with different images means the images violate a relation, which is
        reported as :class:`RepInconsistency`.
        """
        if self._closure is not None:
            return self._closure
        edges = []

        def act(g, x):
            y = multiply(g, x)
            edges.append((g, x, y))
            return y

        self.cen.closure_tree(act, cap)
        zero = self.scalar_field.zero
        one = identity_matrix(self.dim, self.scalar_field.one, zero)
        seen = {identity(self.cen.rep.n).key(): one}
        for g, x, y in edges:
            my = mat_mul(self.images[g.key()], seen[x.key()], zero)
            if seen.setdefault(y.key(), my) != my:
                raise RepInconsistency(f"images inconsistent at centralizer element {y}")
        self._closure = seen
        return seen

    def value(self, x: SignedPermutation):
        """Image matrix of a centralizer element."""
        return self.closure()[x.key()]


def trivial_rep(cen: Centralizer, scalar_field: CyclotomicField) -> CentralizerRep:
    one = identity_matrix(1, scalar_field.one, scalar_field.zero)
    return CentralizerRep(cen, scalar_field, 1, {g.key(): one for g in cen.generators})


def scalar_rep(cen: Centralizer, scalar_field: CyclotomicField, values) -> CentralizerRep:
    """One-dimensional representation from per-generator scalar values."""
    if len(values) != len(cen.generators):
        raise ValueError("one scalar per centralizer generator required")
    images = {g.key(): ((v,),) for g, v in zip(cen.generators, values)}
    return CentralizerRep(cen, scalar_field, 1, images)


def perm_sign_rep(cen: Centralizer, scalar_field: CyclotomicField) -> CentralizerRep:
    """Scalar rep sending each generator to the sign of its permutation part."""
    values = []
    for g in cen.generators:
        parity = sum(len(c) - 1 for c in g.cycles()) % 2
        values.append(scalar_field.scalar(-1 if parity else 1))
    return scalar_rep(cen, scalar_field, values)


# ---------------------------------------------------------------------------
# braided vector spaces


class BraidedVectorSpace:
    """Dimension-D space with an invertible braiding given basis-sparsely.

    ``c_map[(u, v)]`` lists ((u2, v2), coeff) terms of C(e_u (x) e_v); the
    inverse braiding is supplied the same way and checked against C.
    """

    def __init__(self, scalar_field: CyclotomicField, D: int, c_map: dict, cinv_map: dict):
        self.scalar_field = scalar_field
        self.D = D
        self.c_map = c_map
        self.cinv_map = cinv_map

    def verify_inverse(self) -> None:
        for u in range(self.D):
            for v in range(self.D):
                vec = self.apply_leg({(u, v): self.scalar_field.one}, 0, inverse=True)
                vec = self.apply_leg(vec, 0)
                if vec != {(u, v): self.scalar_field.one}:
                    raise ValueError(f"C inverse fails at basis pair ({u}, {v})")

    def apply_leg(self, vec: dict, leg: int, inverse: bool = False) -> dict:
        """Apply C (or its inverse) on tensor legs (leg, leg+1) of basis tuples."""
        table = self.cinv_map if inverse else self.c_map
        out: dict = {}
        for basis, coeff in vec.items():
            for (u2, v2), c in table[(basis[leg], basis[leg + 1])]:
                nb = basis[:leg] + (u2, v2) + basis[leg + 2 :]
                cur = out.get(nb)
                nv = coeff * c if cur is None else cur + coeff * c
                if nv:
                    out[nb] = nv
                elif cur is not None:
                    del out[nb]
        return out

    def check_braid_equation(self, max_dim: int = 24) -> None:
        """(id(x)C)(C(x)id)(id(x)C) == (C(x)id)(id(x)C)(C(x)id) on all triples."""
        if self.D > max_dim:
            raise BudgetExceeded(f"braid-equation check on dimension {self.D}", max_dim)
        one = self.scalar_field.one
        for basis in product(range(self.D), repeat=3):
            start = {basis: one}
            lhs = self.apply_leg(self.apply_leg(self.apply_leg(start, 1), 0), 1)
            rhs = self.apply_leg(self.apply_leg(self.apply_leg(start, 0), 1), 0)
            if lhs != rhs:
                raise ValueError(f"braid equation fails at basis triple {basis}")


def diagonal_braiding(scalar_field: CyclotomicField, q_matrix) -> BraidedVectorSpace:
    """C(e_u (x) e_v) = q[u][v] e_v (x) e_u."""
    D = len(q_matrix)
    c_map, cinv_map = {}, {}
    for u in range(D):
        for v in range(D):
            c_map[(u, v)] = [((v, u), q_matrix[u][v])]
            cinv_map[(u, v)] = [((v, u), q_matrix[v][u].inverse())]
    return BraidedVectorSpace(scalar_field, D, c_map, cinv_map)


def flip_braiding(scalar_field: CyclotomicField, D: int) -> BraidedVectorSpace:
    one = scalar_field.one
    q = [[one] * D for _ in range(D)]
    return diagonal_braiding(scalar_field, q)


# ---------------------------------------------------------------------------
# YD modules of group type


class YDModule:
    """M(O_s, rho): class numeration + centralizer rep, with its braiding."""

    def __init__(self, cls: ConjugacyClass, rep: CentralizerRep):
        self.cls = cls
        self.rep = rep
        self.scalar_field = rep.scalar_field
        self.M = cls.size
        self.d = rep.dim
        self.D = self.M * self.d
        self._pair_cache: dict = {}
        self._inv_cache: dict = {}
        # the section must implement the numeration
        for g, t in zip(cls.section, cls.elements):
            if conjugate(g, cls.rep) != t:
                raise ValueError("class section inconsistent with numeration")

    def nu(self, i: int, j: int) -> tuple[int, SignedPermutation]:
        """(j', nu_j(t_i)) with t_i g_j = g_{j'} nu_j(t_i)."""
        t_i, t_j = self.cls.elements[i], self.cls.elements[j]
        jp = self.cls.index(conjugate(t_i, t_j))
        nu = multiply(self.cls.section[jp].inverse(), multiply(t_i, self.cls.section[j]))
        return jp, nu

    def braid_pair(self, i: int, j: int):
        """(j', matrix of rho(nu_j(t_i)))."""
        cached = self._pair_cache.get((i, j))
        if cached is None:
            jp, nu = self.nu(i, j)
            cached = (jp, self.rep.value(nu))
            self._pair_cache[(i, j)] = cached
        return cached

    def basis_index(self, i: int, k: int) -> int:
        return i * self.d + k

    def braided_space(self, entry_budget: int = DEFAULT_ENTRY_BUDGET) -> BraidedVectorSpace:
        """Materialize C and its inverse on the full D-dimensional basis."""
        if self.D * self.D * self.d > entry_budget:
            raise BudgetExceeded(
                f"braiding materialization ({self.D * self.D * self.d} entries)", entry_budget
            )
        zero = self.scalar_field.zero
        c_map: dict = {}
        cinv_map: dict = {}
        for i in range(self.M):
            t_i = self.cls.elements[i]
            for j in range(self.M):
                jp, mat = self.braid_pair(i, j)
                inv = self._inv_cache.get((i, j))
                if inv is None:
                    inv = invert_dense(mat, self.scalar_field.one, zero)
                    self._inv_cache[(i, j)] = inv
                for k in range(self.d):
                    for l in range(self.d):
                        u, v = self.basis_index(i, k), self.basis_index(j, l)
                        c_map[(u, v)] = [
                            ((self.basis_index(jp, kp), u), mat[kp][l])
                            for kp in range(self.d)
                            if mat[kp][l]
                        ]
                # inverse: C^{-1}(e_{(jp,a)} (x) e_{(i,k)}) uses the same (i,j) block
                for a in range(self.d):
                    for k in range(self.d):
                        p, q = self.basis_index(jp, a), self.basis_index(i, k)
                        cinv_map[(p, q)] = [
                            ((q, self.basis_index(j, l)), inv[l][a])
                            for l in range(self.d)
                            if inv[l][a]
                        ]
        space = BraidedVectorSpace(self.scalar_field, self.D, c_map, cinv_map)
        space.verify_inverse()
        return space

    def self_braiding_scalar(self) -> CycScalar:
        """q_{s,s} = rho(s) for a scalar rep; the class representative's value."""
        if self.d != 1:
            raise ValueError("self-braiding scalar requires a 1-dimensional rep")
        return self.rep.value(self.cls.rep)[0][0]


def build_yd_module(cls: ConjugacyClass, rep: CentralizerRep) -> YDModule:
    """Assemble the module and verify the rep against the centralizer relations."""
    if rep.cen.rep != cls.rep:
        raise ValueError("rep centralizer and class share no representative")
    rep.closure()  # raises RepInconsistency on bad images
    return YDModule(cls, rep)


def renumber_class(cls: ConjugacyClass, order) -> ConjugacyClass:
    """Same class under a shuffled numeration (for invariance checks)."""
    elements = [cls.elements[i] for i in order]
    section = [cls.section[i] for i in order]
    return ConjugacyClass(cls.kind, cls.n, cls.rep, elements, section)


# ---------------------------------------------------------------------------
# quantum symmetrizers and graded dimensions


def _add_into(total: dict, vec: dict) -> None:
    """total += vec, dropping entries that cancel."""
    for key, coeff in vec.items():
        prev = total.get(key)
        nv = coeff if prev is None else prev + coeff
        if nv:
            total[key] = nv
        elif prev is not None:
            del total[key]


def _apply_s1j(space: BraidedVectorSpace, vec: dict, j: int, offset: int = 0) -> dict:
    """S_{1,j} = id + C12^{-1} + C12^{-1}C23^{-1} + ... on legs offset..offset+j."""
    total = dict(vec)
    for k in range(1, j + 1):
        cur = vec
        for leg in range(k, 0, -1):
            cur = space.apply_leg(cur, offset + leg - 1, inverse=True)
        _add_into(total, cur)
    return total


def _apply_sm(space: BraidedVectorSpace, vec: dict, m: int, offset: int = 0) -> dict:
    """S_m = (id (x) S_{m-1}) . S_{1,m-1} on legs offset..offset+m-1."""
    if m <= 1:
        return vec
    vec = _apply_s1j(space, vec, m - 1, offset)
    return _apply_sm(space, vec, m - 1, offset + 1)


def _apply_lm(space: BraidedVectorSpace, vec: dict, m: int) -> dict:
    """L_m = sum_{k=0}^{m-1} T_{m-k}...T_{m-1} on m legs, T_{m-1} applied first.

    T_i is C^{-1} on legs (i, i+1).  With S_m = L_m (S_{m-1} (x) id), one
    running partial product gives every term in m-1 leg applications.
    """
    total = dict(vec)
    for leg in range(m - 2, -1, -1):
        vec = space.apply_leg(vec, leg, inverse=True)
        _add_into(total, vec)
    return total


def _extend(vec: dict, v: int) -> dict:
    """vec (x) e_v."""
    return {basis + (v,): coeff for basis, coeff in vec.items()}


def symmetrizer(space: BraidedVectorSpace, m: int, entry_budget: int = DEFAULT_ENTRY_BUDGET) -> dict:
    """Columns of S_m on V^{(x)m}: basis tuple -> sparse image vector."""
    if m < 1:
        raise ValueError("degree must be >= 1")
    if space.D ** m > entry_budget:
        raise BudgetExceeded(f"degree-{m} symmetrizer ({space.D ** m} columns)", entry_budget)
    one = space.scalar_field.one
    return {
        basis: _apply_sm(space, {basis: one}, m)
        for basis in product(range(space.D), repeat=m)
    }


def symmetrizer_rank(space: BraidedVectorSpace, m: int, entry_budget: int = DEFAULT_ENTRY_BUDGET) -> int:
    """rank S_m from all D^m columns: the oracle for :func:`nichols_graded_dims`."""
    if m == 0:
        return 1
    if m == 1:
        return space.D
    return rank(symmetrizer(space, m, entry_budget).values())


def nichols_graded_dims(
    space: BraidedVectorSpace,
    max_degree: int,
    entry_budget: int = NICHOLS_ENTRY_BUDGET,
) -> list[int]:
    """[rank S_0, rank S_1, ...] stopping early when a rank hits zero.

    Degree by degree: S_m = L_m (S_{m-1} (x) id) (see :func:`_apply_lm`), so
    im S_m is spanned by L_m(c (x) e_v) over the independent columns
    c = S_{m-1}(e_w) kept at degree m-1 and v in 0..D-1.  The candidates that
    raise the exact rank are kept for the next degree.  ``entry_budget``
    bounds the nonzero entries of one degree's candidate columns.
    """
    one = space.scalar_field.one
    kept = [{(v,): one} for v in range(space.D)]
    dims = [1]
    for m in range(1, max_degree + 1):
        if m > 1:
            candidates = []
            entries = 0
            for col in kept:
                for v in range(space.D):
                    cand = _apply_lm(space, _extend(col, v), m)
                    entries += len(cand)
                    if entries > entry_budget:
                        raise BudgetExceeded(f"degree-{m} Nichols candidate entries", entry_budget)
                    candidates.append(cand)
            kept = [candidates[i] for i in independent_rows(candidates)]
        if not kept:
            break
        dims.append(len(kept))
    return dims


# ---------------------------------------------------------------------------
# the braided embedding of a left block into a juxtaposed class


@dataclass
class PsiEmbedding:
    """psi: M(O_{a pi}, rho1) -> M(O_{a pi # b tau}, rho1 (x) rho2)."""

    left: YDModule
    codomain: YDModule
    columns: dict  # (i, k) -> sparse codomain vector {(idx, kp): coeff}
    injective: bool
    intertwines: bool


def psi_embedding(
    left: YDModule,
    right_cls: ConjugacyClass,
    right_rep: CentralizerRep,
) -> PsiEmbedding:
    """Embed the left block's module into the juxtaposed class's module.

    Requires orthogonal blocks and a scalar right rep with trivial
    self-braiding (q = rho2(b tau) = 1); raises HypothesisError otherwise.
    Checks injectivity and exact intertwining with the braidings.
    """
    if right_rep.dim != 1:
        raise HypothesisError("right rep must be one-dimensional")
    sf = left.scalar_field
    if right_rep.scalar_field != sf:
        raise ValueError("left and right reps must share a scalar field")
    a_pi, b_tau = left.cls.rep, right_cls.rep
    if not is_orthogonal(a_pi, b_tau):
        raise HypothesisError("blocks are not orthogonal")
    q_right = right_rep.value(b_tau)[0][0]
    if q_right != sf.one:
        raise HypothesisError("right self-braiding scalar q must be 1")

    n, m = a_pi.n, b_tau.n
    z = juxtapose(a_pi, b_tau)
    big = enumerate_class(left.cls.kind, z)
    cen_big = centralizer(left.cls.kind, z, big)
    left_vals = left.rep.closure()
    right_vals = right_rep.closure()
    zero = sf.zero
    images = {}
    for g in cen_big.generators:
        gl, gr = split(g, n)
        q = right_vals[gr.key()][0][0]
        mat = left_vals[gl.key()]
        images[g.key()] = tuple(tuple(q * e for e in row) for row in mat)
    codomain = build_yd_module(big, CentralizerRep(cen_big, sf, left.d, images))

    cod_vals = codomain.rep.closure()
    id_right = identity(m)
    columns = {}
    for i in range(left.M):
        g_i = left.cls.section[i]
        emb = juxtapose(g_i, id_right)
        idx = big.index(conjugate(emb, z))
        nu = multiply(big.section[idx].inverse(), emb)
        mat = cod_vals[nu.key()]
        for k in range(left.d):
            columns[(i, k)] = {
                (idx, kp): mat[kp][k] for kp in range(left.d) if mat[kp][k]
            }

    flat = [
        {codomain.basis_index(*ck): v for ck, v in col.items()}
        for col in columns.values()
    ]
    injective = rank(flat) == left.D

    left_space = left.braided_space()
    cod_space = codomain.braided_space()

    def push(vec):
        out = {}
        for (bi, bj), coeff in vec.items():
            i, k = divmod(bi, left.d)
            j, l = divmod(bj, left.d)
            for (p1, a1), c1 in columns[(i, k)].items():
                u = codomain.basis_index(p1, a1)
                for (p2, a2), c2 in columns[(j, l)].items():
                    v = codomain.basis_index(p2, a2)
                    key = (u, v)
                    nv = out.get(key, zero) + coeff * c1 * c2
                    if nv:
                        out[key] = nv
                    elif key in out:
                        del out[key]
        return out

    intertwines = True
    for u in range(left.D):
        for v in range(left.D):
            start = {(u, v): sf.one}
            lhs = cod_space.apply_leg(push(start), 0)
            rhs = push(left_space.apply_leg(start, 0))
            if lhs != rhs:
                intertwines = False
                break
        if not intertwines:
            break
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


def type_d_screen(kind: GroupKind, x: SignedPermutation) -> Verdict:
    """Screen a class by type-D detection: a decomposition kills all reps.

    For n > 4 and nontrivial permutation part, a proven decomposition means no
    centralizer rep yields finite graded dimensions; exception types are
    reported as inconclusive with their tag.
    """
    n = x.n
    if n <= 4:
        raise ValueError("screen applies to rank > 4")
    perm_id = all(x.perm[i] == i for i in range(n))
    if perm_id:
        raise ValueError("screen applies to nontrivial permutation parts")
    verdict: TypeDVerdict = Classifier(kind, n).classify(x)
    if verdict.status == PROVEN:
        return Verdict(
            INFINITE,
            "class is of type D; infinite for every centralizer rep",
            {"witness": verdict.witness.to_json() if verdict.witness else None},
        )
    if verdict.status == EXCEPTION:
        return Verdict(
            INCONCLUSIVE, "type is on the exception list", {"tag": verdict.exception_case}
        )
    return Verdict(INCONCLUSIVE, "type-D search inconclusive", {"reason": verdict.reason})
