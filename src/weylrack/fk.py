"""Quadratic algebras on generators x_ij: the square-free braided family.

Two presentations are supported: the classical one on generators x_ij with
i<j, and the sign-twisted family A(alpha, beta, gamma, lambda) on all x_ij,
i != j, where x_ij = gamma_ij x_ji identifies opposite pairs.  The classical
algebra is the instance (alpha, beta, gamma, lambda) = (1, 1, -1, 1).

Graded dimensions are computed by two independent engines: an iterative
linear-algebra quotient (degree by degree, on the echelon kernel of
:mod:`weylrack.linalg`) and a degree-truncated noncommutative rewriting system
whose irreducible words are counted by a finite automaton.

Coefficients are exact and never floats.  They are ``int`` as long as every
pivot (linear engine) or rule leading coefficient (rewrite engine) is a unit
+-1, which holds for every A(alpha, beta, gamma, lambda); a non-unit pivot
falls back to ``Fraction``, so a hand-built presentation stays exact over Q.
A rewrite rule's coefficients are ``int`` again wherever their value is an
integer (``linalg._normal``), so later reductions through it stay in ``int``.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import permutations, product
from typing import Optional

from .errors import BudgetExceeded
from .linalg import _inv, _normal, back_substitute, echelon, rank

Word = tuple  # tuple of generator indices
Poly = dict  # Word -> int or Fraction

# Default bound on the nonzero entries of one degree's relation rows in the
# linear engine.  Each entry costs roughly 400 bytes with the pivots built from
# it: E_5 at degree 7 holds 343,080 entries and peaks at 148 MB in 17 s; its
# degree 8 holds 961,390 and ran past 447 MB and 400 s, so it is refused.
FK_ENTRY_BUDGET = 500_000


# ---------------------------------------------------------------------------
# presentations


def _sign_lookup(value, key, default_desc):
    if isinstance(value, dict):
        s = value.get(key)
        if s is None:
            raise KeyError(f"no {default_desc} sign for index {key}")
    else:
        s = value
    # exact int signs only: 1.0 or True would carry a float or bool into the engines
    if type(s) is not int or s not in (1, -1):
        raise ValueError(f"{default_desc} signs must be +1 or -1")
    return s


@dataclass
class QuadraticPresentation:
    """Quadratic relations over the canonical generators x_ij, i<j."""

    n: int
    gens: list  # list of (i, j) with i < j, 1-based
    relations: list  # list of Poly over canonical generator indices
    label: str = ""
    forced_constraints: list = field(default_factory=list)

    @property
    def num_gens(self) -> int:
        return len(self.gens)


def _build(n, alpha, beta, gamma, lam, label) -> QuadraticPresentation:
    gens = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    index = {p: k for k, p in enumerate(gens)}
    gamma_map = {p: _sign_lookup(gamma, p, "gamma") for p in gens}

    def x(i, j):
        if i < j:
            return index[(i, j)], 1
        return index[(j, i)], gamma_map[(j, i)]

    relations: list[Poly] = []
    seen = set()

    def add(poly: Poly):
        poly = {w: c for w, c in poly.items() if c}
        if not poly:
            return
        lead = max(poly, key=lambda w: (len(w), w))
        inv = _inv(poly[lead])
        norm = tuple(sorted((w, c * inv) for w, c in poly.items()))
        if norm not in seen:
            seen.add(norm)
            relations.append({w: c * inv for w, c in poly.items()})

    # (i) squares vanish (x_ji^2 = x_ij^2 up to sign, one relation per pair)
    for k in range(len(gens)):
        add({(k, k): 1})
    # (ii) the braided triple relation for every ordered distinct triple
    for i, j, k in permutations(range(1, n + 1), 3):
        a = _sign_lookup(alpha, (i, j, k), "alpha")
        b = _sign_lookup(beta, (i, j, k), "beta")
        g1, s1 = x(i, j)
        g2, s2 = x(j, k)
        g3, s3 = x(k, i)
        poly: Poly = {}
        for w, c in (((g1, g2), s1 * s2), ((g2, g3), a * s2 * s3), ((g3, g1), b * s3 * s1)):
            poly[w] = poly.get(w, 0) + c
        add(poly)
    # (iii) commutation on disjoint pairs
    forced = []
    lam_seen = {}
    for i, j, k, l in permutations(range(1, n + 1), 4):
        lv = _sign_lookup(lam, (i, j, k, l), "lambda")
        lam_seen[(i, j, k, l)] = lv
        g1, s1 = x(i, j)
        g2, s2 = x(k, l)
        poly = {}
        for w, c in (((g1, g2), s1 * s2), ((g2, g1), -lv * s1 * s2)):
            poly[w] = poly.get(w, 0) + c
        add(poly)
    for key, lv in lam_seen.items():
        i, j, k, l = key
        other = lam_seen.get((k, l, i, j))
        if other is not None and lv * other != 1 and key < (k, l, i, j):
            forced.append(
                f"lambda[{key}] * lambda[{(k, l, i, j)}] != 1 forces "
                f"x_{i}{j} x_{k}{l} = 0"
            )
    return QuadraticPresentation(n, gens, relations, label, forced)


def presentation(n, alpha=1, beta=1, gamma=-1, lam=1, label="") -> QuadraticPresentation:
    """The sign-twisted family A(alpha, beta, gamma, lambda).

    Each sign argument is either a constant +-1 or a dict keyed by 1-based
    index tuples: (i,j,k) for alpha/beta, (i,j) with i<j for gamma, and
    (i,j,k,l) for lambda.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    return _build(n, alpha, beta, gamma, lam, label or f"A(n={n})")


def fk_presentation(n) -> QuadraticPresentation:
    """The classical square-free algebra: the (1, 1, -1, 1) instance."""
    if n < 2:
        raise ValueError("need n >= 2")
    return _build(n, 1, 1, -1, 1, f"E_{n}")


def ordered_form_relations(n) -> list:
    """Relations of the i<j presentation, over the same canonical generators."""
    gens = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    index = {p: k for k, p in enumerate(gens)}
    rels: list[Poly] = []
    one = 1
    for k in range(len(gens)):
        rels.append({(k, k): one})
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            for k in range(j + 1, n + 1):
                ij, jk, ik = index[(i, j)], index[(j, k)], index[(i, k)]
                rels.append({(ij, jk): one, (jk, ik): -one, (ik, ij): -one})
                rels.append({(jk, ij): one, (ik, jk): -one, (ij, ik): -one})
    for (i, j) in gens:
        for (k, l) in gens:
            if len({i, j, k, l}) == 4 and (i, j) < (k, l):
                a, b = index[(i, j)], index[(k, l)]
                rels.append({(a, b): one, (b, a): -one})
    return rels


def ideal_slices_equal(rels_a, rels_b, num_gens: int, max_degree: int) -> bool:
    """Do two quadratic relation sets span the same ideal slice per degree?"""
    for m in range(2, max_degree + 1):
        ra = _ideal_slice_rows(rels_a, num_gens, m)
        rb = _ideal_slice_rows(rels_b, num_gens, m)
        r1, r2 = rank(ra), rank(rb)
        if r1 != r2 or rank(ra + rb) != r1:
            return False
    return True


def _ideal_slice_rows(relations, num_gens: int, m: int) -> list:
    rows = []
    for pre in range(m - 1):
        post = m - 2 - pre
        for u in product(range(num_gens), repeat=pre):
            for v in product(range(num_gens), repeat=post):
                for rel in relations:
                    rows.append({u + w + v: c for w, c in rel.items()})
    return rows


# ---------------------------------------------------------------------------
# engine 1: iterative linear-algebra quotient


def graded_dims_linear(
    pres: QuadraticPresentation,
    max_degree: int,
    entry_budget: int = FK_ENTRY_BUDGET,
) -> list[int]:
    """Dims of the quadratic quotient, degree by degree.

    Degree m is modeled as (A_{m-1} (x) V) / (A_{m-2} (x) relations); only the
    current and previous degrees are kept, as exact coordinates.  The relation
    rows go through :func:`linalg.echelon` and :func:`linalg.back_substitute`,
    so each coordinate of A_{m-1} (x) V projects onto A_m in one lookup.
    ``entry_budget`` bounds the nonzero entries of one degree's relation rows.
    """
    G = pres.num_gens
    dims = [1, G]
    if max_degree == 0:
        return [1]
    # prev_mult[(b, g)]: A_{m-2} basis vector b times generator g, in A_{m-1}
    # coordinates; A_0 (x) V -> A_1 is the identity on generators
    prev_dim, cur_dim = 1, G
    prev_mult = {(0, g): {g: 1} for g in range(G)}
    for m in range(2, max_degree + 1):
        # relation image: for each A_{m-2} basis vector b and relation sum c_w w
        # with w = (g1, g2): sum_w c_w (b . g1) (x) g2 in A_{m-1} (x) V
        rows = []
        entries = 0
        for b in range(prev_dim):
            for rel in pres.relations:
                vec: dict = {}
                for (g1, g2), c in rel.items():
                    for a, ca in prev_mult[(b, g1)].items():
                        key = a * G + g2
                        nv = vec.get(key, 0) + c * ca
                        if nv:
                            vec[key] = nv
                        elif key in vec:
                            del vec[key]
                if vec:
                    entries += len(vec)
                    if entries > entry_budget:
                        raise BudgetExceeded(f"degree-{m} fk relation entries", entry_budget)
                    rows.append(vec)
        pivots = back_substitute(echelon(rows)[0])
        free_basis = [c for c in range(cur_dim * G) if c not in pivots]
        new_dim = len(free_basis)
        if new_dim == 0:
            break
        dims.append(new_dim)
        pos = {c: k for k, c in enumerate(free_basis)}

        def project(coord):
            piv = pivots.get(coord)
            if piv is None:
                return {pos[coord]: 1}
            return {pos[c]: -v for c, v in piv.items()}

        prev_mult = {(b, g): project(b * G + g) for b in range(cur_dim) for g in range(G)}
        prev_dim, cur_dim = cur_dim, new_dim
    return dims


# ---------------------------------------------------------------------------
# engine 2: truncated rewriting + irreducible-word counting


def _word_key(w: Word):
    return (len(w), w)


def _reduce(poly: Poly, rules: dict, lengths: set) -> Poly:
    """Fully rewrite a polynomial; the monomial order strictly decreases."""
    poly = {w: c for w, c in poly.items() if c}
    while True:
        target = None
        for w in sorted(poly, key=_word_key, reverse=True):
            for L in lengths:
                if L > len(w):
                    continue
                for pos in range(len(w) - L + 1):
                    sub = w[pos : pos + L]
                    if sub in rules:
                        target = (w, pos, sub)
                        break
                if target:
                    break
            if target:
                break
        if target is None:
            return poly
        w, pos, sub = target
        coeff = poly.pop(w)
        pre, post = w[:pos], w[pos + len(sub) :]
        for rw, rc in rules[sub].items():
            nw = pre + rw + post
            nv = poly.get(nw, 0) + coeff * rc
            if nv:
                poly[nw] = nv
            elif nw in poly:
                del poly[nw]


@dataclass
class RewriteSystem:
    """Rules lhs -> rhs-poly with strictly smaller monomials, deglex order."""

    num_gens: int
    rules: dict  # Word -> Poly
    completed_to: int
    confluent: bool  # all overlaps of total degree <= completed_to resolve

    def irreducible_counts(self, max_degree: int) -> list[int]:
        """Words avoiding every rule lhs, counted by an automaton walk."""
        lhs = set(self.rules)
        prefixes = {()}
        for w in lhs:
            for k in range(1, len(w)):
                prefixes.add(w[:k])
        prefixes -= lhs
        states = sorted(prefixes, key=_word_key)
        index = {s: k for k, s in enumerate(states)}

        def step(state: Word, g: int) -> Optional[int]:
            w = state + (g,)
            if any(w[-L:] in lhs for L in range(1, len(w) + 1)):
                return None
            # longest suffix that is a live prefix (the empty word always is)
            for k in range(len(w) + 1):
                if w[k:] in index:
                    return index[w[k:]]
            raise AssertionError("unreachable: empty prefix is always live")

        trans = [
            [step(s, g) for g in range(self.num_gens)] for s in states
        ]
        counts = [1]
        vec = [0] * len(states)
        vec[index[()]] = 1
        for _ in range(max_degree):
            nxt = [0] * len(states)
            for s, c in enumerate(vec):
                if c:
                    for t in trans[s]:
                        if t is not None:
                            nxt[t] += c
            vec = nxt
            counts.append(sum(vec))
        return counts


def complete_to_degree(
    pres: QuadraticPresentation,
    max_degree: int,
    rule_budget: int = 20_000,
) -> RewriteSystem:
    """Resolve all overlap ambiguities of total degree <= max_degree."""
    rules: dict = {}

    def add_poly(poly: Poly) -> bool:
        poly = _reduce(poly, rules, {len(w) for w in rules})
        if not poly:
            return False
        lead = max(poly, key=_word_key)
        inv = _inv(poly.pop(lead))
        if len(rules) >= rule_budget:
            raise BudgetExceeded("rewrite rules", rule_budget)
        rules[lead] = {w: _normal(-c * inv) for w, c in poly.items()}
        return True

    for rel in sorted(pres.relations, key=lambda r: sorted(map(_word_key, r))):
        add_poly(dict(rel))

    confluent = True
    while True:
        new_polys = []
        items = sorted(rules.items(), key=lambda kv: _word_key(kv[0]))
        for la, ra in items:
            for lb, rb in items:
                # overlap: a proper suffix of la equals a proper prefix of lb
                for k in range(1, min(len(la), len(lb))):
                    if la[-k:] != lb[:k]:
                        continue
                    word = la + lb[k:]
                    if len(word) > max_degree:
                        confluent = False
                        continue
                    via_a = {rw + word[len(la):]: rc for rw, rc in ra.items()}
                    via_b = {word[: len(la) - k] + rw: rc for rw, rc in rb.items()}
                    diff: Poly = dict(via_a)
                    for w, c in via_b.items():
                        nv = diff.get(w, 0) - c
                        if nv:
                            diff[w] = nv
                        elif w in diff:
                            del diff[w]
                    diff = _reduce(diff, rules, {len(w) for w in rules})
                    if diff:
                        new_polys.append(diff)
                # inclusion: lb occurs strictly inside la
                if la != lb and len(lb) < len(la):
                    for pos in range(len(la) - len(lb) + 1):
                        if la[pos : pos + len(lb)] == lb:
                            alt = {
                                la[:pos] + rw + la[pos + len(lb) :]: rc
                                for rw, rc in rb.items()
                            }
                            diff = dict(ra)
                            for w, c in alt.items():
                                nv = diff.get(w, 0) - c
                                if nv:
                                    diff[w] = nv
                                elif w in diff:
                                    del diff[w]
                            diff = _reduce(diff, rules, {len(w) for w in rules})
                            if diff:
                                new_polys.append(diff)
        added = False
        for poly in sorted(
            new_polys, key=lambda p: sorted(map(_word_key, p), reverse=True)
        ):
            if add_poly(poly):
                added = True
        if not added:
            break
    return RewriteSystem(pres.num_gens, rules, max_degree, confluent)


# ---------------------------------------------------------------------------
# front door


def graded_dims(
    pres: QuadraticPresentation,
    max_degree: int,
    engine: str = "linear",
    entry_budget: int = FK_ENTRY_BUDGET,
) -> list[int]:
    """Graded dims by ``engine``; ``entry_budget`` bounds the linear engine."""
    if engine == "linear":
        return graded_dims_linear(pres, max_degree, entry_budget)
    if engine == "rewrite":
        rs = complete_to_degree(pres, max_degree)
        counts = rs.irreducible_counts(max_degree)
        for m, c in enumerate(counts):
            if c == 0:
                return counts[:m]
        return counts
    raise ValueError(f"unknown engine {engine!r}")


@dataclass
class FinitenessProbe:
    status: str  # "VanishesAtDegree" or "StillGrowing"
    degree: Optional[int]
    dims: list

    @classmethod
    def from_dims(cls, dims: list, max_degree: int) -> "FinitenessProbe":
        """The verdict of graded dims computed up to ``max_degree``."""
        if len(dims) <= max_degree:
            return cls("VanishesAtDegree", len(dims), dims)
        return cls("StillGrowing", None, dims)

    def to_json(self) -> dict:
        return {"status": self.status, "degree": self.degree, "dims": self.dims}


def finiteness_probe(
    pres: QuadraticPresentation, max_degree: int, engine: str = "linear"
) -> FinitenessProbe:
    """Did the graded dimension reach zero within the probe window?

    A zero at degree m settles all higher degrees: for the linear engine the
    next space is a quotient of A_m (x) V = 0; for the rewrite engine every
    subword of an irreducible word is irreducible.
    """
    return FinitenessProbe.from_dims(graded_dims(pres, max_degree, engine), max_degree)
