"""Quadratic algebras: the square-free braided family and two dimension engines.

A :class:`QuadraticPresentation` is quadratic relations on generators
0..num_gens-1, which is all the engines read.  :func:`presentation` builds the
sign-twisted family A(alpha, beta, gamma, lambda) on generators x_ij, i<j,
where x_ji = gamma_ij x_ij, and :func:`fk_presentation` its classical instance
E_n = (1, 1, -1, 1).

Graded dimensions are computed by two independent engines: an iterative
linear-algebra quotient (degree by degree, on the echelon kernel of
:mod:`weylrack.linalg`) and a degree-truncated noncommutative rewriting system
whose irreducible words are counted by a finite automaton.  The rewriting
system comes from a critical-pair completion: every overlap of two rules waits
on one heap ordered by degree and is resolved once, and each polynomial is
reduced through a max-heap of its pending words.  Inside the completion a word
is an integer, b = (num_gens - 1).bit_length() bits per letter with the first
letter most significant, so that on words of one length integer order is lex
order; subwords are read by shift and mask from one {lhs: rhs} table per lhs
length, and a rewrite adds (rhs - lhs) << shift.  The left-hand sides form an
antichain under the subword order, so there are no inclusion ambiguities, and
an index of every lhs by its proper prefixes and suffixes hands a new rule only
the rules it overlaps.  ``RewriteSystem.rules`` is returned on tuple words.

Coefficients are exact and never floats.  They are ``int`` as long as every
pivot (linear engine) or rule leading coefficient (rewrite engine) is a unit
+-1.  The linear engine eliminates each degree's rows sparsest first, and so
meets only +-1 pivots on E_4 (every degree), E_5 through degree 8 and E_6
through degree 6; a non-unit pivot falls back to ``Fraction``, so a hand-built
presentation stays exact over Q.
A rewrite rule's coefficients are ``int`` again wherever their value is an
integer (``linalg._normal``), so later reductions through it stay in ``int``.
"""
from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from itertools import count, permutations
from typing import Optional

from .errors import BudgetExceeded
from .linalg import _inv, _normal, back_substitute, echelon

Word = tuple  # tuple of generator indices
Poly = dict  # Word -> int or Fraction

# Default bound on the nonzero entries of one degree's relation rows in the
# linear engine.  Each entry costs roughly 150-170 bytes with the pivots built
# from it (2-core host, Python 3.11): E_5 at degree 7 holds 343,080 entries and
# peaks at 73 MB in 1.3 s; its degree 8 holds 961,390 and peaks at 157 MB in
# 5.6 s, so the default refuses it.
FK_ENTRY_BUDGET = 500_000
RULE_BUDGET = 20_000  # rules of one rewrite-engine completion


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
    """Quadratic relations on the generators 0..num_gens-1.

    Every relation word must be a pair of generator indices, which is checked
    here, so both engines read the relations without checking them again.
    """

    num_gens: int
    relations: list  # list of Poly over pairs of generator indices
    label: str = ""

    def __post_init__(self):
        G = self.num_gens
        for rel in self.relations:
            for w in rel:
                if len(w) != 2 or not all(type(g) is int and 0 <= g < G for g in w):
                    raise ValueError(
                        f"relation word {w!r} is not a pair of generator indices 0..{G - 1}"
                    )


def presentation(n, alpha=1, beta=1, gamma=-1, lam=1, label="") -> QuadraticPresentation:
    """The sign-twisted family A(alpha, beta, gamma, lambda) on x_ij, i<j, in
    lex order.  Each sign argument is a constant +-1 or a dict keyed by 1-based
    index tuples: (i,j,k) for alpha/beta, (i,j) with i<j for gamma, and
    (i,j,k,l) for lambda.  When lambda_ijkl lambda_klij != 1, the two
    commutation relations of x_ij and x_kl put x_ij x_kl in the ideal.
    """
    if n < 2:
        raise ValueError("need n >= 2")
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
    for i, j, k, l in permutations(range(1, n + 1), 4):
        lv = _sign_lookup(lam, (i, j, k, l), "lambda")
        g1, s1 = x(i, j)
        g2, s2 = x(k, l)
        poly = {}
        for w, c in (((g1, g2), s1 * s2), ((g2, g1), -lv * s1 * s2)):
            poly[w] = poly.get(w, 0) + c
        add(poly)
    return QuadraticPresentation(len(gens), relations, label or f"A(n={n})")


def fk_presentation(n) -> QuadraticPresentation:
    """The classical square-free algebra E_n: the (1, 1, -1, 1) instance."""
    return presentation(n, label=f"E_{n}")


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
    rows go through :func:`linalg.echelon` sparsest first (fewest entries;
    ties keep build order) and then :func:`linalg.back_substitute`, so each
    coordinate of A_{m-1} (x) V projects onto A_m in one lookup.  The last
    degree needs only the rank, so it skips the reduced form and projection.
    ``entry_budget`` bounds the nonzero entries of one degree's relation rows,
    counted as the rows are built; its :class:`BudgetExceeded` carries the
    dims of the degrees before.
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
                        raise BudgetExceeded(f"degree-{m} fk relation entries", entry_budget, dims)
                    rows.append(vec)
        # Sparsest rows first: short rows become pivots early, so long rows
        # meet sparse pivots, and the E_n relations stay in int arithmetic.
        # The order cannot change the result: echelon takes a row's least
        # column as its lead, so its pivot columns are those of the row
        # space's reduced echelon form, which back_substitute returns.
        rows.sort(key=len)
        pivots = echelon(rows)
        new_dim = cur_dim * G - len(pivots)
        if new_dim == 0:
            break
        dims.append(new_dim)
        if m == max_degree:
            break  # no later degree reads the projection
        back_substitute(pivots)
        free_basis = [c for c in range(cur_dim * G) if c not in pivots]
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


def _encode(w: Word, b: int) -> int:
    code = 0
    for g in w:
        code = (code << b) | g
    return code


def _decode(code: int, length: int, b: int) -> Word:
    mask = (1 << b) - 1
    return tuple((code >> (k * b)) & mask for k in reversed(range(length)))


def _reduce(poly: dict, length: int, tables: list, b: int) -> dict:
    """Fully rewrite a homogeneous polynomial on integer-coded words.

    Every word of ``poly`` has ``length`` letters of ``b`` bits, first letter
    most significant, so integer order is lex order and the largest word has
    the largest code.  Words wait in a heap of negated codes, so the largest
    pending word comes out first.  It is matched against ``tables``, one
    ``(L, {lhs code: [(rhs code - lhs code, coeff), ...]}, mask_L)`` per lhs
    length L in ascending order: the shortest lhs first, then the leftmost
    position, where the subword at shift s is ``(code >> s) & mask_L``.  A
    match rewrites it into strictly smaller words ``code + (delta << s)``,
    whose coefficients collect in ``pending``; no match makes it irreducible,
    and it moves to the result.  No word larger than a popped one enters the
    heap again, so each word is popped once and the result comes out in
    decreasing order, leading word first.
    """
    pending: dict = {}
    heap: list = []
    for w, c in poly.items():
        if c:
            pending[w] = c
            heap.append(-w)
    heapify(heap)
    probes = [(table.get, mask, range((length - L) * b, -1, -b)) for L, table, mask in tables]
    result: dict = {}
    while heap:
        w = -heappop(heap)
        coeff = pending.pop(w)
        if not coeff:
            continue
        for get, mask, shifts in probes:
            for s in shifts:
                rhs = get((w >> s) & mask)
                if rhs is not None:
                    break
            else:
                continue
            break
        else:
            result[w] = coeff
            continue
        for delta, rc in rhs:
            nw = w + (delta << s)
            if nw in pending:
                pending[nw] += coeff * rc
            else:
                pending[nw] = coeff * rc
                heappush(heap, -nw)
    return result


@dataclass
class RewriteSystem:
    """Rules lhs -> rhs-poly with strictly smaller monomials, deglex order."""

    num_gens: int
    rules: dict  # Word -> Poly
    completed_to: int
    confluent: bool  # all overlaps of total degree <= completed_to resolve
    pairs: int = 0  # critical pairs resolved by the completion

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


def complete_to_degree(pres: QuadraticPresentation, max_degree: int) -> RewriteSystem:
    """Resolve all overlap ambiguities of total degree <= max_degree.

    A critical-pair completion (Bergman's diamond lemma, run as Buchberger's
    algorithm) on integer-coded words (see :func:`_reduce`).  Each new rule
    puts its overlaps with the rules so far, in both orders, and with itself
    on one heap keyed by (word degree, insertion sequence).  Each pair is
    popped and resolved once: the two rewrites of its word are subtracted and
    reduced, and a nonzero remainder becomes a new rule.  Rules only
    accumulate, so a pair that resolved stays resolved.  A pair whose word
    exceeds ``max_degree`` is not queued and makes the system non-confluent.

    Each new lead is fully reduced by the rules before it, and rules arrive in
    non-decreasing length (relations are quadratic and pairs pop in degree
    order), so the left-hand sides form an antichain under the subword order:
    no lhs contains another and there are no inclusion ambiguities.  Overlaps
    are then found through an index of every lhs by its proper prefixes and
    proper suffixes, so a new lead meets only the rules it can overlap.  They
    are queued by old-rule insertion index, (lead, old) before (old, lead),
    positions ascending, then the lead's self-overlaps.
    """
    b = max(1, (pres.num_gens - 1).bit_length())
    lhs: list = []  # rule lhs codes, in insertion order
    lens: list = []  # their lengths
    rhs: list = []  # their rhs, as [(rhs code - lhs code, coeff), ...]
    tables: list = []  # (L, {lhs code: rhs}, mask_L), L ascending
    by_prefix: dict = {}  # (k, code of a proper prefix of length k) -> rule indices
    by_suffix: dict = {}  # (k, code of a proper suffix of length k) -> rule indices
    queue: list = []
    seq = count()
    confluent = True
    pairs = 0

    def queue_pair(degree: int, ia: int, ib: int) -> None:
        # rule ib starts inside rule ia and runs past its end, to ``degree``
        nonlocal confluent
        if degree > max_degree:
            confluent = False
        else:
            heappush(queue, (degree, next(seq), ia, ib))

    def add_poly(poly: dict, length: int) -> None:
        poly = _reduce(poly, length, tables, b)
        if not poly:
            return
        lead = next(iter(poly))
        inv = _inv(poly.pop(lead))
        if len(lhs) >= RULE_BUDGET:
            raise BudgetExceeded("rewrite rules", RULE_BUDGET)
        new = len(lhs)
        lhs.append(lead)
        lens.append(length)
        found = []
        for k in range(1, length):
            head = lead >> ((length - k) * b)
            tail = lead & ((1 << (k * b)) - 1)
            # the lead's k-letter suffix starts rule i: pair (lead, i) at length - k
            found += [(i, 0, length - k) for i in by_prefix.get((k, tail), ())]
            # rule i's k-letter suffix starts the lead: pair (i, lead) at lens[i] - k
            found += [(i, 1, lens[i] - k) for i in by_suffix.get((k, head), ())]
            if head == tail:  # a self-overlap, queued after every old rule's
                found.append((new, 0, length - k))
            by_prefix.setdefault((k, head), []).append(new)
            by_suffix.setdefault((k, tail), []).append(new)
        for i, order, pos in sorted(found):
            if order:
                queue_pair(pos + length, i, new)
            else:
                queue_pair(pos + lens[i], new, i)
        rhs.append([(w - lead, _normal(-c * inv)) for w, c in poly.items()])
        if not tables or tables[-1][0] != length:
            tables.append((length, {}, (1 << (length * b)) - 1))
        tables[-1][1][lead] = rhs[new]

    for rel in sorted(pres.relations, key=lambda r: sorted(map(_word_key, r))):
        add_poly({_encode(w, b): c for w, c in rel.items()}, 2)

    while queue:
        degree, _, ia, ib = heappop(queue)
        pairs += 1
        shift = (degree - lens[ia]) * b  # the letters of rule ib past rule ia
        word = (lhs[ia] << shift) | (lhs[ib] & ((1 << shift) - 1))
        diff = {word + (delta << shift): rc for delta, rc in rhs[ia]}
        for delta, rc in rhs[ib]:
            w = word + delta
            diff[w] = diff.get(w, 0) - rc
        add_poly(diff, degree)
    rules = {
        _decode(code, L, b): {_decode(code + delta, L, b): c for delta, c in terms}
        for code, L, terms in zip(lhs, lens, rhs)
    }
    return RewriteSystem(pres.num_gens, rules, max_degree, confluent, pairs)


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


def probe(dims: list, max_degree: int) -> dict:
    """The finiteness verdict of graded dims computed up to ``max_degree``:
    ``{"status", "degree", "dims"}``, with status "VanishesAtDegree" and the
    first zero degree, or "StillGrowing" and degree None.

    A zero at degree m settles all higher degrees: for the linear engine the
    next space is a quotient of A_m (x) V = 0; for the rewrite engine every
    subword of an irreducible word is irreducible.
    """
    if len(dims) <= max_degree:
        return {"status": "VanishesAtDegree", "degree": len(dims), "dims": dims}
    return {"status": "StillGrowing", "degree": None, "dims": dims}
