"""Quadratic algebras: the square-free braided family and two dimension engines.

A :class:`QuadraticPresentation` is quadratic relations on generators
0..num_gens-1, which is all the engines read, and optionally the pair (i, j)
of each generator.  :func:`presentation` builds the sign-twisted family
A(alpha, beta, gamma, lambda) on generators x_ij, i<j, where
x_ji = gamma_ij x_ij, with their pairs, and :func:`fk_presentation` its
classical instance E_n = (1, 1, -1, 1).

Graded dimensions are computed by two independent engines: an iterative
linear-algebra quotient (degree by degree, on the echelon kernel of
:mod:`weylrack.linalg`) and a degree-truncated noncommutative rewriting system
whose irreducible words are counted by a finite automaton.  The rewriting
system comes from a critical-pair completion: every overlap of two rules waits
on one heap ordered by degree and is resolved once, and each polynomial is
reduced through a max-heap of its pending words.  Inside the completion a word
is an integer, b = (num_gens - 1).bit_length() bits per letter with the first
letter most significant, so that on words of one length integer order is lex
order, and a rewrite adds (rhs - lhs) << shift.  The left-hand sides form an
antichain under the subword order, so there are no inclusion ambiguities, and
an index of every lhs by its proper prefixes and suffixes hands a new rule only
the rules it overlaps.  One Aho-Corasick automaton over the left-hand sides
(:func:`_automaton`) finds a word's match in one pass of its letters during
the completion and counts the irreducible words afterwards.
``RewriteSystem.rules`` is returned on tuple words.

The linear engine labels a word x_{i1 j1} ... x_{im jm} by the permutation
(i1 j1) ... (im jm).  When :func:`_symmetry` finds the relations homogeneous
in labels and a signed S_n action on the generators that preserves them, its
last degree eliminates one label block per conjugacy class of labels and
counts each block's rank once per label in the class; otherwise the same loop
runs one block (see :func:`graded_dims_linear`).

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
from functools import partial
from heapq import heapify, heappop, heappush
from itertools import count, permutations
from typing import Optional

from .errors import BudgetExceeded
from .linalg import _inv, _normal, back_substitute, echelon
from .nichols import _orbit

Word = tuple  # tuple of generator indices
Poly = dict  # Word -> int or Fraction

# Default bound on the nonzero entries of the relation rows one degree of the
# linear engine builds: every row below the last degree, and at the last degree
# only the rows of the class representatives' label blocks.  Each entry costs
# roughly 150-170 bytes with the pivots built from it (2-core host, Python
# 3.11).  E_5 at degree 7 builds 343,080 entries, and to degree 8 (whose blocks
# hold 64,645 of the 961,390 entries of all its rows) it peaks at 86 MB in
# 2.6 s; E_6 to degree 6 builds 242,745 entries at degree 5 and 25,361 of
# 1,399,560 at degree 6, and peaks at 81 MB in 1.2 s.  E_5 degree 9 and E_6
# degree 7 need every row of E_5 degree 8 or E_6 degree 6, so the default
# refuses them.
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
    ``pairs``, when given, holds the (i, j), 1 <= i < j, of each generator
    x_ij: it labels generator g by the transposition (i j) of S_n, which the
    linear engine reads for its symmetry (see :func:`_symmetry`).  The
    default None gives no labels, so the linear engine runs one block.
    """

    num_gens: int
    relations: list  # list of Poly over pairs of generator indices
    label: str = ""
    pairs: Optional[tuple] = None  # the (i, j) of each generator, or None

    def __post_init__(self):
        G = self.num_gens
        for rel in self.relations:
            for w in rel:
                if len(w) != 2 or not all(type(g) is int and 0 <= g < G for g in w):
                    raise ValueError(
                        f"relation word {w!r} is not a pair of generator indices 0..{G - 1}"
                    )
        if self.pairs is not None:
            self.pairs = tuple(map(tuple, self.pairs))
            if len(self.pairs) != G:
                raise ValueError(f"{len(self.pairs)} generator pairs for {G} generators")
            for p in self.pairs:
                if len(p) != 2 or not all(type(i) is int for i in p) or not 1 <= p[0] < p[1]:
                    raise ValueError(f"generator pair {p!r} is not (i, j) with 1 <= i < j")
            if len(set(self.pairs)) != G:
                raise ValueError("a generator pair is repeated")


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
    return QuadraticPresentation(len(gens), relations, label or f"A(n={n})", tuple(gens))


def fk_presentation(n) -> QuadraticPresentation:
    """The classical square-free algebra E_n: the (1, 1, -1, 1) instance."""
    return presentation(n, label=f"E_{n}")


# ---------------------------------------------------------------------------
# engine 1: iterative linear-algebra quotient


def _times(p: tuple, q: tuple) -> tuple:
    """The permutation p . q (q first), as a tuple of images."""
    return tuple(map(p.__getitem__, q))


def _conjugate(t: tuple, label: tuple) -> tuple:
    """t . label . t, for a transposition t."""
    return _times(_times(t, label), t)


def _inverse(p: tuple) -> tuple:
    """The inverse permutation of p."""
    return tuple(sorted(range(len(p)), key=p.__getitem__))


def _transposition(n: int, i: int, j: int) -> tuple:
    """The transposition (i j) of the points 1..n, on 0..n-1."""
    perm = list(range(n))
    perm[i - 1], perm[j - 1] = j - 1, i - 1
    return tuple(perm)


def _solve_gf2(equations: list) -> Optional[int]:
    """A bit vector x with parity(mask & x) = bit for every (mask, bit) in
    ``equations``, or None when they are inconsistent."""
    rows: dict = {}  # lowest bit of a reduced mask -> (mask, bit)
    for mask, bit in equations:
        while mask:
            low = mask & -mask
            if low not in rows:
                rows[low] = (mask, bit)
                break
            row_mask, row_bit = rows[low]
            mask, bit = mask ^ row_mask, bit ^ row_bit
        if not mask and bit:
            return None
    x = 0
    for low in sorted(rows, reverse=True):  # a row's other bits are above its lowest
        mask, bit = rows[low]
        if bit != (mask & x).bit_count() & 1:
            x |= low
    return x


def _symmetry(pres: QuadraticPresentation) -> Optional[list]:
    """The S_n action on ``pres`` that :func:`graded_dims_linear` may use, or None.

    Generator g is labelled by the transposition (i j) of its pair, and a word
    by the product of its letters' labels.  For each adjacent transposition
    t = (k k+1), k = 1..n-1, the action holds (t, signs): the generator map
    x_g -> signs[g] x_g', label(g') = t label(g) t, maps the span of the
    relations onto itself.  The signs come from a GF(2) solve: for
    each relation and the one relation on its image words, coefficients
    c_u, c_v there and d_u, d_v on the images, signs[u] signs[v] (a product
    over both letters of each word) must be d_u c_v / (c_u d_v), compared
    exactly by cross-multiplication; words of coefficient 0 are dropped first.

    Relations that share their word set are taken together.  When their rank
    is the number of words (one relation on one word, or the two commutation
    relations of x_ij and x_kl when lambda_ijkl lambda_klij = -1), every word
    of the set lies in the ideal: such a full set adds no sign equation, and t
    must map it onto the words of a full set, whatever the signs.  Any other
    word set must hold one relation.

    None when ``pres.pairs`` is None, a relation is not homogeneous in labels,
    some t moves a pair to no generator, a full set to no full set or another
    relation to no single relation, two relations share a word set that is not
    full, or some t has no signs.
    """
    if not pres.pairs:
        return None
    n = max(j for _, j in pres.pairs)
    letters = [_transposition(n, i, j) for i, j in pres.pairs]
    index = {p: g for g, p in enumerate(pres.pairs)}
    relations = [r for r in ({w: c for w, c in rel.items() if c} for rel in pres.relations) if r]
    by_words: dict = {}
    for rel in relations:
        if len({_times(letters[g1], letters[g2]) for g1, g2 in rel}) > 1:
            return None
        by_words.setdefault(frozenset(rel), []).append(rel)
    # the word sets whose relations have full rank, through echelon's pivots
    full = {words for words, rels in by_words.items() if len(echelon(rels)) == len(words)}
    action = []
    for k in range(1, n):
        t = _transposition(n, k, k + 1)
        image = [index.get(tuple(sorted((t[i - 1] + 1, t[j - 1] + 1)))) for i, j in pres.pairs]
        if None in image:
            return None
        equations = []
        for words, rels in by_words.items():
            moved = {w: (image[w[0]], image[w[1]]) for w in words}
            target = frozenset(moved.values())
            if words in full:
                if target not in full:
                    return None
                continue
            targets = by_words.get(target, ())
            if len(rels) != 1 or len(targets) != 1:
                return None
            (u, cu), *rest = rels[0].items()
            du = targets[0][moved[u]]
            for v, cv in rest:
                dv = targets[0][moved[v]]
                if du * cv == cu * dv:
                    bit = 0
                elif du * cv == -(cu * dv):
                    bit = 1
                else:
                    return None
                equations.append(((1 << u[0]) ^ (1 << u[1]) ^ (1 << v[0]) ^ (1 << v[1]), bit))
        flips = _solve_gf2(equations)
        if flips is None:
            return None
        action.append((t, tuple(-1 if flips >> g & 1 else 1 for g in range(pres.num_gens))))
    return action


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

    The last degree also builds only the rows of one label block per class.
    Each basis vector of A_{m-1} is a word, labelled as in :func:`_symmetry`,
    and the engine carries the labels from degree to degree.  Two facts make
    the blocks suffice:

    1. The basis words split A_{m-1} (x) V into label blocks, and relations
       homogeneous in labels split its row space alike: the row of a word of
       label b and a relation of label r lies in the block of b r.  So
       dim A_m = cur_dim * G - the sum over the labels of the block ranks.
    2. A signed generator map that maps the span of the relations onto
       itself preserves the ideal, so it is an algebra automorphism.  The
       one :func:`_symmetry` gives for t maps the block of label l onto that
       of t l t, so column counts and ranks are constant on a class of labels
       under conjugation by the adjacent transpositions.

    The last degree walks the classes of the labels of A_{m-1} (x) V with
    :func:`nichols._orbit`, takes the first label met in each as its block,
    builds only those blocks' rows, and counts each pivot |class| times.
    Earlier degrees build every row, since their reduced form projects the
    next degree.  With no action every label is the identity, so the same
    loop runs one block of class size 1.

    ``entry_budget`` bounds the nonzero entries of the relation rows one
    degree builds, counted as the rows are built; its :class:`BudgetExceeded`
    carries the dims of the degrees before.
    """
    G = pres.num_gens
    dims = [1, G]
    if max_degree == 0:
        return [1]
    action = _symmetry(pres)
    if action is None:
        one, letters, moves = (), [()] * G, []
    else:
        n = len(action) + 1
        one = tuple(range(n))
        letters = [_transposition(n, i, j) for i, j in pres.pairs]
        moves = [partial(_conjugate, t) for t, _ in action]
    # the relations by the label of their words
    by_label: dict = {}
    for rel in pres.relations:
        words = [w for w, c in rel.items() if c]
        if words:
            g1, g2 = words[0]
            by_label.setdefault(_times(letters[g1], letters[g2]), []).append(rel)
    steps: dict = {}  # label a -> [a . letters[g] for g in range(G)]
    # prev_mult[(b, g)]: A_{m-2} basis vector b times generator g, in A_{m-1}
    # coordinates; A_0 (x) V -> A_1 is the identity on generators
    prev_dim, cur_dim = 1, G
    prev_mult = {(0, g): {g: 1} for g in range(G)}
    prev_labels, cur_labels = [one], letters
    for m in range(2, max_degree + 1):
        last = m == max_degree
        distinct = dict.fromkeys(cur_labels)
        for a in distinct:
            if a not in steps:
                steps[a] = [_times(a, letter) for letter in letters]
        if last:
            # class representative -> class size, over the labels of A_{m-1} (x) V
            sizes: dict = {}
            placed: set = set()
            for a in distinct:
                for label in steps[a]:
                    if label not in placed:
                        orbit = _orbit([label], moves)
                        placed.update(orbit)
                        sizes[label] = len(orbit)
            # the rows of b and a relation of label r lie in the block of b . r
            kept = {
                b: [rel for rep in sizes for rel in by_label.get(_times(_inverse(b), rep), ())]
                for b in dict.fromkeys(prev_labels)
            }
        else:
            kept = dict.fromkeys(prev_labels, pres.relations)
        # relation image: for each A_{m-2} basis vector b and relation sum c_w w
        # with w = (g1, g2): sum_w c_w (b . g1) (x) g2 in A_{m-1} (x) V
        rows = []
        entries = 0
        for b in range(prev_dim):
            for rel in kept[prev_labels[b]]:
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
        if last:  # a pivot in a representative's block stands for one in each block of its class
            new_dim = cur_dim * G - sum(sizes[steps[cur_labels[c // G]][c % G]] for c in pivots)
        else:
            new_dim = cur_dim * G - len(pivots)
        if new_dim == 0:
            break
        dims.append(new_dim)
        if last:
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
        prev_labels = cur_labels
        cur_labels = [steps[cur_labels[c // G]][c % G] for c in free_basis]
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


def _automaton(words: list, num_gens: int, b: int) -> tuple:
    """The Aho-Corasick automaton (1975) of a set of words, as a table.

    The states are the prefixes of ``words``, the live ones (no word ends
    there) first, then the hit states, each group breadth first; the root is
    live state 0.  Letter g takes a state to the longest suffix of state + g
    that is a state.  State k is stored as k << b, so that from state s letter
    g leads to ``goto[s | g]``.  Returns (goto, live, ends): ``live`` counts
    the live states, and ``words[ends[k]]`` ends at hit state live + k.

    The left-hand sides of a completion form an antichain: none is a subword
    of another.  Then at most one word ends at each position of a text, since
    two would be suffixes one of the other.  And when one does, the state
    reached there is that word: it is a suffix of the state, a prefix of some
    word, so it cannot be a proper suffix.  A hit state thus names the one
    word ending where it is reached, and the walk needs no output links.  For
    words that nest, a state whose failure link is a hit is a hit too, naming
    that word, so that a walk still meets a hit exactly where a word ends.
    """
    children = [{}]  # trie node -> {letter: child}
    ends_at = {}  # trie node -> index of the word ending there
    for k, w in enumerate(words):
        node = 0
        for g in w:
            kids = children[node]
            if g not in kids:
                kids[g] = len(children)
                children.append({})
            node = kids[g]
        ends_at[node] = k
    # breadth first: a node's missing letters follow its failure link, whose
    # row is done since that node is shallower
    rows = {0: [children[0].get(g, 0) for g in range(num_gens)]}
    fail = {0: 0}
    order = [0]
    for node in order:
        for g, child in children[node].items():
            fail[child] = rows[fail[node]][g] if node else 0
            if child not in ends_at and fail[child] in ends_at:  # only when words nest
                ends_at[child] = ends_at[fail[child]]
            row = rows[child] = rows[fail[child]].copy()
            for h, c in children[child].items():
                row[h] = c
            order.append(child)
    ranked = [v for v in order if v not in ends_at] + [v for v in order if v in ends_at]
    live = len(ranked) - len(ends_at)
    number = {v: k << b for k, v in enumerate(ranked)}
    pad = [0] * ((1 << b) - num_gens)
    goto = []
    for v in ranked:
        goto += [number[t] for t in rows[v]]
        goto += pad
    return goto, live, [ends_at[v] for v in ranked[live:]]


def _matcher(lhs: list, lens: list, rhs: list, num_gens: int, b: int) -> tuple:
    """The ``matcher`` argument of :func:`_reduce` for the rules lhs[i] ->
    rhs[i], coded words of lens[i] letters: (goto, first hit state, {hit
    state: (L, rhs)}, shortest L) over :func:`_automaton`."""
    goto, live, ends = _automaton([_decode(c, L, b) for c, L in zip(lhs, lens)], num_gens, b)
    hits = {(live + k) << b: (lens[i], rhs[i]) for k, i in enumerate(ends)}
    return goto, live << b, hits, min(lens, default=0)


def _reduce(poly: dict, length: int, matcher: tuple, whole: dict, b: int) -> dict:
    """Fully rewrite a homogeneous polynomial on integer-coded words.

    Every word of ``poly`` has ``length`` letters of ``b`` bits, first letter
    most significant, so integer order is lex order and the largest word has
    the largest code.  Words wait in a heap of negated codes, so the largest
    pending word comes out first.  Its match is the shortest lhs in it, then
    the leftmost.  ``matcher`` is (goto, first hit, {hit state: (L, rhs)},
    shortest L) for the rules shorter than ``length`` (see
    :func:`_matcher`), and the word is walked once, left to right: at most
    one lhs ends at each letter, the first hit of each length is its leftmost,
    and a hit of the shortest length stops the walk.  With no hit the word is
    looked up whole in ``whole``, the ``{lhs code: rhs}`` of the rules of
    length ``length``.  An rhs is ``[(rhs code - lhs code, coeff), ...]``.  A
    match whose last letter sits at shift s rewrites the word into strictly
    smaller words ``code + (delta << s)``, whose coefficients collect in
    ``pending``; no match makes it irreducible, and it moves to the result.
    No word larger than a popped one enters the heap again, so each word is
    popped once and the result comes out in decreasing order, leading word
    first.
    """
    pending: dict = {}
    heap: list = []
    for w, c in poly.items():
        if c:
            pending[w] = c
            heap.append(-w)
    heapify(heap)
    goto, first_hit, hits, shortest = matcher
    letter = (1 << b) - 1
    shifts = range((length - 1) * b, -1, -b)
    result: dict = {}
    while heap:
        w = -heappop(heap)
        coeff = pending.pop(w)
        if not coeff:
            continue
        best = length
        state = 0
        for s in shifts:
            state = goto[state | (w >> s) & letter]
            if state >= first_hit:
                L, rule = hits[state]
                if L < best:
                    best, at, rhs = L, s, rule
                    if L == shortest:
                        break
        if best == length:
            rhs = whole.get(w)
            if rhs is None:
                result[w] = coeff
                continue
            at = 0
        for delta, rc in rhs:
            nw = w + (delta << at)
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
        """Words avoiding every rule lhs, counted as paths of :func:`_automaton`.

        A word contains an lhs exactly when its walk from the root meets a hit
        state, so the words of length m avoiding them are the walks of m
        letters through live states.
        """
        G = self.num_gens
        b = max(1, (G - 1).bit_length())
        goto, live, _ = _automaton(list(self.rules), G, b)
        first_hit = live << b
        counts = [1]
        vec = [1] + [0] * (live - 1)
        for _ in range(max_degree):
            nxt = [0] * live
            for s, c in enumerate(vec):
                if c:
                    for t in goto[s << b : (s << b) + G]:
                        if t < first_hit:
                            nxt[t >> b] += c
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

    The reductions of one word length L form a phase.  Since lengths arrive in
    non-decreasing order, the rules shorter than L are final when its phase
    starts: :func:`_reduce` matches them through one automaton
    (:func:`_matcher`), built when a phase starts after new rules came, and
    the rules of length L, which can match only a whole word, through a dict.
    """
    G = pres.num_gens
    b = max(1, (G - 1).bit_length())
    lhs: list = []  # rule lhs codes, in insertion order
    lens: list = []  # their lengths
    rhs: list = []  # their rhs, as [(rhs code - lhs code, coeff), ...]
    whole: dict = {}  # {lhs code: rhs} of the rules of the latest length
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

    auto = _matcher(lhs, lens, rhs, G, b)

    def add_poly(poly: dict, length: int) -> None:
        nonlocal auto, whole
        if whole and length > lens[-1]:
            # a new phase, and rules came since the last build: every rule so
            # far is shorter than this phase and final
            auto, whole = _matcher(lhs, lens, rhs, G, b), {}
        poly = _reduce(poly, length, auto, whole, b)
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
        whole[lead] = rhs[new]

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
