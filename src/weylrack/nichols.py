"""The Nichols engine: graded dimensions of B(V) from a braided space's C^{-1}.

Degree by degree, S_m = L_m (S_{m-1} (x) id) (see :func:`_apply_lm`), so im
S_m is spanned by L_m(c (x) e_v) for c in any basis of im S_{m-1} and v in
0..D-1.  The candidates stream into :func:`linalg.echelon` as they are
generated, and its normalized rows e_lead + tail are the next degree's basis.

Words are ``int`` codes, b = max(1, (D-1).bit_length()) bits per letter with
the first letter most significant (the coding of the fk rewrite engine), and
e_v extends a word w as ``w << b | v``.  On words of one length integer order
is lex order, and the echelon lead of a row is its least column.  C^{-1} is
read from one table on pair codes (:func:`_coded_tables`).  When every
braiding scalar is rational (every +-1 character, whatever its field) the
loop runs over Q on a copy of the table holding ``int`` and ``Fraction``
values: elimination commutes with the embedding Q -> Q(zeta_m), so ranks,
pivots and candidate entry counts are those of the cyclotomic run.

The symmetry is read off C^{-1} alone (Andruskiewitsch-Grana, *From racks to
pointed Hopf algebras*, 2003).  On a table of rack type,
C^{-1}(e_{x|>y} (x) e_x) = c e_x (x) e_y for every basis pair, which defines
x |> y and the monomial maps phi_x(e_y) = c^{-1} e_{x|>y}, so that
C(e_x (x) e_y) = phi_x(e_y) (x) e_x.  The label of a word x_1...x_m is the
permutation part of phi_{x_1} ... phi_{x_m}, a permutation of the letters.
Three facts let the engine eliminate one block per class of labels:

1. Labels are kept.  If phi_{x|>y} phi_x = phi_x phi_y as permutations on
   every pair, C^{-1} on two adjacent legs keeps a word's label, so L_m maps
   each label block into itself and the degree-m space is the direct sum of
   its label blocks.
2. The phi_s commute with C^{-1}.  If phi_s (x) phi_s commutes with C^{-1}
   on every basis pair (for rack type, phi_s phi_x = phi_{s|>x} phi_s for
   every x: the cocycle half of the braid equation), then phi_s^{(x) m}
   commutes with L_m and maps the block of label l onto that of
   P_s l P_s^{-1}, P_s the permutation of phi_s.  So blocks conjugate under
   the group of the P_s have equal rank, and phi_s carries a basis of one
   onto a basis of the other.
3. Rack-generating letters generate Inn.  If every letter is g |> s for g in
   the group of the P_s, s in a set S, then every P_x lies in that group, so
   it is Inn(X), and the classes walked with the generating letters S only
   are the Inn-classes of labels.

Degrees 1 and 2 run with one block and the trivial group.  From degree 3 on,
when the table is of rack type and passes the checks of facts 1 and 2
(:func:`_symmetry`), the engine keeps the echelon rows of one block per
class: a class representative l at degree m is eliminated from the
candidates L_m(g c (x) e_v) over the letters v, where l' = l P_v^{-1} is a
degree-(m-1) label, c runs over the echelon rows of the representative of
the class of l', and g carries that representative onto l'.  Then
dim B^m = sum over the classes of class size x block rank.  A table that is
not of rack type or fails a check runs the same loop with the trivial group
throughout: one block, holding every row.
"""
from __future__ import annotations

from typing import Optional

from .errors import BudgetExceeded
from .linalg import _inv, echelon

# candidate entries one Nichols degree generates, summed over the class
# representatives' blocks; memory follows the echelon rows held: S_4
# transpositions with the sign character generate 905,768 at degree 9, hold
# 146,152 and peak at 49 MB (ru_maxrss of the CLI), and 2,279,672 at degree 10
NICHOLS_ENTRY_BUDGET = 1_000_000


def nichols_graded_dims(
    space,
    max_degree: int,
    entry_budget: int = NICHOLS_ENTRY_BUDGET,
) -> list[int]:
    """[dim B^0, dim B^1, ...] of the braided space ``space``, stopping early
    when a dimension hits zero; dim B^m is the rank of the quantum
    symmetrizer S_m.

    ``entry_budget`` bounds the nonzero entries of the candidates one degree
    generates, over all the blocks it eliminates; its
    :class:`BudgetExceeded` carries the dims of the degrees before.  See the
    module docstring for the blocks and their symmetry.
    """
    b, table, rational = _coded_tables(space)
    one = space.scalar_field.one
    if rational is not None:
        table, one = rational, 1
    # degrees 1 and 2 run with the trivial group: every label is ()
    level = _Inn([()] * space.D, []).split({v: {} for v in range(space.D)}, 1, b)
    dims = [1]
    for m in range(1, max_degree + 1):
        if m == 3:
            symmetry = _symmetry(table, b, space.D)
            if symmetry is not None:
                (rows,) = level.blocks.values()
                level = symmetry.split(rows, 2, b)
        if m > 1:
            level = level.next(table, b, one, entry_budget, dims)
        dim = sum(level.sizes[rep] * len(rows) for rep, rows in level.blocks.items())
        if not dim:
            break
        dims.append(dim)
    return dims


def _coded_tables(space) -> tuple[int, dict, Optional[dict]]:
    """The letter width b = max(1, (D-1).bit_length()) and C^{-1} on pair codes,
    ``{u << b | v: (code of the image pair - (u << b | v), scalar)}``, once with
    the ``CycScalar`` values and once with their rational values (``int`` or
    ``Fraction``), the latter None if some scalar has a coordinate past the
    first."""
    b = max(1, (space.D - 1).bit_length())
    coded, rational = {}, {}
    for (u, v), ((u2, v2), q) in space.cinv_map.items():
        code = u << b | v
        delta = (u2 << b | v2) - code
        coded[code] = (delta, q)
        if rational is not None:
            c0, *rest = q.coeffs
            if any(rest):
                rational = None
            else:
                rational[code] = (delta, c0)
    return b, coded, rational


def _add_into(total: dict, vec: dict) -> None:
    """total += vec, dropping entries that cancel."""
    for key, coeff in vec.items():
        prev = total.get(key)
        nv = coeff if prev is None else prev + coeff
        if nv:
            total[key] = nv
        elif prev is not None:
            del total[key]


def _apply_lm(table: dict, vec: dict, m: int, b: int) -> dict:
    """L_m = sum_{k=0}^{m-1} T_{m-k}...T_{m-1} on words of m letters, T_{m-1} first.

    Words are integer codes of ``b`` bits per letter, first letter most
    significant, and ``table`` is C^{-1} on pair codes (see
    :func:`_coded_tables`).  T_i is C^{-1} on legs (i, i+1): the pair sits at
    shift s = (m-1-i)*b, is read as ``(w >> s) & mask`` and rewritten by adding
    ``delta << s``.  With S_m = L_m (S_{m-1} (x) id), one running partial
    product gives every term in m-1 leg applications.
    """
    mask = (1 << 2 * b) - 1
    total = dict(vec)
    for s in range(0, (m - 1) * b, b):
        out = {}
        for w, coeff in vec.items():
            delta, c = table[(w >> s) & mask]
            out[w + (delta << s)] = coeff * c
        vec = out
        _add_into(total, vec)
    return total


def _symmetry(table: dict, b: int, D: int) -> Optional[_Inn]:
    """Inn(X) read off the coded C^{-1}, or None when the table is not of rack
    type, some pair changes a label (fact 1 of the module docstring), or some
    generating letter's phi_s fails to commute with C^{-1} (fact 2)."""
    low = (1 << b) - 1
    perms = [[0] * D for _ in range(D)]
    scalars = [[0] * D for _ in range(D)]
    for code, (delta, c) in table.items():
        image = code + delta
        x = code & low
        if image >> b != x:
            return None
        perms[x][image & low] = code >> b
        scalars[x][image & low] = _inv(c)
    perms = [tuple(p) for p in perms]
    for P in perms:
        for Q, Py in zip(perms, P):
            if tuple(map(perms[Py].__getitem__, P)) != tuple(map(P.__getitem__, Q)):
                return None
    gens: list = []
    reached: set = set()
    for x in range(D):
        if x not in reached:
            gens.append(x)
            reached = _orbit(gens, [perms[s].__getitem__ for s in gens])
    for s in gens:
        P, sc = perms[s], scalars[s]
        for code, (delta, c) in table.items():
            image = code + delta
            u, v, u2, v2 = code >> b, code & low, image >> b, image & low
            moved = P[u] << b | P[v]
            d3, c3 = table[moved]
            if (P[u2] << b | P[v2], c * sc[u2] * sc[v2]) != (moved + d3, sc[u] * sc[v] * c3):
                return None
    return _Inn(perms, [(perms[s], scalars[s]) for s in gens])


def _orbit(starts: list, moves: list) -> dict:
    """``{item: (parent, i)}`` over the orbit of ``starts`` under the maps
    ``moves``, with item = moves[i](parent); each start maps to None."""
    found = dict.fromkeys(starts)
    queue = list(starts)
    for item in queue:
        for i, move in enumerate(moves):
            nxt = move(item)
            if nxt not in found:
                found[nxt] = (item, i)
                queue.append(nxt)
    return found


def _compose(a, b):
    """The monomial map a . b, each given as (perm, scalars) with
    phi(e_y) = scalars[y] e_{perm[y]}; None is the identity."""
    if b is None:
        return a
    (pa, sa), (pb, sb) = a, b
    return tuple(map(pa.__getitem__, pb)), [c * sa[z] for c, z in zip(sb, pb)]


def _carry(g, col: dict, k: int, b: int) -> dict:
    """The monomial map ``g`` applied letter by letter to a vector on words
    of ``k`` letters."""
    perm, scalars = g
    low = (1 << b) - 1
    out = {}
    for w, c in col.items():
        image = 0
        for s in range((k - 1) * b, -1, -b):
            y = (w >> s) & low
            image = image << b | perm[y]
            c = c * scalars[y]
        out[image] = c
    return out


class _Inn:
    """The group generated by the P_x, acting on labels by conjugation:
    ``perms[x]`` is P_x (x |> y = P_x[y]) and ``gens`` the generating
    letters' monomial maps phi_s as (P_s, scalars).  The trivial group has
    ``()`` for every P_x and no generators, so every label is ``()``."""

    def __init__(self, perms: list, gens: list):
        self.perms = perms
        self.inverses = [_inverse(P) for P in perms]
        self.conjugations = [_conjugation(P) for P, _ in gens]
        self.gens = gens

    def label(self, w: int, k: int, b: int) -> tuple:
        """P_{x_1} . ... . P_{x_k} for the word x_1...x_k."""
        low = (1 << b) - 1
        label = self.perms[w >> (k - 1) * b]
        for s in range((k - 2) * b, -1, -b):
            label = tuple(map(label.__getitem__, self.perms[(w >> s) & low]))
        return label

    def split(self, rows: dict, k: int, b: int) -> _Level:
        """Degree-k echelon rows split by label, keeping one block per class."""
        by_label: dict = {}
        for lead, tail in rows.items():
            by_label.setdefault(self.label(lead, k, b), {})[lead] = tail
        level = _Level(self)
        for label, block in by_label.items():
            if label not in level.where:
                level.add_class(label)
                level.blocks[label] = block
        return level


def _inverse(P: tuple) -> tuple:
    inv = [0] * len(P)
    for y, z in enumerate(P):
        inv[z] = y
    return tuple(inv)


def _conjugation(P: tuple):
    """label -> P . label . P^{-1}."""
    inv = _inverse(P)
    return lambda label: tuple(map(P.__getitem__, map(label.__getitem__, inv)))


class _Level:
    """One degree of the engine: ``blocks`` maps each class representative to
    the echelon rows of its label block, ``sizes`` to its class size, and
    ``where`` maps every label of those classes to its representative and its
    parent in the class walk."""

    def __init__(self, group: _Inn):
        self.group = group
        self.blocks: dict = {}
        self.sizes: dict = {}
        self.where: dict = {}
        self._carriers: dict = {}

    def add_class(self, rep: tuple) -> None:
        walk = _orbit([rep], self.group.conjugations)
        for label, parent in walk.items():
            self.where[label] = (rep, parent)
        self.sizes[rep] = len(walk)

    def carrier(self, label: tuple):
        """The monomial map carrying the block of ``label``'s representative
        onto the block of ``label``; None for the representative itself."""
        parent = self.where[label][1]
        if parent is None:
            return None
        g = self._carriers.get(label)
        if g is None:
            prev, i = parent
            g = self._carriers[label] = _compose(self.group.gens[i], self.carrier(prev))
        return g

    def next(self, table: dict, b: int, one, entry_budget: int, dims: list) -> _Level:
        """The level of degree m = len(dims), one echelon per class."""
        m, group = len(dims), self.group
        new = _Level(group)
        for rho in self.blocks:
            for P in group.perms:
                mu = tuple(map(rho.__getitem__, P))
                if mu not in new.where:
                    new.add_class(mu)
        entries = 0

        def candidates(mu):
            nonlocal entries
            sources: dict = {}
            for v, inv in enumerate(group.inverses):
                lam = tuple(map(mu.__getitem__, inv))
                if lam in self.where:
                    sources.setdefault(lam, []).append(v)
            for lam, letters in sources.items():
                g = self.carrier(lam)
                for lead, tail in self.blocks[self.where[lam][0]].items():
                    col = {lead: one, **tail}
                    if g is not None:
                        col = _carry(g, col, m - 1, b)
                    for v in letters:
                        cand = _apply_lm(table, {w << b | v: c for w, c in col.items()}, m, b)
                        entries += len(cand)
                        if entries > entry_budget:
                            raise BudgetExceeded(
                                f"degree-{m} Nichols candidate entries", entry_budget, dims
                            )
                        yield cand

        for mu in list(new.sizes):
            rows = echelon(candidates(mu))
            if rows:
                new.blocks[mu] = rows
            else:
                del new.sizes[mu]
        new.where = {label: w for label, w in new.where.items() if w[0] in new.sizes}
        return new
