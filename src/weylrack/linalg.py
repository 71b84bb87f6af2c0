"""Exact sparse linear algebra over a field.

Entries may be ``int``, :class:`fractions.Fraction` or
:class:`weylrack.cyclotomic.CycScalar`; anything supporting +, -, *, truthiness
and ``inverse`` works.  Units stay ``int``: a pivot of 1 or -1 is its own
inverse, so rows with +-1 pivots (the Fomin-Kirillov relations) are reduced in
integer arithmetic, while any other ``int`` pivot falls back to ``Fraction`` and
results stay exact over Q.  No entry ever becomes a float.  Pivoting is
deterministic (the lead of a row is its least column), so ranks and echelon
forms are reproducible run to run.
"""
from __future__ import annotations

from fractions import Fraction


def _inv(x):
    """Exact inverse; an ``int`` unit is returned as itself."""
    if type(x) is int:
        return x if x in (1, -1) else Fraction(1, x)
    if hasattr(x, "inverse"):
        return x.inverse()
    return 1 / x


def _normal(x):
    """``x`` as an ``int`` if it is a ``Fraction`` with denominator 1, else ``x``."""
    if type(x) is Fraction and x.denominator == 1:
        return x.numerator
    return x


def _sub_scaled(row: dict, c, tail: dict) -> None:
    """row -= c * tail, in place, dropping entries that cancel."""
    for col, v in tail.items():
        nv = row.get(col)
        if nv is None:
            row[col] = -(c * v)
        else:
            nv = nv - c * v
            if nv:
                row[col] = nv
            else:
                del row[col]


def echelon(rows) -> tuple[dict, list[int]]:
    """Row echelon form, taking rows greedily in input order.

    ``rows`` is an iterable of sparse {col: value} dicts; columns may be any
    sortable hashable keys (ints, tuples, ...).  Returns ``(pivots, kept)``:
    ``pivots`` maps each pivot column ``lead`` to the tail of its normalized
    row (the row is e_lead + tail, every tail column exceeds ``lead``), and
    ``kept`` lists the indices of the rows that added a pivot.  The kept rows
    are linearly independent and span the row space.
    """
    pivots: dict = {}
    kept = []
    for index, row in enumerate(rows):
        row = {c: v for c, v in row.items() if v}
        while row:
            # eliminate against the pivot whose column leads this row, repeating
            # until the leading column is pivot-free (elimination can introduce
            # new columns that themselves carry pivots)
            lead = min(row)
            piv = pivots.get(lead)
            if piv is None:
                break
            _sub_scaled(row, row.pop(lead), piv)
        if not row:
            continue
        lead = min(row)
        inv = _inv(row.pop(lead))
        pivots[lead] = {c: inv * v for c, v in row.items()}
        kept.append(index)
    return pivots, kept


def back_substitute(pivots: dict) -> dict:
    """Reduce ``pivots`` from :func:`echelon` in place: afterwards no tail
    holds a pivot column, so e_lead = -tail modulo the row space.

    One pass in descending lead order suffices: a tail holds only columns
    above its lead, so every pivot it substitutes is already reduced, and the
    reduced tails it adds bring in no pivot column.
    """
    for lead in sorted(pivots, reverse=True):
        tail = pivots[lead]
        for col in [c for c in tail if c in pivots]:
            _sub_scaled(tail, tail.pop(col), pivots[col])
    return pivots


def independent_rows(rows) -> list[int]:
    """Indices of the rows that add a pivot, taking rows greedily in input order."""
    return echelon(rows)[1]


def rank(rows) -> int:
    """Rank of a sparse matrix given as an iterable of {col: value} dicts."""
    return len(independent_rows(rows))


def invert_dense(mat, one, zero):
    """Inverse of a dense square matrix (list of lists), Gauss-Jordan, exact."""
    n = len(mat)
    a = [list(row) for row in mat]
    inv = [[one if i == j else zero for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col]), None)
        if piv is None:
            raise ZeroDivisionError("singular matrix")
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            inv[col], inv[piv] = inv[piv], inv[col]
        c = _inv(a[col][col])
        a[col] = [c * v for v in a[col]]
        inv[col] = [c * v for v in inv[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
                inv[r] = [x - f * y for x, y in zip(inv[r], inv[col])]
    return [tuple(row) for row in inv]


def mat_mul(a, b, zero):
    """Dense matrix product with exact scalars."""
    n, k = len(a), len(b)
    m = len(b[0]) if b else 0
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            s = zero
            for t in range(k):
                if a[i][t] and b[t][j]:
                    s = s + a[i][t] * b[t][j]
            row.append(s)
        out.append(tuple(row))
    return out


def identity_matrix(n, one, zero):
    return [tuple(one if i == j else zero for j in range(n)) for i in range(n)]
