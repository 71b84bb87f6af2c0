"""Exact sparse linear algebra over a field.

Entries may be :class:`fractions.Fraction` or :class:`weylrack.cyclotomic.CycScalar`;
anything supporting +, -, *, truthiness and ``inverse``/division works.  Pivoting is
deterministic (first nonzero entry in column order), so ranks and echelon forms are
reproducible run to run.
"""
from __future__ import annotations

from fractions import Fraction


def _inv(x):
    if hasattr(x, "inverse"):
        return x.inverse()
    return Fraction(1) / x


def independent_rows(rows) -> list[int]:
    """Indices of the rows that add a pivot, taking rows greedily in input order.

    ``rows`` is an iterable of sparse {col: value} dicts; columns may be any
    sortable hashable keys (ints, tuples, ...).  The selected rows are
    linearly independent and span the row space.
    """
    pivots: dict = {}  # pivot column -> normalized row
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
            c = row.pop(lead)
            for pc, pv in piv.items():
                if pc in row:
                    nv = row[pc] - c * pv
                    if nv:
                        row[pc] = nv
                    else:
                        del row[pc]
                else:
                    row[pc] = -(c * pv)
        if not row:
            continue
        lead = min(row)
        inv = _inv(row.pop(lead))
        pivots[lead] = {c: inv * v for c, v in row.items()}
        kept.append(index)
    return kept


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
