"""Exact sparse linear algebra over a field.

One elimination loop, :func:`echelon`, serves every caller: ``rank`` counts its
pivots, the Nichols engine streams each degree's candidates into it, and the
Fomin-Kirillov linear engine and ``CycScalar.inverse`` (a solve of the system
of multiplication by the scalar, over Q) add :func:`back_substitute` for the
reduced form.

Entries may be ``int``, :class:`fractions.Fraction` or
:class:`weylrack.cyclotomic.CycScalar`; anything supporting +, -, *, truthiness
and ``inverse`` works.  Units stay ``int``: a pivot of 1 or -1 is its own
inverse, so rows with +-1 pivots (the Fomin-Kirillov relations) are reduced in
integer arithmetic, while any other ``int`` pivot falls back to ``Fraction`` and
results stay exact over Q.  :func:`_inv` holds the package's one true division.
No entry ever becomes a float.  Pivoting is deterministic (the lead of a row
is its least column), so ranks and echelon forms are reproducible run to run.
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


def echelon(rows) -> dict:
    """Row echelon form, taking rows greedily in input order.

    ``rows`` is an iterable of sparse {col: value} dicts, read once, so a
    generator is never held whole; columns may be any sortable hashable keys
    (ints, tuples, ...).  Returns ``pivots``, mapping each pivot column ``lead``
    to the tail of its normalized row: the rows e_lead + tail are linearly
    independent, span the row space, and every tail column exceeds ``lead``.
    """
    pivots: dict = {}
    for row in rows:
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
        if type(inv) is Fraction:
            # a non-unit pivot: keep integral entries ``int``
            pivots[lead] = {c: _normal(inv * v) for c, v in row.items()}
        else:
            pivots[lead] = {c: inv * v for c, v in row.items()}
    return pivots


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


def rank(rows) -> int:
    """Rank of a sparse matrix given as an iterable of {col: value} dicts."""
    return len(echelon(rows))

