"""Sparse exact rank and small dense helpers."""
import ast
import random
from fractions import Fraction
from pathlib import Path

from weylrack import cyclotomic, fk, linalg
from weylrack.cyclotomic import CyclotomicField
from weylrack.linalg import (
    _inv,
    back_substitute,
    echelon,
    identity_matrix,
    independent_rows,
    invert_dense,
    mat_mul,
    rank,
)


def dense_rref(rows, ncols):
    """Plain dense Gauss-Jordan over Fraction (oracle): lead -> {col: value}
    of the row of the reduced echelon form with a 1 at ``lead``, lead dropped."""
    mat = [[Fraction(r.get(c, 0)) for c in range(ncols)] for r in rows]
    leads = []
    for col in range(ncols):
        rk = len(leads)
        piv = next((i for i in range(rk, len(mat)) if mat[i][col]), None)
        if piv is None:
            continue
        mat[rk], mat[piv] = mat[piv], mat[rk]
        inv = 1 / mat[rk][col]
        mat[rk] = [v * inv for v in mat[rk]]
        for i in range(len(mat)):
            if i != rk and mat[i][col]:
                c = mat[i][col]
                mat[i] = [a - c * b for a, b in zip(mat[i], mat[rk])]
        leads.append(col)
    return {
        lead: {c: v for c, v in enumerate(row) if v and c != lead}
        for lead, row in zip(leads, mat)
    }


def dense_rank(rows, ncols):
    return len(dense_rref(rows, ncols))


def test_rank_fuzz_against_dense_oracle():
    rng = random.Random(41)
    for _ in range(150):
        nrows, ncols = rng.randint(1, 8), rng.randint(1, 8)
        rows = []
        for _ in range(nrows):
            row = {
                c: Fraction(rng.randint(-3, 3))
                for c in range(ncols)
                if rng.random() < 0.6
            }
            rows.append({c: v for c, v in row.items() if v})
        assert rank(rows) == dense_rank(rows, ncols)


def test_independent_rows_greedy_against_dense_oracle():
    rng = random.Random(43)
    for _ in range(150):
        nrows, ncols = rng.randint(1, 8), rng.randint(1, 6)
        rows = [
            {c: Fraction(rng.randint(-2, 2)) for c in range(ncols) if rng.random() < 0.5}
            for _ in range(nrows)
        ]
        kept = independent_rows(rows)
        assert kept == sorted(set(kept))
        assert dense_rank([rows[i] for i in kept], ncols) == len(kept)
        for k in range(nrows + 1):
            # greedy in input order: a prefix keeps exactly its rank many rows
            assert sum(i < k for i in kept) == dense_rank(rows[:k], ncols)
        assert rank(rows) == len(kept)


def test_int_rows_with_non_unit_pivots_against_dense_oracle():
    rng = random.Random(47)
    fractions_seen = 0
    for _ in range(150):
        nrows, ncols = rng.randint(1, 8), rng.randint(1, 7)
        rows = [
            {c: rng.randint(-4, 4) for c in range(ncols) if rng.random() < 0.6}
            for _ in range(nrows)
        ]
        pivots, kept = echelon(rows)
        assert len(kept) == len(pivots) == dense_rank(rows, ncols)
        values = [v for tail in pivots.values() for v in tail.values()]
        assert all(type(v) in (int, Fraction) for v in values)
        fractions_seen += any(type(v) is Fraction for v in values)
        reduced = back_substitute(pivots)
        assert reduced == dense_rref(rows, ncols)
        assert all(c not in reduced for tail in reduced.values() for c in tail)
    assert fractions_seen  # the non-unit fallback was exercised


def test_inverse_keeps_int_units():
    assert _inv(1) == 1 and type(_inv(1)) is int
    assert _inv(-1) == -1 and type(_inv(-1)) is int
    assert _inv(2) == Fraction(1, 2) and type(_inv(2)) is Fraction
    assert _inv(Fraction(-2, 3)) == Fraction(-3, 2)


# the one function per module allowed a true division: its operands are
# never both int, so `/` stays exact
_DIVISION_HELPERS = {linalg: "_inv", cyclotomic: "_div"}


def _true_divisions_and_floats(module):
    """(line, what) for every true division outside the module's division
    helper and every float literal or ``float(...)`` call in ``module``."""
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    allowed = set()
    if module in _DIVISION_HELPERS:
        name = _DIVISION_HELPERS[module]
        helper = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == name)
        allowed = {id(sub) for sub in ast.walk(helper)}
    found = []
    for node in ast.walk(tree):
        if id(node) in allowed:
            continue
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found.append((node.lineno, "true division"))
        elif isinstance(node, ast.Constant) and isinstance(node.value, float):
            found.append((node.lineno, "float literal"))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
            found.append((node.lineno, "float() call"))
    return found


def test_no_floating_point_in_exact_engines():
    # int scalars and coefficients flow through these modules, where `/`
    # would silently produce a float; inverses go through linalg._inv and
    # cyclotomic._div instead
    for module in (fk, linalg, cyclotomic):
        assert _true_divisions_and_floats(module) == [], module.__name__


def test_rank_handles_fill_in_on_new_pivot_columns():
    # elimination introduces a leading entry in a column that already has a
    # pivot; a single substitution pass would miscount
    rows = [
        {0: Fraction(1), 1: Fraction(1)},
        {1: Fraction(1), 2: Fraction(1)},
        {0: Fraction(1), 2: Fraction(-1)},
    ]
    assert rank(rows) == 2


def test_rank_with_cyclotomic_scalars():
    F = CyclotomicField(3)
    z = F.zeta()
    # z satisfies 1 + z + z^2 = 0, so the rows below are dependent
    rows = [
        {0: F.one, 1: z},
        {0: z, 1: z * z},
        {0: F.one, 1: F.one},
    ]
    assert rank(rows) == 2


def test_dense_inverse_roundtrip():
    F = CyclotomicField(4)
    i = F.zeta()
    mat = ((F.one, i), (i, F.one))  # determinant 1 - i^2 = 2
    inv = invert_dense(mat, F.one, F.zero)
    prod = mat_mul(mat, inv, F.zero)
    assert prod == identity_matrix(2, F.one, F.zero)
