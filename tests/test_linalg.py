"""Sparse exact rank and small dense helpers."""
import random
from fractions import Fraction

from weylrack.cyclotomic import CyclotomicField
from weylrack.linalg import identity_matrix, independent_rows, invert_dense, mat_mul, rank


def dense_rank(rows, ncols):
    """Plain dense Gaussian elimination over Fraction (oracle)."""
    mat = [[Fraction(r.get(c, 0)) for c in range(ncols)] for r in rows]
    rk = 0
    for col in range(ncols):
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
        rk += 1
    return rk


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
