"""Library-independent references for the benchmark's output checks.

Nothing here imports weylrack.  Signed permutations are modelled as monomial
matrices: an element of rank n is a tuple ``m`` of signed 1-based images,
``m[j] = s * (t + 1)`` meaning the basis vector e_j maps to s * e_t.  The
library's ``(bits, perm)`` pair is the matrix diag((-1)^bits) . P_perm, so
``e_j -> (-1)^(bit perm[j]) e_perm[j]``.
"""
from __future__ import annotations

import math
from collections import Counter


# -- monomial-matrix model of W(B_n) ----------------------------------------


def from_raw(bits: int, perm: tuple[int, ...]) -> tuple[int, ...]:
    return tuple((t + 1) * (-1 if (bits >> t) & 1 else 1) for t in perm)


def to_raw(m: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    perm = tuple(abs(v) - 1 for v in m)
    bits = 0
    for v in m:
        if v < 0:
            bits |= 1 << (-v - 1)
    return bits, perm


def compose(x, y):
    """The matrix product x . y: first y, then x."""
    return tuple(x[v - 1] if v > 0 else -x[-v - 1] for v in y)


def invert(x):
    out = [0] * len(x)
    for j, v in enumerate(x, 1):
        out[abs(v) - 1] = j if v > 0 else -j
    return tuple(out)


def conj(by, x):
    """by |> x = by x by^-1."""
    return compose(by, compose(x, invert(by)))


def square_map(x, y):
    """sq(x, y) = x |> (y |> (x |> y))."""
    return conj(x, conj(y, conj(x, y)))


def cycles(m) -> list[list[int]]:
    """Cycles (0-based points, fixed points included) of the permutation part."""
    seen, out = set(), []
    for i in range(len(m)):
        if i in seen:
            continue
        cyc, j = [], i
        while j not in seen:
            seen.add(j)
            cyc.append(j)
            j = abs(m[j]) - 1
        out.append(cyc)
    return out


def signed_cycle_type(m) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(positive lengths, negative lengths): a cycle's sign is the product of
    the matrix signs along it, a conjugacy invariant in W(B_n)."""
    pos, neg = [], []
    for cyc in cycles(m):
        negative = sum(1 for j in cyc if m[j] < 0) % 2
        (neg if negative else pos).append(len(cyc))
    return tuple(sorted(pos)), tuple(sorted(neg))


# -- conjugacy classes of W(B_n) and W(D_n) from bipartitions ----------------


def partitions(n: int, largest: int | None = None):
    if largest is None:
        largest = n
    if n == 0:
        yield ()
        return
    for k in range(min(n, largest), 0, -1):
        for rest in partitions(n - k, k):
            yield (k,) + rest


def element_of_type(pos, neg):
    """An element with the given signed cycle type: consecutive cycles, one
    sign on the first point of each negative cycle."""
    m, start = [], 0
    for length, negative in [(k, False) for k in pos] + [(k, True) for k in neg]:
        for i in range(length):
            image = start + (i + 1) % length + 1
            m.append(-image if negative and i == length - 1 else image)
        start += length
    return tuple(m)


def _centralizer_order_b(pos, neg) -> int:
    order = 1
    for lengths in (pos, neg):
        for k, mult in Counter(lengths).items():
            order *= (2 * k) ** mult * math.factorial(mult)
    return order


def group_order(kind: str, n: int) -> int:
    full = 2**n * math.factorial(n)
    return full if kind == "B" else full // 2


def class_reps(kind: str, n: int) -> list[tuple[tuple[int, ...], int]]:
    """(representative, class size) for every class of W(B_n) or W(D_n).

    A B-class lies in D when it has an even number of negative cycles; it
    splits into two D-classes when it has no negative cycle and only
    even-length cycles, the second half being its conjugate by a sign flip.
    """
    out = []
    for k in range(n + 1):
        for pos in partitions(k):
            for neg in partitions(n - k):
                rep = element_of_type(pos, neg)
                size = group_order("B", n) // _centralizer_order_b(pos, neg)
                if kind == "B":
                    out.append((rep, size))
                elif len(neg) % 2 == 0:
                    if not neg and all(c % 2 == 0 for c in pos):
                        flip = tuple(-1 if j == 0 else j + 1 for j in range(n))
                        out.append((rep, size // 2))
                        out.append((conj(flip, rep), size // 2))
                    else:
                        out.append((rep, size))
    return out


def exception_case(m) -> str | None:
    """The exception list of the type-D classification, read off the cycle
    type of the permutation part and the signs on its fixed points."""
    n = len(m)
    lengths = [len(c) for c in cycles(m)]
    nontrivial = tuple(sorted(k for k in lengths if k > 1))
    ones = lengths.count(1)
    table = {
        ((2, 3), 0): "i",
        ((2, 2, 2), 0): "i",
        ((2, 2, 2, 2), 0): "ii",
        ((2, 2), 1): "ii",
        ((3,), 2): "ii",
        ((2, 2), 2): "ii",
    }
    if (nontrivial, ones) in table:
        return table[(nontrivial, ones)]
    constant = len({m[j] < 0 for j in range(n) if abs(m[j]) - 1 == j}) <= 1
    if nontrivial == (2,) and ones == n - 2 and constant:
        return "iii"
    if nontrivial == (3,) and ones == n - 3 and n > 5 and constant:
        return "iii"
    return None


# -- graded dimensions from q-integer products ------------------------------


def q_product(factors: dict[int, int], max_degree: int) -> list[int]:
    """Coefficients of prod_k [k]_t^e_k, [k]_t = 1 + t + ... + t^(k-1),
    truncated after ``max_degree`` and after the last nonzero term."""
    poly = [1]
    for k, e in factors.items():
        for _ in range(e):
            out = [0] * (len(poly) + k - 1)
            for i, c in enumerate(poly):
                for j in range(k):
                    out[i + j] += c
            poly = out
    return poly[: max_degree + 1]


def e4_series(max_degree: int) -> list[int]:
    """E_4 (and the S_4-transposition Nichols algebra): [2]^2 [3]^2 [4]^2."""
    return q_product({2: 2, 3: 2, 4: 2}, max_degree)


def e5_series(max_degree: int) -> list[int]:
    """E_5, Fomin-Kirillov: [4]^4 [5]^2 [6]^4."""
    return q_product({4: 4, 5: 2, 6: 4}, max_degree)
