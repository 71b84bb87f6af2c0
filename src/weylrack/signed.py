"""Exact arithmetic in Z_2^n |x S_n and its even-sign and zero-sign subgroups.

Elements are pairs (a, pi): a sign vector in Z_2^n (stored packed, bit i-1 is
the sign at position i) and a permutation of {1..n} (stored in one-line image
form, 0-indexed internally).  Cycle notation appears only at the text boundary.
"""
from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

MAX_RANK = 64
# permutations whose cycle structure is remembered, and signed shapes (cycle
# sizes and negative cycles) whose signed cycle type is; most lookups come from
# class_key in the membership tests over witness fibers, where few distinct
# permutations recur (a B8 classification suite: 19,233 hits, 393 misses)
CYCLE_MEMO = 4096


class GroupKind(Enum):
    """Which subgroup of Z_2^n |x S_n an element is taken in.

    B: the full group (hyperoctahedral); D: even bit sum; S: zero bits
    (the symmetric subgroup, used for lifting arguments).
    """

    B = "B"
    D = "D"
    S = "S"


@dataclass(frozen=True)
class SignedCycleType:
    """Cycle lengths of the permutation part split by cycle sign.

    The sign of a cycle is the parity of the sign bits over its support;
    conjugate elements of the full group have equal signed cycle type.
    """

    positive: tuple[int, ...]
    negative: tuple[int, ...]

    def __str__(self) -> str:
        pos = ",".join(map(str, self.positive)) or "-"
        neg = ",".join(map(str, self.negative)) or "-"
        return f"+[{pos}] -[{neg}]"


def _compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    # (p o q)(i) = p(q(i))
    return tuple([p[j] for j in q])


def _invert_perm(p: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(p)
    for i, j in enumerate(p):
        inv[j] = i
    return tuple(inv)


# the set-bit positions of each byte value, lowest first
_SET_BITS = tuple(tuple(i for i in range(8) if v >> i & 1) for v in range(256))


def _act(p: tuple[int, ...], bits: int) -> int:
    # (p . a)_{p(i)} = a_i, i.e. position i of the result carries a_{p^-1(i)};
    # only the set bits move, read a byte at a time through _SET_BITS, and
    # bits below 256 (every sign vector up to rank 8) in one lookup
    out = 0
    if bits < 256:
        for i in _SET_BITS[bits]:
            out |= 1 << p[i]
        return out
    base = 0
    while bits:
        for i in _SET_BITS[bits & 255]:
            out |= 1 << p[base + i]
        bits >>= 8
        base += 8
    return out


@dataclass(frozen=True, slots=True)
class SignedPermutation:
    """An element (a, pi) of Z_2^n |x S_n; immutable, usable as a dict key."""

    n: int
    bits: int
    perm: tuple[int, ...]

    def __post_init__(self):
        # validates input from callers; group operations build their already
        # valid results through _trusted and skip this
        if not (0 < self.n <= MAX_RANK):
            raise ValueError(f"rank must be in 1..{MAX_RANK}, got {self.n}")
        if self.bits >> self.n:
            raise ValueError("sign bits exceed rank")
        if len(self.perm) != self.n or sorted(self.perm) != list(range(self.n)):
            raise ValueError("perm is not a permutation of 0..n-1")

    # -- structure ---------------------------------------------------------
    @property
    def a(self) -> tuple[int, ...]:
        """Sign vector as a tuple (a_1, ..., a_n)."""
        return tuple((self.bits >> i) & 1 for i in range(self.n))

    @property
    def pi(self) -> tuple[int, ...]:
        """One-line form with 1-indexed images: pi[i-1] = pi(i)."""
        return tuple(j + 1 for j in self.perm)

    def key(self) -> tuple[int, tuple[int, ...]]:
        return (self.bits, self.perm)

    # -- group operations --------------------------------------------------
    def __mul__(self, other: "SignedPermutation") -> "SignedPermutation":
        return multiply(self, other)

    def inverse(self) -> "SignedPermutation":
        ip = _invert_perm(self.perm)
        return _trusted(self.n, _act(ip, self.bits), ip)

    def order(self) -> int:
        k, y = 1, self
        e = identity(self.n)
        while y != e:
            y = multiply(y, self)
            k += 1
        return k

    def is_identity(self) -> bool:
        return self.bits == 0 and self.perm == tuple(range(self.n))

    # -- invariants --------------------------------------------------------
    def cycles(self) -> list[tuple[int, ...]]:
        """Cycles of the permutation part, 1-indexed, fixed points included.

        Each cycle starts at its minimum element; cycles sorted by minimum.
        """
        return list(cycle_structure(self.perm).cycles)

    def cycle_type(self) -> tuple[int, ...]:
        """Cycle lengths of the permutation part, descending, 1s included."""
        return cycle_structure(self.perm).lengths

    def signed_cycle_type(self) -> SignedCycleType:
        structure = cycle_structure(self.perm)
        return _signed_type(structure.sizes, _negative_cycles(self.bits, structure.masks))[0]

    def __str__(self) -> str:
        return format_element(self)


class CycleStructure(NamedTuple):
    """The cycles of one permutation, with their supports as bit masks."""

    cycles: tuple[tuple[int, ...], ...]  # as SignedPermutation.cycles()
    masks: tuple[int, ...]  # bit i-1 of masks[c] is set iff i lies on cycles[c]
    sizes: tuple[int, ...]  # sizes[c] = len(cycles[c])
    lengths: tuple[int, ...]  # the cycle type, descending, 1s included
    odd_places: int  # the points at places 1, 3, 5, ... of their cycles (from 0)


@functools.lru_cache(maxsize=CYCLE_MEMO)
def cycle_structure(perm: tuple[int, ...]) -> CycleStructure:
    """The cycle structure of a one-line (0-indexed) permutation, memoised
    per permutation: every element with this permutation part shares it."""
    seen = [False] * len(perm)
    cycles, masks, odd_places = [], [], 0
    for i, j in enumerate(perm):
        if seen[i]:
            continue
        seen[i] = True
        cyc, mask = [i], 1 << i
        while j != i:
            seen[j] = True
            cyc.append(j)
            mask |= 1 << j
            j = perm[j]
        for j in cyc[1::2]:
            odd_places |= 1 << j
        cycles.append(tuple([j + 1 for j in cyc]))
        masks.append(mask)
    sizes = tuple([len(c) for c in cycles])
    lengths = tuple(sorted(sizes, reverse=True))
    return CycleStructure(tuple(cycles), tuple(masks), sizes, lengths, odd_places)


def _negative_cycles(bits: int, masks: tuple[int, ...]) -> int:
    """The cycles of odd sign-bit parity: bit c is set iff ``bits`` has an odd
    number of bits on the support ``masks[c]``."""
    negative = 0
    if bits:
        for c, mask in enumerate(masks):
            if (bits & mask).bit_count() & 1:
                negative |= 1 << c
    return negative


@functools.lru_cache(maxsize=CYCLE_MEMO)
def _signed_type(sizes: tuple[int, ...], negative: int) -> tuple[SignedCycleType, bool]:
    """The signed cycle type of cycles of ``sizes`` whose negative ones are
    the set bits of ``negative``, and whether every cycle is positive and of
    even length; memoised, so every element of one signed shape shares one
    :class:`SignedCycleType`."""
    pos = sorted(k for c, k in enumerate(sizes) if not negative >> c & 1)
    neg = sorted(k for c, k in enumerate(sizes) if negative >> c & 1)
    return SignedCycleType(tuple(pos), tuple(neg)), not neg and not any(k & 1 for k in pos)


_new = object.__new__
# the slot descriptors set fields past the frozen __setattr__, as
# object.__setattr__ would, without its attribute lookup
_set_n = SignedPermutation.n.__set__
_set_bits = SignedPermutation.bits.__set__
_set_perm = SignedPermutation.perm.__set__


def _trusted(n: int, bits: int, perm: tuple[int, ...]) -> SignedPermutation:
    """Build an element whose fields are valid by construction, unchecked."""
    x = _new(SignedPermutation)
    _set_n(x, n)
    _set_bits(x, bits)
    _set_perm(x, perm)
    return x


def identity(n: int) -> SignedPermutation:
    return SignedPermutation(n, 0, tuple(range(n)))


def multiply(x: SignedPermutation, y: SignedPermutation) -> SignedPermutation:
    """(a, pi)(b, tau) = (a + pi.b, pi tau)."""
    if x.n != y.n:
        raise ValueError(f"rank mismatch: {x.n} != {y.n}")
    p = x.perm
    return _trusted(x.n, x.bits ^ _act(p, y.bits), tuple([p[j] for j in y.perm]))


def inverse(x: SignedPermutation) -> SignedPermutation:
    return x.inverse()


def _conjugation(b: int, q: tuple[int, ...], perm: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """The permutation-dependent half of (b, q) |> (bits, perm): the pair
    (q perm q^-1, b + (q perm q^-1).b).  The conjugate is then
    (q.bits + that sign term, q perm q^-1), one _act more, so a caller that
    meets one perm with many sign vectors can keep the pair."""
    # q pi q^-1 sends q(i) to q(pi(i))
    img = [0] * len(q)
    for i, j in zip(q, perm):
        img[i] = q[j]
    new_perm = tuple(img)
    return new_perm, b ^ _act(new_perm, b)


def conjugate(by: SignedPermutation, x: SignedPermutation) -> SignedPermutation:
    """by |> x = by * x * by^-1, via the closed semidirect-product formula."""
    if by.n != x.n:
        raise ValueError(f"rank mismatch: {by.n} != {x.n}")
    q = by.perm
    new_perm, term = _conjugation(by.bits, q, x.perm)
    return _trusted(x.n, _act(q, x.bits) ^ term, new_perm)


def signed_cycle_type(x: SignedPermutation) -> SignedCycleType:
    return x.signed_cycle_type()


def perm_from_cycles(n: int, cycles: list[tuple[int, ...]]) -> tuple[int, ...]:
    """One-line (0-indexed) permutation from 1-indexed cycles."""
    img = list(range(n))
    for cyc in cycles:
        for k, i in enumerate(cyc):
            if not (1 <= i <= n):
                raise ValueError(f"cycle entry {i} outside 1..{n}")
            j = cyc[(k + 1) % len(cyc)]
            img[i - 1] = j - 1
    return tuple(img)


def from_cycles(n: int, bits, cycles: list[tuple[int, ...]]) -> SignedPermutation:
    """Build an element from a sign vector (int or iterable of bits) and cycles."""
    if not isinstance(bits, int):
        vec = list(bits)
        if len(vec) != n:
            raise ValueError("sign vector length differs from rank")
        bits = sum((b & 1) << i for i, b in enumerate(vec))
    return SignedPermutation(n, bits, perm_from_cycles(n, cycles))


# -- text format -----------------------------------------------------------

_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def format_element(x: SignedPermutation) -> str:
    """Canonical "BITS:CYCLES" form, e.g. "101:(1 2 3)"; identity cycles are "()"."""
    bits = "".join(str((x.bits >> i) & 1) for i in range(x.n))
    cycs = [c for c in x.cycles() if len(c) > 1]
    if not cycs:
        return f"{bits}:()"
    return bits + ":" + "".join("(" + " ".join(map(str, c)) + ")" for c in cycs)


def parse_element(text: str) -> SignedPermutation:
    """Inverse of format_element; rank comes from the bit-string length."""
    try:
        bit_part, cyc_part = text.strip().split(":", 1)
    except ValueError:
        raise ValueError(f"malformed element {text!r}: missing ':'") from None
    if not bit_part or any(ch not in "01" for ch in bit_part):
        raise ValueError(f"malformed sign bits in {text!r}")
    n = len(bit_part)
    bits = sum(int(ch) << i for i, ch in enumerate(bit_part))
    rest = _CYCLE_RE.sub("", cyc_part)
    if rest.strip():
        raise ValueError(f"malformed cycles in {text!r}")
    cycles = []
    seen: set[int] = set()
    for grp in _CYCLE_RE.findall(cyc_part):
        entries = grp.split()
        if not entries:
            continue
        cyc = tuple(int(e) for e in entries)
        if len(set(cyc)) != len(cyc) or seen & set(cyc):
            raise ValueError(f"repeated entry in cycles of {text!r}")
        seen |= set(cyc)
        cycles.append(cyc)
    return SignedPermutation(n, bits, perm_from_cycles(n, cycles))


# -- subgroups -------------------------------------------------------------


def group_order(kind: GroupKind, n: int) -> int:
    if kind is GroupKind.B:
        return (1 << n) * math.factorial(n)
    if kind is GroupKind.D:
        return (1 << (n - 1)) * math.factorial(n)
    return math.factorial(n)


def contains(kind: GroupKind, x: SignedPermutation) -> bool:
    if kind is GroupKind.B:
        return True
    if kind is GroupKind.D:
        return x.bits.bit_count() % 2 == 0
    return x.bits == 0


def generators(kind: GroupKind, n: int) -> list[SignedPermutation]:
    """Fixed small generating set, used for deterministic conjugation BFS."""
    gens = [from_cycles(n, 0, [(i, i + 1)]) for i in range(1, n)]
    if kind is GroupKind.B:
        gens.append(SignedPermutation(n, 1, tuple(range(n))))
    elif kind is GroupKind.D:
        if n < 2:
            raise ValueError("D requires rank >= 2")
        gens.append(SignedPermutation(n, 0b11, tuple(range(n))))
    return gens


def elements(kind: GroupKind, n: int):
    """Iterate the whole group; desk scale only."""
    import itertools

    for p in itertools.permutations(range(n)):
        for bits in range(1 << n):
            x = SignedPermutation(n, bits, p)
            if contains(kind, x):
                yield x


_BIT_LENGTH = [i.bit_length() for i in range(MAX_RANK + 1)]


def random_element(rng, n: int, kind: GroupKind = GroupKind.B) -> SignedPermutation:
    if not (0 < n <= MAX_RANK):
        raise ValueError(f"rank must be in 1..{MAX_RANK}, got {n}")
    # Fisher-Yates on getrandbits, redrawn while out of range: the same draws,
    # and so the same permutation, as rng.shuffle, without its per-draw call
    # overhead
    getrandbits = rng.getrandbits
    perm = list(range(n))
    for i in range(n - 1, 0, -1):
        k = _BIT_LENGTH[i + 1]
        j = getrandbits(k)
        while j > i:
            j = getrandbits(k)
        perm[i], perm[j] = perm[j], perm[i]
    bits = getrandbits(n)
    if kind is GroupKind.D and bits.bit_count() % 2:
        bits ^= 1
    elif kind is GroupKind.S:
        bits = 0
    return _trusted(n, bits, tuple(perm))
