"""Quadratic algebras: presentations, two dimension engines, finiteness probe."""
import dataclasses
import hashlib
import json
import random
import re
from fractions import Fraction
from itertools import combinations, permutations, product

import pytest

from weylrack import fk
from weylrack.errors import BudgetExceeded
from weylrack.linalg import rank


def test_lambda_pair_off_one_puts_the_product_in_the_ideal():
    # lambda_1234 * lambda_3412 = -1: the two commutation relations of x_12 and
    # x_34 (generators 0 and 5) give x_12 x_34 = x_34 x_12 = 0
    lam = {key: 1 for key in permutations(range(1, 5), 4)}
    lam[(3, 4, 1, 2)] = -1
    pres = fk.presentation(4, 1, 1, -1, lam)
    rules = fk.complete_to_degree(pres, 2).rules
    assert rules[(0, 5)] == {} and rules[(5, 0)] == {(0, 5): 1}
    for engine in ("linear", "rewrite"):
        assert fk.graded_dims(pres, 8, engine) == [1, 6, 18, 34, 35, 12]  # E_4: 19 in degree 2


def test_presentations_need_rank_two():
    for build in (fk.fk_presentation, fk.presentation):
        with pytest.raises(ValueError, match="n >= 2"):
            build(1)


def test_e2_dims():
    pres = fk.fk_presentation(2)
    for engine in ("linear", "rewrite"):
        dims = fk.graded_dims(pres, 8, engine=engine)
        assert dims == [1, 1]
        assert sum(dims) == 2


def test_e3_dims():
    pres = fk.fk_presentation(3)
    for engine in ("linear", "rewrite"):
        dims = fk.graded_dims(pres, 10, engine=engine)
        assert dims == [1, 3, 4, 3, 1]
        assert sum(dims) == 12


E4 = [1, 6, 19, 42, 71, 96, 106, 96, 71, 42, 19, 6, 1]


def test_e4_dims():
    pres = fk.fk_presentation(4)
    lin = fk.graded_dims(pres, 14, engine="linear")
    rew = fk.graded_dims(pres, 14, engine="rewrite")
    assert lin == rew == E4
    assert sum(lin) == 576


# Graña, "On Nichols algebras of low dimension": the E_5 series begins
E5_PREFIX = [1, 10, 55, 220, 711, 1960, 4761, 10410, 20796]


def test_e5_prefix():
    pres = fk.fk_presentation(5)
    assert fk.graded_dims(pres, 6, engine="linear") == E5_PREFIX[:7]
    assert fk.graded_dims(pres, 8, engine="rewrite") == E5_PREFIX


E6_PREFIX = [1, 15, 125, 765, 3831, 16605, 64432]


def test_linear_engine_reaches_e6_degree_6_under_the_default_budget():
    # the last degree builds one label block per class: 6,700 rows holding
    # 25,361 entries, where all of degree 6's rows hold 1,399,560
    assert fk.graded_dims_linear(fk.fk_presentation(6), 6) == E6_PREFIX


@pytest.mark.slow
def test_linear_engine_reaches_e5_degree_8_and_e6_degree_6():
    assert fk.graded_dims_linear(fk.fk_presentation(5), 8) == E5_PREFIX
    e6 = fk.graded_dims(fk.fk_presentation(6), 6, "rewrite")
    assert e6 == E6_PREFIX
    assert fk.graded_dims_linear(fk.fk_presentation(6), 6) == e6


def _q_integer_product(factors, max_degree):
    """Coefficients of prod [k]_t = 1 + t + ... + t^(k-1), to max_degree."""
    coeffs = [1] + [0] * max_degree
    for k in factors:
        coeffs = [sum(coeffs[m - j] for j in range(min(k, m + 1))) for m in range(max_degree + 1)]
    return coeffs


def test_e5_series_to_degree_12_on_the_rewrite_engine():
    # Hilbert series of E_5: [4]^4 [5]^2 [6]^4 (Fomin-Kirillov; Grana)
    e5 = _q_integer_product([4] * 4 + [5] * 2 + [6] * 4, 12)
    assert e5[:9] == E5_PREFIX
    assert fk.graded_dims(fk.fk_presentation(5), 12, engine="rewrite") == e5


@pytest.mark.slow
def test_e5_whole_series_from_a_confluent_system():
    # the longest lhs has length 16, so completing to 2 * 16 - 1 = 31 resolves
    # every overlap: the system is confluent and its irreducible words are a
    # basis of E_5 in every degree
    system = fk.complete_to_degree(fk.fk_presentation(5), 31)
    assert system.confluent
    assert len(system.rules) == 237
    assert system.pairs == 11_867
    counts = system.irreducible_counts(41)
    assert counts == _q_integer_product([4] * 4 + [5] * 2 + [6] * 4, 41)
    assert sum(counts) == 8_294_400
    assert max(m for m, c in enumerate(counts) if c) == 40


def _ambiguity_count(words, max_degree):
    """(left, right, position) overlaps and inclusions of degree <= max_degree."""
    total = 0
    for la in words:
        for lb in words:
            for k in range(1, min(len(la), len(lb))):
                if la[-k:] == lb[:k] and len(la) + len(lb) - k <= max_degree:
                    total += 1
            if len(lb) < len(la):
                total += sum(
                    la[pos : pos + len(lb)] == lb for pos in range(len(la) - len(lb) + 1)
                )
    return total


@pytest.mark.parametrize("n, max_degree", [(4, 14), (5, 8)])
def test_each_critical_pair_is_resolved_at_most_once(n, max_degree):
    system = fk.complete_to_degree(fk.fk_presentation(n), max_degree)
    assert 0 < system.pairs == _ambiguity_count(list(system.rules), max_degree)


def _rules_digest(rules) -> str:
    """sha256 of every lhs and its rhs terms, in the system's own order."""
    h = hashlib.sha256()
    for lhs, rhs in rules.items():
        h.update(repr((lhs, list(rhs.items()))).encode())
    return h.hexdigest()


@pytest.mark.parametrize(
    "n, max_degree, digest, pairs, twist",
    [
        (4, 14, "e549f3d27354263acc409daad4c0dfab708646ea1fc0f51a9f49a4e5b0145a44", 108, None),
        (5, 10, "ebfbd923b8756cde00b24a2db31e5b8b947654caca2c73290880957bbe2472f9", 1953, None),
        (5, 10, "6b4857fd8ac8e7caca4180bdb91ce567aaa261ced35c686f6e89a7029f3f6069", 1953, 71),
        (5, 12, "f2c0ede186fa38820bbf7a497ac1fbfd17b417427aba523405d142bbd9d5b4a9", 3633, None),
    ],
)
def test_completion_rules_are_pinned(n, max_degree, digest, pairs, twist):
    # the rules, their order, each rhs in order and the pairs resolved, as the
    # tuple-word engine built them (E_n) and as the probing matcher built them
    # (the gauge twist seeded by ``twist``, the shape the fk benchmark runs);
    # the word encoding, the overlap index and the matcher must not move them
    pres = fk.fk_presentation(n) if twist is None else _gauge_twist(n, random.Random(twist))
    system = fk.complete_to_degree(pres, max_degree)
    assert _rules_digest(system.rules) == digest
    assert system.pairs == pairs


class _Matched(Exception):
    """Raised by a probe rhs when :func:`fk._reduce` applies its rule."""


class _Probe(int):
    """A rhs difference that stops :func:`fk._reduce` at its first rewrite and
    reports the rule and the shift it is applied at."""

    def __new__(cls, rule):
        probe = super().__new__(cls, 0)
        probe.rule = rule
        return probe

    def __lshift__(self, shift):
        raise _Matched(self.rule, shift)


def _first_match(word, length, matcher, whole, b):
    """(rule, letters after it) of the first rewrite of ``word``, or None."""
    try:
        fk._reduce({fk._encode(word, b): 1}, length, matcher, whole, b)
    except _Matched as hit:
        rule, shift = hit.args
        return rule, shift // b
    return None


def _probed_match(word, index):
    """The reference: every lhs length ascending, then every position left to
    right, by plain slicing; ``index`` maps a tuple lhs to its rule number."""
    for L in sorted({len(w) for w in index}):
        for p in range(len(word) - L + 1):
            rule = index.get(word[p : p + L])
            if rule is not None:
                return rule, len(word) - p - L
    return None


def _phase_words(rng, lhs, m, G):
    """Words of length m: seeded ones, every lhs of length m, and, where it
    fits, each lhs u with |u| > 2 followed by a two-letter lhs, so the walk
    meets a longer hit before the shortest, and by an lhs of u's length, so
    two hits of one length meet; random letters pad them to length m."""
    by_length: dict = {}
    for w in lhs:
        by_length.setdefault(len(w), []).append(w)
    words = [tuple(rng.randrange(G) for _ in range(m)) for _ in range(150)]
    words += by_length.get(m, [])
    for w in lhs:
        for L in {2, len(w)}:
            if 2 < len(w) <= m - L:
                pad = tuple(rng.randrange(G) for _ in range(m - len(w) - L))
                words.append(w + rng.choice(by_length[L]) + pad)
    return words


def test_automaton_match_is_the_shortest_then_leftmost_lhs():
    rng = random.Random(89)
    cases = [
        (fk.fk_presentation(4), 14),
        (fk.fk_presentation(5), 10),
        (_gauge_twist(5, random.Random(97)), 10),
    ]
    kinds = dict.fromkeys(
        ("early stop", "whole word", "irreducible", "longer first", "leftmost of two"), 0
    )
    for pres, max_degree in cases:
        G = pres.num_gens
        b = max(1, (G - 1).bit_length())
        lhs = list(fk.complete_to_degree(pres, max_degree).rules)
        for m in range(2, max_degree + 1):
            # the rules a phase of length m matches: shorter ones through the
            # automaton, those of length m whole
            shorter = [k for k, w in enumerate(lhs) if len(w) < m]
            matcher = fk._matcher(
                [fk._encode(lhs[k], b) for k in shorter],
                [len(lhs[k]) for k in shorter],
                [[(_Probe(k), 1)] for k in shorter],
                G,
                b,
            )
            whole = {fk._encode(w, b): [(_Probe(k), 1)] for k, w in enumerate(lhs) if len(w) == m}
            index = {w: k for k, w in enumerate(lhs) if len(w) <= m}
            for word in _phase_words(rng, lhs, m, G):
                expected = _probed_match(word, index)
                assert _first_match(word, m, matcher, whole, b) == expected, (word, m)
                if expected is None:
                    kinds["irreducible"] += 1
                    continue
                L, end = len(lhs[expected[0]]), m - expected[1]
                kinds["whole word"] += L == m
                kinds["early stop"] += L == 2 and end < m
                # a longer lhs ends before the match does, so the walk hits it first
                kinds["longer first"] += any(
                    word[e - L2 : e] in index for e in range(end) for L2 in range(L + 1, e + 1)
                )
                kinds["leftmost of two"] += L > 2 and any(
                    word[e - L : e] in index for e in range(end + 1, m + 1)
                )
    assert all(kinds.values()), kinds


def _avoiding_counts(num_gens, lhs, max_degree):
    """Words of each length 0..max_degree with no lhs as a subword, by listing
    every word (oracle for RewriteSystem.irreducible_counts)."""
    lhs = set(lhs)
    return [
        sum(
            not any(w[p : p + L] in lhs for L in range(1, m + 1) for p in range(m - L + 1))
            for w in product(range(num_gens), repeat=m)
        )
        for m in range(max_degree + 1)
    ]


def test_irreducible_counts_match_brute_force():
    rng = random.Random(101)
    for n, completed, max_degree in ((3, 7, 7), (4, 5, 5), (4, 3, 5)):
        for pres in (fk.fk_presentation(n), _gauge_twist(n, rng)):
            system = fk.complete_to_degree(pres, completed)
            expected = _avoiding_counts(pres.num_gens, system.rules, max_degree)
            assert system.irreducible_counts(max_degree) == expected
    for G in (1, 2, 3, 5):
        empty = fk.RewriteSystem(G, {}, 0, True)
        assert empty.irreducible_counts(6) == [G**m for m in range(7)]
    # hand-built left-hand sides that nest: (1,) inside (0, 1, 2), (2, 0) a
    # suffix of (1, 2, 0) and a prefix of (2, 0, 1)
    lhs = [(0, 1, 2), (1, 2, 0), (2, 0, 1), (1,), (2, 0), (0, 0, 0)]
    nested = fk.RewriteSystem(3, dict.fromkeys(lhs, {}), 0, False)
    assert nested.irreducible_counts(7) == _avoiding_counts(3, lhs, 7)


@pytest.mark.parametrize("word", [(0,), (0, 1, 1), (0, 2), (-1, 0)])
def test_relation_words_must_be_generator_pairs(word):
    with pytest.raises(ValueError, match=re.escape(f"relation word {word!r} is not a pair")):
        fk.QuadraticPresentation(2, [{(0, 0): 1}, {word: 1, (1, 0): 1}])


def test_rewrite_rule_budget(monkeypatch):
    monkeypatch.setattr(fk, "RULE_BUDGET", 10)
    with pytest.raises(BudgetExceeded, match="rewrite rules") as info:
        fk.complete_to_degree(fk.fk_presentation(4), 14)
    assert info.value.limit == 10


def _gauge_twist(n, rng):
    """The gauge twist of E_n by seeded signs eps_ij = eps_ji on pairs, which is
    isomorphic to E_n: alpha(i,j,k) = eps_ki eps_ij, beta(i,j,k) = eps_ki eps_jk."""
    eps = {}
    for i, j in combinations(range(1, n + 1), 2):
        eps[(i, j)] = eps[(j, i)] = rng.choice([1, -1])
    triples = list(permutations(range(1, n + 1), 3))
    alpha = {(i, j, k): eps[(k, i)] * eps[(i, j)] for i, j, k in triples}
    beta = {(i, j, k): eps[(k, i)] * eps[(j, k)] for i, j, k in triples}
    return fk.presentation(n, alpha, beta, -1, 1)


def _exact(value) -> bool:
    return type(value) in (int, Fraction)


def test_non_unit_leads_fall_back_to_fraction(monkeypatch):
    # x0^2 = x1^2 = 0 and 2 x0x1 = 3 x1x0: the lead is 2 x0x1 under the linear
    # pivot order (least column) and -3 x1x0 under the rewrite order
    pres = fk.QuadraticPresentation(2, [{(0, 0): 1}, {(1, 1): 1}, {(0, 1): 2, (1, 0): -3}])
    pivots = []
    echelon = fk.echelon

    def recording_echelon(rows):
        result = echelon(rows)
        pivots.append(result)
        return result

    monkeypatch.setattr(fk, "echelon", recording_echelon)
    assert fk.graded_dims(pres, 6, engine="linear") == [1, 2, 1]
    coeffs = [v for piv in pivots for tail in piv.values() for v in tail.values()]
    assert Fraction(-3, 2) in coeffs
    assert all(map(_exact, coeffs))

    assert fk.graded_dims(pres, 6, engine="rewrite") == [1, 2, 1]
    rules = fk.complete_to_degree(pres, 6).rules
    assert rules[(1, 0)] == {(0, 1): Fraction(2, 3)}
    assert all(_exact(c) for rhs in rules.values() for c in rhs.values())


def test_unit_relations_stay_int():
    # the E_n relations have +-1 coefficients, so both engines reduce them in
    # int arithmetic; a Fraction here would mean a lost unit pivot
    pres = fk.fk_presentation(4)
    assert all(type(c) is int for rel in pres.relations for c in rel.values())
    rules = fk.complete_to_degree(pres, 8).rules
    assert all(type(c) is int for rhs in rules.values() for c in rhs.values())


def test_linear_engine_stays_int_on_e_n(monkeypatch):
    # sorted sparsest first, the E_n relation rows meet only +-1 pivots; in
    # build order E_4 meets non-unit pivots at degrees 7-10 and E_5 at degree 6
    results = []
    echelon = fk.echelon

    def recording_echelon(rows):
        result = echelon(rows)
        results.append(result)
        return result

    monkeypatch.setattr(fk, "echelon", recording_echelon)
    rng = random.Random(19)
    for n, max_degree, expected in ((4, 14, E4), (5, 6, E5_PREFIX[:7])):
        for pres in (fk.fk_presentation(n), _gauge_twist(n, rng)):
            results.clear()
            assert fk.graded_dims_linear(pres, max_degree) == expected
            assert all(
                type(v) is int for piv in results for tail in piv.values() for v in tail.values()
            )


def test_integral_rule_coefficients_are_int():
    # gamma_ij = (-1)^(i+j) gives rules with non-unit leads whose quotients are
    # integral: -2 * (1/2) must come out as the int -1, not Fraction(-1, 1)
    gamma = {(i, j): (-1) ** (i + j) for i in range(1, 5) for j in range(i + 1, 5)}
    pres = fk.presentation(4, 1, -1, gamma)
    system = fk.complete_to_degree(pres, 6)
    coeffs = [c for rhs in system.rules.values() for c in rhs.values()]
    assert len(coeffs) == 23
    assert all(type(c) is int for c in coeffs)
    assert fk.graded_dims(pres, 6, engine="rewrite") == [1, 6, 3]
    assert fk.graded_dims(pres, 6, engine="linear") == [1, 6, 3]


def test_linear_entry_budget_names_degree():
    # E_4 relation rows hold 36, 228 and 756 entries at degrees 2, 3 and 4
    pres = fk.fk_presentation(4)
    with pytest.raises(BudgetExceeded, match="degree-4 fk relation entries") as info:
        fk.graded_dims_linear(pres, 6, entry_budget=500)
    assert info.value.limit == 500 and info.value.dims == [1, 6, 19, 42]
    assert fk.graded_dims_linear(pres, 3, entry_budget=500) == [1, 6, 19, 42]


def ordered_form_relations(n) -> list:
    """Relations of E_n's i<j presentation, over the canonical generators of
    :func:`fk.presentation` (oracle)."""
    gens = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    index = {p: k for k, p in enumerate(gens)}
    rels = []
    for k in range(len(gens)):
        rels.append({(k, k): 1})
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            for k in range(j + 1, n + 1):
                ij, jk, ik = index[(i, j)], index[(j, k)], index[(i, k)]
                rels.append({(ij, jk): 1, (jk, ik): -1, (ik, ij): -1})
                rels.append({(jk, ij): 1, (ik, jk): -1, (ij, ik): -1})
    for (i, j) in gens:
        for (k, l) in gens:
            if len({i, j, k, l}) == 4 and (i, j) < (k, l):
                a, b = index[(i, j)], index[(k, l)]
                rels.append({(a, b): 1, (b, a): -1})
    return rels


def ideal_slices_equal(rels_a, rels_b, num_gens: int, max_degree: int) -> bool:
    """Do two quadratic relation sets span the same ideal slice per degree?"""
    for m in range(2, max_degree + 1):
        ra = _ideal_slice_rows(rels_a, num_gens, m)
        rb = _ideal_slice_rows(rels_b, num_gens, m)
        r1, r2 = rank(ra), rank(rb)
        if r1 != r2 or rank(ra + rb) != r1:
            return False
    return True


def _ideal_slice_rows(relations, num_gens: int, m: int) -> list:
    rows = []
    for pre in range(m - 1):
        post = m - 2 - pre
        for u in product(range(num_gens), repeat=pre):
            for v in product(range(num_gens), repeat=post):
                for rel in relations:
                    rows.append({u + w + v: c for w, c in rel.items()})
    return rows


def test_ordered_form_generates_same_ideal():
    for n in (3, 4):
        pres = fk.fk_presentation(n)
        ordered = ordered_form_relations(n)
        assert ideal_slices_equal(pres.relations, ordered, pres.num_gens, 4)


def _preserves_relations(pres, action) -> bool:
    """Does each (t, signs) of ``action``, x_g -> signs[g] x_g' with
    (i, j) -> (t(i), t(j)) on pairs, map the span of the relations into
    itself? (oracle for fk._symmetry, by rank)"""
    index = {p: g for g, p in enumerate(pres.pairs)}
    for t, signs in action:
        image = [index[tuple(sorted((t[i - 1] + 1, t[j - 1] + 1)))] for i, j in pres.pairs]
        moved = [
            {(image[g1], image[g2]): signs[g1] * signs[g2] * c for (g1, g2), c in rel.items()}
            for rel in pres.relations
        ]
        if rank(pres.relations + moved) != rank(pres.relations):
            return False
    return True


@pytest.mark.parametrize("n, top", [(3, 5), (4, 13), (5, 5)])
def test_class_path_agrees_with_one_block_and_the_rewrite_engine(n, top):
    # every degree d <= top is once the last degree, where the class path runs
    rng = random.Random(61 + n)
    for pres in (fk.fk_presentation(n), _gauge_twist(n, rng), _gauge_twist(n, rng)):
        action = fk._symmetry(pres)
        assert action is not None and len(action) == n - 1
        assert _preserves_relations(pres, action)
        one_block = dataclasses.replace(pres, pairs=None)
        assert fk._symmetry(one_block) is None
        dims = fk.graded_dims(pres, top, "rewrite")
        assert fk.graded_dims_linear(one_block, top) == dims
        for d in range(2, top + 1):
            assert fk.graded_dims_linear(pres, d) == dims[: d + 1]


def test_every_e_n_and_gauge_twist_has_the_action():
    rng = random.Random(67)
    for n in range(2, 7):
        assert fk._symmetry(fk.fk_presentation(n)) is not None
        for _ in range(5):
            assert fk._symmetry(_gauge_twist(n, rng)) is not None


def test_refused_symmetry_runs_one_block():
    # random alpha/beta at n = 4: the rotations of a triple relation are not
    # proportional, so two relations share their words
    rng = random.Random(0)
    triples = list(permutations(range(1, 5), 3))
    alpha = {t: rng.choice([1, -1]) for t in triples}
    beta = {t: rng.choice([1, -1]) for t in triples}
    pres = fk.presentation(4, alpha, beta, -1, 1)
    assert fk._symmetry(pres) is None
    assert fk.graded_dims_linear(pres, 8) == fk.graded_dims(pres, 8, "rewrite") == [1, 6, 10, 3]
    # x_12 and x_34 anticommute and every other disjoint pair commutes: each
    # relation is homogeneous and alone on its words, but the signs for
    # t = (2 3) would need s_12 s_34 s_34 s_12 = -1
    pair = {frozenset((1, 2)), frozenset((3, 4))}
    lam = {k: -1 if {frozenset(k[:2]), frozenset(k[2:])} == pair else 1
           for k in permutations(range(1, 5), 4)}
    pres = fk.presentation(4, 1, 1, -1, lam)
    assert fk._symmetry(pres) is None
    assert fk.graded_dims_linear(pres, 14) == fk.graded_dims(pres, 14, "rewrite")
    assert fk.graded_dims_linear(pres, 14) == [1, 6, 19, 38, 37, 12]


def test_word_sets_in_the_ideal_keep_the_action():
    # lambda_ijkl = -1 exactly when min(i, j) < min(k, l), so lambda_ijkl
    # lambda_klij = -1: the two commutation relations of each disjoint pair
    # span both of its words, which lie in the ideal, and add no sign equation
    lam = {k: -1 if min(k[:2]) < min(k[2:]) else 1 for k in permutations(range(1, 5), 4)}
    pres = fk.presentation(4, 1, 1, -1, lam)
    action = fk._symmetry(pres)
    assert action is not None and len(action) == 3
    assert _preserves_relations(pres, action)
    one_block = dataclasses.replace(pres, pairs=None)
    for top in range(3, 7):
        dims = [1, 6, 16, 18] if top == 3 else [1, 6, 16, 18, 7]
        assert fk.graded_dims_linear(pres, top) == dims
        assert fk.graded_dims_linear(one_block, top) == dims
        assert fk.graded_dims(pres, top, "rewrite") == dims


@pytest.mark.parametrize(
    "relations",
    [
        # x_12 x_13 has label (1 2)(1 3), x_13 x_12 its inverse (1 3)(1 2);
        # the anticommutators of every pair are closed under relabelling
        [{(a, b): 1, (b, a): 1} for a, b in combinations(range(3), 2)],
        # t = (1 2) maps the first relation onto the words of the second, but
        # with coefficient ratios -1, 1 and 1/2: no signs make it a multiple
        [{(0, 2): 1, (2, 1): 1, (1, 0): 2}, {(2, 0): 1, (1, 2): 1, (0, 1): -1}],
    ],
    ids=["non-homogeneous", "ratio-not-a-sign"],
)
def test_hand_built_presentations_without_the_action(relations):
    squares = [{(g, g): 1} for g in range(3)]
    pres = fk.QuadraticPresentation(3, squares + relations, "", ((1, 2), (1, 3), (2, 3)))
    assert fk._symmetry(pres) is None
    dims = fk.graded_dims(pres, 8, "rewrite")
    for d in range(2, len(dims) + 1):
        assert fk.graded_dims_linear(pres, d) == dims[: d + 1]


def test_zero_coefficients_are_not_words():
    # a word of coefficient 0, put first in a triple relation of E_3 with a
    # label the relation's other words lack, changes neither the action nor
    # the block the relation's rows are built in
    pres = fk.fk_presentation(3)
    rels = [dict(rel) for rel in pres.relations]
    k = next(k for k, rel in enumerate(rels) if len(rel) == 3)
    g1, g2 = next(iter(rels[k]))
    rels[k] = {(g2, g1): 0, **rels[k]}
    padded = fk.QuadraticPresentation(3, rels, "", pres.pairs)
    action = fk._symmetry(padded)
    assert action is not None and _preserves_relations(padded, action)
    for d in range(2, 6):
        assert fk.graded_dims_linear(padded, d) == [1, 3, 4, 3, 1][: d + 1]


def test_gf2_solve():
    assert fk._solve_gf2([(0b011, 1), (0b110, 1), (0b010, 0)]) == 0b101
    assert fk._solve_gf2([(0b011, 1), (0b110, 1), (0b101, 1)]) is None
    assert fk._solve_gf2([(0, 1)]) is None


@pytest.mark.parametrize(
    "pairs, message",
    [
        (((1, 2), (1, 3)), "2 generator pairs for 3 generators"),
        (((1, 2), (2, 2), (2, 3)), "generator pair (2, 2) is not (i, j) with 1 <= i < j"),
        (((1, 2), (3, 1), (2, 3)), "generator pair (3, 1) is not (i, j) with 1 <= i < j"),
        (((0, 1), (1, 2), (0, 2)), "generator pair (0, 1) is not (i, j) with 1 <= i < j"),
        (((1, 2), (1, 3), (1, 2)), "a generator pair is repeated"),
    ],
)
def test_malformed_pairs_are_refused(pairs, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        fk.QuadraticPresentation(3, [{(0, 0): 1}], "", pairs)


def test_engines_agree_on_random_sign_twists():
    rng = random.Random(43)
    triples = list(permutations(range(1, 4), 3))
    for _ in range(5):
        alpha = {t: rng.choice([1, -1]) for t in triples}
        beta = {t: rng.choice([1, -1]) for t in triples}
        gamma = {(i, j): rng.choice([1, -1]) for i in range(1, 4) for j in range(i + 1, 4)}
        pres = fk.presentation(3, alpha, beta, gamma, 1)
        lin = fk.graded_dims(pres, 8, engine="linear")
        rew = fk.graded_dims(pres, 8, engine="rewrite")
        assert lin == rew
    for _ in range(3):
        pres = _gauge_twist(4, rng)
        assert fk.graded_dims(pres, 14, engine="linear") == E4
        assert fk.graded_dims(pres, 14, engine="rewrite") == E4


def test_finiteness_probe_statuses():
    finite = fk.probe(fk.graded_dims(fk.fk_presentation(3), 10), 10)
    assert finite == {"status": "VanishesAtDegree", "degree": 5, "dims": [1, 3, 4, 3, 1]}
    # truncating before the dimensions vanish leaves the question open
    open_probe = fk.probe(fk.graded_dims(fk.fk_presentation(3), 3), 3)
    assert open_probe == {"status": "StillGrowing", "degree": None, "dims": [1, 3, 4, 3]}


def test_probe_json_roundtrip():
    data = fk.probe(fk.graded_dims(fk.fk_presentation(3), 10), 10)
    assert json.loads(json.dumps(data)) == data
    assert data["status"] == "VanishesAtDegree"
    assert data["dims"] == [1, 3, 4, 3, 1]


def test_rewrite_system_normal_forms_count():
    pres = fk.fk_presentation(3)
    rs = fk.complete_to_degree(pres, 10)
    counts = rs.irreducible_counts(10)
    assert counts[:5] == [1, 3, 4, 3, 1]
    assert all(c == 0 for c in counts[5:])
