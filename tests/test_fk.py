"""Quadratic algebras: presentations, two dimension engines, finiteness probe."""
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


@pytest.mark.slow
def test_linear_engine_reaches_e5_degree_8_and_e6_degree_6():
    # both degrees exceed the default entry budget; each takes about 6 s
    e5 = fk.graded_dims_linear(fk.fk_presentation(5), 8, entry_budget=2_000_000)
    assert e5 == E5_PREFIX
    e6 = fk.graded_dims(fk.fk_presentation(6), 6, "rewrite")
    assert e6 == [1, 15, 125, 765, 3831, 16605, 64432]
    assert fk.graded_dims_linear(fk.fk_presentation(6), 6, entry_budget=2_000_000) == e6


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
    "n, max_degree, digest",
    [
        (4, 14, "e549f3d27354263acc409daad4c0dfab708646ea1fc0f51a9f49a4e5b0145a44"),
        (5, 10, "ebfbd923b8756cde00b24a2db31e5b8b947654caca2c73290880957bbe2472f9"),
    ],
)
def test_completion_rules_are_pinned(n, max_degree, digest):
    # the rules, their order and each rhs in order, as the tuple-word engine
    # built them; the word encoding and the overlap index must not move them
    system = fk.complete_to_degree(fk.fk_presentation(n), max_degree)
    assert _rules_digest(system.rules) == digest


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
