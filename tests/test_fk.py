"""Quadratic algebras: presentations, two dimension engines, finiteness probe."""
import random
from fractions import Fraction

import pytest

from weylrack import fk
from weylrack.errors import BudgetExceeded


def test_forced_constraints_are_reported():
    from itertools import permutations

    lam = {key: 1 for key in permutations(range(1, 5), 4)}
    lam[(3, 4, 1, 2)] = -1  # lambda_1234 * lambda_3412 != 1 forces a zero product
    pres = fk.presentation(4, 1, 1, -1, lam)
    assert pres.forced_constraints
    assert fk.presentation(4).forced_constraints == []


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


def test_e4_dims():
    pres = fk.fk_presentation(4)
    lin = fk.graded_dims(pres, 14, engine="linear")
    rew = fk.graded_dims(pres, 14, engine="rewrite")
    assert lin == rew == [1, 6, 19, 42, 71, 96, 106, 96, 71, 42, 19, 6, 1]
    assert sum(lin) == 576


def test_e5_prefix():
    # Graña, "On Nichols algebras of low dimension": the E_5 series begins
    # 1, 10, 55, 220, 711, 1960, 4761, 10410, 20796
    pres = fk.fk_presentation(5)
    e5 = [1, 10, 55, 220, 711, 1960, 4761, 10410, 20796]
    assert fk.graded_dims(pres, 6, engine="linear") == e5[:7]
    assert fk.graded_dims(pres, 8, engine="rewrite") == e5


def _exact(value) -> bool:
    return type(value) in (int, Fraction)


def test_non_unit_leads_fall_back_to_fraction(monkeypatch):
    # x0^2 = x1^2 = 0 and 2 x0x1 = 3 x1x0: the lead is 2 x0x1 under the linear
    # pivot order (least column) and -3 x1x0 under the rewrite order
    pres = fk.QuadraticPresentation(
        3, [(1, 2), (1, 3)], [{(0, 0): 1}, {(1, 1): 1}, {(0, 1): 2, (1, 0): -3}]
    )
    pivots = []
    echelon = fk.echelon

    def recording_echelon(rows):
        result = echelon(rows)
        pivots.append(result[0])
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
    assert info.value.limit == 500
    assert fk.graded_dims_linear(pres, 3, entry_budget=500) == [1, 6, 19, 42]


def test_ordered_form_generates_same_ideal():
    for n in (3, 4):
        pres = fk.fk_presentation(n)
        ordered = fk.ordered_form_relations(n)
        assert fk.ideal_slices_equal(pres.relations, ordered, len(pres.gens), 4)


def test_engines_agree_on_random_sign_twists():
    from itertools import permutations

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


def test_finiteness_probe_statuses():
    finite = fk.finiteness_probe(fk.fk_presentation(3), 10)
    assert finite.status == "VanishesAtDegree"
    assert finite.degree == 5
    assert sum(finite.dims) == 12
    # truncating before the dimensions vanish leaves the question open
    open_probe = fk.finiteness_probe(fk.fk_presentation(3), 3)
    assert open_probe.status == "StillGrowing"


def test_probe_json_roundtrip():
    probe = fk.finiteness_probe(fk.fk_presentation(3), 10)
    data = probe.to_json()
    assert data["status"] == "VanishesAtDegree"
    assert data["dims"] == [1, 3, 4, 3, 1]


def test_rewrite_system_normal_forms_count():
    pres = fk.fk_presentation(3)
    rs = fk.complete_to_degree(pres, 10)
    counts = rs.irreducible_counts(10)
    assert counts[:5] == [1, 3, 4, 3, 1]
    assert all(c == 0 for c in counts[5:])
