"""Quadratic algebras: presentations, two dimension engines, finiteness probe."""
import random

import pytest

from weylrack import fk


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
