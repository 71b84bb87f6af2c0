"""Braidings of group type, quantum symmetrizers, and scalar screens."""
import random
import re
from itertools import product

import pytest

from weylrack import classes as classes_module
from weylrack import fk, nichols, yd
from weylrack.classes import ConjugacyClass, centralizer, enumerate_class, is_orthogonal
from weylrack.cyclotomic import CyclotomicField, CycScalar
from weylrack.errors import BudgetExceeded
from weylrack.signed import GroupKind, from_cycles


def sym_transposition_module(rep_factory):
    x = from_cycles(3, 0, [(1, 2)])
    cls = enumerate_class(GroupKind.S, x)
    cen = centralizer(GroupKind.S, x, cls)
    F = CyclotomicField(2)
    return yd.build_yd_module(cls, rep_factory(cen, F)), F


def test_braid_equation_trivial_and_sign_reps():
    for factory in (yd.trivial_rep, yd.perm_sign_rep):
        module, _ = sym_transposition_module(factory)
        module.braided_space().check_braid_equation()


def test_sign_character_graded_dims():
    module, _ = sym_transposition_module(yd.perm_sign_rep)
    dims = yd.nichols_graded_dims(module.braided_space(), 8)
    assert dims == [1, 3, 4, 3, 1]
    assert sum(dims) == 12


def test_graded_dims_invariant_under_class_renumbering():
    module, F = sym_transposition_module(yd.perm_sign_rep)
    perm = [2, 0, 1]
    cls2 = yd.renumber_class(module.cls, perm)
    cen = centralizer(GroupKind.S, cls2.rep, cls2)
    module2 = yd.build_yd_module(cls2, yd.perm_sign_rep(cen, F))
    assert yd.nichols_graded_dims(module2.braided_space(), 8) == [1, 3, 4, 3, 1]


def test_renumber_class_refuses_an_order_that_is_not_a_permutation():
    x = from_cycles(4, 0, [(1, 2)])
    cls = enumerate_class(GroupKind.S, x)
    for order in ([0, 0, 1, 2, 3, 4], [0, 1, 2, 3, 4], [0, 1, 2, 3, 4, 6]):
        with pytest.raises(ValueError, match=r"not a permutation of range\(6\)"):
            yd.renumber_class(cls, order)


def test_section_inconsistent_with_numeration_is_refused():
    module, _ = sym_transposition_module(yd.perm_sign_rep)
    cls = module.cls
    section = list(cls.section)
    section[0], section[1] = section[1], section[0]
    swapped = ConjugacyClass(cls.kind, cls.rep, list(cls.elements), section)
    with pytest.raises(ValueError, match="^class section inconsistent with numeration$"):
        yd.build_yd_module(swapped, module.rep)


def test_flip_braiding_gives_binomials():
    F = CyclotomicField(2)
    space = yd.diagonal_braiding(F, [[F.one] * 2] * 2)
    dims = yd.nichols_graded_dims(space, 4)
    assert dims == [1, 2, 3, 4, 5]  # symmetric algebra on two variables


def test_braid_equation_check_catches_a_bad_table():
    # C^{-1} swaps (0,0) and (0,1) and fixes (1,0), (1,1): a permutation of
    # the basis pairs, but not a braiding
    F = CyclotomicField(2)
    images = {(0, 0): (0, 1), (0, 1): (0, 0), (1, 0): (1, 0), (1, 1): (1, 1)}
    space = yd.BraidedVectorSpace(F, 2, {k: (v, F.one) for k, v in images.items()})
    with pytest.raises(ValueError, match=r"basis triple \(0, 0, 0\)"):
        space.check_braid_equation()


def test_braided_space_refuses_a_table_that_is_not_a_permutation():
    F = CyclotomicField(2)
    good = yd.diagonal_braiding(F, [[F.one] * 2] * 2).cinv_map
    repeated = {**good, (0, 0): ((0, 0), F.one), (0, 1): ((0, 0), F.one)}
    with pytest.raises(ValueError, match="images"):
        yd.BraidedVectorSpace(F, 2, repeated)
    missing = {k: v for k, v in good.items() if k != (1, 1)}
    with pytest.raises(ValueError, match="keys"):
        yd.BraidedVectorSpace(F, 2, missing)


def test_sign_diagonal_braiding_is_exterior():
    F = CyclotomicField(2)
    m = F.minus_one()
    space = yd.diagonal_braiding(F, [[m]])
    assert yd.nichols_graded_dims(space, 6) == [1, 1]


def test_symmetrizer_factorization():
    module, F = sym_transposition_module(yd.perm_sign_rep)
    space = module.braided_space()
    for basis in product(range(space.D), repeat=3):
        whole = yd._apply_sm(space, {basis: F.one}, 3)
        v = yd._apply_s1j(space, {basis: F.one}, 2, 0)
        v = yd._apply_s1j(space, v, 1, 1)
        assert whole == v
    # the degree recursion S_m = L_m (S_{m-1} (x) id) on every basis tuple:
    # the engine's L_m on integer-coded words against the oracle's tuple S_m,
    # also over Q(zeta_3), where the coded table keeps its CycScalars
    zeta3 = CyclotomicField(3)
    spaces = [(space, F), (_class_space(GroupKind.S, 3, [(1, 2, 3)], _zeta3_rep, zeta3), zeta3)]
    for space, F in spaces:
        b, table, _ = yd._coded_tables(space)
        for m in range(2, 5):
            for basis in product(range(space.D), repeat=m):
                lower = yd._apply_sm(space, {basis[:-1]: F.one}, m - 1)
                coded = {fk._encode(w + basis[-1:], b): c for w, c in lower.items()}
                lifted = yd._apply_lm(table, coded, m, b)
                decoded = {fk._decode(w, m, b): c for w, c in lifted.items()}
                assert decoded == yd._apply_sm(space, {basis: F.one}, m), basis


def _class_space(kind, n, cycles, rep_factory, F=CyclotomicField(2)):
    x = from_cycles(n, 0, cycles)
    cls = enumerate_class(kind, x)
    cen = centralizer(kind, x, cls)
    module = yd.build_yd_module(cls, rep_factory(cen, F))
    return module.braided_space()


def _zeta3_rep(cen, F):
    return yd.scalar_rep(cen, F, [F.zeta(1)])


def _oracle_dims(space, max_degree):
    dims = []
    for m in range(max_degree + 1):
        r = yd.symmetrizer_rank(space, m)
        if r == 0:
            break
        dims.append(r)
    return dims


CROSS_ENGINE = {
    "S3-transpositions-trivial": (
        lambda: _class_space(GroupKind.S, 3, [(1, 2)], yd.trivial_rep), 5),
    "S3-transpositions-sign": (
        lambda: _class_space(GroupKind.S, 3, [(1, 2)], yd.perm_sign_rep), 5),
    "flip-2": (
        lambda: yd.diagonal_braiding(CyclotomicField(2), [[CyclotomicField(2).one] * 2] * 2), 5),
    "sign-diagonal": (
        lambda: yd.diagonal_braiding(CyclotomicField(2), [[CyclotomicField(2).minus_one()]]), 4),
    "B3-(1 2)-trivial": (lambda: _class_space(GroupKind.B, 3, [(1, 2)], yd.trivial_rep), 4),
    "B3-(1 2)-sign": (lambda: _class_space(GroupKind.B, 3, [(1, 2)], yd.perm_sign_rep), 4),
    "S4-transpositions-sign": (
        lambda: _class_space(GroupKind.S, 4, [(1, 2)], yd.perm_sign_rep), 4),
    # D = 8 = 2^3: every 3-bit letter code is a letter
    "S4-3-cycles-trivial": (
        lambda: _class_space(GroupKind.S, 4, [(1, 2, 3)], yd.trivial_rep), 3),
    "zeta3-diagonal": (
        lambda: yd.diagonal_braiding(CyclotomicField(3), [[CyclotomicField(3).zeta(1)]]), 4),
    "S3-3-cycles-zeta3": (
        lambda: _class_space(GroupKind.S, 3, [(1, 2, 3)], _zeta3_rep, CyclotomicField(3)), 4),
}
# the spaces whose engine runs on the CycScalar table, not over Q
NON_RATIONAL = {"zeta3-diagonal": [1, 1, 1], "S3-3-cycles-zeta3": [1, 2, 4, 6, 10]}


@pytest.mark.parametrize("name", sorted(CROSS_ENGINE))
def test_recursive_dims_match_symmetrizer_rank(name):
    build, max_degree = CROSS_ENGINE[name]
    space = build()
    assert yd.nichols_graded_dims(space, max_degree) == _oracle_dims(space, max_degree)


def _count_products(monkeypatch) -> list:
    products = []
    mul = CycScalar.__mul__

    def counted(a, b):
        products.append(1)
        return mul(a, b)

    monkeypatch.setattr(CycScalar, "__mul__", counted)
    return products


@pytest.mark.parametrize("name", sorted(NON_RATIONAL))
def test_non_rational_braidings_keep_the_cyclotomic_table(monkeypatch, name):
    build, max_degree = CROSS_ENGINE[name]
    space = build()
    assert any(any(q.coeffs[1:]) for _, q in space.cinv_map.values())
    products = _count_products(monkeypatch)
    assert yd.nichols_graded_dims(space, max_degree) == NON_RATIONAL[name]
    assert products


@pytest.mark.parametrize("modulus", [2, 4])
def test_rational_braidings_run_without_cyclotomic_products(monkeypatch, modulus):
    # perm_sign_rep over Q(zeta_4) has values +-1 in a degree-2 field
    space = _class_space(GroupKind.S, 4, [(1, 2)], yd.perm_sign_rep, CyclotomicField(modulus))
    products = _count_products(monkeypatch)
    assert yd.nichols_graded_dims(space, 5) == [1, 6, 19, 42, 71, 96]
    assert not products


def test_s4_transpositions_sign_match_fomin_kirillov_e4():
    space = _class_space(GroupKind.S, 4, [(1, 2)], yd.perm_sign_rep)
    dims = yd.nichols_graded_dims(space, 5)
    assert dims == [1, 6, 19, 42, 71, 96]
    assert dims == fk.graded_dims(fk.fk_presentation(4), 5, "rewrite")


@pytest.mark.slow
def test_s4_transpositions_sign_through_degree_eight():
    # degree 9 generates 905,768 candidate entries, within the default budget;
    # the one-block engine needed 1,701,282 for degree 8
    space = _class_space(GroupKind.S, 4, [(1, 2)], yd.perm_sign_rep)
    assert yd.nichols_graded_dims(space, 9) == [1, 6, 19, 42, 71, 96, 106, 96, 71, 42]


def test_nichols_candidate_entries_are_pinned():
    # degree 5 of S_4 transpositions with the sign character generates 3,348
    # candidate entries over its class representatives' blocks: the budget
    # refuses it one entry short and not at the count
    space = _class_space(GroupKind.S, 4, [(1, 2)], yd.perm_sign_rep)
    with pytest.raises(BudgetExceeded, match="degree-5") as exc:
        yd.nichols_graded_dims(space, 5, entry_budget=3_347)
    assert exc.value.dims == [1, 6, 19, 42, 71]
    assert yd.nichols_graded_dims(space, 5, entry_budget=3_348) == [1, 6, 19, 42, 71, 96]


def test_b5_transpositions_sign_through_degree_five():
    # D = 20; the quadratic cover gives the same dims through degree 5
    space = _class_space(GroupKind.B, 5, [(1, 2)], yd.perm_sign_rep)
    assert yd.nichols_graded_dims(space, 5) == [1, 20, 230, 2000, 14601, 94420]


def _symmetry_of(space):
    b, table, _ = yd._coded_tables(space)
    return nichols._symmetry(table, b, space.D)


def _s4_renumbered(seed):
    x = from_cycles(4, 0, [(1, 2)])
    cls = enumerate_class(GroupKind.S, x)
    order = list(range(cls.size))
    random.Random(seed).shuffle(order)
    cls = yd.renumber_class(cls, order)
    cen = centralizer(GroupKind.S, cls.rep, cls)
    return yd.build_yd_module(cls, yd.perm_sign_rep(cen, CyclotomicField(2))).braided_space()


TRIVIAL_GROUP_CASES = {
    **CROSS_ENGINE,
    **{f"S4-renumbered-{seed}": (lambda seed=seed: _s4_renumbered(seed), 6) for seed in (1, 2, 3)},
    "B5-(1 2)-sign": (lambda: _class_space(GroupKind.B, 5, [(1, 2)], yd.perm_sign_rep), 4),
}


@pytest.mark.parametrize("name", sorted(TRIVIAL_GROUP_CASES))
def test_class_blocks_match_the_trivial_group(monkeypatch, name):
    # the one-block engine, with no symmetry, is the oracle for the class blocks
    build, max_degree = TRIVIAL_GROUP_CASES[name]
    space = build()
    assert _symmetry_of(space) is not None
    dims = yd.nichols_graded_dims(space, max_degree)
    monkeypatch.setattr(nichols, "_symmetry", lambda *args: None)
    assert yd.nichols_graded_dims(space, max_degree) == dims


def _swap_table():
    # C^{-1}(e_u (x) e_v) = e_{s(v)} (x) e_{s(u)}, s swapping 0 and 1: a
    # braiding, but the image of a pair does not start with its second letter
    F = CyclotomicField(2)
    table = {(u, v): ((1 - v, 1 - u), F.one) for u, v in product(range(2), repeat=2)}
    return yd.BraidedVectorSpace(F, 2, table)


def _s3_one_scalar_negated():
    space = _class_space(GroupKind.S, 3, [(1, 2)], yd.perm_sign_rep)
    table = dict(space.cinv_map)
    pair, q = table[(0, 0)]
    table[(0, 0)] = (pair, -q)
    return yd.BraidedVectorSpace(space.scalar_field, 3, table)


@pytest.mark.parametrize("build, failing_triple, dims", [
    (_swap_table, None, [1, 2, 3, 4, 5, 6]),
    (_s3_one_scalar_negated, "(0, 0, 1)", [1, 3, 5, 10, 23]),
])
def test_tables_without_the_symmetry_take_one_block(build, failing_triple, dims):
    space = build()
    if failing_triple is None:
        space.check_braid_equation()
    else:
        with pytest.raises(ValueError, match=re.escape(failing_triple)):
            space.check_braid_equation()
    assert _symmetry_of(space) is None
    max_degree = len(dims) - 1
    assert yd.nichols_graded_dims(space, max_degree) == dims == _oracle_dims(space, max_degree)


def test_nichols_entry_budget_names_degree():
    space = _class_space(GroupKind.S, 3, [(1, 2)], yd.perm_sign_rep)
    with pytest.raises(BudgetExceeded, match="degree-2") as exc:
        yd.nichols_graded_dims(space, 4, entry_budget=5)
    assert exc.value.limit == 5 and exc.value.dims == [1, 3]
    assert yd.nichols_graded_dims(space, 4, entry_budget=100) == [1, 3, 4, 3, 1]


def test_self_braiding_scalar():
    module, F = sym_transposition_module(yd.perm_sign_rep)
    assert module.self_braiding_scalar() == F.minus_one()


def test_rep_closure_consistency_guard():
    x = from_cycles(3, 0, [(1, 2)])
    cls = enumerate_class(GroupKind.S, x)
    cen = centralizer(GroupKind.S, x, cls)
    F = CyclotomicField(2)
    # a sign assignment that is not multiplicative on the centralizer
    values = [F.minus_one() if i == 0 else F.one for i in range(len(cen.generators))]
    try:
        rep = yd.scalar_rep(cen, F, values)
        rep.closure()
    except yd.RepInconsistency:
        return
    # if the assignment happened to be consistent, closure must be multiplicative
    vals = rep.closure()
    assert len(vals) == cen.order


def test_rep_closure_cap(monkeypatch):
    module, F = sym_transposition_module(yd.trivial_rep)
    cen = module.rep.cen
    rep = yd.trivial_rep(cen, F)
    monkeypatch.setattr(classes_module, "CENTRALIZER_BUDGET", cen.order - 1)
    with pytest.raises(BudgetExceeded):
        rep.closure()
    monkeypatch.setattr(classes_module, "CENTRALIZER_BUDGET", cen.order)
    assert len(rep.closure()) == cen.order


def _psi_b2_next_to_b3(left_factory):
    """psi of B2 (1 2) with the given character next to B3 (1 2 3), trivial."""
    F = CyclotomicField(2)
    left_rep = from_cycles(2, 0, [(1, 2)])
    lcls = enumerate_class(GroupKind.B, left_rep)
    left = yd.build_yd_module(lcls, left_factory(centralizer(GroupKind.B, left_rep, lcls), F))
    right_rep = from_cycles(3, 0, [(1, 2, 3)])
    rcls = enumerate_class(GroupKind.B, right_rep)
    assert is_orthogonal(left_rep, right_rep)
    rcen = centralizer(GroupKind.B, right_rep, rcls)
    return left, yd.psi_embedding(left, rcls, yd.trivial_rep(rcen, F))


def test_psi_embedding_injective_and_intertwines():
    left, emb = _psi_b2_next_to_b3(yd.trivial_rep)
    assert emb.injective and emb.intertwines
    assert len(emb.columns) == left.D


def test_psi_embedding_with_sign_character_on_the_left():
    # q = -1 on the left block, so a wrong scalar in the codomain images
    # breaks the intertwining
    left, emb = _psi_b2_next_to_b3(yd.perm_sign_rep)
    minus_one = left.scalar_field.minus_one()
    assert left.self_braiding_scalar() == emb.codomain.self_braiding_scalar() == minus_one
    assert emb.injective and emb.intertwines
    assert len(emb.columns) == left.D == 2
    assert emb.codomain.D == 160


def test_psi_embedding_detects_a_twisted_codomain(monkeypatch):
    # twist the codomain's character by the permutation sign of its
    # centralizer: the codomain braiding changes and psi stops intertwining
    build = yd.build_yd_module

    def twisted(cls, rep):
        if cls.size == 160:
            sign = yd.perm_sign_rep(rep.cen, rep.scalar_field).images
            rep = yd.CentralizerRep(
                rep.cen, rep.scalar_field, {k: v * sign[k] for k, v in rep.images.items()}
            )
        return build(cls, rep)

    monkeypatch.setattr(yd, "build_yd_module", twisted)
    _, emb = _psi_b2_next_to_b3(yd.perm_sign_rep)
    assert emb.codomain.D == 160
    assert emb.injective and not emb.intertwines


def test_psi_embedding_rejects_nontrivial_right_scalar():
    F = CyclotomicField(2)
    left_rep = from_cycles(3, 0, [(1, 2, 3)])
    lcls = enumerate_class(GroupKind.B, left_rep)
    lcen = centralizer(GroupKind.B, left_rep, lcls)
    left = yd.build_yd_module(lcls, yd.trivial_rep(lcen, F))
    right_rep = from_cycles(2, 0, [(1, 2)])
    rcls = enumerate_class(GroupKind.B, right_rep)
    rcen = centralizer(GroupKind.B, right_rep, rcls)
    with pytest.raises(yd.HypothesisError):
        yd.psi_embedding(left, rcls, yd.perm_sign_rep(rcen, F))


def test_q_screen_order_arithmetic():
    F = CyclotomicField(12)
    one, m1 = F.one, F.minus_one()
    # scalars must multiply to -1
    assert yd.q_screen(one, one, 2, 2).status == yd.INFINITE
    assert yd.q_screen(m1, one, 2, 2).status == yd.INCONCLUSIVE
    # right block of order <= 2 with nontrivial left scalar
    z6 = F.zeta(2)  # primitive 6th root
    assert yd.q_screen(z6, m1 * z6.inverse(), 4, 2).status == yd.INFINITE
    # coprime orders, odd right block
    assert yd.q_screen(z6, m1 * z6.inverse(), 2, 3).status == yd.INFINITE
    assert yd.q_screen(m1, one, 2, 3).status == yd.INCONCLUSIVE


def test_q_screen_all_root_pairs_of_order_up_to_six():
    F = CyclotomicField(60)
    m1 = F.minus_one()
    for k in range(60):
        q_left = F.zeta(k)
        q_right = m1 * q_left.inverse()
        if q_left.multiplicative_order() > 6:
            continue
        v = yd.q_screen(q_left, q_right, 6, 5)
        # odd right order coprime to 6... gcd(6,5)=1, so anything but (−1,1) dies
        expected = yd.INCONCLUSIVE if (q_left == m1 and q_right == F.one) else yd.INFINITE
        assert v.status == expected, (k, v.reason)


CASES_OK = {
    "i": (((1, 2),), (0, 0), (1,), 1, -1),
    "ii": (((1, 2),), (0, 0), (1, 1), 1, -1),
    "iii": (((1, 2),), (1, 1), (0, 0), -1, 1),
    "iv": (((1, 2, 3),), (0, 0, 0), (1,), 1, -1),
    "v": (((1, 2, 3),), (1, 1, 1), (0,), -1, 1),
    "vi": (((1, 2), (3, 4)), (0, 0, 0, 0), (1, 1), 1, -1),
    "vii": (((1, 2), (3, 4)), (1, 0, 1, 0), (1, 1), -1, 1),
    "viii": (((1, 2), (3, 4)), (1, 0, 1, 0), (0, 0), -1, 1),
    "ix": (((1, 2), (3, 4)), (1, 0, 0, 0), (1, 1), 1, -1),
    "x": (((1, 2), (3, 4)), (1, 0, 0, 0), (0, 0), -1, 1),
}


@pytest.mark.parametrize("case", sorted(CASES_OK))
def test_case_table_screen_all_cases(case):
    tau, c, d, r1, r2 = CASES_OK[case]
    assert yd.case_table_screen(case, tau, c, d, r1, r2).status == yd.INCONCLUSIVE
    # every sign pair outside the allowed set is rejected
    allowed = set()
    for a in (1, -1):
        for b in (1, -1):
            v = yd.case_table_screen(case, tau, c, d, a, b)
            if v.status == yd.INCONCLUSIVE:
                allowed.add((a, b))
            else:
                assert v.status == yd.INFINITE
    assert (r1, r2) in allowed
    assert all(a * b == -1 for a, b in allowed)


def test_case_table_screen_pattern_mismatch_rejected():
    with pytest.raises(ValueError):
        yd.case_table_screen("iii", ((1, 2),), (0, 0), (0, 0), -1, 1)
