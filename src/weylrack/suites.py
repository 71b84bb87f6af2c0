"""Named verification suites producing deterministic JSON-able reports.

Each suite exercises one layer of the library against independent oracles
(monomial-matrix actions, triple conjugation, exhaustive enumeration, exact
ranks).  Reports contain no timestamps, so re-runs with the same seed are
byte-identical when serialized with sorted keys.
"""
from __future__ import annotations

import random
from itertools import product
from typing import Optional

from . import fk, nichols, yd
from .classes import (
    ClassMembership,
    centralizer,
    class_reps,
    enumerate_class,
    juxtapose,
    verify_juxtaposition_identities,
)
from .classify import EXCEPTION, PROVEN, Classifier, exception_case
from .cyclotomic import CyclotomicField
from .errors import BudgetExceeded
from .rack import (
    commuting_balance_sides,
    is_square_commutative,
    pair_witness,
    sq,
    sq_formula_commuting,
    sq_formula_general,
)
from .signed import (
    MAX_RANK,
    GroupKind,
    SignedPermutation,
    conjugate,
    contains,
    from_cycles,
    multiply,
    random_element,
)

SUITES = (
    "group_laws",
    "rack_axioms",
    "juxtaposition",
    "type_d_witnesses",
    "classification",
    "yd_braidings",
    "fk_dims",
)


def run_suite(name: str, params: Optional[dict] = None, seed: int = 0) -> dict:
    """Run a named suite; the report lists each check with its verdict."""
    params = dict(params or {})
    if name not in _RUNNERS:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITES)}")
    runner, keys = _RUNNERS[name]
    for key in sorted(params):
        if key not in keys:
            raise SuiteParamError(
                f"suite parameter {key!r} is not read by {name} (reads: {', '.join(keys) or 'none'})"
            )
    checks = runner(params, random.Random(seed))
    return {
        "suite": name,
        "seed": seed,
        "params": {k: params[k] for k in sorted(params)},
        "checks": checks,
        "passed": bool(checks) and all(c["passed"] for c in checks),
    }


class SuiteParamError(ValueError):
    """A suite parameter the suite cannot read; the message names its key."""


def _param(params: dict, key: str, default, ok, wanted: str):
    """params[key], or ``default`` when absent; a value ``ok`` rejects raises
    SuiteParamError naming the key and what it wants."""
    if key not in params:
        return default
    if not ok(params[key]):
        raise SuiteParamError(f"suite parameter {key!r}: {params[key]!r} is not {wanted}")
    return params[key]


def _int_in(v, low: int, high: int = MAX_RANK) -> bool:
    return type(v) is int and low <= v <= high


def _ints_in(v, low: int, high: int = MAX_RANK) -> bool:
    return isinstance(v, list) and bool(v) and all(_int_in(t, low, high) for t in v)


def _check(name: str, tag: str, passed: bool, **detail) -> dict:
    out = {"name": name, "tag": tag, "passed": bool(passed)}
    if detail:
        out["detail"] = {k: detail[k] for k in sorted(detail)}
    return out


# ---------------------------------------------------------------------------
# group laws against an independent monomial-action model


def _monomial(x: SignedPermutation) -> list[int]:
    """x as a monomial matrix, read off the raw fields: entry j is the signed
    1-based image of e_{j+1}."""
    bits = x.bits
    return [-t - 1 if (bits >> t) & 1 else t + 1 for t in x.perm]


def _monomial_product(m: list[int], k: list[int]) -> list[int]:
    """Column j of m k is m applied to column j of k."""
    return [m[v - 1] if v > 0 else -m[-v - 1] for v in k]


def _suite_group_laws(params: dict, rng: random.Random) -> list[dict]:
    count = _param(params, "count", 100_000, lambda v: type(v) is int and v >= 0, "an integer >= 0")
    max_n = _param(params, "max_n", 8, lambda v: _int_in(v, 1), f"an integer in 1..{MAX_RANK}")
    bad_mul = bad_inv = bad_conj = 0
    for _ in range(count):
        n = rng.randint(1, max_n)
        x = random_element(rng, n)
        y = random_element(rng, n)
        z = random_element(rng, n)
        mx = _monomial(x)
        if _monomial_product(mx, _monomial(y)) != _monomial(multiply(x, y)):
            bad_mul += 1
        if _monomial_product(mx, _monomial(x.inverse())) != list(range(1, n + 1)):
            bad_inv += 1
        expect = _monomial_product(_monomial(z), _monomial_product(mx, _monomial(z.inverse())))
        if _monomial(conjugate(z, x)) != expect:
            bad_conj += 1
    return [
        _check("product_matches_monomial_action", "semidirect-product", bad_mul == 0,
               cases=count, failures=bad_mul),
        _check("closed_form_inverse", "semidirect-inverse", bad_inv == 0,
               cases=count, failures=bad_inv),
        _check("closed_form_conjugation", "semidirect-conjugation", bad_conj == 0,
               cases=count, failures=bad_conj),
    ]


# ---------------------------------------------------------------------------
# rack axioms and the sq formulas


def _is_conjugation_rack(elements: list[SignedPermutation]) -> bool:
    """True iff conjugation on ``elements`` satisfies the rack axioms:
    x |> x = x, y -> x |> y maps the set onto itself, and
    x |> (y |> z) = (x |> y) |> (x |> z) for every triple."""
    keys = {x.key() for x in elements}
    # x key -> {y key: key of x |> y}; once every row is onto ``keys``, the
    # triples compose rows without conjugating again
    act = {x.key(): {y.key(): conjugate(x, y).key() for y in elements} for x in elements}
    if any(row[x] != x or set(row.values()) != keys for x, row in act.items()):
        return False
    return all(
        act[x][act[y][z]] == act[act[x][y]][act[x][z]] for x in keys for y in keys for z in keys
    )


def _suite_rack_axioms(params: dict, rng: random.Random) -> list[dict]:
    count = _param(params, "count", 100_000, lambda v: type(v) is int and v >= 0, "an integer >= 0")
    max_n = _param(params, "max_n", 8, lambda v: _int_in(v, 2), f"an integer in 2..{MAX_RANK}")
    bad_gen = bad_comm = 0
    for _ in range(count):
        n = rng.randint(2, max_n)
        x = random_element(rng, n)
        y = random_element(rng, n)
        direct = sq(x, y)
        if sq_formula_general(x, y) != direct:
            bad_gen += 1
        if multiply(x, y) == multiply(y, x):
            if sq_formula_commuting(x, y) != direct:
                bad_comm += 1
    checks = [
        _check("sq_general_formula_vs_triple_conjugation", "sq-general", bad_gen == 0,
               cases=count, failures=bad_gen),
        _check("sq_commuting_formula_vs_triple_conjugation", "sq-commuting", bad_comm == 0,
               cases=count, failures=bad_comm),
    ]
    # class racks satisfy the rack axioms
    axiom_ok = all(
        _is_conjugation_rack(enumerate_class(GroupKind.B, rep).elements)
        for rep in (from_cycles(3, 0b101, [(1, 2)]), from_cycles(4, 0, [(1, 2, 3)]))
    )
    checks.append(_check("conjugation_racks_satisfy_axioms", "rack-axioms", axiom_ok))
    # the (2^2) parity criterion, exhaustively over all sign vectors
    tau = from_cycles(4, 0, [(1, 2), (3, 4)]).perm
    others = [
        from_cycles(4, 0, [(1, 3), (2, 4)]).perm,
        from_cycles(4, 0, [(1, 4), (2, 3)]).perm,
    ]
    mem = ClassMembership(GroupKind.B, 4)
    iff_ok = sufficient_ok = True
    for mu in others:
        for a in range(16):
            for b in range(16):
                x = SignedPermutation(4, a, tau)
                y = SignedPermutation(4, b, mu)
                parity = (bin(a).count("1") & 1) == (bin(b).count("1") & 1)
                conj = mem.same_class(x, y)
                sc = is_square_commutative(x, y)
                lhs, rhs = commuting_balance_sides(x, y)
                if sc != (parity or conj) or (lhs == rhs) != parity:
                    iff_ok = False
    for a in range(16):
        for b in range(16):
            x = SignedPermutation(4, a, tau)
            y = SignedPermutation(4, b, tau)
            parity = (bin(a).count("1") & 1) == (bin(b).count("1") & 1)
            if (parity or mem.same_class(x, y)) and not is_square_commutative(x, y):
                sufficient_ok = False
    checks.append(
        _check("two_two_parity_criterion_iff", "balance-2x2", iff_ok)
    )
    checks.append(
        _check("two_two_parity_criterion_sufficient", "balance-2x2", sufficient_ok)
    )
    return checks


# ---------------------------------------------------------------------------
# juxtaposition identities


def _suite_juxtaposition(params: dict, rng: random.Random) -> list[dict]:
    total = _param(params, "max_total", 6, lambda v: _int_in(v, 2), f"an integer in 2..{MAX_RANK}")
    # the identities are checked in B and S only (D_n x D_m is not a block subgroup)
    kind = GroupKind(_param(params, "group", "B", lambda v: v in ("B", "S"), "B or S"))
    checks = []
    for n in range(1, total):
        for m in range(1, total - n + 1):
            report = verify_juxtaposition_identities(n, m, kind)
            for c in report["checks"]:
                checks.append(
                    _check(
                        f"{c['name']}_n{n}_m{m}",
                        f"juxtaposition-{c['rule']}",
                        c["passed"],
                    )
                )
    return checks


# ---------------------------------------------------------------------------
# decomposition witnesses


def _proven_by(verdict, tag: str) -> bool:
    """Is ``verdict`` a ProvenTypeD from the rule ``tag``?  A class that
    another rule (the S_n lift, say) also proves must not pass for this one."""
    return verdict.status == PROVEN and verdict.rule_tag == tag


def _suite_type_d_witnesses(params: dict, rng: random.Random) -> list[dict]:
    cycle_signs = _param(
        params, "cycle_signs", None, lambda v: _ints_in(v, 0, 31), "a nonempty list of integers in 0..31"
    )
    checks = []
    # odd cycles of length 5 and 7, a handful of sign vectors each
    for p, n in ((5, 5), (7, 7)):
        clf = Classifier(GroupKind.B, n)
        ok = True
        signs = [0, 1, (1 << n) - 1, 0b10101 % (1 << n)] if cycle_signs is None else cycle_signs
        for bits in signs:
            x = from_cycles(n, bits, [tuple(range(1, p + 1))])
            ok = ok and _proven_by(clf.classify(x), "odd_cycle_fibers")
        checks.append(_check(f"odd_{p}_cycle_witnesses", "witness-odd-cycle", ok))
    # two 3-cycles: all 64 sign vectors
    clf = Classifier(GroupKind.B, 6)
    ok = True
    for bits in range(64):
        x = from_cycles(6, bits, [(1, 2, 3), (4, 5, 6)])
        ok = ok and _proven_by(clf.classify(x), "two_triples_fibers")
    checks.append(_check("two_triples_all_signs", "witness-two-triples", ok))
    # two 2-cycles and a 3-cycle: all 128 sign vectors
    clf = Classifier(GroupKind.B, 7)
    ok = True
    for bits in range(128):
        x = from_cycles(7, bits, [(1, 2), (3, 4), (5, 6, 7)])
        ok = ok and _proven_by(clf.classify(x), "pair_repairing_fibers")
    checks.append(_check("pairs_triple_all_signs", "witness-pairs-triple", ok))
    # fixed-point rules: non-constant signs on fixed points
    clf = Classifier(GroupKind.B, 6)
    ok = True
    for x in (
        from_cycles(6, 0b000001, [(5, 6)]),
        from_cycles(6, 0b000010, [(4, 5, 6)]),
    ):
        ok = ok and _proven_by(clf.classify(x), "fixed_point_bit")
    checks.append(_check("fixed_point_rules", "witness-fixed-points", ok))
    # an 8-cycle: every sign vector in B8 (256) and in D8 (128)
    ok = True
    for kind in (GroupKind.B, GroupKind.D):
        clf = Classifier(kind, 8)
        for bits in range(256):
            x = from_cycles(8, bits, [tuple(range(1, 9))])
            if contains(kind, x):
                ok = ok and _proven_by(clf.classify(x), "cycle_power_fibers")
    checks.append(_check("cycle_power_all_signs", "witness-cycle-power", ok))
    # propagation: a decomposition survives juxtaposition with any right block;
    # the juxtaposed pair's witness is the old one with ``right`` appended
    x = from_cycles(5, 0, [(1, 2, 3, 4, 5)])
    v = Classifier(GroupKind.B, 5).classify(x)
    right = from_cycles(2, 0b01, [(1, 2)])
    ok = v.status == PROVEN
    if ok:
        w = v.witness
        member = ClassMembership(GroupKind.B, 7).member_test(juxtapose(x, right))
        wj = pair_witness([(juxtapose(w.a, right), juxtapose(w.b, right))], "juxtaposed", member)
        ok = wj is not None and all(
            {t.key() for t in part} == {juxtapose(t, right).key() for t in old}
            for part, old in ((wj.R, w.R), (wj.S, w.S))
        )
    checks.append(_check("juxtaposition_propagation", "witness-propagation", ok))
    return checks


# ---------------------------------------------------------------------------
# full classification consistency


def _suite_classification(params: dict, rng: random.Random) -> list[dict]:
    # B16/D16 are the largest ranks the slow tests decide; through rank 12
    # no witness holds more than 2,048 elements, and the lift lists no S_k
    # core larger than S_8's (4, 4) class, 1,260 elements
    ns = _param(params, "ranks", [5], lambda v: _ints_in(v, 5, 16), "a nonempty list of integers in 5..16")
    groups = _param(
        params,
        "groups",
        ["B", "D"],
        lambda v: isinstance(v, list) and bool(v) and all(g in ("B", "D") for g in v),
        "a nonempty list of B or D",
    )
    kinds = [GroupKind(k) for k in groups]
    checks = []
    for kind in kinds:
        for n in ns:
            clf = Classifier(kind, n)
            undetermined = []
            mismatched = []
            proven = exceptions = 0
            for x in class_reps(kind, n):
                if all(x.perm[i] == i for i in range(x.n)):
                    continue
                v = clf.classify(x)
                expected = exception_case(x)
                if v.status == PROVEN:
                    proven += 1
                    if expected is not None:
                        mismatched.append(str(x))
                elif v.status == EXCEPTION:
                    exceptions += 1
                    if expected != v.exception_case:
                        mismatched.append(str(x))
                else:
                    undetermined.append(str(x))
            checks.append(
                _check(
                    f"classification_{kind.value}{n}",
                    "type-d-classification",
                    not undetermined and not mismatched,
                    proven=proven,
                    exceptions=exceptions,
                    undetermined=undetermined,
                    mismatched=mismatched,
                )
            )
    return checks


# ---------------------------------------------------------------------------
# braidings, symmetrizers, graded dimensions, scalar screens


def _suite_yd_braidings(params: dict, rng: random.Random) -> list[dict]:
    checks = []
    F = CyclotomicField(2)
    # permutation braiding from the trivial rep
    rep = from_cycles(3, 0, [(1, 2)])
    cls = enumerate_class(GroupKind.S, rep)
    cen = centralizer(GroupKind.S, rep, cls)
    ok = True
    try:
        triv = yd.build_yd_module(cls, yd.trivial_rep(cen, F))
        triv.braided_space().check_braid_equation()
    except (ValueError, BudgetExceeded):  # RepInconsistency is a ValueError
        ok = False
    checks.append(_check("trivial_rep_braiding", "braid-equation", ok))
    # sign rep on the same class: braid equation + graded dims
    mod = yd.build_yd_module(cls, yd.perm_sign_rep(cen, F))
    space = mod.braided_space()
    ok = True
    try:
        space.check_braid_equation()
    except (ValueError, BudgetExceeded):
        ok = False
    checks.append(_check("sign_rep_braiding", "braid-equation", ok))
    dims = nichols.nichols_graded_dims(space, 6)
    checks.append(
        _check("transposition_sign_graded_dims", "nichols-dims",
               dims == [1, 3, 4, 3, 1], dims=dims, total=sum(dims))
    )
    # the engine's recursion S_m = L_m (S_{m-1} (x) id), on integer-coded
    # words and decoded, against the full S_m
    ok = True
    b, table, _ = nichols._coded_tables(space)
    for m in range(2, 5):
        for basis in product(range(space.D), repeat=m):
            lower = yd._apply_sm(space, {basis[:-1]: F.one}, m - 1)
            coded = {fk._encode(w + basis[-1:], b): c for w, c in lower.items()}
            lifted = nichols._apply_lm(table, coded, m, b)
            decoded = {fk._decode(w, m, b): c for w, c in lifted.items()}
            ok = ok and decoded == yd._apply_sm(space, {basis: F.one}, m)
    checks.append(_check("symmetrizer_factorization", "symmetrizer", ok))
    # scalar screens
    one, m1 = F.one, F.minus_one()
    screens = (
        yd.q_screen(one, one, 2, 2).status == "InfiniteDim"
        and yd.q_screen(m1, one, 2, 2).status == "Inconclusive"
        and yd.q_screen(m1, one, 2, 3).status == "Inconclusive"
    )
    checks.append(_check("q_scalar_screen", "q-screen", screens))
    cor = (
        yd.case_table_screen("iii", ((1, 2),), (1, 1), (0, 0), -1, 1).status == "Inconclusive"
        and yd.case_table_screen("iii", ((1, 2),), (1, 1), (0, 0), 1, 1).status == "InfiniteDim"
    )
    checks.append(_check("case_table_screen", "case-screen", cor))
    return checks


def _suite_fk_dims(params: dict, rng: random.Random) -> list[dict]:
    max_n = _param(params, "max_n", 4, lambda v: _int_in(v, 2), f"an integer in 2..{MAX_RANK}")
    checks = []
    expect = {2: 2, 3: 12, 4: 576}
    for n in range(2, max_n + 1):
        pres = fk.fk_presentation(n)
        lin = fk.graded_dims(pres, 14, engine="linear")
        rew = fk.graded_dims(pres, 14, engine="rewrite")
        checks.append(
            _check(
                f"quadratic_algebra_n{n}",
                "fk-dims",
                lin == rew and sum(lin) == expect.get(n, sum(lin)),
                dims=lin,
                total=sum(lin),
                engines_agree=lin == rew,
            )
        )
    return checks


# suite -> (runner, the parameter keys it reads)
_RUNNERS = {
    "group_laws": (_suite_group_laws, ("count", "max_n")),
    "rack_axioms": (_suite_rack_axioms, ("count", "max_n")),
    "juxtaposition": (_suite_juxtaposition, ("group", "max_total")),
    "type_d_witnesses": (_suite_type_d_witnesses, ("cycle_signs",)),
    "classification": (_suite_classification, ("groups", "ranks")),
    "yd_braidings": (_suite_yd_braidings, ()),
    "fk_dims": (_suite_fk_dims, ("max_n",)),
}
