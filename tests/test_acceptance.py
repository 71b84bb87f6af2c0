"""Acceptance gate: one test per top-level criterion, with wall-clock budgets.

Each criterion runs the corresponding verification suite (or a direct
computation) at full size and asserts both the outcome and the time budget.
"""
import json
import time
from functools import lru_cache
from itertools import product

import pytest

from weylrack import fk, yd
from weylrack.classes import all_classes, centralizer, enumerate_class
from weylrack.cyclotomic import CyclotomicField
from weylrack.signed import GroupKind, from_cycles, group_order
from weylrack.suites import run_suite


def timed(fn):
    t0 = time.monotonic()
    out = fn()
    return out, time.monotonic() - t0


def assert_suite(report):
    assert report["passed"], [c for c in report["checks"] if not c["passed"]]


def test_01_group_laws_hundred_thousand_cases_under_5s():
    report, dt = timed(lambda: run_suite("group_laws", {"count": 100_000, "max_n": 8}))
    assert_suite(report)
    for check in report["checks"]:
        assert check["detail"]["cases"] == 100_000
        assert check["detail"]["failures"] == 0
    assert dt < 5.0, f"took {dt:.1f}s"


def test_02_sq_formulas_and_parity_criterion_under_10s():
    report, dt = timed(lambda: run_suite("rack_axioms", {"count": 100_000, "max_n": 8}))
    assert_suite(report)
    names = {c["name"] for c in report["checks"]}
    assert "two_two_parity_criterion_iff" in names
    assert "two_two_parity_criterion_sufficient" in names
    assert dt < 10.0, f"took {dt:.1f}s"


def test_03_juxtaposition_identities_exhaustive_under_2min():
    report, dt = timed(lambda: run_suite("juxtaposition", {"max_total": 6}))
    assert_suite(report)
    # every identity checked for every (n, m) with n + m <= 6
    rules = {c["tag"] for c in report["checks"]}
    assert rules == {f"juxtaposition-{r}" for r in ("i", "ii", "iii", "iv", "v", "vi")}
    assert dt < 120.0, f"took {dt:.1f}s"


def test_04_witness_lemmas_exhaustive_under_10min():
    report, dt = timed(lambda: run_suite("type_d_witnesses", {}))
    assert_suite(report)
    tags = {c["tag"] for c in report["checks"]}
    assert tags >= {
        "witness-odd-cycle",
        "witness-two-triples",
        "witness-pairs-triple",
        "witness-fixed-points",
        "witness-propagation",
    }
    assert dt < 600.0, f"took {dt:.1f}s"


def test_05_classification_b5_b6_d5_d6_under_30min():
    report, dt = timed(
        lambda: run_suite("classification", {"ranks": [5, 6], "groups": ["B", "D"]})
    )
    assert_suite(report)
    assert len(report["checks"]) == 4
    for check in report["checks"]:
        assert check["detail"]["undetermined"] == []
        assert check["detail"]["mismatched"] == []
        assert check["detail"]["proven"] + check["detail"]["exceptions"] > 0
    assert dt < 1800.0, f"took {dt:.1f}s"


@lru_cache(maxsize=None)
def _partitions(k, mx):
    if k == 0:
        return 1
    return sum(_partitions(k - i, i) for i in range(1, min(k, mx) + 1))


def test_06_class_counts_match_partition_pairs_under_5min():
    def counts():
        return [len(all_classes(GroupKind.B, n)) for n in range(2, 6)]

    got, dt = timed(counts)
    expected = [
        sum(_partitions(k, k) * _partitions(n - k, n - k) for k in range(n + 1))
        for n in range(2, 6)
    ]
    assert got == expected == [5, 10, 20, 36]
    assert dt < 300.0, f"took {dt:.1f}s"


def test_07_braidings_and_nichols_dims_under_5min():
    def work():
        report = run_suite("yd_braidings", {})
        # braid equation on larger constructed modules, up to D = 24
        F = CyclotomicField(2)
        for kind, rep in (
            (GroupKind.B, from_cycles(3, 0, [(1, 2)])),       # class size 6
            (GroupKind.B, from_cycles(3, 0b001, [(1, 2)])),   # class size 6
            (GroupKind.B, from_cycles(4, 0, [(1, 2, 3)])),    # class size 8, D = 24
        ):
            cls = enumerate_class(kind, rep)
            cen = centralizer(kind, rep, cls)
            for factory in (yd.trivial_rep, yd.perm_sign_rep):
                module = yd.build_yd_module(cls, factory(cen, F))
                space = module.braided_space()
                if space.D <= 24:
                    space.check_braid_equation()
        return report

    report, dt = timed(work)
    assert_suite(report)
    dims_check = next(
        c for c in report["checks"] if c["name"] == "transposition_sign_graded_dims"
    )
    assert dims_check["detail"]["dims"] == [1, 3, 4, 3, 1]
    assert dims_check["detail"]["total"] == 12
    assert dt < 300.0, f"took {dt:.1f}s"


def test_08_scalar_screens_under_1s():
    def work():
        F = CyclotomicField(60)
        m1 = F.minus_one()
        # every pair of roots of unity with orders <= 6 whose product is -1
        for k in range(60):
            q_left = F.zeta(k)
            q_right = m1 * q_left.inverse()
            if q_left.multiplicative_order() > 6 or q_right.multiplicative_order() > 6:
                continue
            for ol, orr in product((1, 2, 3, 4, 5, 6), repeat=2):
                v = yd.q_screen(q_left, q_right, ol, orr)
                assert v.status in (yd.INFINITE, yd.INCONCLUSIVE)
                if orr <= 2 and q_left.multiplicative_order() != 1:
                    if not (q_right == F.one and q_left == m1):
                        assert v.status == yd.INFINITE
        # scalar pairs violating the product condition are always rejected
        assert yd.q_screen(F.one, F.one, 2, 2).status == yd.INFINITE
        # the ten-case table for juxtaposed scalar pairs
        cases = {
            "i": (((1, 2),), (0, 0), (1,)),
            "ii": (((1, 2),), (0, 0), (1, 1)),
            "iii": (((1, 2),), (1, 1), (0, 0)),
            "iv": (((1, 2, 3),), (0, 0, 0), (1,)),
            "v": (((1, 2, 3),), (1, 1, 1), (0,)),
            "vi": (((1, 2), (3, 4)), (0, 0, 0, 0), (1, 1)),
            "vii": (((1, 2), (3, 4)), (1, 0, 1, 0), (1, 1)),
            "viii": (((1, 2), (3, 4)), (1, 0, 1, 0), (0, 0)),
            "ix": (((1, 2), (3, 4)), (1, 0, 0, 0), (1, 1)),
            "x": (((1, 2), (3, 4)), (1, 0, 0, 0), (0, 0)),
        }
        for case, (tau, c, d) in cases.items():
            verdicts = {
                (a, b): yd.case_table_screen(case, tau, c, d, a, b).status
                for a in (1, -1)
                for b in (1, -1)
            }
            allowed = {p for p, s in verdicts.items() if s == yd.INCONCLUSIVE}
            assert allowed, case
            assert all(a * b == -1 for a, b in allowed), case
            assert all(s == yd.INFINITE for p, s in verdicts.items() if p not in allowed)

    _, dt = timed(work)
    assert dt < 1.0, f"took {dt:.3f}s"


def test_09_quadratic_algebra_dims_under_15min():
    def work():
        out = {}
        for n in (2, 3, 4):
            pres = fk.fk_presentation(n)
            lin = fk.graded_dims(pres, 14, engine="linear")
            rew = fk.graded_dims(pres, 14, engine="rewrite")
            assert lin == rew, (n, lin, rew)
            out[n] = lin
        return out

    dims, dt = timed(work)
    assert sum(dims[2]) == 2
    assert dims[3] == [1, 3, 4, 3, 1] and sum(dims[3]) == 12
    assert sum(dims[4]) == 576
    assert dt < 900.0, f"took {dt:.1f}s"


def test_10_suite_reports_are_deterministic():
    # identical seed and parameters must reproduce every report byte for byte
    cases = [
        ("group_laws", {"count": 20_000}),
        ("rack_axioms", {"count": 20_000}),
        ("juxtaposition", {"max_total": 5}),
        ("type_d_witnesses", {}),
        ("classification", {"ranks": [5], "groups": ["B", "D"]}),
        ("yd_braidings", {}),
        ("fk_dims", {}),
    ]
    for name, params in cases:
        a = run_suite(name, dict(params), seed=42)
        b = run_suite(name, dict(params), seed=42)
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True), name
