"""Verification suites: all pass, and their reports are deterministic."""
import importlib
import json

import pytest

from weylrack import yd
from weylrack.classes import enumerate_class
from weylrack.signed import GroupKind, from_cycles
from weylrack.suites import SUITES, _is_conjugation_rack, run_suite

# small parameter overrides so the whole file stays fast; the acceptance test
# runs the full-size versions
FAST_PARAMS = {
    "group_laws": {"count": 2000},
    "rack_axioms": {"count": 2000},
    "juxtaposition": {"max_total": 4},
    "classification": {"ranks": [5], "groups": ["B"]},
}


@pytest.mark.parametrize("name", SUITES)
def test_suite_passes(name):
    report = run_suite(name, FAST_PARAMS.get(name), seed=0)
    assert report["suite"] == name
    assert report["passed"], [c for c in report["checks"] if not c["passed"]]


@pytest.mark.parametrize("name", SUITES)
def test_suite_reports_are_byte_identical(name):
    params = FAST_PARAMS.get(name)
    a = run_suite(name, params, seed=123)
    b = run_suite(name, params, seed=123)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite("nope")


def test_report_shape():
    report = run_suite("fk_dims", {"max_n": 3})
    for check in report["checks"]:
        assert set(check) >= {"name", "tag", "passed"}
    json.dumps(report)  # JSON-serializable throughout


def test_yd_braidings_reads_only_check_failures_as_failed(monkeypatch):
    def broken(self):
        raise ValueError("braid equation fails")

    monkeypatch.setattr(yd.BraidedVectorSpace, "check_braid_equation", broken)
    report = run_suite("yd_braidings")
    failed = {c["name"] for c in report["checks"] if not c["passed"]}
    assert failed == {"trivial_rep_braiding", "sign_rep_braiding"}

    def buggy(self):
        raise TypeError("a bug, not a failed check")

    monkeypatch.setattr(yd.BraidedVectorSpace, "check_braid_equation", buggy)
    with pytest.raises(TypeError, match="a bug"):
        run_suite("yd_braidings")


def test_rack_axiom_check_needs_a_closed_set():
    for rep in (from_cycles(3, 0b101, [(1, 2)]), from_cycles(4, 0, [(1, 2, 3)])):
        elements = enumerate_class(GroupKind.B, rep).elements
        assert _is_conjugation_rack(elements)
        # x |> y runs over the whole class as y does, so a class with one
        # element removed is not closed
        assert not _is_conjugation_rack(elements[1:])


@pytest.mark.parametrize(
    "rule,checks",
    [
        ("witness_odd_cycle", {"odd_5_cycle_witnesses", "odd_7_cycle_witnesses"}),
        ("witness_two_triples", {"two_triples_all_signs"}),
        ("witness_pairs_triple", {"pairs_triple_all_signs"}),
        ("witness_fixed_points", {"fixed_point_rules"}),
        ("witness_cycle_power", {"cycle_power_all_signs"}),
        ("lift_from_signed_core", {"signed_core_blocks"}),
    ],
)
def test_type_d_witness_checks_fail_without_their_rule(monkeypatch, rule, checks):
    # another rule (the S_n lift, say) may still prove the class; the check
    # names a rule, so it must fail when that rule is gone (the package's
    # `classify` name is the function, hence import_module); the signed-core
    # step runs after the exception list, outside WITNESS_RULES
    module = importlib.import_module("weylrack.classify")
    if rule == "lift_from_signed_core":
        monkeypatch.setattr(module, rule, lambda x, member: None)
    else:
        rules = tuple(r for r in module.WITNESS_RULES if r.__name__ != rule)
        assert len(rules) == len(module.WITNESS_RULES) - 1
        monkeypatch.setattr(module, "WITNESS_RULES", rules)
    report = run_suite("type_d_witnesses")
    assert {c["name"] for c in report["checks"] if not c["passed"]} == checks
