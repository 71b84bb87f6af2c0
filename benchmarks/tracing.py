"""Layer tracing from outside the library, by wrapping its public functions.

Three kinds of wrapper:

* a *span* times one call into a layer (``enumerate_class``, ``rank``, ...)
  and records its name, start, end and the span that caused it;
* an *aggregated* op is too small and too frequent for a span of its own
  (``multiply``, ``conjugate``, the class-membership predicate): its calls
  and time are summed into the enclosing span and into the op's totals;
* a *counted* op (``CycScalar`` arithmetic) is counted into the enclosing
  span but not timed, because the clock would cost more than the op.

A span's self time is its duration minus its child spans and minus the
aggregated ops inside it.  Every function is patched at each weylrack module
that binds it (``conjugate`` is imported by name into ``classes``, ``rack``,
``classify`` and ``yd``), and :meth:`Tracer.patched` restores every original
on exit, so untraced runs execute unpatched code.
"""
from __future__ import annotations

import sys
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter

MARK = "_perfbench_wrapper"


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    child_s: float = 0.0
    agg_s: float = 0.0
    counts: dict = field(default_factory=lambda: defaultdict(int))
    sampled_ok: bool = False  # last validate() that passed in this span sampled

    def to_json(self, t0: float) -> dict:
        return {
            "id": self.id,
            "parent": self.parent,
            "name": self.name,
            "start_s": self.start - t0,
            "end_s": self.end - t0,
            "self_s": self.end - self.start - self.child_s - self.agg_s,
            "counts": dict(sorted(self.counts.items())),
        }


class Tracer:
    def __init__(self, clock=perf_counter):
        self.clock = clock
        self.t0 = clock()
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.agg_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(int)
        self._in_agg = False
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------
    def span(self, name, fn, on_exit=None):
        def wrapper(*args, **kwargs):
            parent = self.stack[-1] if self.stack else None
            sp = Span(len(self.spans), parent.id if parent else None, name, self.clock())
            self.spans.append(sp)
            self.stack.append(sp)
            try:
                result = fn(*args, **kwargs)
            finally:
                sp.end = self.clock()
                self.stack.pop()
                dur = sp.end - sp.start
                self.self_s[name] += dur - sp.child_s - sp.agg_s
                self.calls[name] += 1
                if parent is not None:
                    parent.child_s += dur
            if on_exit is not None:
                on_exit(sp, result, args)
            return result

        setattr(wrapper, MARK, fn)
        return wrapper

    def aggregated(self, name, fn):
        def wrapper(*args, **kwargs):
            if self._in_agg:  # an op called from inside another op
                return fn(*args, **kwargs)
            self._in_agg = True
            start = self.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = self.clock() - start
                self._in_agg = False
                self.calls[name] += 1
                self.agg_s[name] += dt
                if self.stack:
                    self.stack[-1].agg_s += dt
                    self.stack[-1].counts[name] += 1

        setattr(wrapper, MARK, fn)
        return wrapper

    def counted(self, name, fn):
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            if self.stack:
                self.stack[-1].counts[name] += 1
            return fn(*args, **kwargs)

        setattr(wrapper, MARK, fn)
        return wrapper

    # -- patching ---------------------------------------------------------
    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def patch_function(self, original, wrapper):
        """Rebind ``original`` to ``wrapper`` in every weylrack module."""
        bound = 0
        for mod in list(sys.modules.values()):
            name = getattr(mod, "__name__", "")
            if name != "weylrack" and not name.startswith("weylrack."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)
                    bound += 1
        if not bound:
            raise RuntimeError(f"{original.__qualname__} is bound nowhere")

    def patch_method(self, cls, attr, wrapper):
        self._set(cls, attr, wrapper)

    @contextmanager
    def patched(self):
        try:
            self._install()
            yield self
        finally:
            while self._patches:
                owner, attr, original = self._patches.pop()
                setattr(owner, attr, original)

    def _install(self):
        from weylrack import classes, cyclotomic, fk, linalg, rack, signed, yd
        from weylrack.classify import PROVEN, Classifier

        for name in ("multiply", "conjugate"):
            fn = getattr(signed, name)
            self.patch_function(fn, self.aggregated(f"signed.{name}", fn))
        self.patch_method(
            signed.SignedPermutation,
            "inverse",
            self.aggregated("signed.inverse", signed.SignedPermutation.inverse),
        )
        self.patch_function(signed.elements, self._counting_elements(signed.elements))

        def listed(sp, found, args):
            self.counters["classes.all_classes.classes"] += len(found)

        self.patch_function(
            classes.all_classes, self.span("classes.all_classes", classes.all_classes, listed)
        )

        def class_size(sp, cls, args):
            self.counters["classes.enumerate_class.elements"] += cls.size

        self.patch_function(
            classes.enumerate_class,
            self.span("classes.enumerate_class", classes.enumerate_class, class_size),
        )
        member_test = classes.ClassMembership.member_test

        def traced_member_test(membership, rep):
            return self.aggregated("classes.member_predicate", member_test(membership, rep))

        self.patch_method(
            classes.ClassMembership,
            "member_test",
            self.span("classes.member_test", traced_member_test),
        )

        def validated(sp, report, args):
            witness = args[0]
            self.counters["rack.validate.pairs"] += (len(witness.R) + len(witness.S)) ** 2
            sampled = report.reason == "sampled"
            self.counters["rack.validate.sampled"] += sampled
            for outer in reversed(self.stack):
                if outer.name == "classify.classify":
                    if report:
                        outer.sampled_ok = sampled
                    break

        self.patch_method(
            rack.TypeDWitness,
            "validate",
            self.span("rack.validate", rack.TypeDWitness.validate, validated),
        )
        self.patch_function(
            rack.check_decomposition,
            self.span("rack.check_decomposition", rack.check_decomposition),
        )
        self.patch_function(
            rack.brute_force_type_d,
            self.span("rack.brute_force_type_d", rack.brute_force_type_d),
        )

        def verdict(sp, v, args):
            self.counters[f"classify.rule.{v.rule_tag or v.status}.count"] += 1
            if v.status == PROVEN:
                self.counters["classify.proven"] += 1
                self.counters["classify.proven_sampled"] += sp.sampled_ok

        self.patch_method(
            Classifier,
            "classify",
            self.span("classify.classify", Classifier.classify, verdict),
        )

        def ranked(sp, r, args):
            self.counters["linalg.rank.rank"] += r

        rank = linalg.rank

        def counting_rank(rows):
            rows = list(rows)
            self.counters["linalg.rank.rows"] += len(rows)
            return rank(rows)

        self.patch_function(rank, self.span("linalg.rank", counting_rank, ranked))

        self.patch_function(fk.presentation, self.span("fk.presentation", fk.presentation))
        self.patch_function(
            fk.graded_dims_linear, self.span("fk.graded_dims_linear", fk.graded_dims_linear)
        )

        def completed(sp, rs, args):
            self.counters["fk.rewrite.rules"] += len(rs.rules)
            self.counters["fk.rewrite.confluent"] += bool(rs.confluent)

        self.patch_function(
            fk.complete_to_degree,
            self.span("fk.complete_to_degree", fk.complete_to_degree, completed),
        )
        self.patch_method(
            fk.RewriteSystem,
            "irreducible_counts",
            self.span("fk.irreducible_counts", fk.RewriteSystem.irreducible_counts),
        )

        def columns(sp, cols, args):
            self.counters["yd.symmetrizer.columns"] += len(cols)

        self.patch_function(yd.symmetrizer, self.span("yd.symmetrizer", yd.symmetrizer, columns))

        def degree(sp, r, args):
            self.counters[f"yd.degree.{args[1]}.s"] += sp.end - sp.start

        self.patch_function(
            yd.symmetrizer_rank, self.span("yd.symmetrizer_rank", yd.symmetrizer_rank, degree)
        )
        self.patch_function(
            yd.build_yd_module, self.span("yd.build_yd_module", yd.build_yd_module)
        )
        self.patch_method(
            yd.YDModule,
            "braided_space",
            self.span("yd.braided_space", yd.YDModule.braided_space),
        )
        for op in ("__add__", "__sub__", "__mul__", "__neg__", "inverse"):
            fn = getattr(cyclotomic.CycScalar, op)
            self.patch_method(cyclotomic.CycScalar, op, self.counted("cyclotomic.ops", fn))

    def _counting_elements(self, elements):
        def counting(kind, n):
            for x in elements(kind, n):
                self.counters["classes.all_classes.elements_listed"] += 1
                yield x

        setattr(counting, MARK, elements)
        return counting

    # -- results ----------------------------------------------------------
    def metrics(self) -> dict[str, float]:
        """Every per-layer figure by name; layers a workload never enters read 0."""
        c, s, n = self.counters, self.self_s, self.calls
        out = {
            "signed.multiply.calls": n["signed.multiply"],
            "signed.conjugate.calls": n["signed.conjugate"],
            "signed.inverse.calls": n["signed.inverse"],
            "signed.busy_s": sum(self.agg_s[f"signed.{op}"] for op in ("multiply", "conjugate", "inverse")),
            "classes.all_classes.self_s": s["classes.all_classes"],
            "classes.all_classes.elements_listed": c["classes.all_classes.elements_listed"],
            "classes.reps_per_element": _ratio(c["classes.all_classes.classes"], c["classes.all_classes.elements_listed"]),
            "classes.enumerate_class.calls": n["classes.enumerate_class"],
            "classes.enumerate_class.elements": c["classes.enumerate_class.elements"],
            "classes.enumerate_class.self_s": s["classes.enumerate_class"],
            "classes.member_test.self_s": s["classes.member_test"] + self.agg_s["classes.member_predicate"],
            "rack.validate.calls": n["rack.validate"],
            "rack.validate.pairs": c["rack.validate.pairs"],
            "rack.validate.sampled": c["rack.validate.sampled"],
            "rack.validate.self_s": s["rack.validate"],
            "rack.check_decomposition.calls": n["rack.check_decomposition"],
            "rack.check_decomposition.self_s": s["rack.check_decomposition"],
            "rack.brute_force_type_d.calls": n["rack.brute_force_type_d"],
            "rack.brute_force_type_d.self_s": s["rack.brute_force_type_d"],
            "classify.classify.calls": n["classify.classify"],
            "classify.classify.self_s": s["classify.classify"],
        }
        for tag in RULE_TAGS:
            out[f"classify.rule.{tag}.count"] = c[f"classify.rule.{tag}.count"]
        out.update(
            {
                "sampled_frac": _ratio(c["classify.proven_sampled"], c["classify.proven"]),
                "linalg.rank.calls": n["linalg.rank"],
                "linalg.rank.rows": c["linalg.rank.rows"],
                "linalg.rank.rank": c["linalg.rank.rank"],
                "linalg.rank.self_s": s["linalg.rank"],
                "linalg.rank.useful_frac": _ratio(c["linalg.rank.rank"], c["linalg.rank.rows"]),
                "fk.presentation.self_s": s["fk.presentation"],
                "fk.graded_dims_linear.self_s": s["fk.graded_dims_linear"],
                "fk.complete_to_degree.self_s": s["fk.complete_to_degree"],
                "fk.irreducible_counts.self_s": s["fk.irreducible_counts"],
                "fk.rewrite.rules": c["fk.rewrite.rules"],
                "fk.rewrite.confluent": c["fk.rewrite.confluent"],
                "yd.build_yd_module.self_s": s["yd.build_yd_module"],
                "yd.braided_space.self_s": s["yd.braided_space"],
                "yd.symmetrizer.calls": n["yd.symmetrizer"],
                "yd.symmetrizer.columns": c["yd.symmetrizer.columns"],
                "yd.symmetrizer.self_s": s["yd.symmetrizer"],
            }
        )
        for m in YD_DEGREES:
            out[f"yd.degree.{m}.s"] = c[f"yd.degree.{m}.s"]
        out["cyclotomic.ops"] = n["cyclotomic.ops"]
        return out

    def spans_json(self) -> list[dict]:
        return [sp.to_json(self.t0) for sp in self.spans]


RULE_TAGS = (
    "odd_cycle_fibers",
    "two_triples_fibers",
    "pair_repairing_fibers",
    "fixed_point_bit",
    "sym_lift",
    "exhaustive",
    "orbit_pair",
    "exception_list",
)
YD_DEGREES = (2, 3, 4, 5)


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def leftover_wrappers() -> list[str]:
    """Names in weylrack modules and classes still bound to a trace wrapper."""
    found = []
    for mod in list(sys.modules.values()):
        name = getattr(mod, "__name__", "")
        if name != "weylrack" and not name.startswith("weylrack."):
            continue
        for attr, value in vars(mod).items():
            if hasattr(value, MARK):
                found.append(f"{name}.{attr}")
            if isinstance(value, type) and value.__module__ == name:
                for cattr, cvalue in vars(value).items():
                    if hasattr(cvalue, MARK):
                        found.append(f"{name}.{attr}.{cattr}")
    return found
