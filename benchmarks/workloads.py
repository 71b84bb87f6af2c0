"""The four benchmark workloads.

Each workload draws the inputs of pass ``p`` from ``(seed, p)`` alone, with
the benchmark's own generator, and hands the library nothing else.  Every
pass draws fresh inputs, so no pass reuses the previous one's elements.

* ``inputs(seed, p)`` builds the pass's inputs (set-up, untimed);
* ``run(inputs, clock)`` is the timed pass; it returns the outputs and the
  ``(start, end)`` times on ``clock`` of each item (one library call, or one
  block of kernel triples);
* ``check(inputs, outputs)`` compares every output with the references in
  :mod:`oracle` and returns ``(attempted, failed)``;
* ``describe(inputs)`` / ``describe(outputs)`` give the bytes that are
  hashed into the run's input and output digests.
"""
from __future__ import annotations

import random
from itertools import combinations, permutations
from time import perf_counter

import oracle
from weylrack import classes, fk, rack, signed, yd
from weylrack.classify import EXCEPTION, PROVEN, Classifier
from weylrack.cyclotomic import CyclotomicField
from weylrack.signed import GroupKind

KINDS = {"B": GroupKind.B, "D": GroupKind.D}


def _element(m) -> signed.SignedPermutation:
    bits, perm = oracle.to_raw(m)
    return signed.SignedPermutation(len(m), bits, perm)


def _model(x: signed.SignedPermutation):
    return oracle.from_raw(x.bits, x.perm)


def _random_model(rng: random.Random, n: int, kind: str = "B"):
    perm = list(range(n))
    rng.shuffle(perm)
    bits = rng.getrandbits(n)
    if kind == "D" and bin(bits).count("1") % 2:
        bits ^= 1
    return oracle.from_raw(bits, tuple(perm))


class Kernel:
    """Seeded triples in W(B_n), n uniform in 1..8, fresh every pass."""

    name = "kernel"
    min_passes = 1
    triples = 10_000
    # an item is a block of triples: single triples take ~50 us, so their
    # tail would time the host's scheduler rather than the kernel
    block = 1_000

    def inputs(self, seed: int, p: int):
        rng = random.Random(f"kernel:{seed}:{p}")
        models, elements, commuting = [], [], []
        for _ in range(self.triples):
            n = rng.randint(1, 8)
            triple = tuple(_random_model(rng, n) for _ in range(3))
            x, y = triple[0], triple[1]
            models.append(triple)
            elements.append(tuple(_element(m) for m in triple))
            # permutation parts commute: the products agree up to signs
            xy, yx = oracle.compose(x, y), oracle.compose(y, x)
            commuting.append([abs(v) for v in xy] == [abs(v) for v in yx])
        return {"models": models, "elements": elements, "commuting": commuting}

    def run(self, inputs, clock=perf_counter):
        multiply, inverse, conjugate = signed.multiply, signed.inverse, signed.conjugate
        sq, general, commuting = rack.sq, rack.sq_formula_general, rack.sq_formula_commuting
        elements, flags = inputs["elements"], inputs["commuting"]
        outputs, times = [], []
        for start in range(0, len(elements), self.block):
            t0 = clock()
            for (x, y, z), comm in zip(elements[start : start + self.block], flags[start : start + self.block]):
                outputs.append(
                    (
                        multiply(x, y),
                        inverse(x),
                        conjugate(z, x),
                        sq(x, y),
                        general(x, y),
                        commuting(x, y) if comm else None,
                    )
                )
            times.append((t0, clock()))
        return outputs, times

    def check(self, inputs, outputs):
        failed = 0
        for (x, y, z), comm, out in zip(inputs["models"], inputs["commuting"], outputs):
            s = oracle.square_map(x, y)
            expected = (oracle.compose(x, y), oracle.invert(x), oracle.conj(z, x), s, s, s if comm else None)
            got = tuple(None if o is None else _model(o) for o in out)
            failed += got != expected
        return len(outputs), failed

    def describe(self, data) -> list:
        if isinstance(data, dict):
            return [[list(m) for m in triple] for triple in data["models"]]
        return [[None if o is None else [o.bits, list(o.perm)] for o in out] for out in data]


class Classify:
    """Every class of B6 and D6 with a nontrivial permutation part, each as a
    seeded random conjugate of its representative, in seeded order, plus a
    seeded conjugate of the rank-8 element 10000001:(1 2 3)."""

    name = "classify"
    # verdict costs depend on the seeded conjugates, so the median verdict
    # needs two draws per class to settle
    min_passes = 2
    rank8 = oracle.from_raw(0b10000001, (1, 2, 0, 3, 4, 5, 6, 7))

    def inputs(self, seed: int, p: int):
        rng = random.Random(f"classify:{seed}:{p}")
        groups, sizes = [], {}
        for kind in ("B", "D"):
            reps = oracle.class_reps(kind, 6)
            sizes[kind] = sorted(size for _, size in reps)
            models = [
                oracle.conj(_random_model(rng, 6, kind), m)
                for m, _ in reps
                if any(abs(v) - 1 != j for j, v in enumerate(m))
            ]
            rng.shuffle(models)
            groups.append((kind, 6, models))
        groups.append(("B", 8, [oracle.conj(_random_model(rng, 8), self.rank8)]))
        elements = [[_element(m) for m in models] for _, _, models in groups]
        return {"groups": groups, "elements": elements, "sizes": sizes}

    def run(self, inputs, clock=perf_counter):
        class_sizes = {
            kind: sorted(c.size for c in classes.all_classes(KINDS[kind], 6)) for kind in ("B", "D")
        }
        verdicts, times = [], []
        for (kind, n, _), elements in zip(inputs["groups"], inputs["elements"]):
            classifier = Classifier(KINDS[kind], n)
            for x in elements:
                t0 = clock()
                verdicts.append(classifier.classify(x))
                times.append((t0, clock()))
        return {"class_sizes": class_sizes, "verdicts": verdicts}, times

    def check(self, inputs, outputs):
        failed = sum(outputs["class_sizes"][k] != inputs["sizes"][k] for k in ("B", "D"))
        models = [m for _, _, group in inputs["groups"] for m in group]
        for m, v in zip(models, outputs["verdicts"]):
            failed += not self.verdict_ok(m, v)
        return 2 + len(models), failed

    @staticmethod
    def verdict_ok(m, v) -> bool:
        case = oracle.exception_case(m)
        if case is not None:
            return v.status == EXCEPTION and v.exception_case == case
        if v.status != PROVEN or v.witness is None:
            return False
        a, b = _model(v.witness.a), _model(v.witness.b)
        kind = oracle.signed_cycle_type(m)
        return (
            oracle.square_map(a, b) != b
            and oracle.signed_cycle_type(a) == kind
            and oracle.signed_cycle_type(b) == kind
        )

    def describe(self, data) -> list:
        if "groups" in data:
            return [[kind, n, [list(m) for m in models]] for kind, n, models in data["groups"]]
        verdicts = []
        for v in data["verdicts"]:
            w = v.witness
            verdicts.append(
                [v.status, v.rule_tag, v.exception_case]
                + ([len(w.R), len(w.S), [w.a.bits, list(w.a.perm)], [w.b.bits, list(w.b.perm)]] if w else [])
            )
        return [data["class_sizes"], verdicts]


class Fk:
    """Seeded gauge twists of E_4 and E_5: eps_ij = +-1 per pair, alpha(i,j,k)
    = eps_ki eps_ij, beta(i,j,k) = eps_ki eps_jk; isomorphic to E_n."""

    name = "fk"
    min_passes = 1
    jobs = ((4, "linear", 14), (4, "rewrite", 14), (5, "linear", 5), (5, "rewrite", 10))

    def inputs(self, seed: int, p: int):
        rng = random.Random(f"fk:{seed}:{p}")
        signs, algebras = {}, {}
        for n in (4, 5):
            eps = {}
            for i, j in combinations(range(1, n + 1), 2):
                eps[(i, j)] = eps[(j, i)] = rng.choice((1, -1))
            triples = list(permutations(range(1, n + 1), 3))
            alpha = {(i, j, k): eps[(k, i)] * eps[(i, j)] for i, j, k in triples}
            beta = {(i, j, k): eps[(k, i)] * eps[(j, k)] for i, j, k in triples}
            signs[n] = sorted((i, j, e) for (i, j), e in eps.items() if i < j)
            algebras[n] = fk.presentation(n, alpha, beta, -1, 1)
        return {"signs": signs, "algebras": algebras}

    def run(self, inputs, clock=perf_counter):
        dims, times = [], []
        for n, engine, degree in self.jobs:
            t0 = clock()
            dims.append(fk.graded_dims(inputs["algebras"][n], degree, engine))
            times.append((t0, clock()))
        return dims, times

    def check(self, inputs, outputs):
        reference = {4: oracle.e4_series, 5: oracle.e5_series}
        failed = sum(
            got != reference[n](degree) for (n, _, degree), got in zip(self.jobs, outputs)
        )
        return len(self.jobs), failed

    def describe(self, data) -> list:
        if isinstance(data, dict):
            return [data["signs"][4], data["signs"][5]]
        return data


class Nichols:
    """The S_4 transposition class with the sign character over Q(zeta_2),
    renumbered in a seeded order; graded dimensions to degree 5."""

    name = "nichols"
    min_passes = 1
    degree = 5

    def inputs(self, seed: int, p: int):
        rng = random.Random(f"nichols:{seed}:{p}")
        x = signed.SignedPermutation(4, 0, (1, 0, 2, 3))
        cls = classes.enumerate_class(GroupKind.S, x)
        order = list(range(cls.size))
        rng.shuffle(order)
        cls = yd.renumber_class(cls, order)
        cen = classes.centralizer(GroupKind.S, cls.rep, cls)
        module = yd.build_yd_module(cls, yd.perm_sign_rep(cen, CyclotomicField(2)))
        return {"order": order, "space": module.braided_space()}

    def run(self, inputs, clock=perf_counter):
        t0 = clock()
        dims = yd.nichols_graded_dims(inputs["space"], self.degree)
        return dims, [(t0, clock())]

    def check(self, inputs, outputs):
        return 1, int(outputs != oracle.e4_series(self.degree))

    def describe(self, data) -> list:
        if isinstance(data, dict):
            return data["order"]
        return data


WORKLOADS = {w.name: w for w in (Kernel(), Classify(), Fk(), Nichols())}
