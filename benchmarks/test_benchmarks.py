"""Self-tests for the benchmark: output checks, seeding and trace patching.

    python3 benchmarks/test_benchmarks.py
"""
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

run.import_library()

import hostspeed  # noqa: E402
import oracle  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from weylrack import signed  # noqa: E402
from weylrack.classify import EXCEPTION  # noqa: E402


def small_kernel():
    wl = workloads.Kernel()
    wl.triples, wl.block = 300, 100
    return wl


def small_fk():
    wl = workloads.Fk()
    wl.jobs = ((4, "rewrite", 14), (4, "linear", 6))
    return wl


def snapshot():
    """Every attribute of every weylrack module and class, by identity."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name != "weylrack" and not name.startswith("weylrack."):
            continue
        for attr, value in vars(mod).items():
            out[(name, attr)] = id(value)
            if isinstance(value, type) and value.__module__ == name:
                for cattr, cvalue in vars(value).items():
                    out[(name, attr, cattr)] = id(cvalue)
    return out


class CorruptedOutputs(unittest.TestCase):
    def test_flipped_sign_bit_fails_the_kernel_check(self):
        wl = small_kernel()
        inputs = wl.inputs(1, 0)
        outputs, items = wl.run(inputs)
        self.assertEqual(len(items), 3)
        self.assertEqual(wl.check(inputs, outputs), (300, 0))
        x = outputs[17][2]
        bad = signed.SignedPermutation(x.n, x.bits ^ 1, x.perm)
        outputs[17] = outputs[17][:2] + (bad,) + outputs[17][3:]
        self.assertEqual(wl.check(inputs, outputs), (300, 1))

    def test_changed_dimension_fails_the_fk_and_nichols_checks(self):
        fk = workloads.Fk()
        dims = [oracle.e4_series(14), oracle.e4_series(14), oracle.e5_series(5), oracle.e5_series(10)]
        self.assertEqual(fk.check(None, dims), (4, 0))
        dims[2] = dims[2][:3] + [dims[2][3] + 1] + dims[2][4:]
        self.assertEqual(fk.check(None, dims), (4, 1))
        nichols = workloads.Nichols()
        self.assertEqual(nichols.check(None, [1, 6, 19, 42, 71, 96]), (1, 0))
        self.assertEqual(nichols.check(None, [1, 6, 19, 42, 71, 95]), (1, 1))

    def test_wrong_verdict_fails_the_classify_check(self):
        from weylrack.classify import Classifier
        from weylrack.signed import GroupKind

        wl = workloads.Classify()
        inputs = wl.inputs(1, 0)
        kind, n, models = inputs["groups"][0]
        m = next(m for m in models if oracle.exception_case(m) is None)
        v = Classifier(GroupKind[kind], n).classify(workloads._element(m))
        self.assertTrue(wl.verdict_ok(m, v))
        v.status = EXCEPTION
        self.assertFalse(wl.verdict_ok(m, v))

    def test_reference_counts(self):
        reps = {k: oracle.class_reps(k, 6) for k in ("B", "D")}
        self.assertEqual([len(reps["B"]), len(reps["D"])], [65, 37])
        for kind, (proven, exceptions) in (("B", (37, 21)), ("D", (21, 12))):
            moved = [m for m, _ in reps[kind] if any(abs(v) - 1 != j for j, v in enumerate(m))]
            cases = [oracle.exception_case(m) for m in moved]
            self.assertEqual((cases.count(None), len(cases) - cases.count(None)), (proven, exceptions))
        self.assertEqual(oracle.e5_series(10), [1, 10, 55, 220, 711, 1960, 4761, 10410, 20796, 38370, 65921])
        self.assertEqual(sum(oracle.q_product({4: 4, 5: 2, 6: 4}, 40)), 8_294_400)


class Seeding(unittest.TestCase):
    def each_workload(self):
        yield small_kernel()
        yield workloads.Classify()
        yield small_fk()
        yield workloads.Nichols()

    def test_same_seed_same_inputs_and_outputs(self):
        for wl in self.each_workload():
            a, b = wl.inputs(7, 0), wl.inputs(7, 0)
            self.assertEqual(run.digest(wl, a), run.digest(wl, b), wl.name)
        for wl in (small_kernel(), small_fk()):
            a, b = wl.run(wl.inputs(7, 0))[0], wl.run(wl.inputs(7, 0))[0]
            self.assertEqual(run.digest(wl, a), run.digest(wl, b), wl.name)

    def test_other_seed_or_pass_changes_inputs(self):
        for wl in self.each_workload():
            base = run.digest(wl, wl.inputs(7, 0))
            self.assertNotEqual(base, run.digest(wl, wl.inputs(8, 0)), wl.name)
            self.assertNotEqual(base, run.digest(wl, wl.inputs(7, 1)), wl.name)


class Tracing(unittest.TestCase):
    def test_wrappers_leave_no_patch_behind(self):
        import weylrack.classes as classes

        before = snapshot()
        with tracing.Tracer().patched():
            self.assertTrue(hasattr(classes.conjugate, tracing.MARK))
            self.assertTrue(tracing.leftover_wrappers())
        self.assertEqual(tracing.leftover_wrappers(), [])
        self.assertEqual(snapshot(), before)

        with self.assertRaises(ZeroDivisionError):
            with tracing.Tracer().patched():
                1 / 0
        self.assertEqual(snapshot(), before)

    def test_traced_counts_repeat_exactly(self):
        def counts(wl):
            tracer = tracing.Tracer()
            with tracer.patched():
                wl.run(wl.inputs(3, 0))
            return {k: v for k, v in tracer.metrics().items() if not k.endswith(("_s", ".s"))}

        wl = small_kernel()
        first = counts(wl)
        self.assertEqual(first["signed.conjugate.calls"], 4 * 300)
        self.assertEqual(first, counts(wl))
        fk = small_fk()
        first = counts(fk)
        self.assertGreater(first["fk.rewrite.rules"], 0)
        self.assertEqual(first, counts(fk))

    def test_host_sampling_stays_out_of_the_measured_time(self):
        import signal
        import time

        host = hostspeed.HostSpeed()
        previous = signal.getsignal(signal.SIGALRM)
        with host.sampling():
            t0, c0 = time.perf_counter(), host.clock()
            while time.perf_counter() - t0 < 0.35:
                pass
            wall, clock = time.perf_counter() - t0, host.clock() - c0
        self.assertGreaterEqual(len(host.samples), 2)
        # a sample can land between the two clock reads at either end
        self.assertLessEqual(abs(wall - clock - host.handler_s), max(host.samples))
        self.assertGreater(wall - clock, 0)
        self.assertGreater(host.factor(), 0)
        self.assertIs(signal.getsignal(signal.SIGALRM), previous)
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))

    def test_tail_has_ten_samples_beyond_it(self):
        values = list(range(100))
        self.assertEqual(run.tail(values)[0], 89)
        self.assertEqual(run.tail([3, 1, 2])[0], 3)


if __name__ == "__main__":
    unittest.main()
