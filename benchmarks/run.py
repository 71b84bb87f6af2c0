"""Benchmark for weylrack: one workload per process, single-threaded.

    python3 benchmarks/run.py --workload {kernel,classify,fk,nichols}
                              --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the library is imported from its
``src/`` directory.  With ``--trace 0`` the run repeats the workload's timed
pass, each time on fresh seeded inputs, until the next pass would end after
``--seconds`` (and at least ``min_passes`` times), checks every output against a library-independent reference,
and reports the end-to-end metrics.  With ``--trace 1`` it times one pass
untraced and the same pass again with every layer wrapped (see tracing.py),
and reports the per-layer metrics; the spans go to ``benchmarks/out/``.

Every reported time is corrected for the load of a shared host (see
hostspeed.py); the raw pass times are printed above the JSON line.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the same figures for a reader, with sample counts and digests.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

from hostspeed import HostSpeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5
MICRO_OPS = 2_000
MICRO_REPEATS = 5


def import_library() -> float:
    """Import weylrack from this checkout's src/, ``SETUP_REPEATS`` times
    afresh; returns the median corrected import time."""
    src = ROOT / "src"
    if not (src / "weylrack" / "__init__.py").is_file():
        raise SystemExit(f"no weylrack sources under {src}")
    sys.path.insert(0, str(src))
    host, times = HostSpeed(), []
    for _ in range(SETUP_REPEATS):
        for name in [m for m in sys.modules if m == "weylrack" or m.startswith("weylrack.")]:
            del sys.modules[name]
        with host.sampling():
            t0 = host.clock()
            weylrack = importlib.import_module("weylrack")
            elapsed = host.clock() - t0
        times.append(elapsed * host.factor())
    if Path(weylrack.__file__).resolve().parent != src / "weylrack":
        raise SystemExit(f"weylrack imported from {weylrack.__file__}, not from {src}")
    return statistics.median(times)


def digest(wl, data) -> str:
    text = json.dumps(wl.describe(data), separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def tail(values: list[float]) -> tuple[float, str]:
    """The highest percentile with at least ten samples above it.

    With ten samples or fewer no such percentile exists; the maximum is
    reported instead and labelled so.
    """
    s = sorted(values)
    if len(s) <= 10:
        return s[-1], f"max of {len(s)}"
    return s[-11], f"p{100 * (len(s) - 10) / len(s):.2f} of {len(s)}"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def timed_pass(host, run, inputs):
    """One pass under host sampling: outputs, corrected item times and wall,
    and the raw wall."""
    gc.collect()
    with host.sampling():
        t0 = host.clock()
        outputs, items = run(inputs, host.clock)
        wall = host.clock() - t0
    f = host.factor()
    corrected = [(end - start) * host.factor_between(start, end) for start, end in items]
    return outputs, corrected, wall * f, wall


def build_inputs(host, wl, seed: int, p: int):
    with host.sampling():
        t0 = host.clock()
        inputs = wl.inputs(seed, p)
        elapsed = host.clock() - t0
    return inputs, elapsed * host.factor()


def measure(wl, seed: int, seconds: float, import_s: float) -> dict:
    host = HostSpeed()
    setups, walls, raw_walls, items = [], [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        p = len(walls)
        inputs, setup = build_inputs(host, wl, seed, p)
        setups.append(setup)
        outputs, pass_items, wall, raw = timed_pass(host, wl.run, inputs)
        walls.append(wall)
        raw_walls.append(raw)
        items.extend(pass_items)
        a, f = wl.check(inputs, outputs)
        attempted, failed = attempted + a, failed + f
        if p == 0:
            digests = (digest(wl, inputs), digest(wl, outputs))
        del inputs, outputs
        elapsed = time.perf_counter() - start
        if len(walls) >= wl.min_passes and elapsed + elapsed / len(walls) > seconds:
            break
    rss = peak_rss_mb()
    while len(setups) < SETUP_REPEATS:
        setups.append(build_inputs(host, wl, seed, len(setups))[1])

    wall_tail, wall_label = tail(walls)
    item_tail, item_label = tail(items)
    info = [
        f"raw wall times: median {statistics.median(raw_walls):.6f} s over {len(raw_walls)} passes",
        f"passes {len(walls)}: wall_s median {statistics.median(walls):.6f} s, tail ({wall_label}) {wall_tail:.6f} s",
        f"items {len(items)}: median {1e3 * statistics.median(items):.6f} ms, tail ({item_label}) {1e3 * item_tail:.6f} ms",
        f"setup (corrected): median of {SETUP_REPEATS} imports {import_s:.6f} s + median of {len(setups)} input builds {statistics.median(setups):.6f} s",
        f"failed_frac {failed}/{attempted} = {failed / attempted:.6f}",
        f"pass 0 digests: inputs {digests[0]} outputs {digests[1]}",
    ]
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (import_s + statistics.median(setups), "s"),
        "peak_rss_mb": (rss, "MB"),
        "item_p50_ms": (1e3 * statistics.median(items), "ms"),
        "item_tail_ms": (1e3 * item_tail, "ms"),
    }
    return {"attempted": attempted, "failed": failed, "metrics": metrics, "info": info}


def micro_us(seed: int) -> dict:
    """Untraced, corrected microseconds per call of multiply and conjugate at n = 7."""
    import random

    from weylrack import signed

    rng = random.Random(f"micro:{seed}")
    pairs = [(signed.random_element(rng, 7), signed.random_element(rng, 7)) for _ in range(MICRO_OPS)]
    host, out = HostSpeed(), {}
    for name in ("multiply", "conjugate"):
        fn = getattr(signed, name)
        runs = []
        for _ in range(MICRO_REPEATS):
            with host.sampling():
                t0 = host.clock()
                for x, y in pairs:
                    fn(x, y)
                elapsed = host.clock() - t0
            runs.append(elapsed * host.factor() / len(pairs) * 1e6)
        out[f"signed.{name}_us"] = (statistics.median(runs), "us")
    return out


def layer_unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(("_frac", "_per_element")):
        return "ratio"
    return "count"


def traced(wl, workload: str, seed: int) -> dict:
    from tracing import Tracer, leftover_wrappers

    metrics = micro_us(seed)
    host = HostSpeed()
    inputs = wl.inputs(seed, 0)
    outputs, _, untraced_wall, _ = timed_pass(host, wl.run, inputs)
    attempted, failed = wl.check(inputs, outputs)
    tracer = Tracer(host.clock)
    with tracer.patched():
        inputs = tracer.span("benchmark.setup", wl.inputs)(seed, 0)
        outputs, _, traced_wall, _ = timed_pass(host, tracer.span("benchmark.pass", wl.run), inputs)
    left = leftover_wrappers()
    if left:
        raise SystemExit(f"trace wrappers left behind: {left}")
    a, f = wl.check(inputs, outputs)
    attempted, failed = attempted + a, failed + f

    for name, value in tracer.metrics().items():
        metrics[name] = (value, layer_unit(name))
    metrics["trace_overhead_frac"] = (traced_wall / untraced_wall - 1, "ratio")

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"trace-{workload}-{seed}.json"
    path.write_text(json.dumps({"workload": workload, "seed": seed, "spans": tracer.spans_json()}))
    info = [
        f"untraced pass {untraced_wall:.6f} s, traced pass {traced_wall:.6f} s (host-corrected)",
        f"{len(tracer.spans)} spans written to {path.relative_to(ROOT)}",
        f"failed_frac {failed}/{attempted} = {failed / attempted:.6f}",
    ]
    return {"attempted": attempted, "failed": failed, "metrics": metrics, "info": info}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("kernel", "classify", "fk", "nichols"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_s = import_library()
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    if args.trace:
        result = traced(wl, args.workload, args.seed)
    else:
        result = measure(wl, args.seed, args.seconds, import_s)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for line in result["info"]:
        print("  " + line)
    for name, (value, unit) in result["metrics"].items():
        print(f"  {name} = {value!r} {unit}")
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
