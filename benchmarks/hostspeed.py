"""Host-load correction for times measured on a shared machine.

On a host shared with other tenants the same pass can take anywhere from 1x
to 2x its idle time, and the slow spells last from seconds to minutes, so
raw times of two runs differ by more than any bound a regression check could
use.  While a measured block runs, SIGALRM fires every ``INTERVAL_S`` and
the handler times a fixed reference loop (benchmark code that no library
change touches).  The block's corrected time is its time scaled by
``REF_S / mean(reference times sampled during it)``: seconds on a host that
runs the loop in ``REF_S``, the idle figure of the machine the baseline was
recorded on.  The handler's own time is left out of :meth:`HostSpeed.clock`,
so it never counts toward a measured block.
"""
from __future__ import annotations

import random
import signal
import statistics
import time
from contextlib import contextmanager
from fractions import Fraction

import oracle

INTERVAL_S = 0.1
MIN_SAMPLES = 3
REF_S = 0.0007  # puts corrected times near raw ones on the idle 2-core Xeon VM of the baseline

_rng = random.Random(0)
_PAIRS = [
    (oracle.from_raw(_rng.getrandbits(6), tuple(_rng.sample(range(6), 6))),
     oracle.from_raw(_rng.getrandbits(6), tuple(_rng.sample(range(6), 6))))
    for _ in range(40)
]
_FRACTIONS = [Fraction(_rng.randrange(1, 99), _rng.randrange(1, 99)) for _ in range(64)]


def reference_loop() -> None:
    """Tuple permutations, dict updates and Fraction products: the kinds of
    work the workloads do, about a millisecond long."""
    for x, y in _PAIRS:
        oracle.square_map(x, y)
    acc: dict = {}
    for i, f in enumerate(_FRACTIONS):
        acc[i % 7] = acc.get(i % 7, 0) + f * _FRACTIONS[-i]


class HostSpeed:
    def __init__(self):
        self.handler_s = 0.0
        self.samples: list[float] = []
        self.stamps: list[float] = []  # clock() at each sample

    def clock(self) -> float:
        """``perf_counter`` without the time spent in the sampler."""
        return time.perf_counter() - self.handler_s

    def _sample(self, *_) -> None:
        t0 = time.perf_counter()
        self.stamps.append(t0 - self.handler_s)
        reference_loop()
        self.samples.append(time.perf_counter() - t0)
        self.handler_s += time.perf_counter() - t0

    @contextmanager
    def sampling(self):
        """Time the reference loop every ``INTERVAL_S`` while the block runs."""
        self.samples, self.stamps = [], []
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def factor(self) -> float:
        """``REF_S`` over the mean reference time of the last sampled block;
        a block shorter than the interval is sampled right after it ends."""
        while len(self.samples) < MIN_SAMPLES:
            self._sample()
        return REF_S / statistics.fmean(self.samples)

    def factor_between(self, start: float, end: float) -> float:
        """The factor for a part [start, end] of the last block, in clock()
        time: from the samples inside it, or the nearest ``MIN_SAMPLES``."""
        inside = [dt for t, dt in zip(self.stamps, self.samples) if start <= t <= end]
        if len(inside) < MIN_SAMPLES:
            mid = (start + end) / 2
            nearest = sorted(zip(self.stamps, self.samples), key=lambda s: abs(s[0] - mid))
            inside = [dt for _, dt in nearest[:MIN_SAMPLES]]
        return REF_S / statistics.fmean(inside)
