"""Host-speed normalisation with a fixed pure-Python reference loop.

The processor speed of a small shared host drifts by about a quarter over
tens of seconds, and it also swings within a single op of a second or two.
The benchmark therefore times a fixed reference loop just before and just
after every op (or short batch of small ops), and also during it: an
interval timer (``SIGALRM`` every ``SAMPLE_PERIOD_S``) runs one loop from a
signal handler. The op's raw time excludes the time spent in the handler,
and is reported in *reference seconds*:

    reference seconds = raw seconds * REF_NOMINAL_S / mean(loop times around and during it)

``REF_NOMINAL_S`` is a constant of the benchmark: the typical time of one
loop on the host the reference figures in README.md come from, so that
reference seconds read close to raw seconds there. Changing it rescales every
reported time, so it must stay fixed for as long as results are compared.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from contextlib import contextmanager
from fractions import Fraction

REF_NOMINAL_S = 0.001
REF_LOOPS = 4  # loop timings on each side of an op or batch
SAMPLE_PERIOD_S = 0.05  # one loop inside the timed work this often (about 2 % of it)
_REF_N = 1000


def reference_loop(n: int = _REF_N) -> int:
    """Interpreter-bound work in the program's own mix: str, dict, int and Fraction."""
    acc = 0
    table = {}
    for i in range(n):
        s = str(i)
        table[s] = i
        acc += len(s) + (i * 7) % 13
    total = Fraction(0)
    for i in range(1, n // 10):
        total += Fraction(1, i % 7 + 1)
    return acc + len(table) + total.numerator % 7


def timed_loop() -> float:
    """Raw duration of one reference loop.

    The garbage collector is paused meanwhile: the loop's allocations could
    otherwise start a full collection of the op's heap and charge it to the
    loop. The loop frees everything it allocates, so it leaves no garbage.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        reference_loop()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def time_loops(count: int = REF_LOOPS) -> list[float]:
    """Raw durations of ``count`` back-to-back reference loops."""
    return [timed_loop() for _ in range(count)]


def scale(samples: list[float]) -> float:
    """Factor from raw seconds to reference seconds, given loop times."""
    return REF_NOMINAL_S / statistics.fmean(samples)


class Sampler:
    """Samples the reference loop around and during timed work.

    ``now()`` is a clock that stops while the handler runs, so differences of
    it are raw op times without the sampling. ``pauses`` keeps the
    (start, end) ``perf_counter`` interval of every handler run, so traced
    spans can leave them out too. The process has one such sampler: it owns
    ``SIGALRM`` and the real-time interval timer.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.pauses: list[tuple[float, float]] = []
        self._paused = 0.0
        self._active = False
        signal.signal(signal.SIGALRM, self._tick)

    def now(self) -> float:
        return time.perf_counter() - self._paused

    def _tick(self, signum, frame) -> None:
        if not self._active:
            return
        start = time.perf_counter()
        self.samples.append(timed_loop())
        end = time.perf_counter()
        self.pauses.append((start, end))
        self._paused += end - start

    @contextmanager
    def window(self):
        """Sample before, during and after the block; then ``scale()`` applies to it."""
        self.samples = time_loops()
        self._active = True
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            self._active = False
        self.samples += time_loops()

    def scale(self) -> float:
        return scale(self.samples)
