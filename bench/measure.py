"""The closed measurement loop and the statistics drawn from it.

Times are reported at a reference machine speed. On a shared 2-core KVM
guest (Intel Xeon, 2.1 GHz nominal) the speed changed by up to 1.7x within
seconds (a fixed numpy loop sampled once a second ran 194 to 337 times),
which no run length averages out, and different kinds of work slowed by
different amounts. So while a workload runs, a timer signal every SAMPLE_S
seconds times reference kernels made of the kind of work that workload
spends its time in: numpy calls on short arrays and plain interpreter work
for the workloads at degree <= 16, and O(d^2) array steps at d = 256 on
preallocated buffers for ``highdeg`` (with fresh buffers, the time depended
on whether the allocator could reuse freed pages). A sample's slowdown is
the mean over its kernels of time taken over nominal time. Each block of
calls has its wall time divided by the median slowdown sampled during it,
and the time the samples themselves took is not counted. The raw wall-time
figures are kept in the run's details.
"""
from __future__ import annotations

import math
import signal
import statistics
from bisect import bisect_left, bisect_right
from time import perf_counter

import numpy as np

SAMPLE_S = 0.1

_SMALL = np.exp(2j * np.pi * np.arange(512) / 512)
_PAIRS = np.exp(2j * np.pi * (np.arange(256) + 0.3) / 256)
_PAIR_BUF = np.empty((256, 256), dtype=np.complex128)
_PAIR_ROW = np.empty(256, dtype=np.complex128)
_LONG = np.exp(2j * np.pi * np.arange(16384) / 16384)
_LONG_BUF = np.empty(16384, dtype=np.complex128)


def _short_arrays():
    x = _SMALL
    for k in range(24):
        z = np.abs(np.fft.ifft(x * (1.0 + 0.01 * k))) ** 2
        np.where(z >= z.mean(), z, 0.0).sum()
        x = np.exp(1j * np.angle(x + 0.1))


def _interpreter():
    acc = 0
    for i in range(12000):
        acc += i * i % 7


def _large_arrays():
    for _ in range(2):
        np.subtract.outer(_PAIRS, _PAIRS, out=_PAIR_BUF)
        np.fill_diagonal(_PAIR_BUF, np.inf)
        np.divide(1.0, _PAIR_BUF, out=_PAIR_BUF)
        _PAIR_BUF.sum(axis=1, out=_PAIR_ROW)
    _LONG_BUF[:] = 0.0
    for _ in range(20):
        np.multiply(_LONG_BUF, _LONG, out=_LONG_BUF)
        np.add(_LONG_BUF, 0.5, out=_LONG_BUF)


# kernel name -> (kernel, its time at the reference speed in seconds)
KERNELS = {
    "short_arrays": (_short_arrays, 0.85e-3),
    "interpreter": (_interpreter, 0.65e-3),
    "large_arrays": (_large_arrays, 1.0e-3),
}
SMALL_WORK = ("short_arrays", "interpreter")


def slowdown(kernels=SMALL_WORK) -> float:
    """Mean over the named reference kernels of time taken over nominal time."""
    total = 0.0
    for name in kernels:
        kernel, nominal = KERNELS[name]
        t0 = perf_counter()
        kernel()
        total += (perf_counter() - t0) / nominal
    return total / len(kernels)


class SpeedSampler:
    """Samples the machine's slowdown from a SIGALRM timer while in use.

    ``stolen`` accumulates the seconds the samples took, so a caller can take
    them out of any interval it times.
    """

    def __init__(self, kernels):
        self.kernels = kernels
        self.times = []
        self.slowdowns = []
        self.stolen = 0.0

    def _sample(self, signum=None, frame=None):
        t0 = perf_counter()
        self.slowdowns.append(slowdown(self.kernels))
        self.times.append(t0)
        self.stolen += perf_counter() - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def slowdown_between(self, start: float, end: float) -> float:
        """Median slowdown sampled in [start, end]; else the sample nearest to it."""
        lo, hi = bisect_left(self.times, start), bisect_right(self.times, end)
        if hi > lo:
            return statistics.median(self.slowdowns[lo:hi])
        if not self.times:
            return 1.0
        mid = 0.5 * (start + end)
        near = min((j for j in (lo - 1, lo) if 0 <= j < len(self.times)),
                   key=lambda j: abs(self.times[j] - mid))
        return self.slowdowns[near]


def run_loop(wl, seconds=None, blocks=None, tracer=None, tamper=None) -> dict:
    """Closed loop in blocks of ``wl.block_calls`` calls: ``blocks`` blocks, or
    as many as end within half a block of ``seconds`` of wall time.

    Only ``wl.call`` is timed; input generation and the oracle are not.
    ``tamper`` may alter a collected result before the oracle sees it.
    """
    block_items, block_s, block_span, lat_ms, lat_block, failures = [], [], [], [], [], []
    attempted = failed = 0
    start = perf_counter()

    def more():
        if blocks is not None:
            return len(block_s) < blocks
        done = len(block_s)
        elapsed = perf_counter() - start
        return done == 0 or elapsed + 0.5 * elapsed / done <= seconds

    with SpeedSampler(wl.reference) as sampler:
        i = 0
        while more():
            items_b, time_b = 0, 0.0
            block_start = perf_counter()
            for _ in range(wl.block_calls):
                inp = wl.make_input(i)
                if tracer is not None:
                    tracer.item = i
                    tracer.active = True
                stolen = sampler.stolen
                t0 = perf_counter()
                try:
                    raw = wl.call(inp)
                    error = None
                except Exception as exc:  # a failing library call is a failed item
                    error = f"item {i}: {type(exc).__name__}: {exc}"
                elapsed = perf_counter() - t0 - (sampler.stolen - stolen)
                if tracer is not None:
                    tracer.active = False
                if error is None:
                    result = wl.collect(inp, raw)
                    if tamper is not None:
                        tamper(result)
                    items, bad = wl.check(inp, result)
                    raw = result = None  # free before the next call
                else:
                    items, bad = 1, [error]
                items_b += items
                time_b += elapsed
                attempted += items
                failed += min(items, len(bad))
                failures.extend(bad[:3])
                lat_ms.append(1e3 * elapsed / items)
                lat_block.append(len(block_s))
                i += 1
            block_items.append(items_b)
            block_s.append(time_b)
            block_span.append((block_start, perf_counter()))
        wall = perf_counter() - start
    scale = [1.0 / sampler.slowdown_between(a, b) for a, b in block_span]
    return {
        "calls": i,
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:20],
        "wall_s": wall,
        "speed_samples": len(sampler.slowdowns),
        "block_items": block_items,
        "block_s": block_s,
        "scale": scale,
        "latency_ms": [ms * scale[b] for ms, b in zip(lat_ms, lat_block)],
        "raw_latency_ms": lat_ms,
    }


def items_per_s(res, scaled: bool = True) -> float:
    """Median over blocks of items per timed second.

    Every block is a whole number of degree cycles, so each does the same mix
    of work, and the median drops blocks an interrupt or another process hit.
    """
    return statistics.median(
        n / (s * (k if scaled else 1.0))
        for n, s, k in zip(res["block_items"], res["block_s"], res["scale"]))


def tail_percentile(samples) -> tuple:
    """(value, percentile): p99, or the highest percentile with ten samples above it."""
    xs = sorted(samples)
    n = len(xs)
    q = min(0.99, 1.0 - 10.0 / n) if n > 10 else 1.0
    return xs[max(0, math.ceil(q * n) - 1)], 100.0 * q
