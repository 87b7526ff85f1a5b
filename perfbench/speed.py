"""CPU speed meter for scaling timings to a reference speed.

On the 2-core VM the baseline was recorded on, the speed of the CPU a process
runs on changes by up to 3x over seconds to minutes, whatever the process
does: a fixed evaluate_model call varied with an interquartile range of 35%
of its median over 100 s, and whole 30 s runs ran 2x slower than others.

A short fixed kernel measures the current speed. It runs right before and
right after every timed part, and every INTERVAL_S during it, from a SIGALRM
handler on the measured thread itself, so it always measures the CPU the
part is running on. A part's time excludes the kernel's own runs inside it;
dividing that time by the kernel's mean time over the part and multiplying
by REFERENCE_S gives the time the part would have taken at the reference
speed. The kernel resembles the program's hot path (per-token Python calls
on small numpy arrays) and uses no fewner code, so a change to the program
cannot change it.
"""

from __future__ import annotations

import contextlib
import signal
from array import array
from dataclasses import dataclass
from time import perf_counter

import numpy as np

# the kernel's time at the reference speed: about its 5th percentile on the
# machine the baseline was recorded on (median 2.3 ms in a quiet period,
# 3.3 ms in a busy one)
REFERENCE_S = 0.0022
INTERVAL_S = 0.1


@dataclass
class Timing:
    seconds: float = 0.0  # wall time of the part, the kernel's runs inside it excluded
    scaled: float = 0.0  # the same at the reference speed


class SpeedMeter:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.head = rng.normal(size=(7, 64))
        self.head_bias = np.zeros(7)
        self.centroids = rng.normal(size=(14, 64))
        self.embeddings = rng.normal(size=(50, 32))
        self.context = rng.normal(size=(64, 96))
        self.context_bias = np.zeros(64)
        self.inputs = rng.normal(size=(60, 64))
        self.samples = array("d")  # kernel times taken by the periodic handler
        self.sampled_s = 0.0  # their sum
        self._busy = False

    def kernel(self) -> float:
        """Seconds the kernel takes now: per token, a linear softmax head
        and its outer product, prototype distances, a 3-token window
        encoding and a Python argmax."""
        start = perf_counter()
        emb = self.embeddings
        for i, x in enumerate(self.inputs):
            z = self.head @ x + self.head_bias
            e = np.exp(z - z.max())
            np.outer(e / e.sum(), x)
            q = np.exp(-np.linalg.norm(self.centroids - x, axis=1))
            q /= q.sum()
            idx = [(i * 7 + j) % len(emb) for j in range(9)]
            window = np.hstack([emb[idx[:-2]], emb[idx[1:-1]], emb[idx[2:]]])
            np.tanh(window @ self.context.T + self.context_bias)
            max(range(len(q)), key=lambda k: q[k])
        return perf_counter() - start

    def _tick(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        try:
            took = self.kernel()
        finally:
            self._busy = False
        self.samples.append(took)
        self.sampled_s += took

    @contextlib.contextmanager
    def running(self):
        """Sample periodically while the block runs."""
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    @contextlib.contextmanager
    def timed(self):
        """Time a block; the Timing is filled in when the block ends."""
        timing = Timing()
        self._busy = True  # the periodic handler skips while _busy is set
        before = self.kernel()
        first, sampled = len(self.samples), self.sampled_s
        start = perf_counter()
        self._busy = False
        try:
            yield timing
        finally:
            self._busy = True
            wall = perf_counter() - start
            inside = self.samples[first:]
            timing.seconds = wall - (self.sampled_s - sampled)
            after = self.kernel()
            self._busy = False
            speed = (before + sum(inside) + after) / (len(inside) + 2)
            timing.scaled = timing.seconds * REFERENCE_S / speed
