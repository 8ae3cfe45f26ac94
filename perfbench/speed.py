"""A fixed reference kernel that measures how fast the machine runs right now.

On a shared 2-vCPU VM whole runs slow down together by up to ~50% for tens
of seconds at a time, with no steal time visible in the guest, so raw wall
times of identical runs spread far wider than any useful regression bound.
The benchmark runs this kernel after every timed piece of work (a
run_training* call, a set-up, an oracle round) and scales the work's wall
time by REFERENCE_S / the median kernel time around it: the timing metrics
then read as seconds at a fixed machine speed. The kernel calls no pqfl code, so no change to
pqfl can move it. Its parts (an integer loop, building small dicts, small
float32 matmuls, one ML-DSA-44 signature) are the kinds of work whose
slowdowns tracked a sig-small round's most closely; hashing a large buffer
barely slowed in the same stretches and is left out.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np
from cryptography.hazmat.primitives.asymmetric import mldsa

# About the median kernel time on the calibration machine (2 vCPUs, Python
# 3.11, numpy 2.4 with one OpenBLAS thread, cryptography 48). It only sets the
# scale: scaled times are close to raw ones there.
REFERENCE_S = 2.0e-3
DUTY = 0.05  # kernel time as a share of the work just timed
# Kernel times within this many seconds of a piece of work give its speed. A
# single probe is too noisy to use alone; slow stretches last longer than this.
WINDOW_S = 0.2


class SpeedProbe:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._x = rng.standard_normal((32, 20)).astype(np.float32)
        self._w = rng.standard_normal((20, 32)).astype(np.float32)
        self._key = mldsa.MLDSA44PrivateKey.from_seed_bytes(bytes(32))
        self._message = bytes(range(256)) * 13
        self._ends: list[float] = []  # perf_counter() at the end of each kernel run
        self._times: list[float] = []

    def _kernel(self) -> None:
        total = 0
        for i in range(5_000):
            total += i * i
        [{"round": i, "pair": (i, total), "text": str(i)} for i in range(1_000)]
        for _ in range(50):
            np.maximum(self._x @ self._w, 0).sum(axis=0)
        self._key.sign(self._message)

    def probe(self, busy_s: float) -> None:
        """Run the kernel for DUTY of `busy_s`, the duration of the work just
        timed, and at least once."""
        deadline = time.perf_counter() + DUTY * busy_s
        while True:
            t0 = time.perf_counter()
            self._kernel()
            t1 = time.perf_counter()
            self._ends.append(t1)
            self._times.append(t1 - t0)
            if t1 >= deadline:
                return

    def factor(self, start: float, end: float) -> float:
        """REFERENCE_S over the median kernel time within WINDOW_S of the
        interval [start, end]: above 1 when the machine ran faster than the
        reference, below 1 when slower. Call it once the probing is done."""
        lo = bisect.bisect_left(self._ends, start - WINDOW_S)
        hi = bisect.bisect_right(self._ends, end + WINDOW_S)
        if lo == hi:
            raise ValueError("no probe near the interval; probe after every timed piece of work")
        return REFERENCE_S / statistics.median(self._times[lo:hi])

    def scaled(self, start: float, end: float) -> float:
        """The duration of [start, end] in seconds at the reference speed."""
        return (end - start) * self.factor(start, end)
