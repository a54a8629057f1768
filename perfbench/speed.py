"""Host-speed probe: times reported at a fixed reference speed.

The benchmark runs on a few cores of a shared host whose speed swings by
tens of percent within seconds and over minutes, with no steal time, so the
raw wall time of an identical solve moves with the host, not the program.  While an operation runs, a SIGALRM handler fires
every ``PERIOD`` seconds and times one chunk of fixed reference work (the
small-array numpy calls and Python loop that dominate discvar, plus a small
LAPACK solve).  The chunks sample the host's speed at the same moments as
the operation.  Their time is taken out of the operation's wall time, and the
rest is scaled by ``REF_CHUNK_S / mean chunk time``: the operation's time on
a host that runs one chunk in ``REF_CHUNK_S`` seconds.  The reference work
calls no discvar code, so a change to discvar moves the scaled time in the
same proportion as the raw one.
"""

from __future__ import annotations

import signal
from contextlib import contextmanager
from time import perf_counter

import numpy as np

PERIOD = 0.025
# seconds one chunk takes on a calm 2-vCPU x86-64 host (numpy 2, OpenBLAS on
# one thread); it only fixes the unit of the scaled times
REF_CHUNK_S = 0.004
_ITERATIONS = 100
_SOLVE_EVERY = 25

_rng = np.random.default_rng(0)
_A = _rng.normal(size=(3, 3))
_X0 = _rng.normal(size=3)
_M = _rng.normal(size=(24, 24)) + 24.0 * np.eye(24)
_B = _rng.normal(size=24)


def reference_work():
    x = _X0
    acc = 0.0
    for i in range(_ITERATIONS):
        y = _A @ x + np.cross(x, _A[0])
        x = y / (1.0 + np.linalg.norm(y))
        if i % _SOLVE_EVERY == 0:
            acc += np.linalg.solve(_M, _B + x[0])[0]
    return acc + x[0]


class Probe:
    """Samples the host's speed: ``with probe.sampling() as chunks`` collects
    the seconds of every reference chunk run inside the block."""

    def __init__(self):
        self._chunks = None

    def _tick(self, signum, frame):
        t0 = perf_counter()
        reference_work()
        self._chunks.append(perf_counter() - t0)

    @contextmanager
    def sampling(self):
        chunks = self._chunks = []
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        try:
            yield chunks
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
            if not chunks:
                # a block shorter than one period: read the speed at its end
                self._tick(None, None)


def scaled(raw_s, chunks):
    """``raw_s`` at the reference speed, the host's speed read from ``chunks``."""
    return raw_s * REF_CHUNK_S / (sum(chunks) / len(chunks))
