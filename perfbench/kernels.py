"""Standalone Lie-kernel timings: microseconds per group element.

Rows ``lie.kernel.<SO3|SE3>.<cay|exp>.<fn>.b<batch>_us`` for ``tau``,
``dtau_inv_matrix`` and ``Ad_matrix`` at batch 1, 32 and 1024, on fixed
seeded inputs (independent of the workload seed).  Batch 1 is a single
element without a batch axis, the shape the integrators pass; batch 32 is the
size of one residual evaluation in the group solves.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

from discvar import lie

BATCHES = (1, 32, 1024)
FNS = ("tau", "dtau_inv_matrix", "Ad_matrix")
_INPUT_SEED = 20120303
_REPEATS = 5
_MIN_SAMPLE_S = 2e-3


def row_names():
    return [f"lie.kernel.{g}.{r}.{fn}.b{b}_us"
            for g in ("SO3", "SE3") for r in (lie.CAYLEY, lie.EXPONENTIAL)
            for fn in FNS for b in BATCHES]


def _per_element_us(fn, arg, batch):
    fn(arg)
    loops = 1
    while True:
        t0 = perf_counter()
        for _ in range(loops):
            fn(arg)
        if perf_counter() - t0 >= _MIN_SAMPLE_S:
            break
        loops *= 2
    samples = []
    for _ in range(_REPEATS):
        t0 = perf_counter()
        for _ in range(loops):
            fn(arg)
        samples.append(perf_counter() - t0)
    return statistics.median(samples) / (loops * batch) * 1e6


def measure():
    rng = np.random.default_rng(_INPUT_SEED)
    rows = {}
    for gname, make in (("SO3", lie.so3), ("SE3", lie.se3)):
        for retraction in (lie.CAYLEY, lie.EXPONENTIAL):
            group = make(retraction)
            for batch in BATCHES:
                shape = (group.dim,) if batch == 1 else (batch, group.dim)
                xi = 0.5 * rng.standard_normal(shape)
                args = {"tau": xi, "dtau_inv_matrix": xi, "Ad_matrix": group.tau(xi)}
                for fn in FNS:
                    rows[f"lie.kernel.{gname}.{retraction}.{fn}.b{batch}_us"] = (
                        _per_element_us(getattr(group, fn), args[fn], batch))
    return rows
