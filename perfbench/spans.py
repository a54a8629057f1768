"""Spans around discvar's public functions, recorded from the benchmark side.

Each wrapper is installed where the wrapped name is looked up at call time
(module globals for functions imported by name, class attributes for
methods), or it would miss calls.  A span records its name, start, end, the
index of its parent span, the exception type that ended it (if any) and, for
``lie`` calls, the number of group elements in the batch.  Spans stay in
memory; ``Totals`` turns them into per-name call counts, inclusive and self
times.  A span's self time is its duration minus the time its child spans
cover.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from discvar import cli, lgoc, lie, mech, solvers, systems, tboc

LIE_FNS = ("tau", "tau_inv", "dtau_inv_matrix", "Ad_matrix", "coAd", "multiply")
_LAGRANGIAN_FNS = ("ld", "d1", "d2", "d11", "d12", "d21", "d22")
_COST_FNS = ("value", "grad", "value_batch", "grad_batch")

# span record fields
NAME, START, END, PARENT, ERROR, ELEMS = range(6)


def _size(x):
    return x.size if type(x) is np.ndarray else np.size(x)


_MATRIX_ELEMS = {"SO3": 9, "SE3": 16}


def _algebra_batch(group, xi):
    return _size(xi) // group.dim


def _group_batch(group, g):
    return _size(g) // _MATRIX_ELEMS.get(group.name, group.dim)


_LIE_ELEMS = {
    "tau": _algebra_batch,
    "dtau_inv_matrix": _algebra_batch,
    "tau_inv": _group_batch,
    "Ad_matrix": _group_batch,
    "coAd": lambda s, g, mu: max(_group_batch(s, g), _algebra_batch(s, mu)),
    "multiply": lambda s, a, b: max(_group_batch(s, a), _group_batch(s, b)),
}


def _targets():
    """(owner, attribute, span name, elems, when) for every wrapped callable."""
    out = [(solvers, "fd_jacobian", "solvers.fd_jacobian", None, None)]
    for module in (lgoc, tboc, mech):
        out.append((module, "newton", "solvers.newton", None, None))
    for module in (lgoc, tboc):
        out.append((module, "levenberg_marquardt", "solvers.levenberg_marquardt",
                    None, None))
    out += [
        (lgoc, "general_residual", "lgoc.general_residual", None, None),
        (lgoc, "integrate_reduced", "lgoc.integrate_reduced", None, None),
        (tboc, "optimality_residual", "tboc.optimality_residual", None, None),
        (mech, "integrate", "mech.integrate", None, None),
        (cli, "main", "cli.main", None, None),
        (cli, "cmd_verify", "cli.verify", None, None),
        # the drift belongs to the system model; systems without one skip it
        (lgoc.ReducedSystem, "drift_values", "systems.drift", None,
         lambda self, z: self.drift is not None),
    ]
    out += [(mech.RnLagrangian, fn, "mech.lagrangian", None, None)
            for fn in _LAGRANGIAN_FNS]
    out += [(lie.GroupSpec, fn, f"lie.{fn}", _LIE_ELEMS[fn], None) for fn in LIE_FNS]
    out += [(cls, fn, "systems.cost", None, None)
            for cls in (systems.L2Cost, systems.SmoothedL1Cost) for fn in _COST_FNS]
    out += [(systems.HeavyTopPotential, fn, "systems.potential", None, None)
            for fn in ("value", "left_grad")]
    return out


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self.enabled = False

    def wrap(self, name, fn, elems=None, when=None):
        tracer, spans, stack, clock = self, self.spans, self._stack, perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled or (when is not None and not when(*args, **kwargs)):
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else -1
            index = len(spans)
            stack.append(index)
            spans.append(None)
            error = None
            start = clock()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                error = type(exc).__name__
                raise
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, error,
                                elems(*args, **kwargs) if elems is not None else 0)

        return traced

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block (recording only
        while ``enabled``), then restore the originals."""
        saved = []
        try:
            for owner, attr, name, elems, when in _targets():
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, elems, when))
            yield self
        finally:
            self.enabled = False
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    @contextmanager
    def paused(self):
        was, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = was


class Totals:
    """Per-name aggregates of a span list."""

    def __init__(self, spans):
        child = [0.0] * len(spans)
        for rec in spans:
            if rec[PARENT] >= 0:
                child[rec[PARENT]] += rec[END] - rec[START]
        self.calls = defaultdict(int)
        # inclusive time, skipping spans whose parent has the same name
        self.incl = defaultdict(float)
        self.self_s = defaultdict(float)
        self.elems = defaultdict(int)
        self.errors = defaultdict(int)
        for i, rec in enumerate(spans):
            name, dur = rec[NAME], rec[END] - rec[START]
            self.calls[name] += 1
            self.self_s[name] += dur - child[i]
            self.elems[name] += rec[ELEMS]
            parent = rec[PARENT]
            if parent < 0 or spans[parent][NAME] != name:
                self.incl[name] += dur
            if rec[ERROR] is not None:
                self.errors[name] += 1
        self.spans = spans

    def children_of(self, parent_names, child_names, failed_parents_only=False):
        """Number of spans named in ``child_names`` whose parent span is named
        in ``parent_names`` (and, optionally, ended in an exception)."""
        n = 0
        for rec in self.spans:
            p = rec[PARENT]
            if rec[NAME] in child_names and p >= 0 and self.spans[p][NAME] in parent_names:
                if not failed_parents_only or self.spans[p][ERROR] is not None:
                    n += 1
        return n

    def layer_self(self, layer):
        return sum(v for k, v in self.self_s.items() if k.split(".")[0] == layer)
