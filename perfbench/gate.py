"""Correctness gate applied to every operation's outcome, outside the timing.

A solve passes when, recomputed here from the returned (or written) path:
the optimality residual is within the solve tolerance, the path reaches its
target (the reconstruction gap to gT for groups; pinned boundary states and
momenta reproduced by the recovered controls for T*R^n), and the effort cost
matches reference.json (written by reference.py) to 1e-6 relative; a solve
that failed when the references were recorded has none.
Integrations must conserve what the discrete mechanics conserves.
"""

from __future__ import annotations

import os

import numpy as np

from discvar import lgoc, mech, tboc

COST_RTOL = 1e-6
GAP_TOL = 1e-9


def _max_abs(a):
    return float(np.max(np.abs(a))) if np.size(a) else 0.0


def effort_cost(h, controls):
    """(h/4) sum |u|^2 over both control slots: the L2 running cost of
    ``lgoc`` and the trapezoidal effort cost of ``tboc``."""
    return float(h / 4.0 * np.sum(np.square(controls)))


def evaluate(op, outcome):
    """List of failed checks for a successful operation (empty when it passes)."""
    failures = list(op.check(outcome))
    if op.cost is not None and op.ref is not None:
        cost = op.cost(outcome)
        if not abs(cost - op.ref) <= COST_RTOL * abs(op.ref):
            failures.append(f"cost {cost!r} differs from reference {op.ref!r}")
    return failures


def check_lie(problem, xis, nus_interior, lambdas, tol):
    failures = []
    res = _max_abs(lgoc.general_residual(problem, xis, nus_interior, lambdas))
    if not res <= tol:
        failures.append(f"optimality residual {res:.3e} > tol {tol:.1e}")
    end = lgoc.reconstruct(problem.system.group, problem.g0, problem.h, xis)[-1]
    # the reconstruction block is one of the residual rows, so a solve at a
    # tolerance looser than GAP_TOL can only reach gT to within that tolerance
    gap, limit = _max_abs(end - problem.gT), max(GAP_TOL, tol)
    if not gap <= limit:
        failures.append(f"reconstruction gap {gap:.3e} > {limit:.1e}")
    return failures


def check_rn(problem, qs, ps, lambdas, controls, tol):
    failures = []
    res = _max_abs(tboc.optimality_residual(problem, qs, ps, lambdas))
    if not res <= tol:
        failures.append(f"optimality residual {res:.3e} > tol {tol:.1e}")
    pinned = max(_max_abs(qs[0] - problem.x0), _max_abs(qs[-1] - problem.xT),
                 _max_abs(ps[0] - problem.p0), _max_abs(ps[-1] - problem.pT))
    if pinned != 0.0:
        failures.append(f"boundary states moved by {pinned:.3e}")
    gap = 0.0
    for k in range(problem.N):
        pa, pb = mech.legendre_pair(problem.lagrangian, problem.forces, qs[k],
                                    qs[k + 1], controls[k, 0], controls[k, 1])
        gap = max(gap, _max_abs(pa - ps[k]), _max_abs(pb - ps[k + 1]))
    if not gap <= GAP_TOL * (1.0 + _max_abs(ps)):
        failures.append(f"controls reproduce the momenta only to {gap:.3e}")
    return failures


def read_artifacts(kind, problem, outdir):
    """Path and controls from ``discvar solve`` CSVs: (xis, nus_interior,
    lambdas, controls) for groups, (qs, ps, lambdas, controls) for R^n."""
    traj = np.loadtxt(os.path.join(outdir, "trajectory.csv"), delimiter=",",
                      skiprows=1, ndmin=2)
    ctrl = np.loadtxt(os.path.join(outdir, "controls.csv"), delimiter=",",
                      skiprows=1, ndmin=2)
    N = problem.N
    if kind == "lie":
        n, m = problem.system.n, problem.system.m
        size = problem.system.group.matrix_size
        nus = traj[:, 2 + size * size: 2 + size * size + n]
        xis = ctrl[:, 1: 1 + n]
        controls = ctrl[:, 1 + n: 1 + n + 2 * m].reshape(N, 2, m)
        lambdas = None
        if not problem.system.fully_actuated:
            lambdas = ctrl[:, 1 + n + 2 * m:].reshape(N, 2, n - m)
        return xis, nus[1:-1], lambdas, controls
    n, m = problem.n, problem.m
    qs, ps = traj[:, 2: 2 + n], traj[:, 2 + n: 2 + 2 * n]
    controls = ctrl[:, 1: 1 + 2 * m].reshape(N, 2, m)
    lambdas = None
    if not problem.fully_actuated:
        lambdas = ctrl[:, 1 + 2 * m:].reshape(N, 2, n - m)
    return qs, ps, lambdas, controls


def check_artifacts(kind, problem, outdir, tol):
    first, second, lambdas, controls = read_artifacts(kind, problem, outdir)
    if kind == "lie":
        return check_lie(problem, first, second, lambdas, tol)
    return check_rn(problem, first, second, lambdas, controls, tol)


def check_free_body(system, gs, xis, mus):
    """Spatial momentum and energy of a free rigid body, with the bounds of
    the free-body acceptance test.  The energy error of a variational
    integrator oscillates at O(h^2) without drifting; a linear fit averages
    the oscillation out only over long runs, so the slope bound applies from
    1000 steps on."""
    group = system.group
    spatial = group.coAd(group.inverse(gs[:-1]), mus)
    drift = _max_abs(spatial - spatial[0])
    failures = []
    if not drift < 1e-12:
        failures.append(f"spatial momentum drift {drift:.3e}")
    if len(xis) >= 1000:
        energy = 0.5 * np.einsum("ki,ij,kj->k", xis, system.inertia, xis)
        slope = abs(float(np.polyfit(np.arange(len(energy)), energy, 1)[0]))
        if not slope < 1e-8:
            failures.append(f"energy slope {slope:.3e} per step")
    return failures


def check_forced_lie(system, h, xis, controls):
    """Node momenta of consecutive intervals agree: the forced discrete
    momentum equation holds at every interior node."""
    left, right = lgoc.nu_momenta(system, h, xis, controls[:, 0], controls[:, 1])
    gap = _max_abs(right[:-1] - left[1:])
    return [] if gap <= GAP_TOL else [f"node momentum mismatch {gap:.3e}"]


def check_forced_rn(lagrangian, forces, qs, controls):
    """The forced discrete Euler-Lagrange equation at every interior node."""
    worst = 0.0
    for k in range(1, len(qs) - 1):
        r = mech.forced_del_residual(lagrangian, forces, qs[k - 1], qs[k],
                                     qs[k + 1], controls[k - 1, 1], controls[k, 0])
        worst = max(worst, _max_abs(r))
    return [] if worst <= GAP_TOL else [f"forced DEL residual {worst:.3e}"]
