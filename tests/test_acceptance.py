"""Acceptance suite.

Every test prints a single summary line (visible with ``pytest -s`` or in
the -v output on failure) and enforces both its numeric tolerance and its
wall-clock budget.
"""

import json
import os
import time

import numpy as np
import pytest

from discvar import cli, lgoc, lie, systems, tboc
from discvar.lgoc import OcProblemLie, ReducedSystem
from discvar.mech import DiscreteForcePairRn, RnLagrangian
from discvar.systems import L2Cost, SmoothedL1Cost, make_rigid_body_so3, make_uuv_system


def report(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def mv(a, x):
    return np.einsum("...ij,...j->...i", a, x)


def random_algebra(rng, dim, count, radius=2.0):
    v = rng.normal(size=(count, dim))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return v * rng.uniform(0.05, radius, size=(count, 1))


# ---------------------------------------------------------------------------
# 1. retraction and tangent-map identities
# ---------------------------------------------------------------------------

def test_01_retraction_identities():
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    worst = 0.0
    groups = []
    for retraction in (lie.CAYLEY, lie.EXPONENTIAL):
        groups += [lie.real_n(3, retraction), lie.so3(retraction),
                   lie.se3(retraction)]
    for g in groups:
        xi = random_algebra(rng, g.dim, 1000)
        eta = rng.normal(size=(1000, g.dim))
        W = g.tau(xi)
        Winv = g.tau(-xi)
        prod = g.multiply(W, Winv)
        worst = max(worst, float(np.max(np.abs(prod - g.identity()))))
        # left and right tangent maps agree through the adjoint
        D, Dinv = g.dtau_matrix(xi), g.dtau_inv_matrix(xi)
        lhs = mv(D, eta)
        rhs = mv(g.Ad_matrix(W), mv(g.dtau_matrix(-xi), eta))
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
        lhs = mv(Dinv, eta)
        rhs = mv(g.dtau_inv_matrix(-xi), mv(g.Ad_matrix(Winv), eta))
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
        # the tangent map and its inverse compose to the identity
        worst = max(worst, float(np.max(np.abs(mv(D, mv(Dinv, eta)) - eta))))
    elapsed = time.perf_counter() - t0
    report("retraction identities", worst < 1e-10 and elapsed < 5.0,
           f"worst deviation {worst:.3e} over 6 group/retraction pairs, "
           f"{elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 2. closed-form SE(3) Cayley tangent inverse
# ---------------------------------------------------------------------------

def test_02_se3_cayley_tangent_inverse():
    t0 = time.perf_counter()
    rng = np.random.default_rng(22)
    g = lie.se3(lie.CAYLEY)
    xi = random_algebra(rng, 6, 500)
    D = g.dtau_matrix(xi)
    Dinv = g.dtau_inv_matrix(xi)
    worst = float(np.max(np.abs(Dinv - np.linalg.inv(D))))
    elapsed = time.perf_counter() - t0
    report("SE(3) Cayley tangent inverse", worst < 1e-10 and elapsed < 5.0,
           f"closed form vs matrix inverse {worst:.3e} on 500 draws, "
           f"{elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 3. long unforced rigid body run: momentum and energy
# ---------------------------------------------------------------------------

def test_03_free_rigid_body_invariants():
    t0 = time.perf_counter()
    system = make_rigid_body_so3((1.0, 2.0, 3.0), actuated=(0, 1, 2))
    group = system.group
    h, steps = 0.01, 10_000
    w0 = np.array([0.2, 1.0, -0.5])
    gs, xis, mus = lgoc.integrate_reduced(system, np.eye(3), w0, h, steps)
    spatial = group.coAd(group.inverse(gs[:-1]), mus)
    drift = float(np.max(np.abs(spatial - spatial[0])))
    energy = 0.5 * np.einsum("ki,ij,kj->k", xis, system.inertia, xis)
    slope = abs(float(np.polyfit(np.arange(steps), energy, 1)[0]))
    elapsed = time.perf_counter() - t0
    report("free rigid body invariants",
           drift < 1e-12 and slope < 1e-8 and elapsed < 10.0,
           f"spatial momentum drift {drift:.3e}, energy slope "
           f"{slope:.3e}/step over {steps} steps, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 4. residual dimensions
# ---------------------------------------------------------------------------

def test_04_residual_dimensions():
    ok = True
    for n in (1, 2, 3, 6):
        for N in (4, 16, 32):
            h = 1.0 / N
            L = RnLagrangian(np.eye(n), h=h)
            F = DiscreteForcePairRn.trapezoidal(n, h)
            prob_rn = tboc.OcProblemRn(
                lagrangian=L, forces=F, cost=tboc.QuadraticControlCost(h),
                x0=np.zeros(n), p0=np.zeros(n), xT=np.ones(n), pT=np.zeros(n), N=N,
            )
            system = tboc.residual_system(prob_rn)
            ok &= system.dim == 2 * (N - 1) * n

            flat = ReducedSystem(group=lie.real_n(n), inertia=np.eye(n),
                                 control_basis=np.eye(n))
            prob_lie = OcProblemLie(
                system=flat, g0=np.zeros(n), xi0=np.zeros(n), gT=np.ones(n),
                xiT=np.zeros(n), N=N, h=h, cost=L2Cost(),
            )
            sys_lie, eliminated = lgoc.residual_system(prob_lie)
            ok &= eliminated and sys_lie.dim == N * n
    report("residual dimensions", ok,
           "2(N-1)n flat-space rows and Nn eliminated group rows for "
           "(n, N) in {1,2,3,6} x {4,16,32}")


# ---------------------------------------------------------------------------
# 5. double integrator benchmark and self-convergence
# ---------------------------------------------------------------------------

def _double_integrator(N):
    h = 1.0 / N
    L = RnLagrangian(np.eye(1), h=h)
    F = DiscreteForcePairRn.trapezoidal(1, h)
    return tboc.OcProblemRn(
        lagrangian=L, forces=F, cost=tboc.QuadraticControlCost(h),
        x0=np.zeros(1), p0=np.zeros(1), xT=np.ones(1), pT=np.zeros(1), N=N,
    )


def test_05_double_integrator():
    t0 = time.perf_counter()
    sols = {N: tboc.solve(_double_integrator(N), tol=1e-9) for N in (16, 32, 64)}
    t = np.linspace(0.0, 1.0, 65)
    traj_err = float(np.max(np.abs(sols[64].qs[:, 0] - (3 * t * t - 2 * t**3))))
    cost_err = abs(sols[64].cost - 6.0) / 6.0
    # self-convergence toward the N = 64 trajectory at shared nodes
    e16 = np.max(np.abs(sols[16].qs[:, 0] - sols[64].qs[::4, 0]))
    e32 = np.max(np.abs(sols[32].qs[:, 0] - sols[64].qs[::2, 0]))
    order = float(np.log2(e16 / e32))
    elapsed = time.perf_counter() - t0
    report("double integrator",
           traj_err < 1e-2 and cost_err < 1e-2 and order > 1.8 and elapsed < 5.0,
           f"N=64 trajectory error {traj_err:.3e}, cost error {cost_err:.2%}, "
           f"self-convergence order {order:.2f}, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 6. flat-group reduction agrees with the state-space formulation
# ---------------------------------------------------------------------------

def test_06_flat_group_matches_state_space():
    t0 = time.perf_counter()
    N = 64
    h = 1.0 / N
    sol_rn = tboc.solve(_double_integrator(N), tol=1e-9)
    flat = ReducedSystem(group=lie.real_n(1), inertia=np.eye(1),
                         control_basis=np.eye(1))
    prob = OcProblemLie(
        system=flat, g0=np.zeros(1), xi0=np.zeros(1), gT=np.ones(1),
        xiT=np.zeros(1), N=N, h=h, cost=L2Cost(),
    )
    sol_lie = lgoc.solve(prob, tol=1e-8)
    traj_gap = float(np.max(np.abs(sol_lie.gs[:, 0] - sol_rn.qs[:, 0])))
    cost_gap = abs(sol_lie.cost - sol_rn.cost)
    elapsed = time.perf_counter() - t0
    report("flat group vs state space",
           traj_gap < 1e-6 and cost_gap < 1e-6 and elapsed < 10.0,
           f"trajectory gap {traj_gap:.3e}, cost gap {cost_gap:.3e}, "
           f"{elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 7. residuals are the exact gradient of the summed interval cost
# ---------------------------------------------------------------------------

def _directional_derivative(prob, xis, nus_interior, lambdas, rng):
    group = prob.system.group
    N, n = prob.N, prob.system.n
    h = prob.h
    etas = rng.normal(size=(N + 1, n))
    etas[0] = 0.0
    etas[N] = 0.0
    dnu = rng.normal(size=(N - 1, n))
    dlam = None if lambdas is None else rng.normal(size=lambdas.shape)
    W0 = group.tau(h * xis)

    def action(eps):
        W = np.stack([
            group.multiply(
                group.multiply(group.inverse(group.tau(eps * etas[k])), W0[k]),
                group.tau(eps * etas[k + 1]),
            )
            for k in range(N)
        ])
        x = group.tau_inv(W) / h
        nus_full = lgoc._full_nus(prob, nus_interior + eps * dnu)
        lam = None if lambdas is None else lambdas + eps * dlam
        gs = None
        if prob.system.potential is not None:
            gs = lgoc.reconstruct(group, prob.g0, h, x)
        return lgoc.action_sum(prob, x, nus_full, lam, gs)

    e = 1e-5
    dS = (action(-2 * e) - 8 * action(-e) + 8 * action(e) - action(2 * e)) / (12 * e)
    r = lgoc.general_residual(prob, xis, nus_interior, lambdas)
    nb = (N - 1) * n
    predicted = float(np.sum(r[:nb].reshape(N - 1, n) * etas[1:N]))
    predicted += float(np.sum(r[nb : 2 * nb].reshape(N - 1, n) * dnu))
    if lambdas is not None:
        m = prob.system.m
        phi = r[2 * nb : 2 * nb + 2 * N * (n - m)].reshape(N, 2, n - m)
        predicted += float(np.sum(phi * dlam))
    return abs(dS - predicted) / (1.0 + abs(dS))


def _problem_classes():
    so3 = make_rigid_body_so3((1.0, 2.0, 3.0), actuated=(0, 1, 2))
    under = make_rigid_body_so3((1.0, 2.0, 3.0), actuated=(0, 1))
    top = make_rigid_body_so3((1.0, 2.0, 3.0), actuated=(0, 1, 2),
                              potential=systems.HeavyTopPotential(0.8))
    uuv = make_uuv_system()
    gT_rot = so3.group.tau(np.array([0.4, -0.2, 0.3]))
    gT_se3 = uuv.group.tau(np.array([0.1, 0.0, 0.2, 0.5, 0.0, 0.1]))

    def lie_prob(system, gT, cost):
        return OcProblemLie(system=system, g0=system.group.identity(),
                            xi0=np.zeros(system.n), gT=gT,
                            xiT=np.zeros(system.n), N=5, h=0.1, cost=cost)

    return {
        "fully actuated": lie_prob(so3, gT_rot, L2Cost()),
        "underactuated": lie_prob(under, gT_rot, L2Cost()),
        "drift": lie_prob(uuv, gT_se3, L2Cost()),
        "potential": lie_prob(top, gT_rot, L2Cost()),
        "smoothed L1": lie_prob(under, gT_rot,
                                SmoothedL1Cost(eps=1e-3, u_min=-1.0, u_max=1.0)),
    }


def test_07_residual_gradient_consistency():
    t0 = time.perf_counter()
    rng = np.random.default_rng(77)
    worst = {}
    for name, prob in _problem_classes().items():
        N, n = prob.N, prob.system.n
        errs = []
        for _ in range(20):
            xis = 0.4 * rng.normal(size=(N, n))
            nus = 0.4 * rng.normal(size=(N - 1, n))
            lambdas = None
            if not prob.system.fully_actuated:
                lambdas = 0.4 * rng.normal(size=(N, 2, n - prob.system.m))
            errs.append(_directional_derivative(prob, xis, nus, lambdas, rng))
        worst[name] = max(errs)
    peak = max(worst.values())
    elapsed = time.perf_counter() - t0
    report("residual gradient consistency", peak < 1e-6,
           ", ".join(f"{k} {v:.2e}" for k, v in worst.items())
           + f"; 20 points per class, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 8. underwater vehicle maneuver end to end
# ---------------------------------------------------------------------------

def test_08_uuv_maneuver(tmp_path):
    t0 = time.perf_counter()
    cfg_path = tmp_path / "uuv.json"
    with open(cfg_path, "w") as fh:
        json.dump({
            "system": {"type": "uuv_se3"},
            "problem": {
                "N": 32, "h": 0.125,
                "boundary": {
                    "gT": {"rotation_axis": [0.0, 0.0, 1.0],
                           "rotation_angle": np.pi / 6.0,
                           "translation": [1.0, 0.0, 0.0]},
                },
            },
            "solver": {"method": "lm", "tol": 1e-6, "max_iter": 40},
        }, fh)
    out = str(tmp_path / "out")
    solve_rc = cli.main(["solve", str(cfg_path), "--out", out])
    verify_rc = cli.main(["verify", str(cfg_path), out])
    with open(os.path.join(out, "report.json")) as fh:
        rep = json.load(fh)
    checks = rep["checks"]
    phi = checks["constraint_phi"]
    res = checks["optimality_residual"]
    elapsed = time.perf_counter() - t0
    report("underwater vehicle maneuver",
           solve_rc == 0 and verify_rc == 0 and res <= 1e-6
           and phi <= 1e-9 and elapsed < 60.0,
           f"residual {res:.3e}, unactuated-direction constraint {phi:.3e}, "
           f"{elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 9. bang-off control structure under a smoothed L1 cost
# ---------------------------------------------------------------------------

def test_09_smoothed_l1_switching():
    t0 = time.perf_counter()
    system = make_rigid_body_so3((1.0, 2.0, 3.0), actuated=(0, 1))
    N, T = 16, 1.6
    h = T / N
    gT = system.group.tau(np.array([0.5, 0.0, 0.0]))

    def make(cost):
        return OcProblemLie(system=system, g0=np.eye(3), xi0=np.zeros(3),
                            gT=gT, xiT=np.zeros(3), N=N, h=h, cost=cost)

    # smooth warm start, then sharpen the cost by continuation in eps
    sol = lgoc.solve(make(L2Cost()), tol=1e-8)
    for eps in (1e-1, 1e-2, 1e-4):
        prob = make(SmoothedL1Cost(eps=eps, u_min=-1.0, u_max=1.0))
        guess = (sol.xis, sol.nus[1:-1], sol.lambdas)
        sol = lgoc.solve(prob, tol=1e-6, method="newton", guess=guess)

    # step off the switching interval along the solver's flat direction and
    # let the final solve confirm stationarity of the discontinuous profile
    k_sw = int(np.argmin(np.abs(np.abs(sol.controls[:, 0, 0]) - 0.5)))
    nus = sol.nus[1:-1].copy()
    nus[max(k_sw - 1, 0), 0] += 0.015
    final = lgoc.solve(prob, tol=1e-6, method="newton",
                       guess=(sol.xis, nus, sol.lambdas))

    u = final.controls
    umax = float(np.max(np.abs(u)))
    jump = float(np.max(np.abs(u[:-1, 1] - u[1:, 0])))
    elapsed = time.perf_counter() - t0
    report("smoothed L1 switching",
           final.report.converged and umax <= 1.0 + 1e-3
           and jump > 1e-3 and elapsed < 30.0,
           f"residual {final.report.residual_norm:.3e}, max |u| {umax:.4f}, "
           f"largest node-to-node control jump {jump:.3f}, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 10. left invariance of group-valued solutions
# ---------------------------------------------------------------------------

def test_10_left_invariance():
    t0 = time.perf_counter()
    system = make_rigid_body_so3((1.0, 2.0, 3.0), actuated=(0, 1, 2))
    group = system.group
    rng = np.random.default_rng(10)
    xi0 = 0.2 * rng.normal(size=3)
    xiT = 0.2 * rng.normal(size=3)
    gT = group.tau(np.array([0.4, -0.2, 0.3]))
    base = OcProblemLie(system=system, g0=np.eye(3), xi0=xi0, gT=gT,
                        xiT=xiT, N=8, h=0.1, cost=L2Cost())
    shift = group.tau(np.array([0.9, -1.1, 0.4]))
    moved = OcProblemLie(system=system, g0=shift, xi0=xi0, gT=shift @ gT,
                         xiT=xiT, N=8, h=0.1, cost=L2Cost())
    a = lgoc.solve(base, tol=1e-10)
    b = lgoc.solve(moved, tol=1e-10)
    gap = max(
        float(np.max(np.abs(a.xis - b.xis))),
        float(np.max(np.abs(a.controls - b.controls))),
        abs(a.cost - b.cost),
        float(np.max(np.abs(shift @ a.gs - b.gs))),
    )
    elapsed = time.perf_counter() - t0
    report("left invariance", gap < 1e-9 and elapsed < 10.0,
           f"body-frame solution gap under a left shift {gap:.3e}, "
           f"{elapsed:.2f}s")
