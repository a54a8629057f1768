"""Optimal control on T*R^n: momentum-space interval costs and root solve."""

import numpy as np
import pytest

from discvar import mech, solvers, tboc
from discvar.errors import DimensionMismatch, NotInvertible, RankDeficient
from discvar.mech import DiscreteForcePairRn, RnLagrangian


def make_problem(n=1, N=8, T=1.0, mass=None, m=None, boundary=None):
    h = T / N
    M = np.eye(n) if mass is None else np.asarray(mass, dtype=float)
    L = RnLagrangian(M, h=h)
    if m is None:
        F = DiscreteForcePairRn.trapezoidal(n, h)
    else:
        B = (h / 2.0) * np.eye(n)[:, :m]
        F = DiscreteForcePairRn(B, B)
    if boundary is None:
        boundary = (np.zeros(n), np.zeros(n), np.ones(n), np.zeros(n))
    return tboc.OcProblemRn(
        lagrangian=L, forces=F, cost=tboc.QuadraticControlCost(h),
        x0=boundary[0], p0=boundary[1], xT=boundary[2], pT=boundary[3], N=N,
    )


# ---------------------------------------------------------------------------
# augmented interval cost and control recovery
# ---------------------------------------------------------------------------

def test_control_recovery_inverts_forced_legendre():
    rng = np.random.default_rng(0)
    prob = make_problem(n=2, N=4)
    aug = tboc.AugmentedLagrangianRn(prob)
    L, F = prob.lagrangian, prob.forces
    for _ in range(10):
        qa, qb = rng.normal(size=(2, 2))
        um, up = rng.normal(size=(2, 2))
        pa, pb = mech.legendre_pair(L, F, qa, qb, um, up)
        rm, rp = aug.controls(qa, pa, qb, pb)
        assert np.max(np.abs(rm - um)) < 1e-10
        assert np.max(np.abs(rp - up)) < 1e-10


def test_augmented_value_matches_two_stage_oracle():
    rng = np.random.default_rng(1)
    prob = make_problem(n=2, N=4)
    aug = tboc.AugmentedLagrangianRn(prob)
    L, F, cost = prob.lagrangian, prob.forces, prob.cost
    for _ in range(10):
        qa, qb = rng.normal(size=(2, 2))
        um, up = rng.normal(size=(2, 2))
        pa, pb = mech.legendre_pair(L, F, qa, qb, um, up)
        assert abs(aug.value(qa, pa, qb, pb) - cost.value(qa, um, qb, up)) < 1e-12


def test_grads_match_finite_differences():
    rng = np.random.default_rng(2)
    prob = make_problem(n=2, N=4)
    aug = tboc.AugmentedLagrangianRn(prob)
    qa, pa, qb, pb = rng.normal(size=(4, 2))
    g = aug.grads(qa, pa, qb, pb)
    eps = 1e-6
    slots = [qa, pa, qb, pb]
    for s in range(4):
        for j in range(2):
            args_p = [x.copy() for x in slots]
            args_m = [x.copy() for x in slots]
            args_p[s][j] += eps
            args_m[s][j] -= eps
            fd = (aug.value(*args_p) - aug.value(*args_m)) / (2.0 * eps)
            assert abs(g[s][j] - fd) < 1e-6 * (1.0 + abs(fd))


def test_underactuated_grads_include_multiplier_terms():
    rng = np.random.default_rng(3)
    prob = make_problem(n=2, N=4, m=1)
    aug = tboc.AugmentedLagrangianRn(prob)
    qa, pa, qb, pb = rng.normal(size=(4, 2))
    lam_m, lam_p = rng.normal(size=(2, 1))
    g = aug.grads(qa, pa, qb, pb, lam_m, lam_p)
    eps = 1e-6
    slots = [qa, pa, qb, pb]
    for s in range(4):
        for j in range(2):
            args_p = [x.copy() for x in slots]
            args_m = [x.copy() for x in slots]
            args_p[s][j] += eps
            args_m[s][j] -= eps
            fd = (
                aug.multiplier_value(*args_p, lam_m, lam_p)
                - aug.multiplier_value(*args_m, lam_m, lam_p)
            ) / (2.0 * eps)
            assert abs(g[s][j] - fd) < 1e-6 * (1.0 + abs(fd))


def test_phi_is_hand_projection_n2_m1():
    # B spans e1, so the complement conditions read off the second component
    # of the momentum defects
    prob = make_problem(n=2, N=4, m=1)
    aug = tboc.AugmentedLagrangianRn(prob)
    rng = np.random.default_rng(4)
    qa, pa, qb, pb = rng.normal(size=(4, 2))
    L, F = prob.lagrangian, prob.forces
    ym = -L.d1(qa, qb) - pa
    yp = pb - L.d2(qa, qb)
    pm, pp = aug.phi(qa, pa, qb, pb)
    assert abs(abs(pm[0]) - abs(ym[1])) < 1e-12
    assert abs(abs(pp[0]) - abs(yp[1])) < 1e-12


def test_singular_control_matrix_rejected():
    h = 0.1
    L = RnLagrangian(np.eye(2), h=h)
    B = np.array([[1.0, 1.0], [1.0, 1.0]])
    F = DiscreteForcePairRn(B, B)
    prob = tboc.OcProblemRn(
        lagrangian=L, forces=F, cost=tboc.QuadraticControlCost(h),
        x0=np.zeros(2), p0=np.zeros(2), xT=np.ones(2), pT=np.zeros(2), N=4,
    )
    with pytest.raises(NotInvertible):
        tboc.AugmentedLagrangianRn(prob)


def test_rank_deficient_tall_control_matrix_rejected():
    h = 0.1
    L = RnLagrangian(np.eye(3), h=h)
    B = np.array([[1.0, 2.0], [0.0, 0.0], [1.0, 2.0]])
    F = DiscreteForcePairRn(B, B)
    prob = tboc.OcProblemRn(
        lagrangian=L, forces=F, cost=tboc.QuadraticControlCost(h),
        x0=np.zeros(3), p0=np.zeros(3), xT=np.ones(3), pT=np.zeros(3), N=4,
    )
    with pytest.raises(RankDeficient):
        tboc.AugmentedLagrangianRn(prob)


# ---------------------------------------------------------------------------
# residual structure
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 3, 6])
@pytest.mark.parametrize("N", [4, 16, 32])
def test_fully_actuated_residual_count(n, N):
    prob = make_problem(n=n, N=N)
    system = tboc.residual_system(prob)
    assert system.dim == 2 * (N - 1) * n
    qs, ps, _ = tboc.initial_guess(prob)
    r = tboc.optimality_residual(prob, qs, ps)
    assert r.shape == (2 * (N - 1) * n,)


@pytest.mark.parametrize("n,m", [(2, 1), (3, 1), (6, 4)])
def test_underactuated_adds_complement_rows(n, m):
    N = 8
    prob = make_problem(n=n, N=N, m=m)
    system = tboc.residual_system(prob)
    assert system.dim == 2 * (N - 1) * n + 2 * N * (n - m)


def test_underactuated_requires_multipliers():
    prob = make_problem(n=2, N=4, m=1)
    qs, ps, _ = tboc.initial_guess(prob)
    with pytest.raises(DimensionMismatch):
        tboc.optimality_residual(prob, qs, ps)


def test_residual_scaling_invariance():
    # scaling all positions, momenta and boundary data by s scales every
    # residual entry by s as well (the system is homogeneous of degree one)
    rng = np.random.default_rng(5)
    prob = make_problem(n=2, N=6)
    qs = rng.normal(size=(7, 2))
    ps = rng.normal(size=(7, 2))
    r1 = tboc.optimality_residual(prob, qs, ps)
    r2 = tboc.optimality_residual(prob, 3.0 * qs, 3.0 * ps)
    assert np.max(np.abs(r2 - 3.0 * r1)) < 1e-10


def test_momentum_perturbation_cancels_in_own_position_row():
    # perturbing p_k shifts the recovered controls of the two intervals that
    # touch node k, but the induced changes in that node's position row come
    # with opposite signs through the two defect jacobians and cancel exactly
    prob = make_problem(n=2, N=6)
    rng = np.random.default_rng(6)
    qs = rng.normal(size=(7, 2))
    ps = rng.normal(size=(7, 2))
    r0 = tboc.optimality_residual(prob, qs, ps).reshape(5, 2, 2)
    ps2 = ps.copy()
    ps2[3] += rng.normal(size=2)
    r1 = tboc.optimality_residual(prob, qs, ps2).reshape(5, 2, 2)
    # node 3 is row index 2; its position row (slot 0) only moves by rounding
    scale = 1.0 + np.max(np.abs(r0[2, 0]))
    assert np.max(np.abs(r1[2, 0] - r0[2, 0])) < 1e-14 * scale
    # its momentum row must move
    assert not np.array_equal(r0[2, 1], r1[2, 1])


# ---------------------------------------------------------------------------
# Jacobian structure
# ---------------------------------------------------------------------------

def _structured_problem(regime):
    n, N = (1, 12) if regime == "potential" else (3, 8)
    h = 1.0 / N
    if regime == "potential":
        # no potential_grad/potential_hess: V_x and V_xx are finite differences
        L = RnLagrangian(np.eye(n), h=h, potential=lambda q: float(np.sum(np.cos(q))))
    else:
        L = RnLagrangian(np.diag(np.arange(1.0, n + 1)), h=h)
    m = {"underactuated": 2, "drift": 1}.get(regime, n)
    B = (h / 2.0) * np.eye(n)[:, :m]
    drifts = {}
    if regime == "drift":
        drifts = dict(a_minus=lambda qa, qb: 0.1 * np.sin(qa) * qb,
                      a_plus=lambda qa, qb: 0.05 * qa * qb ** 2)
    F = DiscreteForcePairRn(B, B, **drifts)
    return tboc.OcProblemRn(
        lagrangian=L, forces=F, cost=tboc.QuadraticControlCost(h),
        x0=np.zeros(n), p0=np.zeros(n), xT=np.ones(n), pT=np.zeros(n), N=N,
    )


@pytest.mark.parametrize("regime", ["fully actuated", "potential", "underactuated", "drift"])
def test_structured_jacobian_equals_dense_fd(regime):
    prob = _structured_problem(regime)
    system = tboc.residual_system(prob)
    assert len(system.structure.colours) < system.dim
    rng = np.random.default_rng(8)
    for _ in range(3):
        z = rng.normal(size=system.dim)
        assert np.array_equal(system.jac(z), solvers.fd_jacobian(system.eval, z))


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("N", [4, 32])
def test_fully_actuated_jacobian_takes_6n_colours(n, N):
    structure = tboc.residual_system(make_problem(n=n, N=N)).structure
    assert len(structure.colours) == 6 * n
    assert structure.border_cols.size == 0


def test_jacobian_build_makes_two_residual_calls_per_colour(monkeypatch):
    prob = _structured_problem("underactuated")
    system = tboc.residual_system(prob)
    calls = []
    residual = tboc.optimality_residual

    def counting(*args, **kwargs):
        calls.append(1)
        return residual(*args, **kwargs)

    monkeypatch.setattr(tboc, "optimality_residual", counting)
    z = np.random.default_rng(9).normal(size=system.dim)
    f0 = system.eval(z)
    calls.clear()
    system.jac(z, f0=f0)
    assert len(calls) == 2 * len(system.structure.colours)


def test_solve_history_unchanged_without_structure(monkeypatch):
    prob = make_problem(n=2, N=10, m=1,
                        boundary=(np.zeros(2), np.zeros(2), np.array([1.0, 0.0]), np.zeros(2)))
    structured = tboc.solve(prob, tol=1e-9)
    build = tboc.residual_system

    def plain(problem, aug=None):
        system = build(problem, aug=aug)
        return solvers.ResidualSystem(dim=system.dim, eval=system.eval)

    monkeypatch.setattr(tboc, "residual_system", plain)
    dense = tboc.solve(prob, tol=1e-9)
    assert structured.report.residual_history == dense.report.residual_history
    assert np.array_equal(structured.qs, dense.qs)


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def test_rest_to_rest_double_integrator_closed_form():
    # min-effort rest-to-rest transfer: x(t) = 3t^2 - 2t^3 on [0, 1]
    N = 32
    prob = make_problem(n=1, N=N)
    sol = tboc.solve(prob, tol=1e-10)
    t = np.linspace(0.0, 1.0, N + 1)
    oracle = 3.0 * t * t - 2.0 * t**3
    assert sol.report.converged
    assert np.max(np.abs(sol.qs[:, 0] - oracle)) < 1e-2
    assert abs(sol.cost - 6.0) < 0.06


def test_solution_satisfies_forced_del():
    prob = make_problem(n=2, N=12)
    sol = tboc.solve(prob, tol=1e-10)
    L, F = prob.lagrangian, prob.forces
    worst = max(
        np.max(np.abs(mech.forced_del_residual(
            L, F, sol.qs[k - 1], sol.qs[k], sol.qs[k + 1],
            sol.controls[k - 1, 1], sol.controls[k, 0],
        )))
        for k in range(1, prob.N)
    )
    assert worst < 1e-8


def test_solution_momenta_consistent_with_legendre():
    prob = make_problem(n=1, N=8)
    sol = tboc.solve(prob, tol=1e-10)
    L, F = prob.lagrangian, prob.forces
    for k in range(prob.N):
        pa, pb = mech.legendre_pair(
            L, F, sol.qs[k], sol.qs[k + 1], sol.controls[k, 0], sol.controls[k, 1]
        )
        assert np.max(np.abs(pa - sol.ps[k])) < 1e-8
        assert np.max(np.abs(pb - sol.ps[k + 1])) < 1e-8


def test_zero_transfer_gives_zero_controls():
    n, N = 2, 8
    prob = make_problem(
        n=n, N=N, boundary=(np.zeros(n), np.zeros(n), np.zeros(n), np.zeros(n))
    )
    sol = tboc.solve(prob, tol=1e-12)
    assert np.max(np.abs(sol.controls)) < 1e-10
    assert abs(sol.cost) < 1e-12


def test_solve_scaling_covariance():
    # scaling the boundary displacement scales trajectory and controls linearly
    n, N = 1, 16
    prob1 = make_problem(n=n, N=N)
    prob2 = make_problem(
        n=n, N=N, boundary=(np.zeros(n), np.zeros(n), 2.0 * np.ones(n), np.zeros(n))
    )
    s1 = tboc.solve(prob1, tol=1e-11)
    s2 = tboc.solve(prob2, tol=1e-11)
    assert np.max(np.abs(s2.qs - 2.0 * s1.qs)) < 1e-8
    assert np.max(np.abs(s2.controls - 2.0 * s1.controls)) < 1e-8
    assert abs(s2.cost - 4.0 * s1.cost) < 1e-8


def test_underactuated_planar_solve():
    # two coordinates, force only on the first; the second stays at rest
    n, N = 2, 12
    prob = make_problem(
        n=n, N=N, m=1,
        boundary=(np.zeros(n), np.zeros(n), np.array([1.0, 0.0]), np.zeros(n)),
    )
    sol = tboc.solve(prob, tol=1e-9)
    assert sol.report.converged
    assert np.max(np.abs(sol.qs[:, 1])) < 1e-8
    assert sol.lambdas is not None and sol.lambdas.shape == (N, 2, 1)
    # actuated coordinate reproduces the scalar min-effort transfer
    t = np.linspace(0.0, 1.0, N + 1)
    assert np.max(np.abs(sol.qs[:, 0] - (3.0 * t * t - 2.0 * t**3))) < 2e-2


def test_initial_guess_shapes_and_endpoints():
    prob = make_problem(n=3, N=8)
    qs, ps, lambdas = tboc.initial_guess(prob)
    assert qs.shape == (9, 3) and ps.shape == (9, 3) and lambdas is None
    assert np.array_equal(qs[0], prob.x0) and np.array_equal(qs[-1], prob.xT)
    assert np.array_equal(ps[0], prob.p0) and np.array_equal(ps[-1], prob.pT)


def test_bad_state_shape_rejected():
    prob = make_problem(n=2, N=4)
    with pytest.raises(DimensionMismatch):
        tboc.optimality_residual(prob, np.zeros((4, 2)), np.zeros((4, 2)))
