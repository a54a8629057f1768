"""Optimal control on T*R^n: momentum-space interval costs and root solve."""

import numpy as np
import pytest

from discvar import mech, solvers, tboc
from discvar.errors import ConfigError, DimensionMismatch, NotInvertible, RankDeficient
from discvar.mech import DiscreteForcePairRn, RnLagrangian
from discvar.systems import L2Cost, SmoothedL1Cost


def make_problem(n=1, N=8, T=1.0, mass=None, m=None, boundary=None, cost=None):
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
        lagrangian=L, forces=F, cost=L2Cost() if cost is None else cost,
        x0=boundary[0], p0=boundary[1], xT=boundary[2], pT=boundary[3], N=N,
    )


def interval_value(aug, qk, pk, qk1, pk1):
    """Oracle: the interval term (h/2) (C(u^-) + C(u^+)) at the recovered
    controls, over a batch of intervals."""
    um, up = aug.controls(qk, pk, qk1, pk1)
    cost = aug.problem.cost
    return (aug.problem.h / 2.0) * (cost.value_batch(um) + cost.value_batch(up))


def multiplier_value(aug, qk, pk, qk1, pk1, lam_minus, lam_plus):
    """Oracle: the interval term plus lam . Phi when multipliers are given;
    ``AugmentedLagrangianRn.grads`` is its gradient."""
    v = interval_value(aug, qk, pk, qk1, pk1)
    if lam_minus is not None:
        pm, pp = aug.phi(qk, pk, qk1, pk1)
        v = v + np.sum(lam_minus * pm, axis=-1) + np.sum(lam_plus * pp, axis=-1)
    return v


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
    L, F = prob.lagrangian, prob.forces
    for _ in range(10):
        qa, qb = rng.normal(size=(2, 2))
        um, up = rng.normal(size=(2, 2))
        pa, pb = mech.legendre_pair(L, F, qa, qb, um, up)
        effort = (prob.h / 4.0) * (um @ um + up @ up)
        assert abs(interval_value(aug, qa, pa, qb, pb) - effort) < 1e-12


def test_grads_match_finite_differences():
    rng = np.random.default_rng(2)
    qa, pa, qb, pb = rng.normal(size=(4, 2))
    eps = 1e-6
    slots = [qa, pa, qb, pb]
    for cost in (L2Cost(), SmoothedL1Cost(eps=0.5, u_min=-3.0, u_max=3.0, weight=100.0)):
        aug = tboc.AugmentedLagrangianRn(make_problem(n=2, N=4, cost=cost))
        g = aug.grads(qa, pa, qb, pb)
        for s in range(4):
            for j in range(2):
                args_p = [x.copy() for x in slots]
                args_m = [x.copy() for x in slots]
                args_p[s][j] += eps
                args_m[s][j] -= eps
                fd = (interval_value(aug, *args_p) - interval_value(aug, *args_m)) / (2.0 * eps)
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
                multiplier_value(aug, *args_p, lam_m, lam_p)
                - multiplier_value(aug, *args_m, lam_m, lam_p)
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
        lagrangian=L, forces=F, cost=L2Cost(),
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
        lagrangian=L, forces=F, cost=L2Cost(),
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
# exact Jacobian
# ---------------------------------------------------------------------------

def _structured_problem(regime):
    n, N = {"potential": (1, 12), "potential derivatives": (2, 8)}.get(regime, (3, 8))
    h = 1.0 / N
    if regime == "potential":
        # no potential_grad/potential_hess: V_x and V_xx are finite differences
        L = RnLagrangian(np.eye(n), h=h, potential=lambda q: float(np.sum(np.cos(q))))
    elif regime == "potential derivatives":
        # a coupling potential, V = sum cos q + q_0^2 q_1, with its derivatives
        L = RnLagrangian(
            np.array([[2.0, 0.5], [0.5, 1.0]]), h=h,
            potential=lambda q: float(np.sum(np.cos(q)) + q[0] ** 2 * q[1]),
            potential_grad=lambda q: -np.sin(q) + np.array([2.0 * q[0] * q[1], q[0] ** 2]),
            potential_hess=lambda q: (np.diag(-np.cos(q))
                                      + 2.0 * np.array([[q[1], q[0]], [q[0], 0.0]])))
    else:
        L = RnLagrangian(np.diag(np.arange(1.0, n + 1)), h=h)
    m = {"underactuated": 2, "smoothed l1": 2, "drift": 1}.get(regime, n)
    B = (h / 2.0) * np.eye(n)[:, :m]
    drifts = {}
    if regime == "drift":
        drifts = dict(a_minus=lambda qa, qb: 0.1 * np.sin(qa) * qb,
                      a_plus=lambda qa, qb: 0.05 * qa * qb ** 2)
    F = DiscreteForcePairRn(B, B, **drifts)
    cost = L2Cost()
    if regime == "smoothed l1":
        # curved where |u| is of order eps, stiff past the soft bounds
        cost = SmoothedL1Cost(eps=0.5, u_min=-3.0, u_max=3.0, weight=100.0)
    return tboc.OcProblemRn(
        lagrangian=L, forces=F, cost=cost,
        x0=np.zeros(n), p0=np.zeros(n), xT=np.ones(n), pT=np.zeros(n), N=N,
    )


def _close(batched, single):
    batched, single = np.asarray(batched), np.asarray(single)
    assert batched.shape == single.shape
    assert np.all(np.abs(batched - single) <= 1e-14 * (1.0 + np.abs(single)))


@pytest.mark.parametrize(
    "regime", ["fully actuated", "potential", "underactuated", "drift", "smoothed l1"])
def test_batched_interval_terms_equal_single_intervals(regime):
    prob = _structured_problem(regime)
    aug = tboc.AugmentedLagrangianRn(prob)
    N, n, s = prob.N, prob.n, prob.n - prob.m
    rng = np.random.default_rng(10)
    qs, ps = rng.normal(size=(2, N + 1, n))
    lambdas = rng.normal(size=(N, 2, s)) if s else np.full((N, 2), None)
    ends = (qs[:-1], ps[:-1], qs[1:], ps[1:])
    lam = (lambdas[:, 0], lambdas[:, 1]) if s else (None, None)
    batched = {
        "controls": aug.controls(*ends),
        "value": interval_value(aug, *ends),
        "phi": aug.phi(*ends),
        "grads": aug.grads(*ends, *lam),
        "multiplier_value": multiplier_value(aug, *ends, *lam),
    }
    for k in range(N):
        one = (qs[k], ps[k], qs[k + 1], ps[k + 1])
        single = {
            "controls": aug.controls(*one),
            "value": interval_value(aug, *one),
            "phi": aug.phi(*one),
            "grads": aug.grads(*one, *lambdas[k]),
            "multiplier_value": multiplier_value(aug, *one, *lambdas[k]),
        }
        for name, terms in single.items():
            if isinstance(terms, tuple):
                for b, x in zip(batched[name], terms):
                    _close(b[k], x)
            else:
                _close(batched[name][k], terms)


@pytest.mark.parametrize("regime", ["fully actuated", "potential"])
def test_residual_evaluates_the_slot_derivatives_once(regime, monkeypatch):
    prob = _structured_problem(regime)
    qs, ps, _ = tboc.initial_guess(prob)
    expected = tboc.optimality_residual(prob, qs, ps)
    calls = []
    d1 = RnLagrangian.d1

    def counted(*args):
        calls.append(args[1].shape)
        return d1(*args)

    monkeypatch.setattr(RnLagrangian, "d1", counted)
    assert np.array_equal(tboc.optimality_residual(prob, qs, ps), expected)
    assert calls == [(prob.N, prob.n)]


def _single_point(n, fun):
    """``fun`` that raises unless every argument is one point of R^n."""
    def checked(*points):
        if any(np.shape(p) != (n,) for p in points):
            raise ValueError("user callables take a single point")
        return fun(*points)

    return checked


@pytest.mark.parametrize("derivatives", [True, False])
def test_user_callables_receive_single_points(derivatives):
    n, N = 2, 8
    h = 1.0 / N
    potential = {"potential": _single_point(n, lambda q: 0.5 * float(np.sum(np.sin(q) ** 2)))}
    if derivatives:
        potential["potential_grad"] = _single_point(n, lambda q: np.sin(q) * np.cos(q))
        potential["potential_hess"] = _single_point(n, lambda q: np.diag(np.cos(2.0 * q)))
    L = RnLagrangian(np.diag([1.0, 2.0]), h=h, **potential)
    F = DiscreteForcePairRn(
        (h / 2.0) * np.eye(n), (h / 2.0) * np.eye(n),
        a_minus=_single_point(n, lambda qa, qb: 0.1 * np.sin(qa) * qb),
        a_plus=_single_point(n, lambda qa, qb: 0.05 * qa * qb ** 2),
    )
    prob = tboc.OcProblemRn(
        lagrangian=L, forces=F, cost=L2Cost(),
        x0=np.zeros(n), p0=np.zeros(n), xT=np.ones(n), pT=np.zeros(n), N=N,
    )
    sol = tboc.solve(prob, tol=1e-9)
    assert sol.report.converged
    r = mech.forced_del_residual(L, F, sol.qs[:-2], sol.qs[1:-1], sol.qs[2:],
                                 sol.controls[:-1, 1], sol.controls[1:, 0])
    assert np.max(np.abs(r)) < 1e-7


def _block_error(J, reference, rows):
    """max |J - reference| over ``rows``, relative to that row block's own
    max |reference|."""
    return np.max(np.abs(J[rows] - reference[rows])) / np.max(np.abs(reference[rows]))


@pytest.mark.parametrize(
    "regime", ["fully actuated", "underactuated", "drift", "potential derivatives",
               "smoothed l1"])
def test_exact_jacobian_matches_dense_fd(regime):
    # the stationarity and complement rows are compared separately, so the
    # small complement entries cannot hide under the large M/h ones
    prob = _structured_problem(regime)
    system = tboc.residual_system(prob)
    stationarity = slice(0, 2 * (prob.N - 1) * prob.n)
    complement = slice(stationarity.stop, system.dim)
    rng = np.random.default_rng(8)
    points = [rng.normal(size=system.dim) for _ in range(3)]
    # random states push every smoothed-L1 control onto its soft bounds;
    # near the initial guess the controls also take its curved part
    guess = tboc._pack(prob, *tboc.initial_guess(prob))
    points.append(guess + 0.01 * rng.normal(size=system.dim))
    for z in points:
        J = system.jac(z)
        dense = solvers.fd_jacobian(system.eval, z)
        assert _block_error(J, dense, stationarity) < 1e-6
        if complement.stop > complement.start:
            assert _block_error(J, dense, complement) < 1e-6


@pytest.mark.parametrize("regime", ["fully actuated", "underactuated", "smoothed l1"])
def test_exact_jacobian_is_symmetric(regime):
    # with no user callable J is the Hessian of the augmented action sum
    prob = _structured_problem(regime)
    system = tboc.residual_system(prob)
    rng = np.random.default_rng(11)
    for _ in range(3):
        J = system.jac(rng.normal(size=system.dim))
        assert np.max(np.abs(J - J.T)) <= 1e-12 * np.max(np.abs(J))


@pytest.mark.parametrize("regime", ["fully actuated", "underactuated", "potential derivatives"])
def test_exact_and_dense_jacobian_solves_agree(regime, monkeypatch):
    if regime == "underactuated":
        # force on the first axis only; the second stays at rest, so the
        # boundary data are reachable
        prob = make_problem(n=2, N=10, m=1, boundary=(
            np.zeros(2), np.zeros(2), np.array([1.0, 0.0]), np.zeros(2)))
    else:
        prob = _structured_problem(regime)
    exact = tboc.solve(prob, tol=1e-9)
    build = tboc.residual_system

    def plain(problem, aug=None):
        system = build(problem, aug=aug)
        return solvers.ResidualSystem(dim=system.dim, eval=system.eval)

    monkeypatch.setattr(tboc, "residual_system", plain)
    dense = tboc.solve(prob, tol=1e-9)
    assert exact.report.converged and dense.report.converged
    assert np.max(np.abs(exact.qs - dense.qs)) < 1e-9


@pytest.mark.parametrize("N", [16, 32, 64])
def test_linear_problem_converges_in_one_newton_step(N, monkeypatch):
    # a fully actuated point mass has a linear optimality system, so the
    # exact Jacobian takes it to the root in one step
    n = 3
    rng = np.random.default_rng(N)
    x0 = rng.uniform(-1.0, 1.0, size=n)
    prob = make_problem(n=n, N=N, boundary=(x0, np.zeros(n), x0 + 1.0, np.zeros(n)))
    events = []
    jac, fd = solvers.ResidualSystem.jac, solvers.fd_jacobian

    def counted_jac(self, x):
        events.append("jac")
        return jac(self, x)

    def counted_fd(*args, **kwargs):
        events.append("fd_jacobian")
        return fd(*args, **kwargs)

    monkeypatch.setattr(solvers.ResidualSystem, "jac", counted_jac)
    monkeypatch.setattr(solvers, "fd_jacobian", counted_fd)
    sol = tboc.solve(prob, tol=1e-9)
    assert sol.report.converged
    assert sol.report.method == "newton" and sol.report.iterations == 1
    assert events == ["jac"]


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


def test_smoothed_l1_solve_approaches_the_impulsive_optimum():
    # the least L1 effort int |u| dt of a rest-to-rest unit transfer in unit
    # time is 2 (an impulse at each end); the L2 solution's is about 3
    prob = make_problem(n=1, N=32, cost=SmoothedL1Cost(eps=0.1))
    sol = tboc.solve(prob, tol=1e-9)
    assert sol.report.converged and sol.report.method == "newton"
    assert (prob.h / 2.0) * np.sum(np.abs(sol.controls)) < 2.05


def test_quadratic_control_cost_is_the_l2_cost():
    legacy = tboc.solve(make_problem(n=2, N=12, cost=tboc.QuadraticControlCost(1.0 / 12)))
    shared = tboc.solve(make_problem(n=2, N=12, cost=L2Cost()))
    for name in ("qs", "ps", "controls"):
        assert np.array_equal(getattr(legacy, name), getattr(shared, name))
    assert legacy.cost == shared.cost


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


def test_underactuated_solve_starts_with_lm(root_finder_log, monkeypatch):
    # with constant M and B and no potential the multiplier block makes the
    # Jacobian rank-deficient, so auto runs LM first and builds no Jacobian
    # for a Newton attempt
    log = root_finder_log(tboc)
    events = []
    lm, jac = tboc.levenberg_marquardt, solvers.ResidualSystem.jac

    def lm_entry(*args, **kwargs):
        events.append("lm")
        return lm(*args, **kwargs)

    def jacobian(self, x):
        events.append("jacobian")
        return jac(self, x)

    monkeypatch.setattr(tboc, "levenberg_marquardt", lm_entry)
    monkeypatch.setattr(solvers.ResidualSystem, "jac", jacobian)
    prob = make_problem(n=2, N=10, m=1,
                        boundary=(np.zeros(2), np.zeros(2), np.array([1.0, 0.0]), np.zeros(2)))
    sol = tboc.solve(prob, tol=1e-9)
    assert sol.report.converged and sol.report.method == "levenberg_marquardt"
    assert events[0] == "lm" and "jacobian" in events
    assert [name for name, _ in log] == ["levenberg_marquardt"]


def test_solve_takes_a_method(root_finder_log):
    log = root_finder_log(tboc)
    prob = make_problem(n=2, N=8)
    assert tboc.solve(prob, tol=1e-9).report.method == "newton"
    sol = tboc.solve(prob, tol=1e-9, method="lm")
    assert sol.report.converged and sol.report.method == "levenberg_marquardt"
    assert [name for name, _ in log] == ["newton", "levenberg_marquardt"]
    with pytest.raises(ConfigError):
        tboc.solve(prob, method="gradient_descent")


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
