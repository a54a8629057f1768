"""Reduced optimal control on Lie groups: kinematics, residuals, solve."""

import numpy as np
import pytest

from discvar import lgoc, lie, mech, solvers, systems, tboc
from discvar.errors import (
    ConfigError,
    DimensionMismatch,
    NoConvergence,
    NotInvertible,
    RankDeficient,
    SingularJacobian,
)
from discvar.lgoc import OcProblemLie, ReducedSystem
from discvar.systems import L2Cost, SmoothedL1Cost, make_rigid_body_so3


def rigid_body_problem(actuated=(0, 1, 2), N=6, h=0.1, potential=None,
                       retraction=lie.CAYLEY, seed=0, cost=None):
    system = make_rigid_body_so3((1.0, 2.0, 3.0), actuated=actuated,
                                 retraction=retraction, potential=potential)
    rng = np.random.default_rng(seed)
    group = system.group
    return OcProblemLie(
        system=system,
        g0=group.identity(),
        xi0=0.2 * rng.normal(size=3),
        gT=group.tau(np.array([0.4, -0.2, 0.3])),
        xiT=0.2 * rng.normal(size=3),
        N=N,
        h=h,
        cost=L2Cost() if cost is None else cost,
    )


# ---------------------------------------------------------------------------
# interval kinematics
# ---------------------------------------------------------------------------

def test_interval_momenta_flat_group_is_linear_momentum():
    rng = np.random.default_rng(0)
    M = np.array([[2.0, 0.3], [0.3, 1.0]])
    system = ReducedSystem(group=lie.real_n(2), inertia=M, control_basis=np.eye(2))
    xis = rng.normal(size=(5, 2))
    _, _, mu, transported = lgoc.interval_momenta(system, 0.1, xis)
    assert np.max(np.abs(mu - xis @ M.T)) < 1e-14
    assert np.max(np.abs(transported - mu)) < 1e-14


def test_nu_momenta_flat_group_matches_legendre_pair():
    rng = np.random.default_rng(1)
    M = np.diag([1.5, 0.7])
    h = 0.1
    system = ReducedSystem(group=lie.real_n(2), inertia=M, control_basis=np.eye(2))
    L = mech.RnLagrangian(M, h=h)
    F = mech.DiscreteForcePairRn.trapezoidal(2, h)
    for _ in range(10):
        xi = rng.normal(size=2)
        um, up = rng.normal(size=(2, 2))
        qa = rng.normal(size=2)
        qb = qa + h * xi
        nu_a, nu_b = lgoc.nu_momenta(system, h, xi, um, up)
        p_a, p_b = mech.legendre_pair(L, F, qa, qb, um, up)
        assert np.max(np.abs(nu_a - p_a)) < 1e-12
        assert np.max(np.abs(nu_b - p_b)) < 1e-12


def test_dep_step_relative_equilibrium():
    # rotation about a principal axis propagates with constant body velocity
    system = make_rigid_body_so3((1.0, 2.0, 3.0), actuated=(0, 1, 2))
    xi = np.array([0.7, 0.0, 0.0])
    h = 0.05
    _, _, mu, _ = lgoc.interval_momenta(system, h, xi[None, :])
    xi1, mu1 = lgoc.dep_step(system, h, xi, mu[0])
    assert np.max(np.abs(xi1 - xi)) < 1e-12


def test_dep_step_exact_momentum_transport():
    system = make_rigid_body_so3((1.0, 2.0, 3.0), actuated=(0, 1, 2))
    rng = np.random.default_rng(2)
    h = 0.05
    xi = rng.normal(size=3)
    group = system.group
    _, W, mu, transported = lgoc.interval_momenta(system, h, xi[None, :])
    xi1, mu1 = lgoc.dep_step(system, h, xi, mu[0])
    assert np.max(np.abs(mu1 - transported[0])) < 1e-12


def test_integrate_reduced_second_order_vs_rk4():
    # free rigid body: attitude obeys Rdot = R hat(w), I wdot = (I w) x w;
    # a tightly stepped RK4 integration serves as the reference.  The first
    # interval velocity is matched to the reference so the initial data does
    # not pollute the order measurement.
    inertia = np.diag([1.0, 2.0, 3.0])
    inv = np.linalg.inv(inertia)
    w0 = np.array([0.3, 0.8, -0.4])
    T = 1.0
    system = make_rigid_body_so3((1.0, 2.0, 3.0), actuated=(0, 1, 2))
    group = system.group

    def f(R, w):
        return R @ lie.hat3(w), inv @ np.cross(inertia @ w, w)

    def rk4_to(t, steps):
        R, w = np.eye(3), w0.copy()
        dt = t / steps
        for _ in range(steps):
            k1 = f(R, w)
            k2 = f(R + 0.5 * dt * k1[0], w + 0.5 * dt * k1[1])
            k3 = f(R + 0.5 * dt * k2[0], w + 0.5 * dt * k2[1])
            k4 = f(R + dt * k3[0], w + dt * k3[1])
            R = R + (dt / 6.0) * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
            w = w + (dt / 6.0) * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
        return R

    R_ref = rk4_to(T, 4000)

    def attitude_error(steps):
        h = T / steps
        xi0 = group.tau_inv(rk4_to(h, 200)) / h
        gs, _, _ = lgoc.integrate_reduced(system, np.eye(3), xi0, h, steps)
        return np.max(np.abs(gs[-1] - R_ref))

    e1, e2 = attitude_error(20), attitude_error(40)
    assert np.log2(e1 / e2) > 1.8


def test_spatial_momentum_conserved_free_body():
    system = make_rigid_body_so3((1.0, 2.0, 3.0), actuated=(0, 1, 2))
    group = system.group
    w0 = np.array([0.2, 1.0, -0.5])
    gs, xis, mus = lgoc.integrate_reduced(system, np.eye(3), w0, 0.02, 300)
    spatial = group.coAd(group.inverse(gs[:-1]), mus)
    assert np.max(np.abs(spatial - spatial[0])) < 1e-12


def test_reconstruct_consistency():
    system = make_rigid_body_so3((1.0, 2.0, 3.0), actuated=(0, 1, 2))
    group = system.group
    rng = np.random.default_rng(3)
    xis = 0.5 * rng.normal(size=(6, 3))
    h = 0.1
    gs = lgoc.reconstruct(group, np.eye(3), h, xis)
    acc = np.eye(3)
    for k in range(6):
        acc = acc @ group.tau(h * xis[k])
    assert np.max(np.abs(gs[-1] - acc)) < 1e-13
    prob = OcProblemLie(
        system=system, g0=np.eye(3), xi0=np.zeros(3), gT=gs[-1],
        xiT=np.zeros(3), N=6, h=h, cost=L2Cost(),
    )
    assert np.max(np.abs(lgoc.reconstruction_residual(prob, xis))) < 1e-12


# ---------------------------------------------------------------------------
# residual structure and the action-gradient oracle
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("N", [4, 16])
def test_residual_dimensions(N):
    full = rigid_body_problem(N=N)
    under = rigid_body_problem(actuated=(0, 1), N=N)
    assert lgoc.residual_dimension(full, eliminate_momenta=True) == N * 3
    assert lgoc.residual_dimension(full) == (2 * N - 1) * 3
    assert lgoc.residual_dimension(under) == (2 * N - 1) * 3 + 2 * N * 1
    sys_full, elim = lgoc.residual_system(full)
    assert elim and sys_full.dim == N * 3
    sys_under, elim_u = lgoc.residual_system(under)
    assert not elim_u and sys_under.dim == (2 * N - 1) * 3 + 2 * N


def jacobian_regimes():
    uuv = systems.make_uuv_system()
    return {
        "cayley eliminated": rigid_body_problem(N=6),
        "exp": rigid_body_problem(N=6, retraction=lie.EXPONENTIAL),
        "heavy top": rigid_body_problem(N=6, potential=systems.HeavyTopPotential(0.8)),
        "uuv": OcProblemLie(
            system=uuv, g0=uuv.group.identity(), xi0=np.zeros(6),
            gT=uuv.group.tau(np.array([0.1, 0.0, 0.2, 0.5, 0.0, 0.1])),
            xiT=np.zeros(6), N=4, h=0.5, cost=L2Cost(),
        ),
        "underactuated": rigid_body_problem(actuated=(0, 1), N=6),
        "smoothed L1": rigid_body_problem(
            N=6, cost=SmoothedL1Cost(eps=1e-3, u_min=-1.0, u_max=1.0)),
    }


def _random_point(prob, eliminate, rng):
    z0 = lgoc._pack(prob, *lgoc.initial_guess(prob), eliminate)
    return z0 + 0.2 * rng.normal(size=z0.size)


@pytest.mark.parametrize("regime", list(jacobian_regimes()))
def test_coloured_jacobian_matches_dense_fd(regime):
    prob = jacobian_regimes()[regime]
    system, eliminate = lgoc.residual_system(prob)
    assert len(system.structure.colours) < system.dim
    rng = np.random.default_rng(11)
    for _ in range(2):
        z = _random_point(prob, eliminate, rng)
        J = system.jac(z)
        J_dense = solvers.fd_jacobian(system.eval, z)
        assert np.all(np.abs(J - J_dense) <= 1e-12 * (1.0 + np.abs(J_dense)))


def test_eliminated_cayley_jacobian_takes_twelve_colours():
    # xi row k touches xi_{k-2..k+1}: four interval blocks of three columns
    for N in (6, 32):
        system, eliminate = lgoc.residual_system(rigid_body_problem(N=N))
        assert eliminate and len(system.structure.colours) == 12


@pytest.mark.parametrize("regime", ["cayley eliminated", "uuv", "underactuated"])
def test_jacobian_build_makes_two_residual_calls_per_colour(regime, monkeypatch):
    prob = jacobian_regimes()[regime]
    system, eliminate = lgoc.residual_system(prob)
    z = _random_point(prob, eliminate, np.random.default_rng(12))
    calls = []
    original = lgoc.general_residual

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(lgoc, "general_residual", counted)
    system.jac(z)
    assert len(calls) == 2 * len(system.structure.colours)


def directional_action_derivative(prob, xis, nus_interior, lambdas, rng):
    """Fourth-order finite difference of the summed interval cost along a
    group-consistent variation, paired against the residual blocks."""
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
    dS = (action(-2 * e) - 8.0 * action(-e) + 8.0 * action(e) - action(2 * e)) / (12.0 * e)

    r = lgoc.general_residual(prob, xis, nus_interior, lambdas)
    nb = (N - 1) * n
    predicted = float(np.sum(r[:nb].reshape(N - 1, n) * etas[1:N]))
    predicted += float(np.sum(r[nb : 2 * nb].reshape(N - 1, n) * dnu))
    if lambdas is not None:
        m = prob.system.m
        phi = r[2 * nb : 2 * nb + 2 * N * (n - m)].reshape(N, 2, n - m)
        predicted += float(np.sum(phi * dlam))
    return dS, predicted


def random_point(prob, rng, with_lambdas):
    N, n = prob.N, prob.system.n
    xis = 0.5 * rng.normal(size=(N, n))
    nus = 0.5 * rng.normal(size=(N - 1, n))
    lambdas = None
    if with_lambdas:
        lambdas = 0.5 * rng.normal(size=(N, 2, n - prob.system.m))
    return xis, nus, lambdas


@pytest.mark.parametrize("case", ["full", "under", "potential"])
def test_residual_is_action_gradient(case):
    rng = np.random.default_rng(4)
    if case == "full":
        prob = rigid_body_problem()
    elif case == "under":
        prob = rigid_body_problem(actuated=(0, 1))
    else:
        prob = rigid_body_problem(potential=systems.HeavyTopPotential(0.8))
    for _ in range(5):
        xis, nus, lambdas = random_point(prob, rng, case == "under")
        dS, predicted = directional_action_derivative(prob, xis, nus, lambdas, rng)
        assert abs(dS - predicted) < 1e-6 * (1.0 + abs(dS))


# The 4-point stencil lgoc._xi_gradients ran before its derivatives were
# exact, kept verbatim as their oracle.
def _stencil_xi_gradients(problem, xis, nus, lambdas=None, gs=None):
    xis = np.asarray(xis, dtype=float)
    h = problem.h
    n = xis.shape[1]
    um0, up0, _, _ = lgoc._interval_maps(problem, xis, nus, gs)
    gm = (h / 2.0) * np.asarray(problem.cost.grad_batch(um0), dtype=float)
    gp = (h / 2.0) * np.asarray(problem.cost.grad_batch(up0), dtype=float)
    sigma = None
    if lambdas is not None and lambdas.size:
        sigma = list(problem.system.unactuated)
    out = np.empty_like(xis)
    for j in range(n):
        s = 1e-4 * (1.0 + np.abs(xis[:, j]))

        def shifted(mult):
            x = xis.copy()
            x[:, j] += mult * s
            return lgoc._interval_maps(problem, x, nus, gs)

        stencil = [shifted(-2.0), shifted(-1.0), shifted(1.0), shifted(2.0)]

        def diff(i):
            return (
                stencil[0][i] - 8.0 * stencil[1][i]
                + 8.0 * stencil[2][i] - stencil[3][i]
            ) / (12.0 * s[:, None])

        col = np.einsum("ki,ki->k", gm, diff(0))
        col += np.einsum("ki,ki->k", gp, diff(1))
        if sigma is not None:
            col += np.einsum("ks,ks->k", lambdas[:, 0], diff(2)[:, sigma])
            col += np.einsum("ks,ks->k", lambdas[:, 1], diff(3)[:, sigma])
        out[:, j] = col
    return out


def xi_gradient_regimes():
    uuv = systems.make_uuv_system(retraction=lie.EXPONENTIAL)
    return {
        **jacobian_regimes(),
        "uuv exp": OcProblemLie(
            system=uuv, g0=uuv.group.identity(), xi0=np.zeros(6),
            gT=uuv.group.tau(np.array([0.1, 0.0, 0.2, 0.5, 0.0, 0.1])),
            xiT=np.zeros(6), N=6, h=0.1, cost=L2Cost(),
        ),
    }


@pytest.mark.parametrize("regime", list(xi_gradient_regimes()))
def test_exact_xi_gradients_match_the_stencil(regime, monkeypatch):
    prob = xi_gradient_regimes()[regime]
    N, n, h = prob.N, prob.system.n, prob.h
    rng = np.random.default_rng(31)
    captured = []
    exact = lgoc._xi_gradients
    monkeypatch.setattr(lgoc, "_xi_gradients",
                        lambda *args: captured.append(exact(*args)) or captured[-1])
    for _ in range(3):
        # rotation angles h|omega_k| from 0.1 to 1.2: both sides of the
        # exp maps' small-angle threshold in one path (SO(3) and SE(3), Cayley
        # and exp, drift, potential, multipliers across the regimes)
        xis = rng.normal(size=(N, n))
        xis[:, :3] *= (np.linspace(0.1, 1.2, N) / h)[:, None] / np.linalg.norm(
            xis[:, :3], axis=1, keepdims=True)
        assert np.any(h * np.linalg.norm(xis[:, :3], axis=1) < lie._SMALL_ANGLE)
        assert np.any(h * np.linalg.norm(xis[:, :3], axis=1) > lie._SMALL_ANGLE)
        nus = rng.normal(size=(N - 1, n))
        lambdas = None
        if not prob.system.fully_actuated:
            lambdas = rng.normal(size=(N, 2, n - prob.system.m))
        lgoc.general_residual(prob, xis, nus, lambdas)
        gs = None
        if prob.system.potential is not None:
            gs = lgoc.reconstruct(prob.system.group, prob.g0, h, xis)
        oracle = _stencil_xi_gradients(prob, xis, lgoc._full_nus(prob, nus), lambdas, gs)
        assert np.max(np.abs(captured[-1] - oracle)) <= 1e-8 * np.max(np.abs(oracle))


@pytest.mark.parametrize("regime", ["underactuated", "uuv exp"])
def test_residual_evaluates_the_interval_maps_once(regime, monkeypatch):
    prob = xi_gradient_regimes()[regime]
    assert prob.system.n == {"underactuated": 3, "uuv exp": 6}[regime]
    xis, nus, lambdas = lgoc.initial_guess(prob)
    calls = []
    original = lgoc.interval_momenta

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(lgoc, "interval_momenta", counted)
    lgoc.general_residual(prob, xis, nus, lambdas)
    assert len(calls) == 1


def test_eliminated_nus_rejects_underactuated_problem():
    under = rigid_body_problem(actuated=(0, 1))
    xis, _, _ = lgoc.initial_guess(under)
    with pytest.raises(DimensionMismatch):
        lgoc.eliminated_nus(under, xis)
    # so does a residual system forced to eliminate the momenta
    system, _ = lgoc.residual_system(under, eliminate_momenta=True)
    with pytest.raises(DimensionMismatch):
        system.eval(xis.reshape(-1))


def test_eliminated_momenta_zero_the_momentum_block():
    prob = rigid_body_problem()
    rng = np.random.default_rng(5)
    xis = 0.5 * rng.normal(size=(prob.N, 3))
    nus = lgoc.eliminated_nus(prob, xis)
    r = lgoc.general_residual(prob, xis, nus[1:-1])
    N, n = prob.N, 3
    assert np.max(np.abs(r[(N - 1) * n : 2 * (N - 1) * n])) < 1e-12


def test_elimination_requires_quadratic_cost():
    prob = rigid_body_problem()
    prob.cost = systems.SmoothedL1Cost(eps=1e-2)
    with pytest.raises(DimensionMismatch):
        lgoc.eliminated_nus(prob, np.zeros((prob.N, 3)))


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def test_eliminated_and_general_solves_agree():
    prob = rigid_body_problem(N=8)
    s1 = lgoc.solve(prob, tol=1e-10, eliminate_momenta=True)
    s2 = lgoc.solve(prob, tol=1e-10, eliminate_momenta=False)
    assert s1.report.converged and s2.report.converged
    assert np.max(np.abs(s1.gs - s2.gs)) < 1e-8
    assert np.max(np.abs(s1.controls - s2.controls)) < 1e-8
    assert abs(s1.cost - s2.cost) < 1e-8


def test_left_invariance_of_the_solution():
    prob = rigid_body_problem(N=8)
    sol = lgoc.solve(prob, tol=1e-10)
    group = prob.system.group
    shift = group.tau(np.array([0.9, -1.1, 0.4]))
    shifted = OcProblemLie(
        system=prob.system,
        g0=shift @ prob.g0, xi0=prob.xi0,
        gT=shift @ prob.gT, xiT=prob.xiT,
        N=prob.N, h=prob.h, cost=prob.cost,
    )
    sol2 = lgoc.solve(shifted, tol=1e-10)
    assert np.max(np.abs(sol2.xis - sol.xis)) < 1e-9
    assert np.max(np.abs(sol2.controls - sol.controls)) < 1e-9
    assert abs(sol2.cost - sol.cost) < 1e-9


def test_trivial_problem_zero_controls():
    system = make_rigid_body_so3((1.0, 2.0, 3.0), actuated=(0, 1, 2))
    prob = OcProblemLie(
        system=system, g0=np.eye(3), xi0=np.zeros(3), gT=np.eye(3),
        xiT=np.zeros(3), N=4, h=0.1, cost=L2Cost(),
    )
    sol = lgoc.solve(prob, tol=1e-12)
    assert np.max(np.abs(sol.controls)) < 1e-10
    assert abs(sol.cost) < 1e-12


def test_solution_seen_by_both_retractions_converges_together():
    # the Cayley and exponential formulations discretize the same problem, so
    # their optimal trajectories approach each other at second order in h
    gT = lie.so3(lie.EXPONENTIAL).tau(np.array([0.5, -0.3, 0.2]))

    def gap(N):
        T = 0.8
        h = T / N
        sols = {}
        for retr in (lie.CAYLEY, lie.EXPONENTIAL):
            system = make_rigid_body_so3((1.0, 2.0, 3.0), actuated=(0, 1, 2),
                                         retraction=retr)
            prob = OcProblemLie(
                system=system, g0=np.eye(3), xi0=np.zeros(3),
                gT=gT, xiT=np.zeros(3), N=N, h=h, cost=L2Cost(),
            )
            sols[retr] = lgoc.solve(prob, tol=1e-9)
        return np.max(np.abs(sols[lie.CAYLEY].gs - sols[lie.EXPONENTIAL].gs))

    g1, g2, g3 = gap(8), gap(16), gap(32)
    assert np.log2(g1 / g2) > 1.8
    assert np.log2(g2 / g3) > 1.8


def test_underactuated_rigid_body_solve():
    system = make_rigid_body_so3((1.0, 2.0, 3.0), actuated=(0, 1))
    prob = OcProblemLie(
        system=system, g0=np.eye(3), xi0=np.zeros(3),
        gT=system.group.tau(np.array([0.5, 0.2, 0.0])), xiT=np.zeros(3),
        N=8, h=0.2, cost=L2Cost(),
    )
    sol = lgoc.solve(prob, tol=1e-7)
    assert sol.report.converged
    assert sol.controls.shape == (8, 2, 2)
    assert sol.lambdas is not None and sol.lambdas.shape == (8, 2, 1)
    # reconstruction reaches the target exactly
    assert np.max(np.abs(sol.gs[-1] - prob.gT)) < 1e-6


def test_solve_runs_the_module_root_finders(root_finder_log):
    log = root_finder_log(lgoc)
    prob = rigid_body_problem()
    assert lgoc.solve(prob, tol=1e-9).report.method == "newton"
    assert [name for name, _ in log] == ["newton"]
    log.clear()
    assert lgoc.solve(prob, tol=1e-9, method="lm").report.method == "levenberg_marquardt"
    assert [name for name, _ in log] == ["levenberg_marquardt"]


def test_max_iter_bounds_each_attempt(root_finder_log):
    log = root_finder_log(lgoc)
    # tol below the rounding floor: no attempt can converge
    for method, order in (("newton", ["newton", "levenberg_marquardt"]),
                          ("auto", ["levenberg_marquardt", "newton"])):
        log.clear()
        actuated = (0, 1, 2) if method == "newton" else (0, 1)
        prob = rigid_body_problem(actuated=actuated, N=4)
        with pytest.raises((NoConvergence, SingularJacobian)):
            lgoc.solve(prob, tol=1e-18, max_iter=3, method=method)
        assert [name for name, _ in log] == order
        for _, report in log:
            assert report.iterations <= 3
            assert len(report.residual_history) <= 4


def test_unknown_method_is_config_error():
    with pytest.raises(ConfigError):
        lgoc.solve(rigid_body_problem(), method="gradient_descent")


def test_potential_hessians_match_the_column_loop():
    # the loop lgoc used before it called solvers.fd_jacobian, kept verbatim
    def column_loop(system, gs_interior, step=1e-6):
        group, n = system.group, system.n
        H = np.empty((gs_interior.shape[0], n, n))
        for j in range(n):
            e = np.zeros(n)
            e[j] = step
            Gp = np.asarray(system.potential.left_grad(
                group.multiply(gs_interior, group.tau(e))), dtype=float)
            Gm = np.asarray(system.potential.left_grad(
                group.multiply(gs_interior, group.tau(-e))), dtype=float)
            H[:, :, j] = (Gp - Gm) / (2.0 * step)
        return H

    rng = np.random.default_rng(21)
    for retraction in (lie.CAYLEY, lie.EXPONENTIAL):
        prob = rigid_body_problem(potential=systems.HeavyTopPotential(0.8),
                                  retraction=retraction)
        gs = lgoc.reconstruct(prob.system.group, prob.g0, prob.h,
                              0.5 * rng.normal(size=(prob.N, 3)))[1:-1]
        assert np.array_equal(lgoc._potential_hessians(prob.system, gs),
                              column_loop(prob.system, gs))


def test_solution_endpoint_and_momenta():
    prob = rigid_body_problem(N=8)
    sol = lgoc.solve(prob, tol=1e-10)
    assert np.max(np.abs(sol.gs[-1] - prob.gT)) < 1e-9
    assert np.max(np.abs(sol.nus[0] - prob.nu0)) == 0.0
    assert np.max(np.abs(sol.nus[-1] - prob.nuN)) == 0.0
    # recovered controls reproduce the node momenta on every interval
    for k in range(prob.N):
        na, nb = lgoc.nu_momenta(
            prob.system, prob.h, sol.xis[k], sol.controls[k, 0], sol.controls[k, 1]
        )
        assert np.max(np.abs(na - sol.nus[k])) < 1e-9
        assert np.max(np.abs(nb - sol.nus[k + 1])) < 1e-9


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_inertia_must_be_positive_definite():
    with pytest.raises(NotInvertible):
        ReducedSystem(group=lie.so3(), inertia=np.diag([1.0, -2.0, 3.0]),
                      control_basis=np.eye(3))


def test_control_basis_rank_and_unactuated_rows():
    with pytest.raises(RankDeficient):
        ReducedSystem(group=lie.so3(), inertia=np.eye(3),
                      control_basis=np.array([[1.0, 1.0], [2.0, 2.0], [0.0, 0.0]]),
                      unactuated=(2,))
    with pytest.raises(DimensionMismatch):
        ReducedSystem(group=lie.so3(), inertia=np.eye(3),
                      control_basis=np.array([[1.0, 0.0], [0.0, 1.0], [0.1, 0.0]]),
                      unactuated=(2,))
    with pytest.raises(DimensionMismatch):
        ReducedSystem(group=lie.so3(), inertia=np.eye(3),
                      control_basis=np.eye(3)[:, :2], unactuated=())


def test_problem_validation():
    system = make_rigid_body_so3((1.0, 2.0, 3.0), actuated=(0, 1, 2))
    with pytest.raises(DimensionMismatch):
        OcProblemLie(system=system, g0=np.eye(3), xi0=np.zeros(2),
                     gT=np.eye(3), xiT=np.zeros(3), N=4, h=0.1, cost=L2Cost())
    with pytest.raises(DimensionMismatch):
        OcProblemLie(system=system, g0=np.eye(3), xi0=np.zeros(3),
                     gT=np.eye(3), xiT=np.zeros(3), N=1, h=0.1, cost=L2Cost())
    with pytest.raises(DimensionMismatch):
        OcProblemLie(system=system, g0=2.0 * np.eye(3), xi0=np.zeros(3),
                     gT=np.eye(3), xiT=np.zeros(3), N=4, h=0.1, cost=L2Cost())
