"""Optimal control on T*R^n: momentum-space interval costs and root solve."""

import numpy as np
import pytest
from models import CoupledCosines, Cosines, sine_times, times_square

from discvar import mech, solvers, tboc
from discvar.errors import (
    ConfigError, DimensionMismatch, NotInvertible, RankDeficient, SingularJacobian,
)
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


def interval_value(prob, qk, pk, qk1, pk1):
    """Oracle: the interval term (h/2) (C(u^-) + C(u^+)) at the recovered
    controls, over a batch of intervals."""
    p = tboc._interval_pass(prob, qk, pk, qk1, pk1)
    return (prob.h / 2.0) * (prob.cost.value_batch(p.um) + prob.cost.value_batch(p.up))


def multiplier_value(prob, qk, pk, qk1, pk1, lam_minus, lam_plus):
    """Oracle: the interval term plus lam . Phi when multipliers are given;
    ``_slot_gradients`` of the pass with those multipliers is its gradient."""
    v = interval_value(prob, qk, pk, qk1, pk1)
    if lam_minus is not None:
        p = tboc._interval_pass(prob, qk, pk, qk1, pk1)
        v = v + np.sum(lam_minus * p.phi_m, axis=-1) + np.sum(lam_plus * p.phi_p, axis=-1)
    return v


def slot_gradients(prob, *ends_and_multipliers):
    return tboc._slot_gradients(tboc._interval_pass(prob, *ends_and_multipliers))


# ---------------------------------------------------------------------------
# interval pass: control recovery and the interval term's derivatives
# ---------------------------------------------------------------------------

def test_control_recovery_inverts_forced_legendre():
    rng = np.random.default_rng(0)
    prob = make_problem(n=2, N=4)
    L, F = prob.lagrangian, prob.forces
    for _ in range(10):
        qa, qb = rng.normal(size=(2, 2))
        um, up = rng.normal(size=(2, 2))
        pa, pb = mech.legendre_pair(L, F, qa, qb, um, up)
        p = tboc._interval_pass(prob, qa, pa, qb, pb)
        rm, rp = p.um, p.up
        assert np.max(np.abs(rm - um)) < 1e-10
        assert np.max(np.abs(rp - up)) < 1e-10


def test_augmented_value_matches_two_stage_oracle():
    rng = np.random.default_rng(1)
    prob = make_problem(n=2, N=4)
    L, F = prob.lagrangian, prob.forces
    for _ in range(10):
        qa, qb = rng.normal(size=(2, 2))
        um, up = rng.normal(size=(2, 2))
        pa, pb = mech.legendre_pair(L, F, qa, qb, um, up)
        effort = (prob.h / 4.0) * (um @ um + up @ up)
        assert abs(interval_value(prob, qa, pa, qb, pb) - effort) < 1e-12


def test_grads_match_finite_differences():
    rng = np.random.default_rng(2)
    qa, pa, qb, pb = rng.normal(size=(4, 2))
    eps = 1e-6
    slots = [qa, pa, qb, pb]
    for cost in (L2Cost(), SmoothedL1Cost(eps=0.5, u_min=-3.0, u_max=3.0, weight=100.0)):
        prob = make_problem(n=2, N=4, cost=cost)
        g = slot_gradients(prob, qa, pa, qb, pb)
        for s in range(4):
            for j in range(2):
                args_p = [x.copy() for x in slots]
                args_m = [x.copy() for x in slots]
                args_p[s][j] += eps
                args_m[s][j] -= eps
                fd = (interval_value(prob, *args_p) - interval_value(prob, *args_m)) / (2.0 * eps)
                assert abs(g[s][j] - fd) < 1e-6 * (1.0 + abs(fd))


def test_underactuated_grads_include_multiplier_terms():
    rng = np.random.default_rng(3)
    prob = make_problem(n=2, N=4, m=1)
    qa, pa, qb, pb = rng.normal(size=(4, 2))
    lam_m, lam_p = rng.normal(size=(2, 1))
    g = slot_gradients(prob, qa, pa, qb, pb, lam_m, lam_p)
    eps = 1e-6
    slots = [qa, pa, qb, pb]
    for s in range(4):
        for j in range(2):
            args_p = [x.copy() for x in slots]
            args_m = [x.copy() for x in slots]
            args_p[s][j] += eps
            args_m[s][j] -= eps
            fd = (
                multiplier_value(prob, *args_p, lam_m, lam_p)
                - multiplier_value(prob, *args_m, lam_m, lam_p)
            ) / (2.0 * eps)
            assert abs(g[s][j] - fd) < 1e-6 * (1.0 + abs(fd))


def test_phi_is_hand_projection_n2_m1():
    # B spans e1, so the complement conditions read off the second component
    # of the momentum defects
    prob = make_problem(n=2, N=4, m=1)
    rng = np.random.default_rng(4)
    qa, pa, qb, pb = rng.normal(size=(4, 2))
    L, F = prob.lagrangian, prob.forces
    ym = -L.d1(qa, qb) - pa
    yp = pb - L.d2(qa, qb)
    p = tboc._interval_pass(prob, qa, pa, qb, pb)
    pm, pp = p.phi_m, p.phi_p
    assert abs(abs(pm[0]) - abs(ym[1])) < 1e-12
    assert abs(abs(pp[0]) - abs(yp[1])) < 1e-12


def test_singular_control_matrix_rejected():
    # the force-map inverses are formed when the problem is built
    h = 0.1
    L = RnLagrangian(np.eye(2), h=h)
    B = np.array([[1.0, 1.0], [1.0, 1.0]])
    F = DiscreteForcePairRn(B, B)
    with pytest.raises(NotInvertible):
        tboc.OcProblemRn(
            lagrangian=L, forces=F, cost=L2Cost(),
            x0=np.zeros(2), p0=np.zeros(2), xT=np.ones(2), pT=np.zeros(2), N=4,
        )


def test_rank_deficient_tall_control_matrix_rejected():
    h = 0.1
    L = RnLagrangian(np.eye(3), h=h)
    B = np.array([[1.0, 2.0], [0.0, 0.0], [1.0, 2.0]])
    F = DiscreteForcePairRn(B, B)
    with pytest.raises(RankDeficient):
        tboc.OcProblemRn(
            lagrangian=L, forces=F, cost=L2Cost(),
            x0=np.zeros(3), p0=np.zeros(3), xT=np.ones(3), pT=np.zeros(3), N=4,
        )


# ---------------------------------------------------------------------------
# residual structure
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 3, 6])
@pytest.mark.parametrize("N", [4, 16, 32])
def test_fully_actuated_residual_count(n, N):
    prob = make_problem(n=n, N=N)
    system = tboc.residual_system(prob)
    qs, ps, _ = tboc.initial_guess(prob)
    z = tboc._pack(prob, qs, ps, None)
    assert z.shape == system.at(z).f.shape == (2 * (N - 1) * n,)
    r = tboc.optimality_residual(prob, qs, ps)
    assert r.shape == (2 * (N - 1) * n,)


@pytest.mark.parametrize("n,m", [(2, 1), (3, 1), (6, 4)])
def test_underactuated_adds_complement_rows(n, m):
    N = 8
    prob = make_problem(n=n, N=N, m=m)
    system = tboc.residual_system(prob)
    z = tboc._pack(prob, *tboc.initial_guess(prob))
    assert z.shape == system.at(z).f.shape == (2 * (N - 1) * n + 2 * N * (n - m),)


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
        L = RnLagrangian(np.eye(n), h=h, potential=Cosines())
    elif regime == "potential derivatives":
        # a coupling potential, V = sum cos q + q_0^2 q_1
        L = RnLagrangian(np.array([[2.0, 0.5], [0.5, 1.0]]), h=h, potential=CoupledCosines())
    else:
        L = RnLagrangian(np.diag(np.arange(1.0, n + 1)), h=h)
    m = {"underactuated": 2, "smoothed l1": 2, "drift": 1}.get(regime, n)
    B = (h / 2.0) * np.eye(n)[:, :m]
    drifts = {}
    if regime == "drift":
        drifts = dict(a_minus=sine_times(0.1), a_plus=times_square(0.05))
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
    N, n, s = prob.N, prob.n, prob.n - prob.m
    rng = np.random.default_rng(10)
    qs, ps = rng.normal(size=(2, N + 1, n))
    lambdas = rng.normal(size=(N, 2, s)) if s else np.full((N, 2), None)
    ends = (qs[:-1], ps[:-1], qs[1:], ps[1:])
    lam = (lambdas[:, 0], lambdas[:, 1]) if s else (None, None)

    def interval_terms(ends, lam):
        p = tboc._interval_pass(prob, *ends)
        out = {
            "controls": (p.um, p.up),
            "value": interval_value(prob, *ends),
            "grads": slot_gradients(prob, *ends, *lam),
            "multiplier_value": multiplier_value(prob, *ends, *lam),
        }
        if s:
            out["phi"] = (p.phi_m, p.phi_p)
        else:
            # a fully actuated problem has no complement conditions
            assert p.phi_m is None and p.phi_p is None
        return out

    batched = interval_terms(ends, lam)
    for k in range(N):
        single = interval_terms((qs[k], ps[k], qs[k + 1], ps[k + 1]), lambdas[k])
        for name, terms in single.items():
            if isinstance(terms, tuple):
                for b, x in zip(batched[name], terms):
                    _close(b[k], x)
            else:
                _close(batched[name][k], terms)


def _record_calls(monkeypatch, owner, names, calls):
    """Wrap ``owner``'s methods ``names`` so that each call appends its name
    to ``calls``."""
    for name in names:
        def counted(*args, _name=name, _fn=getattr(owner, name)):
            calls.append(_name)
            return _fn(*args)

        monkeypatch.setattr(owner, name, counted)


@pytest.mark.parametrize("regime", ["fully actuated", "potential", "underactuated", "drift"])
def test_residual_evaluates_the_slot_derivatives_once(regime, monkeypatch):
    # one batched call each of d1 and d2 per residual, the complement
    # conditions included
    prob = _structured_problem(regime)
    qs, ps, lambdas = tboc.initial_guess(prob)
    if lambdas is not None:
        lambdas = np.random.default_rng(12).normal(size=lambdas.shape)
    expected = tboc.optimality_residual(prob, qs, ps, lambdas)
    calls = []
    _record_calls(monkeypatch, RnLagrangian, ("d1", "d2"), calls)
    assert np.array_equal(tboc.optimality_residual(prob, qs, ps, lambdas), expected)
    assert sorted(calls) == ["d1", "d2"]


@pytest.mark.parametrize(
    "regime", ["fully actuated", "potential", "underactuated", "drift", "smoothed l1"])
def test_jacobian_builds_from_the_interval_pass(regime, monkeypatch):
    # a point's jacobian() reads the slot derivatives, the drifts, their
    # Jacobians and the cost gradient from the pass its evaluation formed,
    # and builds the same J as before the counting wrappers
    prob = _structured_problem(regime)
    system = tboc.residual_system(prob)
    z = tboc._pack(prob, *tboc.initial_guess(prob))
    z = z + 0.01 * np.random.default_rng(13).normal(size=z.size)
    expected = system.at(z).jacobian()
    point = system.at(z)
    calls = []
    _record_calls(monkeypatch, RnLagrangian, ("d1", "d2", "d11", "d12", "d21", "d22"), calls)
    _record_calls(monkeypatch, DiscreteForcePairRn, ("drift", "drift_jacobians"), calls)
    _record_calls(monkeypatch, type(prob.cost), ("grad_batch",), calls)
    assert np.array_equal(point.jacobian(), expected)
    assert calls == []
    system.at(z)
    assert calls


def test_solve_evaluates_the_slot_derivatives_once_per_point(monkeypatch):
    # an underactuated LM solve: one d1 and one d2 call per residual
    # evaluation, and none per Jacobian build
    prob = make_problem(n=2, N=10, m=1,
                        boundary=(np.zeros(2), np.zeros(2), np.array([1.0, 0.0]), np.zeros(2)))
    calls = []
    _record_calls(monkeypatch, RnLagrangian, ("d1", "d2"), calls)
    sol = tboc.solve(prob, tol=1e-9, method="lm")
    assert sol.report.converged and sol.report.jacobian_evaluations > 0
    evaluations = sol.report.residual_evaluations
    assert sorted(calls) == ["d1"] * evaluations + ["d2"] * evaluations


def test_solve_with_a_potential_and_drifts_satisfies_the_forced_del():
    n, N = 2, 8
    h = 1.0 / N
    L = RnLagrangian(np.diag([1.0, 2.0]), h=h, potential=Cosines(0.5))
    F = DiscreteForcePairRn((h / 2.0) * np.eye(n), (h / 2.0) * np.eye(n),
                            a_minus=sine_times(0.1), a_plus=times_square(0.05))
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
    guess = tboc._pack(prob, *tboc.initial_guess(prob))
    complement = slice(stationarity.stop, guess.size)
    rng = np.random.default_rng(8)
    points = [rng.normal(size=guess.size) for _ in range(3)]
    # random states push every smoothed-L1 control onto its soft bounds;
    # near the initial guess the controls also take its curved part
    points.append(guess + 0.01 * rng.normal(size=guess.size))
    for z in points:
        J = system.at(z).jacobian()
        dense = solvers.fd_jacobian(lambda x: system.at(x).f, z)
        assert _block_error(J, dense, stationarity) < 1e-6
        if complement.stop > complement.start:
            assert _block_error(J, dense, complement) < 1e-6


@pytest.mark.parametrize("regime", ["fully actuated", "underactuated", "smoothed l1"])
def test_exact_jacobian_is_symmetric(regime):
    # with no user callable J is the Hessian of the augmented action sum
    prob = _structured_problem(regime)
    system = tboc.residual_system(prob)
    size = tboc._pack(prob, *tboc.initial_guess(prob)).size
    rng = np.random.default_rng(11)
    for _ in range(3):
        J = system.at(rng.normal(size=size)).jacobian()
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

    def dense(problem):
        # the same points, linearized by central differences of the residual
        system = build(problem)

        def residual(z):
            return system.at(z).f

        def at(z):
            return system.at(z)._replace(jacobian=lambda: solvers.fd_jacobian(residual, z))

        return solvers.ResidualSystem(at)

    monkeypatch.setattr(tboc, "residual_system", dense)
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
    jac, fd = solvers._jacobian, solvers.fd_jacobian

    def counted_jac(point, report):
        events.append("jac")
        return jac(point, report)

    def counted_fd(*args, **kwargs):
        events.append("fd_jacobian")
        return fd(*args, **kwargs)

    monkeypatch.setattr(solvers, "_jacobian", counted_jac)
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


def test_underactuated_solve_falls_back_from_singular_newton(root_finder_log, monkeypatch):
    # with constant M and B and no potential the multiplier block makes the
    # Jacobian rank-deficient: auto's Newton attempt stops singular at its
    # first Jacobian, and LM from z0 then finds the solution LM alone finds
    log = root_finder_log(tboc)
    raised = []
    newton = tboc.newton

    def newton_entry(*args, **kwargs):
        try:
            return newton(*args, **kwargs)
        except SingularJacobian as exc:
            raised.append(exc)
            raise

    monkeypatch.setattr(tboc, "newton", newton_entry)
    prob = make_problem(n=2, N=10, m=1,
                        boundary=(np.zeros(2), np.zeros(2), np.array([1.0, 0.0]), np.zeros(2)))
    sol = tboc.solve(prob, tol=1e-9)
    assert sol.report.converged and sol.report.method == "levenberg_marquardt"
    assert [name for name, _ in log] == ["newton", "levenberg_marquardt"]
    assert len(raised) == 1 and raised[0].iteration == 0
    lm = tboc.solve(prob, tol=1e-9, method="lm")
    assert sol.report.iterations == lm.report.iterations
    assert np.array_equal(sol.qs, lm.qs) and np.array_equal(sol.ps, lm.ps)
    assert np.array_equal(sol.controls, lm.controls) and sol.cost == lm.cost


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
