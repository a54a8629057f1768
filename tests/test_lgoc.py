"""Reduced optimal control on Lie groups: kinematics, residuals, solve."""

import dataclasses

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
    StepSolveFailed,
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


class GradientOnly:
    """A potential with value and left_grad only: lgoc differences its
    Hessian and third derivative."""

    def __init__(self, potential):
        self._potential = potential

    def value(self, g):
        return self._potential.value(g)

    def left_grad(self, g):
        return self._potential.left_grad(g)


# ---------------------------------------------------------------------------
# interval kinematics
# ---------------------------------------------------------------------------

def test_interval_momenta_flat_group_is_linear_momentum():
    rng = np.random.default_rng(0)
    M = np.array([[2.0, 0.3], [0.3, 1.0]])
    system = ReducedSystem(group=lie.real_n(2), inertia=M, control_basis=np.eye(2))
    xis = rng.normal(size=(5, 2))
    _, _, mu, transported, _, _ = lgoc.interval_momenta(system, 0.1, xis)
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
    _, W, mu, _, _, _ = lgoc.interval_momenta(system, h, xi[None, :])
    xi1, mu1, _ = lgoc.dep_step(system, h, xi, mu[0], W[0])
    assert np.max(np.abs(xi1 - xi)) < 1e-12


def test_dep_step_exact_momentum_transport():
    system = make_rigid_body_so3((1.0, 2.0, 3.0), actuated=(0, 1, 2))
    rng = np.random.default_rng(2)
    h = 0.05
    xi = rng.normal(size=3)
    group = system.group
    _, W, mu, transported, _, _ = lgoc.interval_momenta(system, h, xi[None, :])
    xi1, mu1, _ = lgoc.dep_step(system, h, xi, mu[0], W[0])
    assert np.max(np.abs(mu1 - transported[0])) < 1e-12


def test_dep_step_transports_the_given_momentum():
    # the free body carries mu_prev over as coAd(tau(h xi_prev), mu_prev):
    # the step reads the momentum it is given, not one rebuilt from xi_prev
    system = make_rigid_body_so3((1.0, 2.0, 3.0), actuated=(0, 1, 2))
    rng = np.random.default_rng(3)
    h = 0.05
    xi = rng.normal(size=3)
    _, W, mu, transported, _, _ = lgoc.interval_momenta(system, h, xi[None, :])
    bump = 1e-3 * rng.normal(size=3)
    _, mu1, _ = lgoc.dep_step(system, h, xi, mu[0] + bump, W[0])
    oracle = transported[0] + system.group.coAd(W[0], bump)
    assert np.max(np.abs(mu1 - oracle)) < 1e-12


def _march_cases():
    """(system, g0, xi0, h, controls) on SO(3) and SE(3) under both
    retractions: the free body, the heavy top (a potential) and the vehicle
    (a drift), the last two with random controls."""
    rng = np.random.default_rng(40)
    cases = {}
    for retraction in (lie.CAYLEY, lie.EXPONENTIAL):
        body = make_rigid_body_so3((1.0, 2.0, 3.0), actuated=(0, 1, 2),
                                   retraction=retraction)
        cases[f"free body {retraction}"] = (body, np.eye(3), np.array([0.2, 1.0, -0.5]),
                                            0.05, None)
        # h |xi| about 0.6, past the exp maps' small-angle threshold
        cases[f"fast spin {retraction}"] = (body, np.eye(3), np.array([2.0, 10.0, -5.0]),
                                            0.05, None)
        top = make_rigid_body_so3((1.0, 2.0, 3.0), actuated=(0, 1, 2),
                                  retraction=retraction,
                                  potential=systems.HeavyTopPotential(0.8))
        cases[f"heavy top {retraction}"] = (top, np.eye(3), np.array([0.3, -0.4, 1.5]),
                                            0.05, 0.5 * rng.normal(size=(200, 2, 3)))
        uuv = systems.make_uuv_system(retraction=retraction)
        cases[f"uuv {retraction}"] = (uuv, np.eye(4), 0.3 * rng.normal(size=6), 0.05,
                                      0.1 * rng.normal(size=(200, 2, 5)))
    return cases


@pytest.mark.parametrize("case", list(_march_cases()))
def test_integrate_reduced_solves_the_momentum_equation(case, monkeypatch):
    # every step's simplified Newton iteration converges without the newton
    # fallback, and the forced discrete momentum equation holds at every
    # node: the node momenta of consecutive intervals agree
    system, g0, xi0, h, controls = _march_cases()[case]

    def refused(*args, **kwargs):
        raise AssertionError("a step fell back to newton")

    monkeypatch.setattr(lgoc, "newton", refused)
    steps = 200
    gs, xis, mus = lgoc.integrate_reduced(system, g0, xi0, h, steps, controls=controls)
    _, _, mu, _, _, _ = lgoc.interval_momenta(system, h, xis)
    assert np.max(np.abs(mus - mu)) <= 1e-14 * np.max(np.abs(mu))
    if controls is None:
        controls = np.zeros((steps, 2, system.m))
    left, right = lgoc.nu_momenta(system, h, xis, controls[:, 0], controls[:, 1], gs=gs)
    scale = np.max(np.abs(mus))
    assert np.max(np.abs(right[:-1] - left[1:])) <= 1e-12 * scale


@pytest.mark.parametrize("case", ["free body cay", "fast spin cay", "free body exp",
                                  "fast spin exp"])
def test_free_body_march_transports_the_momentum_exactly(case):
    # mu_k is the momentum the step solved for: the free body carries
    # mu_{k-1} over as coAd(tau(h xi_{k-1}), mu_{k-1}), to the last bit
    system, g0, xi0, h, _ = _march_cases()[case]
    _, xis, mus = lgoc.integrate_reduced(system, g0, xi0, h, 200)
    group = system.group
    for k in range(1, 200):
        assert np.array_equal(mus[k], group.coAd(group.tau(h * xis[k - 1]), mus[k - 1]))


@pytest.mark.parametrize("case", ["heavy top cay", "uuv exp"])
def test_integrate_reduced_is_a_loop_of_dep_step(case):
    # the march hands step k the node's control covector (h/2) B (u^+_{k-1}
    # + u^-_k), the tau(h xi_{k-1}) that built g_k and the inverse Jacobian
    # of step k-1; it forms the covectors of all nodes in one product
    system, g0, xi0, h, controls = _march_cases()[case]
    steps = 60
    controls = controls[:steps]
    gs, xis, mus = lgoc.integrate_reduced(system, g0, xi0, h, steps, controls=controls)
    group, B = system.group, system.control_basis
    covectors = ((h / 2.0) * (controls[:-1, 1] + controls[1:, 0])) @ B.T
    g, xi, J_inv = g0, xi0, None
    mu = (system.inertia @ xi0) @ group.dtau_inv_matrix(h * xi0)
    for k in range(1, steps):
        node = (h / 2.0) * (B @ (controls[k - 1, 1] + controls[k, 0]))
        assert np.max(np.abs(covectors[k - 1] - node)) <= 1e-15 * np.max(np.abs(node))
        W = group.tau(h * xi)
        g = group.multiply(g, W)
        xi, mu, J_inv = lgoc.dep_step(system, h, xi, mu, W, covectors[k - 1], g, k, J_inv)
        assert np.array_equal(gs[k], g)
        assert np.array_equal(xis[k], xi) and np.array_equal(mus[k], mu)


def _updates_per_step(monkeypatch, march):
    """The simplified Newton updates of each step of ``march()``.  A step
    evaluates dtau_inv at every point it visits except the last, where its
    update converged: at its start by one dtau_inv_deriv call, after every
    other update by a dtau_inv_matrix call.  So with no step handed to
    newton, which is refused here, a step's updates are its kernel calls."""
    calls, per_step = [], []

    def count(name):
        original = getattr(lie.GroupSpec, name)

        def counted(self, xi):
            calls.append(name)
            return original(self, xi)

        monkeypatch.setattr(lie.GroupSpec, name, counted)

    def refused(*args, **kwargs):
        raise AssertionError("a step fell back to newton")

    original = lgoc.dep_step

    def step(*args):
        calls.clear()
        out = original(*args)
        assert calls[0] == "dtau_inv_deriv" and calls.count("dtau_inv_deriv") == 1
        per_step.append(len(calls))
        return out

    count("dtau_inv_matrix")
    count("dtau_inv_deriv")
    monkeypatch.setattr(lgoc, "newton", refused)
    monkeypatch.setattr(lgoc, "dep_step", step)
    march()
    return per_step


@pytest.mark.parametrize("retraction", [lie.CAYLEY, lie.EXPONENTIAL])
@pytest.mark.parametrize("damped", [False, True], ids=["free body", "damped"])
def test_steps_take_few_updates(retraction, damped, monkeypatch):
    # the simplified Newton iteration on the exact Jacobian, stopped on the
    # update below _DEP_TOL.  Step 1 starts from xi_0; every later step
    # from the Newton predictor on the previous step's inverse Jacobian,
    # which leaves the free body one update to land and one to confirm.
    # An extrapolated start took up to 3 and 4 updates.  The damped body
    # has a drag of -20 z under constant torques, so the drift's term in the
    # Jacobian counts: without it the steps take up to 9 updates
    system = make_rigid_body_so3((1.0, 2.0, 3.0), actuated=(0, 1, 2),
                                 retraction=retraction)
    h, steps, controls, first, most = 0.01, 300, None, 4, 2
    if damped:
        system = dataclasses.replace(system, drift=lambda z: -20.0 * z)
        h, controls = 0.05, np.tile([0.5, -1.0, 0.8], (steps, 2, 1))
        first, most = 5, 3
    per_step = _updates_per_step(monkeypatch, lambda: lgoc.integrate_reduced(
        system, np.eye(3), np.array([0.2, 1.0, -0.5]), h, steps, controls=controls))
    assert len(per_step) == steps - 1
    assert per_step[0] <= first and max(per_step[1:]) <= most


@pytest.mark.parametrize("case", ["uuv cay", "uuv exp"])
def test_forced_vehicle_steps_take_few_updates(case, monkeypatch):
    # white-noise controls: an extrapolated start misses each step's new
    # forcing and takes up to 7 updates; the predictor carries it
    system, g0, xi0, h, controls = _march_cases()[case]
    per_step = _updates_per_step(monkeypatch, lambda: lgoc.integrate_reduced(
        system, g0, xi0, h, 200, controls=controls))
    assert len(per_step) == 199 and max(per_step[1:]) <= 3


def test_integrate_reduced_builds_tau_once_per_step(monkeypatch):
    system, g0, xi0, h, controls = _march_cases()["uuv cay"]
    calls = []
    tau = lie.GroupSpec.tau

    def counted(self, xi):
        calls.append(1)
        return tau(self, xi)

    monkeypatch.setattr(lie.GroupSpec, "tau", counted)
    lgoc.integrate_reduced(system, g0, xi0, h, 50, controls=controls[:50])
    assert len(calls) == 50


def test_newton_fallback_finds_the_same_step(monkeypatch):
    # with no budget for the simplified Newton iteration every step goes to
    # newton, from the same predicted start, on the closed-form Jacobian
    # (no residual is differenced), and lands on the same root
    system, g0, xi0, h, controls = _march_cases()["uuv exp"]
    expected = lgoc.integrate_reduced(system, g0, xi0, h, 40, controls=controls[:40])

    def refused(*args, **kwargs):
        raise AssertionError("the fallback differenced the step residual")

    monkeypatch.setattr(lgoc, "_DEP_MAX_ITER", 0)
    monkeypatch.setattr(solvers, "fd_jacobian", refused)
    got = lgoc.integrate_reduced(system, g0, xi0, h, 40, controls=controls[:40])
    for a, b in zip(got, expected):
        assert np.max(np.abs(a - b)) <= 1e-10 * np.max(np.abs(b))


def test_singular_step_factor_keeps_the_march(monkeypatch):
    # one step's factorisation fails: that step goes to newton, and the next
    # step, with no finite prediction, starts from the previous velocity
    system, g0, xi0, h, controls = _march_cases()["uuv exp"]
    expected = lgoc.integrate_reduced(system, g0, xi0, h, 40, controls=controls[:40])
    inv = np.linalg.inv
    calls = []

    def singular_once(a):
        calls.append(1)
        if len(calls) == 10:
            raise np.linalg.LinAlgError("singular matrix")
        return inv(a)

    monkeypatch.setattr(np.linalg, "inv", singular_once)
    got = lgoc.integrate_reduced(system, g0, xi0, h, 40, controls=controls[:40])
    assert len(calls) == 39
    for a, b in zip(got, expected):
        assert np.all(np.isfinite(a))
        assert np.max(np.abs(a - b)) <= 1e-10 * np.max(np.abs(b))


def test_march_without_controls_keeps_the_drift():
    # the drift acts with or without controls: no controls and all-zero
    # controls are the same march
    system = systems.make_uuv_system()
    xi0 = np.array([0.1, 0.2, -0.1, 0.3, 0.0, 0.1])
    steps = 200
    free = lgoc.integrate_reduced(system, np.eye(4), xi0, 0.05, steps)
    zero = lgoc.integrate_reduced(system, np.eye(4), xi0, 0.05, steps,
                                  controls=np.zeros((steps, 2, system.m)))
    for a, b in zip(free, zero):
        assert np.max(np.abs(a - b)) <= 1e-12


@pytest.mark.parametrize("batch", [(), (7,)])
def test_drift_jacobians_make_one_drift_call(batch):
    # the UUV drag given as a callable is differenced, in one drift call
    uuv = systems.make_uuv_system()
    drag = systems.UuvParams().drag
    calls = []

    def drift(z):
        calls.append(np.shape(z))
        return z @ drag.T

    system = dataclasses.replace(uuv, drift=drift)
    z = 0.1 * np.random.default_rng(5).normal(size=batch + (6,))
    Jd = lgoc._drift_jacobians(system, z)
    assert calls == [(12,) + batch + (6,)]
    assert Jd.shape == batch + (6, 6)
    assert np.max(np.abs(Jd - drag)) < 1e-9


def test_linear_drift_is_its_matrix():
    # the UUV drag as the matrix: drift values z H^T, Jacobian H at every z
    uuv = systems.make_uuv_system()
    drag = systems.UuvParams().drag
    assert uuv.drift_is_linear and np.array_equal(uuv.drift, drag)
    z = 0.1 * np.random.default_rng(6).normal(size=(7, 6))
    assert np.array_equal(uuv.drift_values(z), z @ drag.T)
    assert np.array_equal(lgoc._drift_jacobians(uuv, z), drag)
    with pytest.raises(DimensionMismatch):
        dataclasses.replace(uuv, drift=np.eye(5))


def test_uuv_march_with_a_matrix_drift_equals_the_callable_drift():
    system, g0, xi0, h, controls = _march_cases()["uuv cay"]
    drag = systems.UuvParams().drag
    as_callable = dataclasses.replace(system, drift=lambda z: z @ drag.T)
    got = lgoc.integrate_reduced(system, g0, xi0, h, 200, controls=controls)
    expected = lgoc.integrate_reduced(as_callable, g0, xi0, h, 200, controls=controls)
    for a, b in zip(got, expected):
        assert np.max(np.abs(a - b)) <= 1e-10 * np.max(np.abs(b))


def test_step_failure_names_the_step(monkeypatch):
    # on R^1 with unit mass and unit force the velocity grows by h per step,
    # xi_k = 0.55 + 0.1 k; the drift is undefined from xi = 1 on, so step 5
    # fails in the simplified Newton iteration and in its newton fallback
    h = 0.1
    system = ReducedSystem(group=lie.real_n(1), inertia=np.eye(1), control_basis=np.eye(1),
                           drift=lambda z: np.where(np.abs(z) < h, 0.0, np.nan))
    fallbacks = []
    newton = lgoc.newton

    def counted(*args, **kwargs):
        fallbacks.append(1)
        return newton(*args, **kwargs)

    monkeypatch.setattr(lgoc, "newton", counted)
    with pytest.raises(StepSolveFailed) as info:
        lgoc.integrate_reduced(system, np.zeros(1), np.array([0.55]), h, 12,
                               controls=np.ones((12, 2, 1)))
    assert info.value.step == 5
    # as in mech: "step k: " and the newton failure
    assert str(info.value) == "step 5: singular Jacobian at iteration 0"
    assert len(fallbacks) == 1


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
    # the reconstruction rows of the residual
    assert np.max(np.abs(lgoc.general_residual(prob, xis, None)[-3:])) < 1e-12


# ---------------------------------------------------------------------------
# residual structure and the action-gradient oracle
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("N", [4, 16])
def test_residual_dimensions(N):
    full = rigid_body_problem(N=N)
    # fully actuated, but a non-quadratic cost keeps the momenta
    general = rigid_body_problem(N=N, cost=SmoothedL1Cost(eps=1e-3))
    under = rigid_body_problem(actuated=(0, 1), N=N)
    sys_full, elim = lgoc.residual_system(full)
    assert elim and sys_full.dim == N * 3
    sys_general, elim_g = lgoc.residual_system(general)
    assert not elim_g and sys_general.dim == (2 * N - 1) * 3
    sys_under, elim_u = lgoc.residual_system(under)
    assert not elim_u and sys_under.dim == (2 * N - 1) * 3 + 2 * N * 1


def jacobian_regimes():
    uuv = systems.make_uuv_system()
    uuv_exp = systems.make_uuv_system(retraction=lie.EXPONENTIAL)
    return {
        "cayley eliminated": rigid_body_problem(N=6),
        "exp": rigid_body_problem(N=6, retraction=lie.EXPONENTIAL),
        "heavy top": rigid_body_problem(N=6, potential=systems.HeavyTopPotential(0.8)),
        # gravity acts on body axes 0 and 1, so also on the unactuated one
        "underactuated heavy top": rigid_body_problem(
            actuated=(1, 2), N=6, potential=systems.HeavyTopPotential(0.8)),
        "uuv": OcProblemLie(
            system=uuv, g0=uuv.group.identity(), xi0=np.zeros(6),
            gT=uuv.group.tau(np.array([0.1, 0.0, 0.2, 0.5, 0.0, 0.1])),
            xiT=np.zeros(6), N=4, h=0.5, cost=L2Cost(),
        ),
        "underactuated": rigid_body_problem(actuated=(0, 1), N=6),
        "smoothed L1": rigid_body_problem(
            N=6, cost=SmoothedL1Cost(eps=1e-3, u_min=-1.0, u_max=1.0)),
        # a drag quadratic in the velocity: the drift's curvature enters
        "quadratic drag": dataclasses.replace(
            rigid_body_problem(N=6),
            system=dataclasses.replace(
                make_rigid_body_so3((1.0, 2.0, 3.0), actuated=(0, 1, 2)),
                drift=lambda z: -0.5 * z * np.linalg.norm(z, axis=-1, keepdims=True))),
        # SE(3) with exp: the only regime where the SE(3) exp second
        # derivative enters
        "uuv exp": OcProblemLie(
            system=uuv_exp, g0=uuv_exp.group.identity(), xi0=np.zeros(6),
            gT=uuv_exp.group.tau(np.array([0.1, 0.0, 0.2, 0.5, 0.0, 0.1])),
            xiT=np.zeros(6), N=6, h=0.1, cost=L2Cost(),
        ),
    }


def _random_point(prob, eliminate, rng):
    z0 = lgoc._pack(*lgoc.initial_guess(prob), eliminate)
    return z0 + 0.2 * rng.normal(size=z0.size)


def _row_blocks(prob, eliminate):
    """Slices of the velocity, momentum, complement and reconstruction rows."""
    N, n, s = prob.N, prob.system.n, prob.system.n - prob.system.m
    edges = [0, (N - 1) * n]
    if not eliminate:
        edges += [2 * (N - 1) * n, 2 * (N - 1) * n + 2 * N * s]
    edges.append(edges[-1] + n)
    return [slice(a, b) for a, b in zip(edges, edges[1:]) if b > a]


@pytest.mark.parametrize("regime", list(jacobian_regimes()))
def test_exact_jacobian_matches_dense_fd(regime):
    prob = jacobian_regimes()[regime]
    system, eliminate = lgoc.residual_system(prob)
    rng = np.random.default_rng(11)
    for _ in range(3):
        z = _random_point(prob, eliminate, rng)
        J = system.jac(z)
        J_dense = solvers.fd_jacobian(system.eval, z)
        # each row block against its own scale: the complement and potential
        # entries would hide under the velocity rows' max|J|
        for rows in _row_blocks(prob, eliminate):
            assert (np.max(np.abs(J[rows] - J_dense[rows]))
                    <= 1e-6 * np.max(np.abs(J_dense[rows])))


@pytest.mark.parametrize("regime", list(jacobian_regimes()))
def test_coloured_jacobian_matches_dense_fd(regime):
    # named for the coloured difference the exact blocks replaced; it pins
    # the Jacobian where Newton evaluates it: at the initial guess (zero
    # multipliers) and after its first step
    prob = jacobian_regimes()[regime]
    system, eliminate = lgoc.residual_system(prob)
    visited = []

    def recorded(z):
        visited.append(z.copy())
        return system.jacobian(z)

    z0 = lgoc._pack(*lgoc.initial_guess(prob), eliminate)
    with pytest.raises((NoConvergence, SingularJacobian)):
        solvers.newton(dataclasses.replace(system, jacobian=recorded), z0,
                       tol=1e-14, max_iter=2)
    assert len(visited) == 2 and np.array_equal(visited[0], z0)
    assert not np.array_equal(visited[1], z0)
    for z in visited:
        J = system.jac(z)
        J_dense = solvers.fd_jacobian(system.eval, z)
        for rows in _row_blocks(prob, eliminate):
            assert (np.max(np.abs(J[rows] - J_dense[rows]))
                    <= 1e-6 * np.max(np.abs(J_dense[rows])))


def test_jacobian_build_computes_the_frozen_potential_terms_once(monkeypatch):
    # one batched difference of the potential gradient gives the Hessians at
    # every node; the chain through the sensitivities reuses them
    prob = jacobian_regimes()["heavy top"]
    system, eliminate = lgoc.residual_system(prob)
    z = _random_point(prob, eliminate, np.random.default_rng(13))
    expected = system.jac(z)
    calls = []
    hessians = lgoc._potential_hessians

    def counted(system_, gs, *args, **kwargs):
        calls.append(len(gs))
        return hessians(system_, gs, *args, **kwargs)

    monkeypatch.setattr(lgoc, "_potential_hessians", counted)
    assert np.array_equal(system.jac(z), expected)
    assert calls == [prob.N]


def test_assembled_potential_jacobian_matches_dense_fd():
    under = rigid_body_problem(actuated=(1, 2), N=8,
                               potential=systems.HeavyTopPotential(0.05))
    for prob in (jacobian_regimes()["heavy top"], under):
        system, eliminate = lgoc.residual_system(prob)
        N, n, s = prob.N, prob.system.n, prob.system.n - prob.system.m
        # the complement rows, checked against their own scale: their
        # potential entries go like mgl h/2 and would hide under max|J|
        complement = slice(2 * (N - 1) * n, 2 * (N - 1) * n + 2 * N * s)
        rng = np.random.default_rng(11)
        for _ in range(2):
            z = _random_point(prob, eliminate, rng)
            J_dense = solvers.fd_jacobian(system.eval, z)
            J = system.jac(z)
            assert np.max(np.abs(J - J_dense)) <= 1e-6 * np.max(np.abs(J_dense))
            if s:
                assert (np.max(np.abs(J[complement] - J_dense[complement]))
                        <= 1e-6 * np.max(np.abs(J_dense[complement])))


def _differencing_regimes():
    """``jacobian_regimes`` plus the heavy top behind a potential that gives
    only its gradient."""
    regimes = jacobian_regimes()
    regimes["gradient-only heavy top"] = rigid_body_problem(
        N=6, potential=GradientOnly(systems.HeavyTopPotential(0.8)))
    return regimes


@pytest.mark.parametrize("regime", list(_differencing_regimes()))
def test_jacobian_build_makes_no_residual_call(regime, monkeypatch):
    # the Jacobian differences only the derivatives the user's callables do
    # not supply: a callable drift's, and a potential's without left_hess.
    # Every difference evaluates the drift or the potential, and the
    # residual is never called.  The UUV (a linear drift) and the heavy top
    # (closed-form derivatives) difference nothing
    prob = _differencing_regimes()[regime]
    system, eliminate = lgoc.residual_system(prob)
    z = _random_point(prob, eliminate, np.random.default_rng(12))
    differences = (callable(prob.system.drift)
                   or isinstance(prob.system.potential, GradientOnly))
    assert differences == (regime in ("quadratic drag", "gradient-only heavy top"))
    residuals, differenced, seen = [], [], set()
    original = lgoc.general_residual

    def counted(*args, **kwargs):
        residuals.append(1)
        return original(*args, **kwargs)

    def spy(owner, name, label):
        fn = getattr(owner, name)

        def called(*args, **kwargs):
            seen.add(label)
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, called)

    if callable(prob.system.drift):
        spy(prob.system, "drift", "drift")
    if prob.system.potential is not None:
        spy(prob.system.potential, "left_grad", "potential")

    def record(name):
        fd = getattr(lgoc, name)

        def recorded(*args, **kwargs):
            seen.clear()
            out = fd(*args, **kwargs)
            differenced.append(frozenset(seen))
            return out

        monkeypatch.setattr(lgoc, name, recorded)

    def refused(*args, **kwargs):
        raise AssertionError("the Jacobian build differenced a residual")

    monkeypatch.setattr(lgoc, "general_residual", counted)
    record("central_difference")
    monkeypatch.setattr(solvers, "fd_jacobian", refused)
    system.jac(z)
    assert residuals == []
    assert bool(differenced) == differences
    assert all(labels and labels <= {"drift", "potential"} for labels in differenced)


def test_closed_form_systems_make_no_difference(monkeypatch):
    # a UUV march and the heavy-top and UUV Jacobian builds use closed forms
    # only: no central difference anywhere
    def refused(*args, **kwargs):
        raise AssertionError("central_difference was called")

    monkeypatch.setattr(lgoc, "central_difference", refused)
    monkeypatch.setattr(solvers, "central_difference", refused)
    system, g0, xi0, h, controls = _march_cases()["uuv cay"]
    lgoc.integrate_reduced(system, g0, xi0, h, 50, controls=controls[:50])
    for regime in ("heavy top", "underactuated heavy top", "uuv", "uuv exp"):
        prob = jacobian_regimes()[regime]
        residual, eliminate = lgoc.residual_system(prob)
        residual.jac(_random_point(prob, eliminate, np.random.default_rng(15)))


def _four_point(f, x, j, step):
    def at(mult):
        xs = x.copy()
        xs[j] += mult * step
        return f(xs)

    return (at(-2.0) - 8.0 * at(-1.0) + 8.0 * at(1.0) - at(2.0)) / (12.0 * step)


@pytest.mark.parametrize("regime", list(jacobian_regimes()))
def test_reconstruction_rows_match_a_four_point_stencil(regime):
    prob = jacobian_regimes()[regime]
    system, eliminate = lgoc.residual_system(prob)
    N, n = prob.N, prob.system.n
    rng = np.random.default_rng(13)
    for _ in range(2):
        z = _random_point(prob, eliminate, rng)
        x = z[: N * n]
        _, nus_interior, lambdas = lgoc._unpack(prob, z, eliminate)

        def rows(v):
            return lgoc.general_residual(prob, v.reshape(N, n), nus_interior, lambdas)[-n:]

        oracle = np.stack([_four_point(rows, x, j, 1e-2 * (1.0 + abs(x[j])))
                           for j in range(N * n)], axis=1)
        border = system.jac(z)[-n:]
        assert np.max(np.abs(border[:, : N * n] - oracle)) <= 1e-9 * np.max(np.abs(oracle))
        assert not np.any(border[:, N * n :])


@pytest.mark.parametrize("regime", ["cayley eliminated", "exp", "uuv", "uuv exp"])
def test_sensitivities_match_differences_of_reconstruct(regime):
    prob = jacobian_regimes()[regime]
    group, N, n, h = prob.system.group, prob.N, prob.system.n, prob.h
    xis = 0.5 * np.random.default_rng(14).normal(size=(N, n)) / h
    gs = lgoc.reconstruct(group, prob.g0, h, xis)
    Ainv, P = lgoc._sensitivities(group, h, xis, gs)
    x = xis.ravel()
    for j in range(N + 1):
        g_inv = group.inverse(gs[j])

        def moved(v):
            return group.tau_inv(group.multiply(
                g_inv, lgoc.reconstruct(group, prob.g0, h, v.reshape(N, n))[j]))

        S = np.stack([_four_point(moved, x, c, 1e-4) for c in range(N * n)], axis=1)
        exact = np.zeros((n, N, n))
        exact[:, :j] = np.einsum("ab,kbc->akc", Ainv[j], P[:j])
        assert np.max(np.abs(S - exact.reshape(n, N * n))) <= 1e-8 * (1.0 + np.max(np.abs(S)))


@pytest.mark.parametrize("actuated", [(0, 1, 2), (0, 1)], ids=["full", "under"])
def test_residual_and_jacobian_form_tau_once(actuated, monkeypatch):
    # the reconstruction reuses the tau(h xi) the interval maps formed
    prob = rigid_body_problem(actuated=actuated, N=8)
    system, eliminate = lgoc.residual_system(prob)
    z = _random_point(prob, eliminate, np.random.default_rng(16))
    calls = []
    tau = lie.GroupSpec.tau

    def counted(self, xi):
        calls.append(np.shape(xi))
        return tau(self, xi)

    monkeypatch.setattr(lie.GroupSpec, "tau", counted)
    system.eval(z)
    assert calls == [(8, 3)]
    calls.clear()
    system.jac(z)
    assert calls == [(8, 3)]


@pytest.mark.parametrize("regime", ["underactuated", "uuv exp"])
def test_jacobian_takes_dtau_inv_and_its_derivative_from_one_call(regime, monkeypatch):
    # at z = h xi and at -z the build takes D and its derivative from one
    # dtau_inv_deriv call each; the reconstruction border's dtau_inv(r) is
    # its only dtau_inv_matrix call
    prob = jacobian_regimes()[regime]
    system, eliminate = lgoc.residual_system(prob)
    z = _random_point(prob, eliminate, np.random.default_rng(17))
    expected = system.jac(z)
    calls = {"dtau_inv_matrix": [], "dtau_inv_deriv": []}

    def count(name):
        original = getattr(lie.GroupSpec, name)

        def counted(self, xi):
            calls[name].append(np.array(xi))
            return original(self, xi)

        monkeypatch.setattr(lie.GroupSpec, name, counted)

    count("dtau_inv_matrix")
    count("dtau_inv_deriv")
    assert np.array_equal(system.jac(z), expected)
    N, n = prob.N, prob.system.n
    hxi = prob.h * z[: N * n].reshape(N, n)
    assert [a.tolist() for a in calls["dtau_inv_deriv"]] == [hxi.tolist(), (-hxi).tolist()]
    assert [a.shape for a in calls["dtau_inv_matrix"]] == [(n,)]


@pytest.mark.parametrize("regime", list(jacobian_regimes()))
def test_jacobian_build_reconstructs_only_inside_the_residual(regime, monkeypatch):
    # one build reconstructs the path once: the potential's chain and the
    # reconstruction rows' border both read that one path
    prob = jacobian_regimes()[regime]
    system, eliminate = lgoc.residual_system(prob)
    z = _random_point(prob, eliminate, np.random.default_rng(15))
    calls = []
    reconstruct = lgoc.reconstruct

    def counted(*args, **kwargs):
        calls.append(1)
        return reconstruct(*args, **kwargs)

    monkeypatch.setattr(lgoc, "reconstruct", counted)
    system.jac(z)
    assert len(calls) == 1


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


@pytest.mark.parametrize("case", ["full", "under", "potential", "under potential"])
def test_residual_is_action_gradient(case):
    rng = np.random.default_rng(4)
    if case == "full":
        prob = rigid_body_problem()
    elif case == "under":
        prob = rigid_body_problem(actuated=(0, 1))
    elif case == "potential":
        prob = rigid_body_problem(potential=systems.HeavyTopPotential(0.8))
    else:
        # the complement conditions see the potential, so the multipliers
        # enter the velocity rows through it
        prob = rigid_body_problem(actuated=(1, 2),
                                  potential=systems.HeavyTopPotential(0.8))
    for _ in range(5):
        xis, nus, lambdas = random_point(prob, rng, not prob.system.fully_actuated)
        dS, predicted = directional_action_derivative(prob, xis, nus, lambdas, rng)
        assert abs(dS - predicted) < 1e-6 * (1.0 + abs(dS))


# The 4-point stencil lgoc._xi_gradients ran before its derivatives were
# exact, kept verbatim as their oracle.
def _stencil_xi_gradients(problem, xis, nus, lambdas=None, gs=None):
    xis = np.asarray(xis, dtype=float)
    h = problem.h
    n = xis.shape[1]
    um0, up0, _, _ = lgoc.momentum_defects(problem, xis, nus, gs)
    gm = (h / 2.0) * np.asarray(problem.cost.grad_batch(um0), dtype=float)
    gp = (h / 2.0) * np.asarray(problem.cost.grad_batch(up0), dtype=float)
    out = np.empty_like(xis)
    for j in range(n):
        s = 1e-4 * (1.0 + np.abs(xis[:, j]))

        def shifted(mult):
            x = xis.copy()
            x[:, j] += mult * s
            return lgoc.momentum_defects(problem, x, nus, gs)

        stencil = [shifted(-2.0), shifted(-1.0), shifted(1.0), shifted(2.0)]

        def diff(i):
            return (
                stencil[0][i] - 8.0 * stencil[1][i]
                + 8.0 * stencil[2][i] - stencil[3][i]
            ) / (12.0 * s[:, None])

        col = np.einsum("ki,ki->k", gm, diff(0))
        col += np.einsum("ki,ki->k", gp, diff(1))
        if lambdas is not None and lambdas.size:
            col += np.einsum("ks,ks->k", lambdas[:, 0], diff(2))
            col += np.einsum("ks,ks->k", lambdas[:, 1], diff(3))
        out[:, j] = col
    return out


@pytest.mark.parametrize("regime", list(jacobian_regimes()))
def test_exact_xi_gradients_match_the_stencil(regime, monkeypatch):
    prob = jacobian_regimes()[regime]
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
    prob = jacobian_regimes()[regime]
    assert prob.system.n == {"underactuated": 3, "uuv exp": 6}[regime]
    xis, nus, lambdas = lgoc.initial_guess(prob)
    calls = []
    original = lgoc._interval_maps

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(lgoc, "_interval_maps", counted)
    lgoc.general_residual(prob, xis, nus, lambdas)
    assert len(calls) == 1


@pytest.mark.parametrize("regime", ["underactuated", "uuv exp"])
def test_residual_evaluates_each_kernel_once(regime, monkeypatch):
    prob = jacobian_regimes()[regime]
    assert prob.system.n == {"underactuated": 3, "uuv exp": 6}[regime]
    xis, nus, lambdas = lgoc.initial_guess(prob)
    expected = lgoc.general_residual(prob, xis, nus, lambdas)
    calls = {"dtau_inv_matrix": [], "dtau_inv_deriv": [], "Ad_matrix": [],
             "drift_values": []}

    def count(owner, name):
        original = getattr(owner, name)

        def counted(self, arg):
            calls[name].append(np.array(arg))
            return original(self, arg)

        monkeypatch.setattr(owner, name, counted)

    count(lie.GroupSpec, "dtau_inv_matrix")
    count(lie.GroupSpec, "dtau_inv_deriv")
    count(lie.GroupSpec, "Ad_matrix")
    count(ReducedSystem, "drift_values")
    assert np.array_equal(lgoc.general_residual(prob, xis, nus, lambdas), expected)
    z = prob.h * xis
    # dtau_inv and its derivative at z from one call, dtau_inv alone at -z
    assert len(calls["dtau_inv_deriv"]) == 1 and np.array_equal(calls["dtau_inv_deriv"][0], z)
    assert len(calls["dtau_inv_matrix"]) == 1 and np.array_equal(calls["dtau_inv_matrix"][0], -z)
    assert len(calls["Ad_matrix"]) == 1
    if not prob.system.has_drift:
        # a drift is differenced by n column pairs; without one it is read once
        assert len(calls["drift_values"]) == 1


def test_eliminated_residual_evaluates_the_interval_maps_once(monkeypatch):
    prob = rigid_body_problem()
    system, eliminate = lgoc.residual_system(prob)
    assert eliminate
    N, n = prob.N, prob.system.n
    xis = lgoc.initial_guess(prob)[0] + 0.1
    z = xis.reshape(-1)
    expected = system.eval(z)
    # bitwise the residual at the eliminated momenta, momentum rows dropped
    full = lgoc.general_residual(prob, xis, lgoc.eliminated_nus(prob, xis)[1:-1])
    assert np.array_equal(expected, np.concatenate([full[: (N - 1) * n],
                                                    full[2 * (N - 1) * n:]]))
    calls = {"_interval_maps": [], "dtau_inv_matrix": [], "dtau_inv_deriv": [],
             "Ad_matrix": []}

    def count(owner, name, nargs):
        original = getattr(owner, name)

        def counted(*args):
            calls[name].append(np.array(args[nargs - 1]))
            return original(*args)

        monkeypatch.setattr(owner, name, counted)

    count(lgoc, "_interval_maps", 2)
    count(lie.GroupSpec, "dtau_inv_matrix", 2)
    count(lie.GroupSpec, "dtau_inv_deriv", 2)
    count(lie.GroupSpec, "Ad_matrix", 2)
    assert np.array_equal(system.eval(z), expected)
    assert len(calls["_interval_maps"]) == 1
    assert [a.tolist() for a in calls["dtau_inv_deriv"]] == [(prob.h * xis).tolist()]
    assert [a.tolist() for a in calls["dtau_inv_matrix"]] == [(-prob.h * xis).tolist()]
    assert len(calls["Ad_matrix"]) == 1


def test_eliminated_nus_rejects_underactuated_problem():
    under = rigid_body_problem(actuated=(0, 1))
    xis, _, _ = lgoc.initial_guess(under)
    with pytest.raises(DimensionMismatch):
        lgoc.eliminated_nus(under, xis)


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
    # a drift that is identically zero changes nothing in the problem but
    # keeps the momenta among the unknowns
    general = dataclasses.replace(
        prob, system=dataclasses.replace(prob.system, drift=lambda z: 0.0 * z))
    assert lgoc.residual_system(prob)[1] and not lgoc.residual_system(general)[1]
    s1 = lgoc.solve(prob, tol=1e-10)
    s2 = lgoc.solve(general, tol=1e-10)
    assert s1.report.converged and s2.report.converged
    assert np.max(np.abs(s1.gs - s2.gs)) < 1e-8
    assert np.max(np.abs(s1.controls - s2.controls)) < 1e-8
    assert abs(s1.cost - s2.cost) < 1e-8


def test_underactuated_heavy_top_controls_reproduce_the_path():
    # gravity acts on the unactuated body axis 0: the complement conditions
    # must carry the potential's half steps, as the recovered controls do
    system = make_rigid_body_so3((1.0, 2.0, 3.0), actuated=(1, 2),
                                 potential=systems.HeavyTopPotential(0.3))
    exp = lie.so3(lie.EXPONENTIAL)
    gT = exp.tau(np.array([0.0, 0.0, 0.5])) @ exp.tau(np.array([0.0, 0.3, 0.0]))
    prob = OcProblemLie(system=system, g0=np.eye(3), xi0=np.zeros(3), gT=gT,
                        xiT=np.zeros(3), N=8, h=0.1, cost=L2Cost())
    sol = lgoc.solve(prob, tol=1e-9, method="newton")
    assert sol.report.converged
    gs, _, _ = lgoc.integrate_reduced(system, prob.g0, sol.xis[0], prob.h, prob.N,
                                      controls=sol.controls)
    assert np.max(np.abs(gs[-1] - gT)) < 1e-10
    left, right = lgoc.nu_momenta(system, prob.h, sol.xis, sol.controls[:, 0],
                                  sol.controls[:, 1], gs=sol.gs)
    assert np.max(np.abs(left - sol.nus[:-1])) < 1e-10
    assert np.max(np.abs(right - sol.nus[1:])) < 1e-10


def test_nu_momenta_needs_the_configurations_with_a_potential():
    system = make_rigid_body_so3((1.0, 2.0, 3.0), actuated=(0, 1, 2),
                                 potential=systems.HeavyTopPotential(0.8))
    xis = 0.3 * np.random.default_rng(6).normal(size=(4, 3))
    u = np.zeros((4, 3))
    with pytest.raises(DimensionMismatch):
        lgoc.nu_momenta(system, 0.1, xis, u, u)
    gs = lgoc.reconstruct(system.group, np.eye(3), 0.1, xis)
    left, right = lgoc.nu_momenta(system, 0.1, xis, u, u, gs=gs)
    # an unforced interval: the momenta move by the potential's half steps
    G = system.potential.left_grad(gs)
    _, _, mu, transported, _, _ = lgoc.interval_momenta(system, 0.1, xis)
    assert np.max(np.abs(left - (mu + 0.05 * G[:-1]))) < 1e-15
    assert np.max(np.abs(right - (transported - 0.05 * G[1:]))) < 1e-15
    # one interval takes its two node configurations
    one = lgoc.nu_momenta(system, 0.1, xis[2], u[2], u[2], gs=gs[2:4])
    assert np.array_equal(one[0], left[2]) and np.array_equal(one[1], right[2])


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


def under_target_problem():
    """Torques on body axes 0 and 1 only, rest to rest from I to tau([0.5, 0.2, 0])."""
    system = make_rigid_body_so3((1.0, 2.0, 3.0), actuated=(0, 1))
    return OcProblemLie(
        system=system, g0=np.eye(3), xi0=np.zeros(3),
        gT=system.group.tau(np.array([0.5, 0.2, 0.0])), xiT=np.zeros(3),
        N=8, h=0.2, cost=L2Cost(),
    )


def test_underactuated_rigid_body_solve():
    prob = under_target_problem()
    sol = lgoc.solve(prob, tol=1e-7)
    assert sol.report.converged
    assert sol.controls.shape == (8, 2, 2)
    assert sol.lambdas is not None and sol.lambdas.shape == (8, 2, 1)
    # reconstruction reaches the target exactly
    assert np.max(np.abs(sol.gs[-1] - prob.gT)) < 1e-6


def test_underactuated_auto_solve_is_one_newton_attempt(root_finder_log):
    # the underactuated benchmark's test target: auto runs Newton first, as
    # for a fully actuated problem, and Newton converges within the budget
    log = root_finder_log(lgoc)
    prob = under_target_problem()
    auto = lgoc.solve(prob, tol=1e-7, max_iter=12)
    assert [name for name, _ in log] == ["newton"]
    newton_ = lgoc.solve(prob, tol=1e-7, max_iter=12, method="newton")
    assert auto.report.method == newton_.report.method == "newton"
    assert auto.report.iterations == newton_.report.iterations
    assert auto.cost == newton_.cost


def test_underactuated_newton_takes_the_halving_steps_in_fewer_evaluations(monkeypatch):
    # the underactuated benchmark's test target: the line search accepts the
    # steps plain step halving accepts, so the residual history is the
    # frozen loop's, in 38 residual evaluations (halving makes 64); 10 of
    # them are one step's, where the model names j = 10 and the first pass
    # is j = 11, so the search halves from j = 1
    from test_solvers import frozen_newton

    calls = []
    general_residual = lgoc.general_residual

    def counted(*args, **kwargs):
        calls.append(1)
        return general_residual(*args, **kwargs)

    monkeypatch.setattr(lgoc, "general_residual", counted)
    prob = under_target_problem()
    sol = lgoc.solve(prob, tol=1e-7, max_iter=12, method="newton")
    assert sol.report.method == "newton" and sol.report.converged
    assert sol.report.residual_evaluations == len(calls) <= 38
    assert sol.report.jacobian_evaluations == sol.report.iterations
    monkeypatch.setattr(lgoc, "newton", frozen_newton)
    frozen = lgoc.solve(prob, tol=1e-7, max_iter=12, method="newton")
    assert sol.report.residual_history == frozen.report.residual_history
    assert np.array_equal(sol.xis, frozen.xis) and sol.cost == frozen.cost


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
                          ("auto", ["newton", "levenberg_marquardt"])):
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

    # a potential with left_grad only: its Hessians are differenced
    rng = np.random.default_rng(21)
    for retraction in (lie.CAYLEY, lie.EXPONENTIAL):
        prob = rigid_body_problem(potential=GradientOnly(systems.HeavyTopPotential(0.8)),
                                  retraction=retraction)
        gs = lgoc.reconstruct(prob.system.group, prob.g0, prob.h,
                              0.5 * rng.normal(size=(prob.N, 3)))[1:-1]
        assert np.array_equal(lgoc._potential_hessians(prob.system, gs),
                              column_loop(prob.system, gs))


@pytest.mark.parametrize("retraction", [lie.CAYLEY, lie.EXPONENTIAL])
def test_heavy_top_closed_forms_match_the_difference(retraction):
    # left_hess and left_curvature against the differences of left_grad
    # that stand in for them, under either retraction
    top = systems.HeavyTopPotential(0.8)
    exact = make_rigid_body_so3((1.0, 2.0, 3.0), retraction=retraction, potential=top)
    differenced = dataclasses.replace(exact, potential=GradientOnly(top))
    rng = np.random.default_rng(22)
    gs = exact.group.tau(rng.normal(size=(9, 3)))
    w = rng.normal(size=(9, 3))
    H = lgoc._potential_hessians(exact, gs)
    H_fd = lgoc._potential_hessians(differenced, gs)
    assert np.max(np.abs(H - H_fd)) <= 1e-9 * np.max(np.abs(H))
    T = lgoc._potential_curvature(exact, gs, w)
    T_fd = lgoc._potential_curvature(differenced, gs, w)
    assert np.max(np.abs(T - T_fd)) <= 1e-7 * np.max(np.abs(T))


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
