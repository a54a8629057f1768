"""Reduced optimal control on Lie groups: kinematics, residuals, solve."""

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest
from models import (Cosines, CutOffDrift, Damping, LinearDrift, QuadraticDrag, damping,
                    plain_system, sine_of_difference)

from discvar import lgoc, lie, mech, solvers, systems, tboc
from discvar.errors import (
    ConfigError,
    DimensionMismatch,
    NoConvergence,
    NotInvertible,
    OutOfChart,
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
    # rotation about a principal axis propagates with constant body
    # velocity: a march of two steps keeps it
    system = make_rigid_body_so3((1.0, 2.0, 3.0), actuated=(0, 1, 2))
    xi = np.array([0.7, 0.0, 0.0])
    h = 0.05
    _, xis, _ = lgoc.integrate_reduced(system, np.eye(3), xi, h, 2)
    assert np.max(np.abs(xis[1] - xi)) < 1e-12


def test_dep_step_exact_momentum_transport():
    # the free body's second momentum is the first one transported
    system = make_rigid_body_so3((1.0, 2.0, 3.0), actuated=(0, 1, 2))
    rng = np.random.default_rng(2)
    h = 0.05
    xi = rng.normal(size=3)
    _, _, _, transported, _, _ = lgoc.interval_momenta(system, h, xi[None, :])
    _, _, mus = lgoc.integrate_reduced(system, np.eye(3), xi, h, 2)
    assert np.max(np.abs(mus[1] - transported[0])) < 1e-12


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
    # every window converges with no newton call, and the forced discrete
    # momentum equation holds at every node: the node momenta of
    # consecutive intervals agree
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
    # the march hands each step the node's control covector (h/2) B
    # (u^+_{k-1} + u^-_k), formed for all nodes in one product.  It solves
    # its steps in windows, and every step solves the one-step equation of
    # ``reference_dep_step``, the potential's gradient at g_k included: the
    # oracle from the march's own (g_k, xi_{k-1}, mu_{k-1}) lands on its
    # (xi_k, mu_k)
    system, g0, xi0, h, controls = _march_cases()[case]
    steps = 60
    controls = controls[:steps]
    gs, xis, mus = lgoc.integrate_reduced(system, g0, xi0, h, steps, controls=controls)
    group, B = system.group, system.control_basis
    covectors = ((h / 2.0) * (controls[:-1, 1] + controls[1:, 0])) @ B.T
    for k in range(1, steps):
        node = (h / 2.0) * (B @ (controls[k - 1, 1] + controls[k, 0]))
        assert np.max(np.abs(covectors[k - 1] - node)) <= 1e-15 * np.max(np.abs(node))
        W = group.tau(h * xis[k - 1])
        xi, mu, _ = reference_dep_step(system, h, xis[k - 1], mus[k - 1], W, covectors[k - 1],
                                       gs[k], k)
        assert np.max(np.abs(xis[k] - xi)) <= 1e-12 * np.max(np.abs(xi))
        assert np.max(np.abs(mus[k] - mu)) <= 1e-12 * np.max(np.abs(mu))


# the reference step's convergence test and its budget of simplified Newton
# updates
REFERENCE_TOL = 1e-13
REFERENCE_MAX_ITER = 200


def reference_dep_step(system, h, xi_prev, mu_prev, tau_prev, forcing=None, g_k=None,
                       step_index=0, J_inv_prev=None):
    """One step of the forced discrete momentum equation, the march's oracle;
    returns (xi_k, mu_k, J_k^-1).  It solves dtau_inv(h xi_k)^T I xi_k =
    coAd(tau_prev, mu_prev) + forcing + (h/2) (d(h xi_{k-1}) + d(h xi_k)) -
    h grad V(g_k) by a simplified Newton iteration on the Jacobian at its
    start, the Newton predictor on ``J_inv_prev`` when given, with
    ``lgoc.newton`` as its fallback, and raises StepSolveFailed naming
    ``step_index`` when that fails too."""
    group = system.group
    inertia = system.inertia
    xi_prev = np.asarray(xi_prev, dtype=float)
    mu_prev = np.asarray(mu_prev, dtype=float)
    z_prev = h * xi_prev
    rhs = group.coAd(tau_prev, mu_prev)
    if forcing is not None:
        rhs = rhs + forcing
    if system.has_drift:
        drift_prev = (h / 2.0) * system.drift_values(z_prev)
        rhs = rhs + drift_prev
    if system.potential is not None:
        rhs = rhs - h * np.asarray(system.potential.left_grad(g_k), dtype=float)

    def residual(xi, D):
        out = (inertia @ xi) @ D - rhs
        return out - (h / 2.0) * system.drift_values(h * xi) if system.has_drift else out

    def jacobian(xi, D, T):
        J = lie.mt(D) @ inertia + h * lie.mt((inertia @ xi) @ T)
        if system.has_drift:
            J = J - (h * h / 2.0) * lgoc._drift_jacobians(system, h * xi)
        return J

    start = xi_prev
    if J_inv_prev is not None:
        r_prev = mu_prev - rhs
        if system.has_drift:
            r_prev = r_prev - drift_prev
        predicted = xi_prev - J_inv_prev @ r_prev
        if np.isfinite(predicted).all():
            start = predicted
    D, T = group.dtau_inv_deriv(h * start)
    J = jacobian(start, D, T)
    try:
        J_inv = np.linalg.inv(J)
    except np.linalg.LinAlgError:
        J_inv = np.full_like(J, np.nan)
    xi, converged = start, False
    for _ in range(REFERENCE_MAX_ITER):
        update = J_inv @ residual(xi, D)
        xi = xi - update
        size = np.abs(update).max()
        if not np.isfinite(size):
            break
        if size < REFERENCE_TOL * (1.0 + np.abs(xi).max()):
            converged = True
            break
        D = group.dtau_inv_matrix(h * xi)
    if not converged:
        try:
            xi = lgoc.newton(plain_system(
                lambda x: residual(x, group.dtau_inv_matrix(h * x)),
                lambda x: jacobian(x, *group.dtau_inv_deriv(h * x))), start, tol=1e-12)[0].x
        except (NoConvergence, SingularJacobian) as exc:
            raise StepSolveFailed(step_index, f"step {step_index}: {exc}") from exc
    mu = rhs + (h / 2.0) * system.drift_values(h * xi) if system.has_drift else rhs
    return xi, mu, J_inv


def reference_integrate_reduced(system, g0, xi0, h, steps, controls=None):
    """The march step by step, on ``reference_dep_step`` from the Newton
    predictor of the step before: the path through ``GroupSpec.multiply``,
    a list and np.stack."""
    group = system.group
    forcing = [None] * (steps - 1)
    if controls is not None:
        controls = np.asarray(controls, dtype=float)
        forcing = ((h / 2.0) * (controls[:-1, 1] + controls[1:, 0])) @ system.control_basis.T
    gs = [np.asarray(g0, dtype=float)]
    xis = np.empty((steps, system.n))
    mus = np.empty((steps, system.n))
    xis[0] = np.asarray(xi0, dtype=float)
    mus[0] = (system.inertia @ xis[0]) @ group.dtau_inv_matrix(h * xis[0])
    W = group.tau(h * xis[0])
    gs.append(group.multiply(gs[0], W))
    J_inv = None
    for k in range(1, steps):
        xis[k], mus[k], J_inv = reference_dep_step(system, h, xis[k - 1], mus[k - 1], W,
                                                   forcing[k - 1], gs[k], k, J_inv)
        W = group.tau(h * xis[k])
        gs.append(group.multiply(gs[k], W))
    return np.stack(gs), xis, mus


def _reference_cases():
    """The march cases, the benchmark's free bodies (h = 0.01, 500 steps)
    and a damped body whose drift is a model, not a matrix."""
    cases = dict(_march_cases())
    for retraction in (lie.CAYLEY, lie.EXPONENTIAL):
        body = make_rigid_body_so3((1.0, 2.0, 3.0), actuated=(0, 1, 2),
                                   retraction=retraction)
        cases[f"benchmark free body {retraction}"] = (
            body, body.group.tau(np.array([0.3, -1.2, 2.0])), np.array([0.2, -1.0, 0.5]),
            0.01, None)
    damped = dataclasses.replace(cases["free body cay"][0], drift=Damping(20.0))
    cases["damped cay"] = (damped, np.eye(3), np.array([0.2, 1.0, -0.5]), 0.05,
                           np.tile([0.5, -1.0, 0.8], (200, 2, 1)))
    return cases


@pytest.mark.parametrize("case", list(_reference_cases()))
def test_march_matches_its_reference_bitwise(case):
    # every march solves windows of steps at once, a potential's included,
    # and agrees with the step-by-step march to 1e-10 relative, the fast
    # spins (h |xi| about 0.6) included
    system, g0, xi0, h, controls = _reference_cases()[case]
    steps = 500 if case.startswith("benchmark") else 200
    got = lgoc.integrate_reduced(system, g0, xi0, h, steps, controls=controls)
    expected = reference_integrate_reduced(system, g0, xi0, h, steps, controls=controls)
    for a, b in zip(got, expected):
        assert a.shape == b.shape
        assert np.max(np.abs(a - b)) <= 1e-10 * np.max(np.abs(b))


@pytest.mark.parametrize("case", ["uuv cay", "uuv exp", "damped cay"])
def test_forced_march_carries_the_momentum_of_its_steps(case):
    # a window with controls or a drift carries its momentum by one scan of
    # mu_j = coAd(tau(h xi_{j-1}), mu_{j-1}) + f_j + (h/2) (d(h xi_{j-1}) +
    # d(h xi_j)); it agrees with that carry made step by step from the
    # march's own velocities, its controls and the drift at its velocities
    # (measured: 2.8e-15, 2.7e-15 and 5.6e-14 relative)
    system, g0, xi0, h, controls = _reference_cases()[case]
    steps = 200
    _, xis, mus = lgoc.integrate_reduced(system, g0, xi0, h, steps, controls=controls)
    group = system.group
    forcing = ((h / 2.0) * (controls[:-1, 1] + controls[1:, 0])) @ system.control_basis.T
    half = (h / 2.0) * system.drift_values(h * xis) if system.has_drift else np.zeros_like(xis)
    carried = np.empty_like(mus)
    carried[0] = mus[0]
    for k in range(1, steps):
        carried[k] = (group.coAd(group.tau(h * xis[k - 1]), carried[k - 1]) + forcing[k - 1]
                      + half[k - 1] + half[k])
    assert np.max(np.abs(mus - carried)) <= 1e-12 * np.max(np.abs(carried))


@pytest.mark.parametrize("case", ["free body cay", "free body exp", "uuv cay", "uuv exp"])
def test_march_path_is_reconstruct(case):
    # the march writes g_{k+1} = g_k tau(h xi_k) as reconstruct does, so its
    # path is bitwise the one reconstruct forms from its velocities, which
    # verify's trajectory_g check reads
    system, g0, xi0, h, controls = _march_cases()[case]
    gs, xis, _ = lgoc.integrate_reduced(system, g0, xi0, h, 200, controls=controls)
    path = lgoc.reconstruct(system.group, g0, h, xis)
    assert gs.shape == path.shape and gs.tobytes() == path.tobytes()


# ---------------------------------------------------------------------------
# the sequential products against np.matmul's
# ---------------------------------------------------------------------------

def matmul_products(rows, steps, product):
    """``lgoc._sequential_products`` as the march and ``reconstruct`` wrote
    their rows before it: one np.matmul(..., out=) per step, np.add on R^n.
    Its bytes are the oracle of the np.dot rows."""
    compose = np.add if product is np.add else np.matmul
    for j in range(len(steps)):
        compose(rows[j], steps[j], out=rows[j + 1])


def _product_cases():
    """group -> (group, g0, the tau(h xi_k) of 128 random steps): SO(3)
    under both retractions, SE(3) (4x4) and R^3."""
    rng = np.random.default_rng(36)
    groups = {"SO3 cay": lie.so3(lie.CAYLEY), "SO3 exp": lie.so3(lie.EXPONENTIAL),
              "SE3 exp": lie.se3(lie.EXPONENTIAL), "R3": lie.real_n(3)}
    return {name: (group, group.tau(rng.normal(size=group.dim)),
                   group.tau(0.3 * rng.normal(size=(128, group.dim))))
            for name, group in groups.items()}


@pytest.mark.parametrize("case", list(_product_cases()))
def test_reconstruct_writes_the_bytes_of_matmul(case):
    # np.dot on one point's 2-D rows calls the BLAS routine np.matmul calls,
    # with the same arguments: the path is np.matmul's, bitwise
    group, g0, W = _product_cases()[case]
    expected = np.empty((len(W) + 1,) + g0.shape)
    expected[0] = g0
    matmul_products(expected, W, lgoc._composition(group))
    assert lgoc.reconstruct(group, g0, 0.1, None, W).tobytes() == expected.tobytes()


@pytest.mark.parametrize("case", ["SO3 cay", "SO3 exp", "SE3 exp"])
def test_momentum_carry_writes_the_bytes_of_matmul(case):
    # the free body's carry mu_j = mu_{j-1} Ad_j, a row vector through gemv
    group, _, W = _product_cases()[case]
    Ad = group.Ad_matrix(W)
    mus, expected = np.empty((2, len(W) + 1, group.dim))
    mus[0] = expected[0] = np.random.default_rng(7).normal(size=group.dim)
    lgoc._sequential_products(list(mus), Ad, np.dot)
    matmul_products(expected, Ad, np.dot)
    assert mus.tobytes() == expected.tobytes()


@pytest.mark.parametrize("case", ["free body cay", "free body exp", "heavy top exp", "uuv cay",
                                  "uuv exp"])
def test_march_writes_the_bytes_of_matmul(case, monkeypatch):
    # the march with np.matmul's rows in place of the sequential products:
    # its first step, its committed paths, the free body's carry and the
    # heavy top's window paths give the same gs, xis and mus, bitwise
    system, g0, xi0, h, controls = _march_cases()[case]
    got = lgoc.integrate_reduced(system, g0, xi0, h, 200, controls=controls)
    monkeypatch.setattr(lgoc, "_sequential_products", matmul_products)
    expected = lgoc.integrate_reduced(system, g0, xi0, h, 200, controls=controls)
    for a, b in zip(got, expected):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("K", [1, 4, 27])
@pytest.mark.parametrize("case", ["SO3 cay", "SE3 exp", "R3"])
def test_stacked_reconstruct_gives_each_points_path(case, K):
    # a stack keeps one batched np.matmul per node over its points; each
    # point's path is its own reconstruct's, bitwise
    group, g0, _ = _product_cases()[case]
    xis = np.random.default_rng(K).normal(size=(K, 16, group.dim))
    paths = lgoc.reconstruct(group, g0, 0.1, xis)
    assert paths.shape == (K, 17) + g0.shape
    for point, path in zip(xis, paths):
        assert path.tobytes() == lgoc.reconstruct(group, g0, 0.1, point).tobytes()


def test_sequential_products_hand_np_dot_two_axes_at_most(monkeypatch):
    # np.dot on more than two axes is a tensordot, not a batched product: it
    # raises a shape error, and a stacked pass that raises is evaluated row
    # by row without a word (solvers._evaluate_stack).  The marches, a
    # single and a stacked reconstruct and a stacked interval pass hand
    # np.dot only vectors and matrices
    calls = []
    dot = np.dot

    def spy(*args):
        calls.append(max(np.ndim(a) for a in args))
        return dot(*args)

    monkeypatch.setattr(np, "dot", spy)
    cases = _march_cases()
    for case in ("free body exp", "heavy top cay", "uuv exp"):
        system, g0, xi0, h, controls = cases[case]
        lgoc.integrate_reduced(system, g0, xi0, h, 200, controls=controls)
    group, g0, _ = _product_cases()["SO3 exp"]
    xis = np.random.default_rng(3).normal(size=(4, 8, 3))
    lgoc.reconstruct(group, g0, 0.1, xis[0])
    lgoc.reconstruct(group, g0, 0.1, xis)
    for prob in _stack_regimes().values():
        system, eliminate = lgoc.residual_system(prob)
        z0 = lgoc._pack(*lgoc.initial_guess(prob), eliminate)
        system.stack(z0 + 1e-3 * np.arange(3)[:, None])
    assert calls.count(2) > 0
    assert max(calls) <= 2


def test_nan_update_goes_to_newton(monkeypatch):
    # the drag is undefined past |z_i| = 0.06, and constant torques spin the
    # body up to it: the step that gets there meets a residual that is not
    # finite, and fails as the reference step fails, whose NaN update ends
    # its iteration and whose newton fallback fails on it.  The march's
    # floor is a window of one step, with no newton call
    fallbacks = []
    newton = lgoc.newton

    def counted(*args, **kwargs):
        fallbacks.append(1)
        return newton(*args, **kwargs)

    body = make_rigid_body_so3((1.0, 2.0, 3.0), actuated=(0, 1, 2))
    system = dataclasses.replace(body, drift=CutOffDrift(-0.1 * np.eye(3), 0.06))
    h, steps = 0.05, 40
    controls = np.tile([0.0, 4.0, 0.0], (steps, 2, 1))
    monkeypatch.setattr(lgoc, "newton", counted)
    results = []
    for march in (lgoc.integrate_reduced, reference_integrate_reduced):
        fallbacks.clear()
        with pytest.raises(StepSolveFailed) as info:
            march(system, np.eye(3), np.array([0.1, 0.5, -0.2]), h, steps, controls=controls)
        results.append((info.value.step, str(info.value), len(fallbacks)))
    assert results[0] == (8, "step 8: the residual is not finite", 0)
    step, message, entered = results[1]
    assert step == 8 and message.startswith("step 8: ") and entered == 1


@pytest.mark.parametrize("steps", [0, -2])
def test_march_rejects_steps_below_one(steps):
    system, g0, xi0, h, _ = _march_cases()["free body cay"]
    with pytest.raises(DimensionMismatch, match="steps"):
        lgoc.integrate_reduced(system, g0, xi0, h, steps)


@pytest.mark.parametrize("xi0", [np.zeros(2), np.zeros(6), np.zeros((1, 3))])
def test_march_rejects_an_initial_velocity_of_the_wrong_length(xi0):
    system, g0, _, h, _ = _march_cases()["free body cay"]
    with pytest.raises(DimensionMismatch, match="length 3"):
        lgoc.integrate_reduced(system, g0, xi0, h, 10)


@pytest.mark.parametrize("case, g0", [("free body cay", np.eye(4)), ("uuv cay", np.eye(3)),
                                      ("free body exp", np.eye(3)[None])])
def test_march_rejects_an_initial_configuration_of_the_wrong_shape(case, g0):
    system, _, xi0, h, _ = _march_cases()[case]
    with pytest.raises(DimensionMismatch, match="g0"):
        lgoc.integrate_reduced(system, g0, xi0, h, 10)


def _steps_alone(monkeypatch, alone=None):
    """Record the steps that ``solvers.march_in_windows`` solves alone in the
    marches that follow, each a window(k, 1) call: each k is appended to
    ``alone``, and without ``alone`` the step fails the test."""
    march = solvers.march_in_windows

    def marched(first, stop, window):
        def recorded(k, size):
            if size == 1:
                if alone is None:
                    raise AssertionError(f"step {k} was solved alone")
                alone.append(k)
            return window(k, size)

        return march(first, stop, recorded)

    monkeypatch.setattr(solvers, "march_in_windows", marched)


def _window_updates(monkeypatch, march):
    """(size, updates, solved, builds) of each window of ``march()``, which
    must solve no step alone and make no newton call.  A window evaluates its
    residual once per update and once at the point it ends on, each time
    through one dtau_inv_matrix call for all its steps, and builds its
    operator through one dtau_inv_deriv_along call right after the
    evaluation it linearizes: at the first update, and at most once per
    update; no dtau_inv_deriv call is made, and after the march's start,
    which forms mu_0 through one dtau_inv_matrix call, no kernel is called
    on its own."""
    calls, windows = [], []
    matrix, along = "dtau_inv_matrix", "dtau_inv_deriv_along"

    def count(name):
        original = getattr(lie.GroupSpec, name)

        def counted(self, *args):
            calls.append(name)
            return original(self, *args)

        monkeypatch.setattr(lie.GroupSpec, name, counted)

    def refused(*args, **kwargs):
        raise AssertionError("a step fell back to newton")

    window_newton = solvers.window_newton

    def window(x, linearize):
        calls.clear()
        out = window_newton(x, linearize)
        updates, builds = out[1], calls.count(along)
        assert calls.count(matrix) == updates + 1 and len(calls) == updates + 1 + builds
        assert all(calls[i - 1] == matrix for i, name in enumerate(calls) if name == along)
        assert calls[-1] == matrix and (updates == 0 or calls[:2] == [matrix, along])
        assert builds <= updates
        windows.append((len(x), updates, out[2], builds))
        return out

    for name in (matrix, along, "dtau_inv_deriv"):
        count(name)
    monkeypatch.setattr(lgoc, "newton", refused)
    _steps_alone(monkeypatch)
    monkeypatch.setattr(solvers, "window_newton", window)
    march()
    return windows


@pytest.mark.parametrize("retraction", [lie.CAYLEY, lie.EXPONENTIAL])
@pytest.mark.parametrize("damped", [False, True], ids=["free body", "damped"])
def test_steps_take_few_updates(retraction, damped, monkeypatch):
    # every window of the march converges by Newton's method on the exact
    # Jacobian, from a constant velocity, in a few updates: the free body's
    # windows of 128 steps in 4.  The damped body has a drag of -20 z under
    # constant torques, so the drift's term enters the Jacobian's blocks;
    # its first window takes 6
    system = make_rigid_body_so3((1.0, 2.0, 3.0), actuated=(0, 1, 2),
                                 retraction=retraction)
    h, steps, controls, most = 0.01, 300, None, 4
    if damped:
        system = dataclasses.replace(system, drift=Damping(20.0))
        h, controls, most = 0.05, np.tile([0.5, -1.0, 0.8], (steps, 2, 1)), 6
    windows = _window_updates(monkeypatch, lambda: lgoc.integrate_reduced(
        system, np.eye(3), np.array([0.2, 1.0, -0.5]), h, steps, controls=controls))
    assert [size for size, *_ in windows] == [128, 128, 43]
    assert all(solved == size and updates <= most for size, updates, solved, _ in windows)


@pytest.mark.parametrize("case", ["uuv cay", "uuv exp"])
def test_forced_vehicle_steps_take_few_updates(case, monkeypatch):
    # white-noise controls and the drag: the vehicle's windows converge in
    # at most 5 updates each
    system, g0, xi0, h, controls = _march_cases()[case]
    windows = _window_updates(monkeypatch, lambda: lgoc.integrate_reduced(
        system, g0, xi0, h, 200, controls=controls))
    assert [size for size, *_ in windows] == [128, 71]
    assert all(solved == size and updates <= 5 for size, updates, solved, _ in windows)


@pytest.mark.parametrize("case", ["heavy top cay", "heavy top exp"])
def test_potential_steps_take_few_updates(case, monkeypatch):
    # a system with a potential is marched in windows too, with no step
    # solved alone: its r_j reads g_j, so every earlier velocity of the
    # window, and the operator's recurrence carries the move of g_j.  Its
    # windows converge in at most 6 updates
    system, g0, xi0, h, controls = _march_cases()[case]
    windows = _window_updates(monkeypatch, lambda: lgoc.integrate_reduced(
        system, g0, xi0, h, 200, controls=controls))
    assert [size for size, *_ in windows] == [128, 71]
    assert all(solved == size and updates <= 6 for size, updates, solved, _ in windows)


def test_integrate_reduced_builds_tau_once_per_step(monkeypatch):
    # one tau call for interval 0, then one batched call per window: every
    # interval's tau(h xi_k) is formed once
    system, g0, xi0, h, controls = _march_cases()["uuv cay"]
    calls = []
    tau = lie.GroupSpec.tau

    def counted(self, xi):
        calls.append(len(np.reshape(xi, (-1, system.n))))
        return tau(self, xi)

    monkeypatch.setattr(lie.GroupSpec, "tau", counted)
    lgoc.integrate_reduced(system, g0, xi0, h, 50, controls=controls[:50])
    assert calls == [1, 49]


def test_unsolved_step_names_the_step(monkeypatch):
    # with no budget for a window's Newton iteration no window solves a
    # step, and the march's floor, a window of one step, fails at step 1
    system, g0, xi0, h, controls = _march_cases()["uuv exp"]
    monkeypatch.setattr(solvers, "WINDOW_MAX_ITER", 0)
    with pytest.raises(StepSolveFailed) as info:
        lgoc.integrate_reduced(system, g0, xi0, h, 40, controls=controls[:40])
    assert info.value.step == 1
    assert str(info.value) == "step 1: not solved within 0 updates"


def test_singular_step_factor_keeps_the_march(monkeypatch):
    # the first window's first factorization fails (the batched inverse of
    # its constant start's single block, a (1, n, n) stack): the window
    # keeps its solved prefix (none), the next window is half as wide and
    # the march goes on to the same path
    system, g0, xi0, h, controls = _march_cases()["uuv exp"]
    expected = lgoc.integrate_reduced(system, g0, xi0, h, 40, controls=controls[:40])
    inv = np.linalg.inv
    calls = []

    def singular_once(a):
        calls.append(np.shape(a))
        if len(calls) == 1:
            raise np.linalg.LinAlgError("singular matrix")
        return inv(a)

    windows = []
    window_newton = solvers.window_newton

    def window(x, linearize):
        out = window_newton(x, linearize)
        windows.append((len(x), out[2]))
        return out

    monkeypatch.setattr(np.linalg, "inv", singular_once)
    monkeypatch.setattr(solvers, "window_newton", window)
    got = lgoc.integrate_reduced(system, g0, xi0, h, 40, controls=controls[:40])
    assert windows[:2] == [(39, 0), (19, 19)] and calls[0] == (1, system.n, system.n)
    for a, b in zip(got, expected):
        assert np.all(np.isfinite(a))
        assert np.max(np.abs(a - b)) <= 1e-10 * np.max(np.abs(b))


def test_exp_fast_spin_shrinks_its_window(monkeypatch):
    # h |xi| about 0.6 under exp: from a constant velocity the windows of
    # 128 and 64 steps meet singular blocks and solve nothing, and the
    # march halves its windows until they converge, with no step solved
    # alone, no newton call and no RuntimeWarning; it still agrees with the
    # step-by-step march to 1e-10
    system, g0, xi0, h, _ = _march_cases()["fast spin exp"]
    windows = []
    window_newton = solvers.window_newton

    def window(x, linearize):
        out = window_newton(x, linearize)
        windows.append((len(x), out[2]))
        return out

    def refused(*args, **kwargs):
        raise AssertionError("a step fell back to newton")

    monkeypatch.setattr(solvers, "window_newton", window)
    _steps_alone(monkeypatch)
    monkeypatch.setattr(lgoc, "newton", refused)
    got = lgoc.integrate_reduced(system, g0, xi0, h, 200)
    assert windows[:2] == [(128, 0), (64, 0)]
    assert max(size for size, solved in windows if solved == size) <= 16
    monkeypatch.undo()
    expected = reference_integrate_reduced(system, g0, xi0, h, 200)
    for a, b in zip(got, expected):
        assert np.max(np.abs(a - b)) <= 1e-10 * np.max(np.abs(b))


def test_singular_tail_leaves_the_solved_prefix_its_extra_update(monkeypatch):
    # the fast exp spin: a window's rebuild meets a singular block in its
    # diverging tail after some leading steps are solved; the commit keeps
    # them and gives them their extra update by the operator built before,
    # with no build after the failed one, and the march agrees with the
    # step-by-step march to 1e-10
    system, g0, xi0, h, _ = _march_cases()["fast spin exp"]
    events, windows = [], []
    window_system, window_newton = lgoc._window_system, solvers.window_newton

    def recorded(*args):
        *out, factor = window_system(*args)

        def logged_factor():
            try:
                op = factor()
            except np.linalg.LinAlgError:
                events.append("singular")
                raise
            events.append("build")

            def logged(residual):
                events.append(("update", len(residual)))
                return op(residual)

            return logged

        return (*out, logged_factor)

    def window(x, linearize):
        first = len(events)
        out = window_newton(x, linearize)
        windows.append((len(x), out[2], first, len(events)))
        return out

    monkeypatch.setattr(lgoc, "_window_system", recorded)
    monkeypatch.setattr(solvers, "window_newton", window)
    got = lgoc.integrate_reduced(system, g0, xi0, h, 200)
    # the commit runs after window_newton returns, before the next window
    ends = [first for _, _, first, _ in windows[1:]] + [len(events)]
    tails = [(size, solved, events[first:last], events[last:end])
             for (size, solved, first, last), end in zip(windows, ends)
             if events[last - 1] == "singular" and solved]
    assert tails
    for size, solved, newton, commit in tails:
        assert 0 < solved < size and "build" in newton
        assert commit == [("update", solved)]
    monkeypatch.undo()
    expected = reference_integrate_reduced(system, g0, xi0, h, 200)
    for a, b in zip(got, expected):
        assert np.max(np.abs(a - b)) <= 1e-10 * np.max(np.abs(b))


def test_drift_march_returns_to_windows_after_single_steps(monkeypatch):
    # a dragged exp spin at h |xi| about 1.1: the first window's residual
    # overflows, so its 128 steps are solved alone, each as a window of one
    # step, and the windows after them converge again.  They start from the drift at the
    # last velocity solved, not at one a window evaluated before the single
    # steps, and agree with the step-by-step march to 1e-10
    body = _march_cases()["fast spin exp"][0]
    system = dataclasses.replace(body, drift=Damping(1.0))
    xi0, h, steps = np.array([4.0, 20.0, -10.0]), 0.05, 300
    windows, alone = [], []
    window_newton = solvers.window_newton

    def window(x, linearize):
        out = window_newton(x, linearize)
        windows.append((len(x), out[2]))
        return out

    monkeypatch.setattr(solvers, "window_newton", window)
    _steps_alone(monkeypatch, alone)
    got = lgoc.integrate_reduced(system, np.eye(3), xi0, h, steps)
    assert windows[0] == (128, None) and alone[:128] == list(range(1, 129))
    assert windows[1:129] == [(1, 1)] * 128
    assert any(solved == size > 1 for size, solved in windows[129:])
    monkeypatch.undo()
    expected = reference_integrate_reduced(system, np.eye(3), xi0, h, steps)
    for a, b in zip(got, expected):
        assert np.max(np.abs(a - b)) <= 1e-10 * np.max(np.abs(b))


def test_vehicle_march_evaluates_the_drift_once_per_point(monkeypatch):
    # the benchmark's uuv-forced march: each residual evaluation forms the
    # drift once at every step of its window, the momentum carry takes the
    # values of the window's last evaluation, and the march's start forms
    # d(h xi_0) once
    system = systems.make_uuv_system()
    base = np.random.default_rng(20120303)
    xi0 = 0.1 * base.normal(size=6)
    steps = 1000
    controls = 0.1 * base.normal(size=(steps, 2, system.m))
    points, windows = [], []
    drift_values = ReducedSystem.drift_values
    window_newton = solvers.window_newton

    def counted(self, z):
        points.append(len(np.reshape(z, (-1, self.n))))
        return drift_values(self, z)

    def window(x, linearize):
        out = window_newton(x, linearize)
        windows.append((len(x), out[1]))
        return out

    monkeypatch.setattr(ReducedSystem, "drift_values", counted)
    monkeypatch.setattr(solvers, "window_newton", window)
    lgoc.integrate_reduced(system, np.eye(4), xi0, 0.05, steps, controls=controls)
    assert sum(points) == 1 + sum(size * (updates + 1) for size, updates in windows)


@pytest.mark.parametrize("case", [name for name, (system, *_) in _march_cases().items()
                                  if system.potential is None])
def test_window_start_linearizes_one_point_bitwise(case, monkeypatch):
    # a window starts at the constant velocity xi_{k-1}: its residuals come
    # from +-h xi_{k-1} alone, and its operator from one (1, n, n) stack of
    # blocks through the same batched calls, bitwise what the 2W-1 points
    # of the general path give: the scan's maps (A_0 is never read) and the
    # update of any residual, of the whole window and of a solved prefix of
    # 37 steps, as a commit makes it
    system, g0, xi0, h, controls = _march_cases()[case]
    group, size = system.group, 128
    X = np.repeat(xi0[None], size, axis=0)
    mu = (system.inertia @ xi0) @ group.dtau_inv_matrix(h * xi0)
    head = group.coAd(group.tau(h * xi0), mu)
    forcing = None
    if system.has_drift:
        head = head + (h / 2.0) * system.drift_values(h * xi0)
    if controls is not None:
        controls = controls[:size + 1]
        forcing = ((h / 2.0) * (controls[:-1, 1] + controls[1:, 0])) @ system.control_basis.T
    maps, scan_maps = [], solvers.scan_maps

    def recorded(A):
        maps.append(scan_maps(A))
        return maps[-1]

    monkeypatch.setattr(solvers, "scan_maps", recorded)
    one = lgoc._window_system(system, h, X, g0, head, forcing, True)
    every = lgoc._window_system(system, h, X, g0, head, forcing, False)
    assert one[0].tobytes() == every[0].tobytes()
    assert (one[1] is None and every[1] is None) or one[1].tobytes() == every[1].tobytes()
    assert one[2].tobytes() == every[2].tobytes()
    op, op_all = one[3](), every[3]()
    assert len(maps) == 2
    assert [T.shape for T in maps[0]] == [T.shape for T in maps[1]]
    for T, T_all in zip(*maps):
        assert T.tobytes() == T_all.tobytes()
    residuals = [one[2], np.random.default_rng(3).normal(size=one[2].shape)]
    for count in (size, 37):
        for r in residuals:
            update = op(r[:count])
            assert update.shape == (count, system.n)
            assert update.tobytes() == op_all(r[:count]).tobytes()


@pytest.mark.parametrize("moved", [False, True], ids=["start", "moved"])
@pytest.mark.parametrize("case", ["heavy top cay", "heavy top exp"])
def test_potential_window_update_is_the_dense_newton_step(case, moved):
    # with a potential r_j reads g_j, so every earlier velocity of the
    # window: the operator's update, from its recurrence of (delta_j, s_j),
    # is the Newton step of the stacked window residual on its dense
    # central-difference Jacobian, at the window's constant start and at a
    # point away from it, and a prefix of the residuals gives the prefix of
    # the update, bitwise
    system, _, xi0, h, controls = _march_cases()[case]
    group, size = system.group, 12
    g = group.tau(np.array([0.3, -0.2, 0.5]))
    mu = (system.inertia @ xi0) @ group.dtau_inv_matrix(h * xi0)
    head = group.coAd(group.tau(h * xi0), mu)
    forcing = ((h / 2.0) * (controls[:size, 1] + controls[1:size + 1, 0])) @ system.control_basis.T
    X = np.repeat(xi0[None], size, axis=0)
    if moved:
        X = X + 0.1 * np.random.default_rng(8).normal(size=X.shape)

    def stacked(x):
        return lgoc._window_system(system, h, x.reshape(X.shape), g, head, forcing, False)[2]

    _, _, r, factor = lgoc._window_system(system, h, X, g, head, forcing, not moved)
    assert np.array_equal(r, stacked(X.ravel()))
    dense = np.linalg.solve(solvers.fd_jacobian(stacked, X.ravel()), -r.ravel())
    op = factor()
    update = op(r)
    assert np.max(np.abs(update.ravel() - dense)) <= 1e-8 * np.max(np.abs(dense))
    assert op(r[:5]).tobytes() == update[:5].tobytes()


@pytest.mark.parametrize("retraction", [lie.CAYLEY, lie.EXPONENTIAL])
def test_steady_spin_commits_from_its_start(retraction, monkeypatch):
    # a spin about a principal axis is a relative equilibrium: every window
    # converges at its constant-velocity start, and the commit builds the
    # one operator of the window there, from the single-point blocks: one
    # batched inverse of a (1, n, n) stack per window
    system = make_rigid_body_so3((1.0, 2.0, 3.0), actuated=(0, 1, 2), retraction=retraction)
    xi0 = np.array([0.0, 0.0, 3.0])
    windows, constant, inverted = [], [], []
    window_newton, window_system, inv = (solvers.window_newton, lgoc._window_system,
                                         np.linalg.inv)

    def window(x, linearize):
        out = window_newton(x, linearize)
        windows.append((len(x), out[1], out[2]))
        return out

    def recorded(*args):
        constant.append(args[-1])
        return window_system(*args)

    def recorded_inv(a):
        inverted.append(np.shape(a))
        return inv(a)

    monkeypatch.setattr(solvers, "window_newton", window)
    monkeypatch.setattr(lgoc, "_window_system", recorded)
    monkeypatch.setattr(np.linalg, "inv", recorded_inv)
    gs, xis, mus = lgoc.integrate_reduced(system, np.eye(3), xi0, 0.05, 200)
    assert windows == [(128, 0, 128), (71, 0, 71)]
    assert constant == [True, True] and inverted == [(1, 3, 3), (1, 3, 3)]
    assert np.array_equal(xis, np.broadcast_to(xi0, xis.shape))
    assert np.array_equal(mus, np.broadcast_to(mus[0], mus.shape))


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


def test_a_model_without_its_derivatives_is_refused():
    # a drift model needs jacobian and curvature, a potential left_hess and
    # left_curvature too: the system refuses one without them when built
    body = make_rigid_body_so3((1.0, 2.0, 3.0))
    with pytest.raises(ConfigError, match="a drift must supply jacobian, curvature"):
        dataclasses.replace(body, drift=lambda z: -z)

    class GradientOnly:
        value = systems.HeavyTopPotential.value
        left_grad = systems.HeavyTopPotential.left_grad

    with pytest.raises(ConfigError,
                       match="a potential must supply left_hess, left_curvature"):
        dataclasses.replace(body, potential=GradientOnly())


def test_uuv_march_with_a_matrix_drift_equals_the_callable_drift():
    system, g0, xi0, h, controls = _march_cases()["uuv cay"]
    drag = systems.UuvParams().drag
    as_callable = dataclasses.replace(system, drift=LinearDrift(drag))
    got = lgoc.integrate_reduced(system, g0, xi0, h, 200, controls=controls)
    expected = lgoc.integrate_reduced(as_callable, g0, xi0, h, 200, controls=controls)
    for a, b in zip(got, expected):
        assert np.max(np.abs(a - b)) <= 1e-10 * np.max(np.abs(b))


def test_step_failure_names_the_step(monkeypatch):
    # on R^1 with unit mass and unit force the velocity grows by h per step,
    # xi_k = 0.55 + 0.1 k; the drift is undefined from xi = 1 on, so the
    # window of one step that solves step 5 meets a residual that is not
    # finite, and no newton call is made
    h = 0.1
    system = ReducedSystem(group=lie.real_n(1), inertia=np.eye(1), control_basis=np.eye(1),
                           drift=CutOffDrift(np.zeros((1, 1)), h))
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
    # as in mech: "step k: " and the reason
    assert str(info.value) == "step 5: the residual is not finite"
    assert not fallbacks


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
    under = rigid_body_problem(actuated=(0, 1), N=N)
    sys_full, elim = lgoc.residual_system(full)
    z = lgoc._pack(*lgoc.initial_guess(full), elim)
    assert elim and z.shape == sys_full.at(z).f.shape == (N * 3,)
    sys_under, elim_u = lgoc.residual_system(under)
    z = lgoc._pack(*lgoc.initial_guess(under), elim_u)
    assert not elim_u and z.shape == sys_under.at(z).f.shape == ((2 * N - 1) * 3 + 2 * N * 1,)


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
                drift=QuadraticDrag(0.5))),
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
        J = system.at(z).jacobian()
        J_dense = solvers.fd_jacobian(lambda x: system.at(x).f, z)
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

    def recorded(point):
        def jacobian():
            visited.append(point.x.copy())
            return point.jacobian()

        return point._replace(jacobian=jacobian)

    z0 = lgoc._pack(*lgoc.initial_guess(prob), eliminate)
    with pytest.raises((NoConvergence, SingularJacobian)):
        solvers.newton(dataclasses.replace(
            system, at=lambda z: recorded(system.at(z)),
            stack=lambda Z: [recorded(point) for point in system.stack(Z)]),
            z0, tol=1e-14, max_iter=2)
    assert len(visited) == 2 and np.array_equal(visited[0], z0)
    assert not np.array_equal(visited[1], z0)
    for z in visited:
        J = system.at(z).jacobian()
        J_dense = solvers.fd_jacobian(lambda x: system.at(x).f, z)
        for rows in _row_blocks(prob, eliminate):
            assert (np.max(np.abs(J[rows] - J_dense[rows]))
                    <= 1e-6 * np.max(np.abs(J_dense[rows])))


def test_jacobian_build_computes_the_frozen_potential_terms_once(monkeypatch):
    # one batched call of the potential's left_hess gives the Hessians at
    # every node; the chain through the sensitivities reuses them
    prob = jacobian_regimes()["heavy top"]
    system, eliminate = lgoc.residual_system(prob)
    z = _random_point(prob, eliminate, np.random.default_rng(13))
    expected = system.at(z).jacobian()
    point = system.at(z)
    calls = []
    potential = prob.system.potential
    hessians = potential.left_hess

    def counted(gs):
        calls.append(len(gs))
        return hessians(gs)

    monkeypatch.setattr(potential, "left_hess", counted)
    assert np.array_equal(point.jacobian(), expected)
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
            J_dense = solvers.fd_jacobian(lambda x: system.at(x).f, z)
            J = system.at(z).jacobian()
            assert np.max(np.abs(J - J_dense)) <= 1e-6 * np.max(np.abs(J_dense))
            if s:
                assert (np.max(np.abs(J[complement] - J_dense[complement]))
                        <= 1e-6 * np.max(np.abs(J_dense[complement])))


def _stack_regimes():
    """``jacobian_regimes`` plus an underactuated problem on R^2 with a
    potential: SO(3) and SE(3), Cayley and exp, with and without a
    potential, a linear drift and a drift model, explicit and eliminated
    momenta, and R^n, whose elements are vectors."""
    regimes = jacobian_regimes()
    system = ReducedSystem(group=lie.real_n(2), inertia=np.diag([1.0, 2.0]),
                           control_basis=np.array([[1.0], [0.0]]), unactuated=(1,),
                           potential=Cosines())
    regimes["real_n underactuated"] = OcProblemLie(
        system=system, g0=np.zeros(2), xi0=np.zeros(2), gT=np.array([0.5, 0.3]),
        xiT=np.zeros(2), N=6, h=0.1, cost=L2Cost())
    return regimes


def _pass_arrays(interval_pass):
    """Every array of an interval pass, the interval maps' included, in
    order (None where the pass has none)."""
    return list(interval_pass.maps) + list(interval_pass[1:])


@pytest.mark.parametrize("K", [1, 4, 27])
@pytest.mark.parametrize("regime", list(_stack_regimes()))
def test_stacked_points_are_bitwise_the_points_alone(regime, K):
    # one pass over a stack of K points: each point's residual, its slice of
    # the pass and the Jacobian built from that slice are the bits of the
    # point evaluated alone
    prob = _stack_regimes()[regime]
    system, eliminate = lgoc.residual_system(prob)
    rng = np.random.default_rng(K)
    Z = np.stack([_random_point(prob, eliminate, rng) for _ in range(K)])
    stacked = system.stack(Z)
    assert len(stacked) == K
    for z, point in zip(Z, stacked):
        alone = system.at(z)
        assert np.array_equal(point.x, z)
        assert point.f.shape == alone.f.shape and point.f.tobytes() == alone.f.tobytes()
        for a, b in zip(_pass_arrays(point.kept()), _pass_arrays(alone.kept()), strict=True):
            if b is None:
                assert a is None
                continue
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
        assert point.jacobian().tobytes() == alone.jacobian().tobytes()


@pytest.mark.parametrize("regime", list(jacobian_regimes()))
def test_jacobian_build_makes_no_residual_call(regime, monkeypatch):
    # the Jacobian reads the derivatives the models supply: the residual is
    # never called, and nothing is differenced
    prob = jacobian_regimes()[regime]
    system, eliminate = lgoc.residual_system(prob)
    z = _random_point(prob, eliminate, np.random.default_rng(12))
    point = system.at(z)
    residuals = []

    def counted_call(name):
        original = getattr(lgoc, name)

        def counted(*args, **kwargs):
            residuals.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(lgoc, name, counted)

    def refused(*args, **kwargs):
        raise AssertionError("the Jacobian build differenced a residual")

    # an eliminated residual assembles its rows through _velocity_rows alone
    counted_call("general_residual")
    counted_call("_velocity_rows")
    monkeypatch.setattr(solvers, "fd_jacobian", refused)
    point.jacobian()
    assert residuals == []


def test_closed_form_systems_make_no_difference(monkeypatch):
    # every model supplies its derivatives: a Jacobian build of every
    # regime, a tboc Jacobian build with a potential and drifts, a mech march
    # with the potential, and a UUV march, difference nothing
    def refused(*args, **kwargs):
        raise AssertionError("fd_jacobian was called")

    monkeypatch.setattr(solvers, "fd_jacobian", refused)
    system, g0, xi0, h, controls = _march_cases()["uuv cay"]
    lgoc.integrate_reduced(system, g0, xi0, h, 50, controls=controls[:50])
    for prob in jacobian_regimes().values():
        residual, eliminate = lgoc.residual_system(prob)
        residual.at(_random_point(prob, eliminate, np.random.default_rng(15))).jacobian()
    n, h = 2, 0.1
    lagrangian = mech.RnLagrangian(np.diag([1.0, 2.0]), h=h, potential=Cosines())
    forces = mech.DiscreteForcePairRn((h / 2.0) * np.eye(n), (h / 2.0) * np.eye(n),
                                      a_minus=sine_of_difference(-0.2), a_plus=damping(3.0))
    flat = tboc.OcProblemRn(lagrangian=lagrangian, forces=forces, cost=L2Cost(),
                            x0=np.zeros(n), p0=np.zeros(n), xT=np.ones(n), pT=np.zeros(n),
                            N=8)
    flat_system = tboc.residual_system(flat)
    z = tboc._pack(flat, *tboc.initial_guess(flat))
    flat_system.at(z + 0.01 * np.random.default_rng(16).normal(size=z.size)).jacobian()
    mech.integrate(lagrangian, mech.DiscreteForcePairRn.trapezoidal(n, h), np.zeros(n),
                   np.array([0.01, -0.02]), 50,
                   controls=0.1 * np.random.default_rng(17).normal(size=(50, 2, n)))


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
        border = system.at(z).jacobian()[-n:]
        assert np.max(np.abs(border[:, : N * n] - oracle)) <= 1e-9 * np.max(np.abs(oracle))
        assert not np.any(border[:, N * n :])


@pytest.mark.parametrize("regime", ["cayley eliminated", "exp", "uuv", "uuv exp"])
def test_sensitivities_match_differences_of_reconstruct(regime):
    prob = jacobian_regimes()[regime]
    group, N, n, h = prob.system.group, prob.N, prob.system.n, prob.h
    xis = 0.5 * np.random.default_rng(14).normal(size=(N, n)) / h
    gs = lgoc.reconstruct(group, prob.g0, h, xis)
    Ainv, P = lgoc._sensitivities(group, h, xis, gs, group.dtau_matrix(h * xis))
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
    # the reconstruction reuses the tau(h xi) the interval maps formed, and
    # a point's build reuses the point's interval pass: no tau there
    prob = rigid_body_problem(actuated=actuated, N=8)
    system, eliminate = lgoc.residual_system(prob)
    rng = np.random.default_rng(16)
    z = _random_point(prob, eliminate, rng)
    calls = []
    tau = lie.GroupSpec.tau

    def counted(self, xi):
        calls.append(np.shape(xi))
        return tau(self, xi)

    monkeypatch.setattr(lie.GroupSpec, "tau", counted)
    point = system.at(z)
    assert calls == [(8, 3)]
    calls.clear()
    point.jacobian()
    assert calls == []


@pytest.mark.parametrize("regime", list(jacobian_regimes()))
def test_jacobian_at_an_evaluated_point_is_the_cold_jacobian(regime):
    # eliminated, potential, callable drift and underactuated alike: a
    # point's build reads its own interval pass alone, so it gives the bits
    # of a build made at once, whatever the system evaluated in between
    prob = jacobian_regimes()[regime]
    system, eliminate = lgoc.residual_system(prob)
    rng = np.random.default_rng(18)
    for _ in range(2):
        z = _random_point(prob, eliminate, rng)
        cold = system.at(z).jacobian()
        point = system.at(z)
        system.at(_random_point(prob, eliminate, rng))
        assert np.array_equal(point.jacobian(), cold)


@pytest.mark.parametrize("root_finder", ["newton", "levenberg_marquardt"])
def test_solves_form_dtau_inv_at_h_xi_once_per_residual(root_finder, monkeypatch):
    # every Jacobian build is of a point the root-finder has evaluated, so
    # it reuses that point's pass: dtau_inv_deriv runs at h xi once per
    # residual pass, at the point or at the stack of trial points the pass
    # evaluates, and never at -h xi
    prob = under_target_problem()
    system, eliminate = lgoc.residual_system(prob)
    N, n, h = prob.N, prob.system.n, prob.h
    evaluated, calls = set(), []
    deriv = lie.GroupSpec.dtau_inv_deriv

    def counted(self, xi):
        calls.append(np.array(xi).tobytes())
        return deriv(self, xi)

    def recorded(evaluate):
        def at(z):
            evaluated.add((h * z[..., : N * n].reshape(z.shape[:-1] + (N, n))).tobytes())
            return evaluate(z)

        return at

    monkeypatch.setattr(lie.GroupSpec, "dtau_inv_deriv", counted)
    z0 = lgoc._pack(*lgoc.initial_guess(prob), eliminate)
    try:
        _, report = getattr(lgoc, root_finder)(
            dataclasses.replace(system, at=recorded(system.at), stack=recorded(system.stack)),
            z0, tol=1e-7, max_iter=12)
    except NoConvergence as exc:
        report = exc.report
    # Newton's last step is a chord step, on the Jacobian it built before
    assert (report.jacobian_evaluations, report.jacobian_reuses) == {
        "newton": (9, 1), "levenberg_marquardt": (12, 0)}[root_finder]
    at_h_xi = [arg for arg in calls if arg in evaluated]
    assert len(at_h_xi) == len(calls) == report.residual_passes
    # Newton's line search stacks its trial steps, LM tries one at a time
    if root_finder == "newton":
        assert report.residual_passes < report.residual_evaluations
    else:
        assert report.residual_passes == report.residual_evaluations


@pytest.mark.parametrize("regime", ["underactuated", "uuv exp"])
def test_jacobian_takes_dtau_inv_and_its_derivative_from_one_call(regime, monkeypatch):
    # an evaluation and the build of its point take D and its derivative at
    # z = h xi from one dtau_inv_deriv call, and those at -z from them, with
    # no kernel call there; the reconstruction border's dtau_inv(r) is their
    # only dtau_inv_matrix call.  The build makes no dtau_inv_deriv call
    prob = jacobian_regimes()[regime]
    system, eliminate = lgoc.residual_system(prob)
    z = _random_point(prob, eliminate, np.random.default_rng(17))
    expected = system.at(z).jacobian()
    calls = {"dtau_inv_matrix": [], "dtau_inv_deriv": []}

    def count(name):
        original = getattr(lie.GroupSpec, name)

        def counted(self, xi):
            calls[name].append(np.array(xi))
            return original(self, xi)

        monkeypatch.setattr(lie.GroupSpec, name, counted)

    count("dtau_inv_matrix")
    count("dtau_inv_deriv")
    point = system.at(z)
    evaluated = len(calls["dtau_inv_deriv"])
    assert np.array_equal(point.jacobian(), expected)
    N, n = prob.N, prob.system.n
    hxi = prob.h * z[: N * n].reshape(N, n)
    assert [a.tolist() for a in calls["dtau_inv_deriv"]] == [hxi.tolist()]
    assert [a.shape for a in calls["dtau_inv_matrix"]] == [(n,)]
    assert evaluated == 1


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
    system.at(z).jacobian()
    assert len(calls) == 1


def _padded_jacobian(prob, z):
    """The assembly the index map replaced, frozen as an oracle: the blocks
    of ``_jacobian_blocks`` scatter-added into a padded layout of N+1 node
    units through block views, the column chains run over its full rows,
    and the kept rows and columns copied out.  Unit k holds the rows
    (velocity, momentum, complement) of node/interval k and the columns
    (nu_k, s_k, xi_k, lambda_k)."""
    eliminated = lgoc._momenta_eliminable(prob)
    group, h = prob.system.group, prob.h
    N, n = prob.N, prob.system.n
    s = n - prob.system.m
    a, b = 2 * n + 2 * s, 3 * n + 2 * s

    def units(first, width, offset, unit):
        return (np.arange(first, N)[:, None] * unit + offset + np.arange(width)).ravel()

    rows, cols = [units(1, n, 0, a)], [units(0, n, 2 * n, b)]
    if not eliminated:
        rows += [units(1, n, n, a), units(0, 2 * s, 2 * n, a)]
        cols += [units(1, n, 0, b), units(0, 2 * s, 3 * n, b)]
    keep = np.ix_(np.concatenate(cols), np.concatenate(rows))

    xis, nus_interior, lambdas = lgoc._unpack(prob, z, eliminated)
    interval_pass = lgoc._interval_pass(prob, xis, nus_interior, lambdas)
    blocks, curvature, Mxi, Txi = lgoc._jacobian_blocks(prob, xis, interval_pass,
                                                        lgoc._layout_of(prob))
    # the blocks' rows into the padded rows (velocity k, momentum k,
    # complement k, velocity k+1, momentum k+1); eliminated blocks have the
    # velocity rows alone, and the momentum rows they lack are not kept.
    # Their columns (nu_k, xi_k, lambda_k, nu_{k+1}[, s_k, s_{k+1}]) go in
    # the padded order (nu_k, s_k, xi_k, lambda_k, nu_{k+1}, s_{k+1})
    rows_of = np.r_[0:n, a : a + n] if eliminated else np.arange(4 * n + 2 * s)
    O = np.zeros((N, 4 * n + 2 * s, 5 * n + 2 * s))
    O[:, rows_of[:, None], np.r_[0:n, 2 * n : 4 * n + 2 * s]] = blocks[:, :, :b]
    if curvature is not None:
        O[:, rows_of, n : 2 * n] = blocks[:, :, b : b + n]
        O[:, rows_of, 4 * n + 2 * s :] = blocks[:, :, b + n :]
    gs = interval_pass.gs
    Jt = np.zeros(((N + 1) * b, (N + 1) * a))
    Ot = lie.mt(O)
    V = Jt.reshape(N + 1, b, N + 1, a)
    k = np.arange(N)
    V[k, :, k, :] += Ot[:, :b, :a]
    V[k, :, k + 1, : 2 * n] += Ot[:, :b, a:]
    V[k + 1, : 2 * n, k, :] += Ot[:, b:, :a]
    V[k + 1, : 2 * n, k + 1, : 2 * n] += Ot[:, b:, a:]
    columns = Jt.reshape(N + 1, b, -1)
    Ainv, P = lgoc._sensitivities(group, h, xis, gs, T=interval_pass.T)
    if curvature is not None:
        j = k[1:]
        V[j, n : 2 * n, j, :n] += lie.mt(curvature)
        Q = lie.mt(Ainv[1:]) @ columns[1:, n : 2 * n]
        columns[:N, 2 * n : 3 * n] += lie.mt(P) @ np.cumsum(Q[::-1], axis=0)[::-1]
    if eliminated:
        nu_cols = columns[1:N, :n]
        here, prev = 0.5 * Mxi[1:], 0.5 * Txi[:-1]
        if interval_pass.Jd is not None:
            Jd = (h * h / 4.0) * np.broadcast_to(interval_pass.Jd, Mxi.shape)
            here, prev = here - Jd[1:], prev + Jd[:-1]
        columns[1:N, 2 * n : 3 * n] += lie.mt(here) @ nu_cols
        columns[: N - 1, 2 * n : 3 * n] += lie.mt(prev) @ nu_cols
    r = lgoc._reconstruction_gap(prob, gs[-1])
    left = -group.dtau_inv_matrix(r) @ Ainv[N]
    border = np.zeros((n, z.size))
    border[:, : N * n] = np.einsum("ab,kbc->akc", left, P).reshape(n, N * n)
    return np.vstack([Jt[keep].T, border])


@pytest.mark.parametrize("regime", list(jacobian_regimes()))
def test_jacobian_is_the_padded_assembly_bitwise(regime):
    # the index map's one scatter and the chains on the unknowns' and
    # auxiliaries' rows give the padded layout's bits, at the initial guess
    # and at two random points
    prob = jacobian_regimes()[regime]
    system, eliminate = lgoc.residual_system(prob)
    rng = np.random.default_rng(20)
    z0 = lgoc._pack(*lgoc.initial_guess(prob), eliminate)
    for z in (z0, _random_point(prob, eliminate, rng), _random_point(prob, eliminate, rng)):
        assert np.array_equal(system.at(z).jacobian(), _padded_jacobian(prob, z))


@pytest.mark.parametrize("regime", list(jacobian_regimes()))
def test_jacobian_reads_the_shared_identity_bitwise(regime, monkeypatch):
    # L2Cost.hess_batch hands out a read-only view of one identity: the
    # Jacobian is the same bytes as from an identity stack filled per call
    prob = jacobian_regimes()[regime]
    system, eliminate = lgoc.residual_system(prob)
    z = _random_point(prob, eliminate, np.random.default_rng(22))
    J = system.at(z).jacobian()

    def filled(self, U):
        U = np.asarray(U, dtype=float)
        H = np.empty(U.shape + U.shape[-1:])
        H[...] = np.eye(U.shape[-1])
        return H

    monkeypatch.setattr(L2Cost, "hess_batch", filled)
    system, _ = lgoc.residual_system(prob)
    assert system.at(z).jacobian().tobytes() == J.tobytes()


@pytest.mark.parametrize("N", [2, 3])
@pytest.mark.parametrize("regime", list(jacobian_regimes()))
def test_smallest_layouts_match_dense_fd(regime, N):
    # with two or three intervals the boundary nodes hold most of the
    # index map's entries
    prob = dataclasses.replace(jacobian_regimes()[regime], N=N)
    system, eliminate = lgoc.residual_system(prob)
    z = _random_point(prob, eliminate, np.random.default_rng(21))
    J = system.at(z).jacobian()
    J_dense = solvers.fd_jacobian(lambda x: system.at(x).f, z)
    for rows in _row_blocks(prob, eliminate):
        assert (np.max(np.abs(J[rows] - J_dense[rows]))
                <= 1e-6 * np.max(np.abs(J_dense[rows])))


def test_one_interval_is_refused():
    with pytest.raises(DimensionMismatch):
        dataclasses.replace(jacobian_regimes()["cayley eliminated"], N=1)


@pytest.mark.parametrize("actuated", [(0, 1, 2), (0, 1)], ids=["full", "under"])
def test_build_at_an_evaluated_point_makes_no_tau_inv_call(actuated, monkeypatch):
    # the residual and the Jacobian's border read the reconstruction gap of
    # one pass: one tau_inv for an evaluation and the build at its point
    prob = rigid_body_problem(actuated=actuated, N=8)
    system, eliminate = lgoc.residual_system(prob)
    z = _random_point(prob, eliminate, np.random.default_rng(22))
    expected = system.at(z).jacobian()
    calls = []
    tau_inv = lie.GroupSpec.tau_inv

    def counted(self, g):
        calls.append(np.shape(g))
        return tau_inv(self, g)

    monkeypatch.setattr(lie.GroupSpec, "tau_inv", counted)
    point = system.at(z)
    assert np.array_equal(point.jacobian(), expected)
    assert calls == [(3, 3)]


def test_residual_evaluates_a_callable_drift_once_at_h_xi(monkeypatch):
    # the node momenta and the covectors read one drift evaluation, and the
    # drift Jacobians one call of the model's jacobian, at the same z
    prob = jacobian_regimes()["quadratic drag"]
    system, eliminate = lgoc.residual_system(prob)
    assert eliminate
    N, n = prob.N, prob.system.n
    z = _random_point(prob, eliminate, np.random.default_rng(23))
    expected = system.at(z).f
    calls = []
    for name in ("__call__", "jacobian", "curvature"):
        def counted(self, x, *args, _name=name, _fn=getattr(QuadraticDrag, name)):
            calls.append((_name, np.array(x)))
            return _fn(self, x, *args)

        monkeypatch.setattr(QuadraticDrag, name, counted)
    assert np.array_equal(system.at(z).f, expected)
    assert [name for name, _ in calls] == ["__call__", "jacobian"]
    for _, x in calls:
        assert np.array_equal(x, prob.h * z.reshape(N, n))


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
    # dtau_inv and its derivative at z from one call, and nothing at -z
    assert len(calls["dtau_inv_deriv"]) == 1 and np.array_equal(calls["dtau_inv_deriv"][0], z)
    assert calls["dtau_inv_matrix"] == []
    assert len(calls["Ad_matrix"]) == 1
    if not prob.system.has_drift:
        # without a drift, drift_values is never read
        assert calls["drift_values"] == []


def test_eliminated_residual_evaluates_the_interval_maps_once(monkeypatch):
    prob = rigid_body_problem()
    system, eliminate = lgoc.residual_system(prob)
    assert eliminate
    N, n = prob.N, prob.system.n
    xis = lgoc.initial_guess(prob)[0] + 0.1
    z = xis.reshape(-1)
    expected = system.at(z).f
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
    assert np.array_equal(system.at(z).f, expected)
    assert len(calls["_interval_maps"]) == 1
    assert [a.tolist() for a in calls["dtau_inv_deriv"]] == [(prob.h * xis).tolist()]
    assert calls["dtau_inv_matrix"] == []
    assert len(calls["Ad_matrix"]) == 1


@pytest.mark.parametrize("regime", [name for name, prob in jacobian_regimes().items()
                                    if prob.system.fully_actuated])
def test_eliminated_residual_is_general_residual_without_the_momentum_rows(regime):
    # the eliminated eval assembles only the rows it keeps; general_residual
    # still returns the momentum rows, and the rest of it is the same bytes
    prob = jacobian_regimes()[regime]
    system, eliminate = lgoc.residual_system(prob)
    assert eliminate
    N, n = prob.N, prob.system.n
    z = _random_point(prob, eliminate, np.random.default_rng(21))
    full = lgoc.general_residual(prob, z.reshape(N, n), None)
    assert full.shape == ((2 * N - 1) * n,)
    kept = np.concatenate([full[: (N - 1) * n], full[2 * (N - 1) * n:]])
    assert system.at(z).f.tobytes() == kept.tobytes()


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


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("regime", [name for name, prob in jacobian_regimes().items()
                                    if prob.system.fully_actuated])
def test_fully_actuated_solves_eliminate_the_momenta(regime):
    # whatever the drift, potential and cost: the eliminated solve has N n
    # unknowns, lands on a root of the explicit-momenta residual, and costs
    # what a Newton solve of that residual on its difference Jacobian costs
    prob = jacobian_regimes()[regime]
    N, n = prob.N, prob.system.n
    system, eliminate = lgoc.residual_system(prob)
    z = lgoc._pack(*lgoc.initial_guess(prob), eliminate)
    assert eliminate and z.shape == system.at(z).f.shape == (N * n,)
    sol = lgoc.solve(prob, tol=1e-9)
    assert sol.report.converged
    assert np.max(np.abs(lgoc.general_residual(prob, sol.xis, sol.nus[1:-1]))) <= 1e-9

    def explicit(z):
        return lgoc.general_residual(prob, z[: N * n].reshape(N, n),
                                     z[N * n :].reshape(N - 1, n))

    z0 = lgoc._pack(*lgoc.initial_guess(prob), False)
    point, report = solvers.newton(plain_system(
        explicit, lambda x: solvers.fd_jacobian(explicit, x)), z0, tol=1e-9)
    assert report.converged
    z = point.x
    cost = lgoc.action_sum(prob, z[: N * n].reshape(N, n),
                           lgoc._full_nus(prob, z[N * n :].reshape(N - 1, n)))
    assert abs(sol.cost - cost) <= 1e-9 * abs(cost)


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
    # frozen loop's, in 19 residual passes that evaluate 73 points (halving
    # makes 64 evaluations, and the search one trial at a time made 38): the
    # first evaluation and the 10 full steps alone, and 8 stacks of trial
    # steps.  One step's model names j = 10 and its first pass is j = 11: a
    # stack of j = 10..7 fails, the search halves from j = 1, and one stack
    # of the 26 grid points left holds the rest
    from test_solvers import frozen_newton

    def frozen(system, z0, **kwargs):
        # the frozen loop calls a system's eval and jac; its point is read
        # back for the solution
        calls_of = SimpleNamespace(eval=lambda z: system.at(z).f,
                                   jac=lambda z: system.at(z).jacobian())
        z, report = frozen_newton(calls_of, z0, **kwargs)
        return system.at(z), report

    calls = []
    general_residual = lgoc.general_residual

    def counted(*args, **kwargs):
        calls.append(1)
        return general_residual(*args, **kwargs)

    monkeypatch.setattr(lgoc, "general_residual", counted)
    prob = under_target_problem()
    sol = lgoc.solve(prob, tol=1e-7, max_iter=12, method="newton")
    assert sol.report.method == "newton" and sol.report.converged
    assert sol.report.residual_passes == len(calls) == 19
    assert sol.report.residual_evaluations == 73
    # the last of the 10 steps is a chord step, on the ninth Jacobian built
    assert sol.report.jacobian_evaluations + sol.report.jacobian_reuses == sol.report.iterations
    assert sol.report.jacobian_reuses == 1
    monkeypatch.setattr(lgoc, "newton", frozen)
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


@pytest.mark.parametrize("retraction", [lie.CAYLEY, lie.EXPONENTIAL])
def test_heavy_top_closed_forms_match_the_difference(retraction):
    # left_hess against the differences of left_grad along g tau(s), and
    # left_curvature against those of left_hess^T w, under either retraction
    top = systems.HeavyTopPotential(0.8)
    group = lie.so3(retraction)
    rng = np.random.default_rng(22)
    gs = group.tau(rng.normal(size=(9, 3)))
    w = rng.normal(size=(9, 3))
    H, T = top.left_hess(gs), top.left_curvature(gs, w)
    for g, w_k, H_k, T_k in zip(gs, w, H, T):
        H_fd = solvers.fd_jacobian(lambda s: top.left_grad(g @ group.tau(s)), np.zeros(3))
        assert np.max(np.abs(H_k - H_fd)) <= 1e-9 * np.max(np.abs(H))
        T_fd = solvers.fd_jacobian(lambda s: top.left_hess(g @ group.tau(s)).T @ w_k,
                                   np.zeros(3))
        assert np.max(np.abs(T_k - T_fd)) <= 1e-7 * np.max(np.abs(T))


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


def _solution_arrays(sol):
    return (sol.gs.tobytes(), sol.nus.tobytes(), sol.controls.tobytes(),
            np.float64(sol.cost).tobytes())


@pytest.mark.parametrize("regime", list(jacobian_regimes()))
def test_solve_reads_the_solution_of_its_last_pass(regime, monkeypatch):
    # a solve takes path, momenta, controls and cost from the interval pass
    # of the point it returns, with no assemble_solution call, and they are
    # assemble_solution's bits there; on the failure path the solution is
    # assembled from the best iterate, and the pass of a solve's point there
    # gives the same bits
    prob = jacobian_regimes()[regime]
    eliminated = lgoc._momenta_eliminable(prob)
    assemble = lgoc.assemble_solution

    def refused(*args, **kwargs):
        raise AssertionError("solve assembled the solution again")

    monkeypatch.setattr(lgoc, "assemble_solution", refused)
    # the underactuated regimes' least-squares floor lies near 0.2, so their
    # solve converges at a loose tolerance, after a few LM iterations
    tol = 0.5 if regime.startswith("underactuated") else 1e-9
    sol = lgoc.solve(prob, tol=tol, max_iter=30)
    assert sol.report.converged and sol.report.iterations >= 1
    z = lgoc._pack(sol.xis, sol.nus[1:-1], sol.lambdas, eliminated)
    assert _solution_arrays(sol) == _solution_arrays(assemble(prob, z))
    with pytest.raises((NoConvergence, SingularJacobian)) as failure:
        lgoc.solve(prob, tol=1e-30, max_iter=2)
    best = failure.value.best_x
    assert best is not None
    # a solve that stops at once, from the best iterate, reads its pass there
    at_best = lgoc.solve(prob, tol=np.inf, guess=lgoc._unpack(prob, best, eliminated))
    assert at_best.report.iterations == 0
    assert _solution_arrays(at_best) == _solution_arrays(assemble(prob, best))


@pytest.mark.parametrize("regime", list(jacobian_regimes()))
def test_solve_forms_one_interval_pass_per_residual(regime, root_finder_log, monkeypatch):
    # every evaluation forms its point's pass, or its stack's, every build
    # and the solution read a point's pass: one _interval_pass per residual
    # pass of every attempt, and no assemble_solution call
    prob = jacobian_regimes()[regime]
    log = root_finder_log(lgoc)
    formed = []
    interval_pass = lgoc._interval_pass

    def counted(*args):
        formed.append(1)
        return interval_pass(*args)

    def refused(*args, **kwargs):
        raise AssertionError("solve assembled the solution again")

    monkeypatch.setattr(lgoc, "_interval_pass", counted)
    monkeypatch.setattr(lgoc, "assemble_solution", refused)
    tol = 0.5 if regime.startswith("underactuated") else 1e-9
    sol = lgoc.solve(prob, tol=tol, max_iter=30)
    assert sol.report.converged and sol.report.jacobian_evaluations >= 1
    assert len(formed) == sum(report.residual_passes for _, report in log)


def test_a_stack_out_of_chart_at_a_point_the_search_never_reads_changes_nothing(monkeypatch):
    # the reconstruction gap's chart check raises for a whole stack: make
    # it raise for every stack that holds a point the one-at-a-time search
    # never reads.  The search then reads those stacks' points alone, in its
    # own order, and the solve is the one-at-a-time search's, bitwise
    from test_solvers import sequential_newton

    prob = under_target_problem()
    gap = lgoc._reconstruction_gap
    read, raised = set(), []

    def recording(problem, g_N):
        read.add(g_N.tobytes())
        return gap(problem, g_N)

    def chart_check(problem, g_N):
        # a stack's ends are (K, 3, 3), a point's (3, 3)
        if g_N.ndim == 3 and any(g.tobytes() not in read for g in g_N):
            raised.append(len(g_N))
            raise OutOfChart("a trial step the search never reads")
        return gap(problem, g_N)

    monkeypatch.setattr(lgoc, "_reconstruction_gap", recording)
    monkeypatch.setattr(lgoc, "newton", sequential_newton)
    sequential = lgoc.solve(prob, tol=1e-7, max_iter=12, method="newton")
    monkeypatch.setattr(lgoc, "_reconstruction_gap", chart_check)
    monkeypatch.setattr(lgoc, "newton", solvers.newton)
    sol = lgoc.solve(prob, tol=1e-7, max_iter=12, method="newton")
    assert raised
    assert sol.report.residual_history == sequential.report.residual_history
    assert np.array_equal(sol.xis, sequential.xis) and sol.cost == sequential.cost
    # a stack that raised evaluated no point, and a stack that did not
    # raise holds only points the search reads, in one pass for them all
    assert sol.report.residual_evaluations == sequential.report.residual_evaluations
    assert sol.report.residual_passes < sequential.report.residual_evaluations + len(raised)


def test_newton_linearizes_the_point_it_accepted_after_a_failed_trial(monkeypatch):
    # on the underactuated benchmark's test target some steps' search for a
    # longer step ends on a failed trial, so the point Newton accepted is not
    # the last it evaluated.  Every build, those included, reads its point's
    # own pass: none forms an _interval_pass, and each gives the bits of a
    # build at its point alone
    prob = under_target_problem()
    system, eliminate = lgoc.residual_system(prob)
    points, builds, formed = [], [], []
    interval_pass = lgoc._interval_pass

    def counted(*args):
        formed.append(1)
        return interval_pass(*args)

    def recorded(point):
        points.append(point)
        newest = len(points)

        def jacobian():
            before = len(formed)
            J = point.jacobian()
            builds.append((point, newest == len(points), len(formed) - before, J))
            return J

        return point._replace(jacobian=jacobian)

    monkeypatch.setattr(lgoc, "_interval_pass", counted)
    z0 = lgoc._pack(*lgoc.initial_guess(prob), eliminate)
    _, report = lgoc.newton(dataclasses.replace(
        system, at=lambda z: recorded(system.at(z)),
        stack=lambda Z: [recorded(point) for point in system.stack(Z)]),
        z0, tol=1e-7, max_iter=12)
    assert report.converged and len(builds) == report.jacobian_evaluations
    assert len(formed) == report.residual_passes
    assert len(points) == report.residual_evaluations
    assert all(passes == 0 for _, _, passes, _ in builds)
    late = [(point, J) for point, newest, _, J in builds if not newest]
    assert late
    for point, J in late:
        assert np.array_equal(J, system.at(point.x).jacobian())


@pytest.mark.parametrize("build", [rigid_body_problem, under_target_problem],
                         ids=["fully actuated", "underactuated"])
def test_driftless_solve_makes_no_drift_evaluation(build, monkeypatch):
    # without a drift nothing evaluates one: no zero array is formed and
    # none is subtracted, in the residual, the Jacobian or the solution
    expected = lgoc.solve(build(), tol=1e-7)

    def refused(self, z):
        raise AssertionError("drift_values called on a system without a drift")

    monkeypatch.setattr(ReducedSystem, "drift_values", refused)
    prob = build()
    assert not prob.system.has_drift
    sol = lgoc.solve(prob, tol=1e-7)
    assert sol.report.converged
    assert sol.report.residual_history == expected.report.residual_history
    assert _solution_arrays(sol) == _solution_arrays(expected)
    z = lgoc._pack(sol.xis, sol.nus[1:-1], sol.lambdas, prob.system.fully_actuated)
    assert _solution_arrays(lgoc.assemble_solution(prob, z)) == _solution_arrays(sol)


# ---------------------------------------------------------------------------
# the layout cache
# ---------------------------------------------------------------------------

def _layout_twin(actuated, potential, inertia, h, seed, mgl):
    """A rigid body problem of N = 6 whose layout depends only on
    ``actuated`` and ``potential``; the inertia, h, g0, gT and the heavy
    top's mgl are the twin's own."""
    system = make_rigid_body_so3(inertia, actuated=actuated,
                                 potential=systems.HeavyTopPotential(mgl) if potential else None)
    rng = np.random.default_rng(seed)
    g0 = system.group.tau(0.3 * rng.normal(size=3))
    return OcProblemLie(system=system, g0=g0, xi0=0.2 * rng.normal(size=3),
                        gT=g0 @ system.group.tau(0.4 * rng.normal(size=3)),
                        xiT=0.2 * rng.normal(size=3), N=6, h=h, cost=L2Cost())


def _residual_and_jacobian(prob, seed):
    system, eliminate = lgoc.residual_system(prob)
    point = system.at(_random_point(prob, eliminate, np.random.default_rng(seed)))
    return point.f, point.jacobian()


@pytest.mark.parametrize("actuated", [(0, 1, 2), (0, 1)], ids=["eliminated", "explicit"])
@pytest.mark.parametrize("potential", [False, True], ids=["free", "heavy top"])
def test_problems_sharing_a_layout_build_the_jacobians_of_cold_builds(actuated, potential):
    # two problems of one layout differ in everything else: each builds,
    # through the entry the other left in the cache, the residual and the
    # Jacobian a build from an empty cache gives, bitwise
    twins = [_layout_twin(actuated, potential, (1.0, 2.0, 3.0), 0.1, 1, 0.8),
             _layout_twin(actuated, potential, (2.5, 1.5, 0.7), 0.17, 2, 1.9)]
    cold = []
    for prob in twins:
        lgoc._layout.cache_clear()
        cold.append(_residual_and_jacobian(prob, 3))
    lgoc._layout.cache_clear()
    for prob, (f, J) in zip(twins, cold):
        warm_f, warm_J = _residual_and_jacobian(prob, 3)
        assert np.array_equal(warm_f, f) and np.array_equal(warm_J, J)
    info = lgoc._layout.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 1, 1)
    assert lgoc._layout_of(twins[0]) is lgoc._layout_of(twins[1])


@pytest.mark.parametrize("regime", list(jacobian_regimes()))
def test_layout_arrays_are_read_only(regime):
    layout = lgoc._layout_of(jacobian_regimes()[regime])
    arrays = [a for a in layout if isinstance(a, np.ndarray)]
    assert len(arrays) == 5
    for a in arrays:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[...] = 0


def test_layouts_of_other_kinds_never_share_an_entry():
    # eliminated and explicit momenta, with and without a potential: the
    # same group and N, four entries, whatever the order they are formed in
    kinds = [(actuated, potential) for actuated in [(0, 1, 2), (0, 1)]
             for potential in [False, True]]
    lgoc._layout.cache_clear()
    layouts = [lgoc._layout_of(_layout_twin(a, p, (1.0, 2.0, 3.0), 0.1, 0, 1.0))
               for a, p in kinds]
    assert lgoc._layout.cache_info().currsize == 4
    assert len({(layout.dim, layout.height) for layout in layouts}) == 4
    for (a, p), layout in zip(kinds[::-1], layouts[::-1]):
        assert lgoc._layout_of(_layout_twin(a, p, (3.0, 1.0, 2.0), 0.2, 1, 0.5)) is layout
    assert lgoc._layout.cache_info().currsize == 4


@pytest.mark.parametrize("regime", [name for name, prob in jacobian_regimes().items()
                                    if lgoc._momenta_eliminable(prob)])
def test_an_eliminated_solve_starts_from_the_constant_velocities_alone(regime, monkeypatch):
    # the start of an eliminated solve reads only xis: no interval momenta
    # and no dtau_inv_matrix call come before the first pass, and the
    # solution is bitwise that from initial_guess's full start
    prob = jacobian_regimes()[regime]
    expected = lgoc.solve(prob, tol=1e-9, guess=lgoc.initial_guess(prob))
    events = []

    def spy(name, f):
        def called(*args, **kwargs):
            events.append(name)
            return f(*args, **kwargs)
        return called

    monkeypatch.setattr(lgoc, "_interval_pass", spy("pass", lgoc._interval_pass))
    monkeypatch.setattr(lgoc, "interval_momenta", spy("momenta", lgoc.interval_momenta))
    monkeypatch.setattr(lie.GroupSpec, "dtau_inv_matrix",
                        spy("dtau_inv_matrix", lie.GroupSpec.dtau_inv_matrix))
    sol = lgoc.solve(prob, tol=1e-9)
    assert events[0] == "pass"
    assert sol.report.residual_history == expected.report.residual_history
    assert np.array_equal(sol.xis, expected.xis)
    assert _solution_arrays(sol) == _solution_arrays(expected)


def test_unactuated_coordinates_are_a_read_only_index():
    system = make_rigid_body_so3((1.0, 2.0, 3.0), actuated=(1,))
    assert system.sigma.dtype == np.intp and list(system.sigma) == [0, 2]
    assert not system.sigma.flags.writeable
    full = make_rigid_body_so3((1.0, 2.0, 3.0), actuated=(0, 1, 2))
    assert full.sigma.dtype == np.intp and full.sigma.shape == (0,)


def test_a_march_forms_no_control_pseudo_inverse(monkeypatch):
    # control_pinv is formed when first read: building a system and
    # marching it, on a group or on R^n, forms none
    pinv = np.linalg.pinv

    def refused(*args, **kwargs):
        raise AssertionError("pinv formed for a march")

    monkeypatch.setattr(np.linalg, "pinv", refused)
    system = make_rigid_body_so3((1.0, 2.0, 3.0), actuated=(0, 1))
    controls = np.full((5, 2, 2), 0.1)
    lgoc.integrate_reduced(system, np.eye(3), np.array([0.2, 0.1, -0.3]), 0.1, 5, controls)
    lagrangian, forces = systems.make_point_mass(2, h=0.1)
    mech.integrate(lagrangian, forces, np.zeros(2), np.full(2, 0.01), 5,
                   controls=np.full((5, 2, 2), 0.1))
    monkeypatch.setattr(np.linalg, "pinv", pinv)
    assert np.array_equal(system.control_pinv, pinv(system.control_basis))
    assert system.control_pinv is system.control_pinv
