"""Discrete mechanics on R^n: trapezoidal rule, forced equations, integrator."""

import math

import numpy as np
import pytest

from models import (CoupledCosines, Cosines, Quadratic, Quartic, SquaredNormSquared, damping,
                    sine_of_difference, sine_times, times_square, zero_below)

from discvar import mech, solvers, systems
from discvar.errors import (ConfigError, DimensionMismatch, NoConvergence, NotInvertible,
                            SingularJacobian, StepSolveFailed)
from discvar.mech import DiscreteForcePairRn, RnLagrangian


def free_particle(n=1, mass=1.0, h=0.1):
    return RnLagrangian(np.eye(n) * mass, h=h)


def harmonic(h=0.1, k=1.0):
    return RnLagrangian(np.eye(1), h=h, potential=Quadratic(k))


def pendulum(h=0.01):
    return RnLagrangian(np.eye(1), h=h, potential=Cosines(-1.0))


def pendulum_drifts(h):
    """The pendulum's force pair with both drifts, a^- = -0.3 (q_b - q_a) / h
    and a^+ = -0.2 sin(q_b - q_a)."""
    return DiscreteForcePairRn(h / 2.0 * np.eye(1), h / 2.0 * np.eye(1),
                               a_minus=damping(0.3 / h), a_plus=sine_of_difference(-0.2))


# ---------------------------------------------------------------------------
# discrete Lagrangian
# ---------------------------------------------------------------------------

def test_ld_zero_displacement_no_potential():
    L = free_particle()
    assert L.ld(np.array([1.3]), np.array([1.3])) == 0.0


def test_ld_unit_displacement_value():
    L = free_particle(h=0.1)
    assert abs(L.ld(np.array([0.0]), np.array([1.0])) - 5.0) < 1e-14


def test_ld_pure_potential_at_origin():
    L = harmonic(h=1.0)
    assert L.ld(np.array([0.0]), np.array([0.0])) == 0.0


def test_ld_matches_hand_formula_random():
    rng = np.random.default_rng(0)
    M = np.array([[2.0, 0.3], [0.3, 1.0]])
    h = 0.05
    L = RnLagrangian(M, h=h, potential=SquaredNormSquared())
    for _ in range(10):
        qa, qb = rng.normal(size=2), rng.normal(size=2)
        d = qb - qa
        oracle = d @ M @ d / (2.0 * h) - (h / 2.0) * (
            float(qa @ qa) ** 2 + float(qb @ qb) ** 2
        )
        assert abs(L.ld(qa, qb) - oracle) < 1e-12


@pytest.mark.parametrize("potential", [Quadratic(2.0), Cosines(-1.0), Quartic(),
                                       SquaredNormSquared(), CoupledCosines()],
                         ids=["quadratic", "cosines", "quartic", "squared norm squared",
                              "coupled cosines"])
def test_potential_derivatives_match_differences(potential):
    # V_x, V_xx and V_xxx read the model's closed forms: each is the
    # central difference of the one before it
    L = RnLagrangian(np.diag([1.0, 2.0]), h=0.1, potential=potential)
    rng = np.random.default_rng(7)
    for _ in range(5):
        q, w = rng.normal(size=(2, 2))
        assert np.max(np.abs(L.V_x(q) - solvers.fd_jacobian(L.V, q)[0])) < 1e-8
        assert np.max(np.abs(L.V_xx(q) - solvers.fd_jacobian(L.V_x, q))) < 1e-7
        dV_xx = solvers.fd_jacobian(lambda t: L.V_xx(q + t * w), np.zeros(1))
        assert np.max(np.abs(L.V_xxx(q, w) - dV_xx.reshape(2, 2))) < 1e-7


@pytest.mark.parametrize("drift", [sine_times(0.1), times_square(0.05), damping(3.0),
                                   sine_of_difference(-0.2)],
                         ids=["sine times", "times square", "damping", "sine of difference"])
def test_drift_derivatives_match_differences(drift):
    # jacobians against the difference of the drift in (q_a, q_b), and
    # curvature against that of the pulled-back covector (da/dq)^T v
    F = DiscreteForcePairRn(np.eye(3), np.eye(3), a_minus=drift)
    rng = np.random.default_rng(12)
    for _ in range(5):
        x, v = rng.normal(size=6), rng.normal(size=3)
        J = solvers.fd_jacobian(lambda y: F.drift("-", y[:3], y[3:]), x)
        assert np.max(np.abs(np.concatenate(F.drift_jacobians("-", x[:3], x[3:]), axis=1)
                             - J)) < 1e-8
        H = solvers.fd_jacobian(lambda y: v @ np.concatenate(
            F.drift_jacobians("-", y[:3], y[3:]), axis=1), x)
        assert np.max(np.abs(F.drift_curvature("-", x[:3], x[3:], v) - H)) < 1e-7


@pytest.mark.parametrize("missing", ["value", "left_grad", "left_hess", "left_curvature"])
def test_a_potential_without_its_derivatives_is_refused(missing):
    class Partial(Quartic):
        pass

    setattr(Partial, missing, None)
    with pytest.raises(ConfigError, match=f"a potential must supply {missing}"):
        RnLagrangian(np.eye(2), h=0.1, potential=Partial())
    with pytest.raises(ConfigError):
        systems.make_point_mass(2, potential=Partial())


@pytest.mark.parametrize("which", ["a_minus", "a_plus"])
def test_a_drift_without_its_derivatives_is_refused(which):
    with pytest.raises(ConfigError, match=f"the drift {which} must supply jacobians, curvature"):
        DiscreteForcePairRn(np.eye(1), np.eye(1), **{which: lambda qa, qb: qb - qa})


def test_slot_derivatives_without_potential_match_zero_arrays():
    # V_x/V_xx return a scalar 0.0 without a potential; the slot derivatives
    # must stay bitwise what zero arrays gave
    rng = np.random.default_rng(8)
    M = np.array([[2.0, 0.3, 0.0], [0.3, 1.0, -0.2], [0.0, -0.2, 0.7]])
    h = 0.13
    L = RnLagrangian(M, h=h)
    zero_grad, zero_hess = np.zeros(3), np.zeros((3, 3))
    for scale in (1e-3, 1.0, 1e3):
        qa, qb = scale * rng.normal(size=3), scale * rng.normal(size=3)
        d = qb - qa
        assert np.array_equal(L.d1(qa, qb), -M @ d / h - (h / 2.0) * zero_grad)
        assert np.array_equal(L.d2(qa, qb), M @ d / h - (h / 2.0) * zero_grad)
        assert np.array_equal(L.d11(qa, qb), M / h - (h / 2.0) * zero_hess)
        assert np.array_equal(L.d22(qa, qb), M / h - (h / 2.0) * zero_hess)
        assert L.d1(qa, qb).shape == (3,) and L.d11(qa, qb).shape == (3, 3)


def test_slot_derivatives_match_finite_differences():
    rng = np.random.default_rng(1)
    L = harmonic(h=0.2)
    qa, qb = rng.normal(size=1), rng.normal(size=1)
    eps = 1e-6

    def fd(slot_first):
        out = np.zeros(1)
        e = np.array([eps])
        if slot_first:
            out[0] = (L.ld(qa + e, qb) - L.ld(qa - e, qb))
        else:
            out[0] = (L.ld(qa, qb + e) - L.ld(qa, qb - e))
        return out / (2.0 * eps)

    assert np.max(np.abs(L.d1(qa, qb) - fd(True))) < 1e-8
    assert np.max(np.abs(L.d2(qa, qb) - fd(False))) < 1e-8


def test_batched_intervals_equal_single_intervals():
    # leading axes are batches of intervals, which the models take as they are
    rng = np.random.default_rng(9)
    n = 3
    M = np.array([[2.0, 0.3, 0.0], [0.3, 1.0, -0.2], [0.0, -0.2, 0.7]])
    L = RnLagrangian(M, h=0.1, potential=Quartic())
    B = rng.normal(size=(n, 2))
    F = DiscreteForcePairRn(B, 0.5 * B, a_minus=sine_times(1.0), a_plus=times_square(1.0))
    qa, qb = rng.normal(size=(2, 4, 5, n))
    um, up = rng.normal(size=(2, 4, 5, 2))
    batched = {
        "d1": L.d1(qa, qb), "d2": L.d2(qa, qb),
        "d11": L.d11(qa, qb), "d22": L.d22(qa, qb),
        "f_minus": F.f_minus(qa, qb, um), "f_plus": F.f_plus(qa, qb, up),
    }
    for i, j in np.ndindex(4, 5):
        a, b = qa[i, j], qb[i, j]
        single_values = {
            "d1": L.d1(a, b), "d2": L.d2(a, b), "d11": L.d11(a, b), "d22": L.d22(a, b),
            "f_minus": F.f_minus(a, b, um[i, j]), "f_plus": F.f_plus(a, b, up[i, j]),
        }
        for name, x in single_values.items():
            assert batched[name][i, j].shape == x.shape
            assert np.all(np.abs(batched[name][i, j] - x) <= 1e-14 * (1.0 + np.abs(x)))


def test_node_momenta_use_the_interval_to_the_right():
    rng = np.random.default_rng(10)
    L = pendulum(h=0.05)
    F = DiscreteForcePairRn.trapezoidal(1, 0.05)
    qs = rng.normal(size=(7, 1))
    controls = rng.normal(size=(6, 2, 1))
    ps = mech.node_momenta(L, F, qs, controls)
    assert ps.shape == qs.shape
    for k in range(6):
        pa, pb = mech.legendre_pair(L, F, qs[k], qs[k + 1], *controls[k])
        assert np.max(np.abs(ps[k] - pa)) < 1e-14
    assert np.max(np.abs(ps[6] - pb)) < 1e-14


def test_mass_matrix_must_be_symmetric():
    with pytest.raises(DimensionMismatch):
        RnLagrangian(np.array([[1.0, 0.5], [0.0, 1.0]]), h=0.1)


@pytest.mark.parametrize("mass", [0.0, [[1.0, 2.0], [2.0, 4.0]], [[1.0, 0.0], [0.0, -2.0]]],
                         ids=["zero", "rank one", "indefinite"])
def test_mass_matrix_must_be_positive_definite(mass):
    # a typed error, as for a group system's inertia: a singular mass used to
    # raise numpy's bare LinAlgError, and an indefinite one was accepted
    with pytest.raises(NotInvertible, match="mass matrix must be positive definite"):
        RnLagrangian(mass, h=0.1)


# ---------------------------------------------------------------------------
# forced discrete Euler-Lagrange residual
# ---------------------------------------------------------------------------

def test_free_particle_residual_closed_form():
    L = free_particle(mass=2.0, h=0.1)
    F = DiscreteForcePairRn.identity(1)
    rng = np.random.default_rng(2)
    for _ in range(10):
        qm, qk, qp = rng.normal(size=(3, 1))
        r = mech.forced_del_residual(L, F, qm, qk, qp, np.zeros(1), np.zeros(1))
        oracle = 2.0 / 0.1 * (2.0 * qk - qm - qp)
        assert np.max(np.abs(r - oracle)) < 1e-12


def test_uniform_motion_is_free_trajectory():
    L = free_particle()
    F = DiscreteForcePairRn.identity(1)
    q = lambda k: np.array([0.3 * k])
    r = mech.forced_del_residual(L, F, q(0), q(1), q(2), np.zeros(1), np.zeros(1))
    assert np.max(np.abs(r)) < 1e-14


def test_harmonic_residual_hand_assembled():
    h = 0.1
    L = harmonic(h=h)
    F = DiscreteForcePairRn.identity(1)
    qm, qk, qp = np.array([1.0]), np.array([np.cos(h)]), np.array([np.cos(2 * h)])
    # hand assembly: (2 q_k - q_m - q_p)/h - h V'(q_k)
    oracle = (2.0 * qk - qm - qp) / h - h * qk
    r = mech.forced_del_residual(L, F, qm, qk, qp, np.zeros(1), np.zeros(1))
    assert np.max(np.abs(r - oracle)) < 1e-12


def test_constant_force_discrete_newton_law():
    # with half-step force pairs summing to h*c, the residual vanishes iff
    # the second difference equals h^2 M^{-1} c
    h, c = 0.05, np.array([0.7])
    L = free_particle(h=h)
    F = DiscreteForcePairRn.trapezoidal(1, h)
    qm, qk = np.array([0.0]), np.array([0.1])
    qp = 2.0 * qk - qm + h * h * c
    r = mech.forced_del_residual(L, F, qm, qk, qp, c, c)
    assert np.max(np.abs(r)) < 1e-13


# ---------------------------------------------------------------------------
# momenta
# ---------------------------------------------------------------------------

def test_momenta_uniform_motion():
    L = free_particle(mass=1.7)
    F = DiscreteForcePairRn.identity(1)
    v = np.array([0.4])
    pk, pk1 = mech.legendre_pair(L, F, np.zeros(1), 0.1 * v, np.zeros(1), np.zeros(1))
    assert np.max(np.abs(pk - 1.7 * v)) < 1e-12
    assert np.max(np.abs(pk1 - 1.7 * v)) < 1e-12


def test_momenta_closed_form_with_potential_and_force():
    rng = np.random.default_rng(3)
    h = 0.1
    L = harmonic(h=h)
    F = DiscreteForcePairRn.identity(1)
    for _ in range(10):
        qa, qb, um, up = rng.normal(size=(4, 1))
        pk, pk1 = mech.legendre_pair(L, F, qa, qb, um, up)
        # independently evaluated closed forms
        assert np.max(np.abs(pk - ((qb - qa) / h + (h / 2.0) * qa - um))) < 1e-12
        assert np.max(np.abs(pk1 - ((qb - qa) / h - (h / 2.0) * qb + up))) < 1e-12


def test_zero_force_momenta_are_slot_gradients():
    rng = np.random.default_rng(4)
    L = harmonic()
    F = DiscreteForcePairRn.identity(1)
    qa, qb = rng.normal(size=(2, 1))
    pk, pk1 = mech.legendre_pair(L, F, qa, qb, np.zeros(1), np.zeros(1))
    assert np.max(np.abs(pk + L.d1(qa, qb))) < 1e-12
    assert np.max(np.abs(pk1 - L.d2(qa, qb))) < 1e-12


def test_momentum_matching_along_trajectory():
    L = pendulum(h=0.05)
    F = DiscreteForcePairRn.identity(1)
    qs = mech.integrate(L, F, np.array([0.3]), np.array([0.32]), 50)
    z = np.zeros(1)
    for k in range(1, 49):
        _, p_from_left = mech.legendre_pair(L, F, qs[k - 1], qs[k], z, z)
        p_from_right, _ = mech.legendre_pair(L, F, qs[k], qs[k + 1], z, z)
        assert np.max(np.abs(p_from_left - p_from_right)) < 1e-10


# ---------------------------------------------------------------------------
# integrator
# ---------------------------------------------------------------------------

def test_integrate_free_particle_exact():
    h = 0.1
    L = free_particle(h=h)
    F = DiscreteForcePairRn.identity(1)
    qs = mech.integrate(L, F, np.array([0.0]), np.array([h]), 20)
    oracle = np.arange(21)[:, None] * h
    assert np.max(np.abs(qs - oracle)) < 1e-10


def test_integrate_satisfies_residual_everywhere():
    L = pendulum(h=0.02)
    F = DiscreteForcePairRn.identity(1)
    qs = mech.integrate(L, F, np.array([0.5]), np.array([0.51]), 100)
    z = np.zeros(1)
    worst = max(
        np.max(np.abs(mech.forced_del_residual(L, F, qs[k - 1], qs[k], qs[k + 1], z, z)))
        for k in range(1, 100)
    )
    assert worst < 1e-10


def test_integrate_is_linear_for_quadratic_potential():
    rng = np.random.default_rng(5)
    L = harmonic(h=0.05)
    F = DiscreteForcePairRn.identity(1)
    a = (rng.normal(size=1), rng.normal(size=1))
    b = (rng.normal(size=1), rng.normal(size=1))
    qa = mech.integrate(L, F, *a, 30)
    qb = mech.integrate(L, F, *b, 30)
    qsum = mech.integrate(L, F, a[0] + b[0], a[1] + b[1], 30)
    assert np.max(np.abs(qsum - (qa + qb))) < 1e-10


def test_free_particle_momentum_conservation():
    L = free_particle(mass=2.5, h=0.1)
    F = DiscreteForcePairRn.identity(1)
    qs = mech.integrate(L, F, np.array([0.0]), np.array([0.07]), 200)
    ps = mech.node_momenta(L, F, qs)
    assert np.max(np.abs(ps - ps[0])) < 1e-12


def test_pendulum_energy_bounded_without_drift():
    h = 0.01
    L = pendulum(h=h)
    F = DiscreteForcePairRn.identity(1)
    steps = 10_000
    qs = mech.integrate(L, F, np.array([0.8]), np.array([0.8]), steps)
    v = (qs[1:] - qs[:-1]) / h
    q_mid = 0.5 * (qs[1:] + qs[:-1])
    E = 0.5 * v[:, 0] ** 2 - np.cos(q_mid[:, 0])
    band = np.max(np.abs(E - E[0]))
    assert band < 10.0 * h * h * np.max(np.abs(E))
    slope = np.polyfit(np.arange(len(E)), E, 1)[0]
    assert abs(slope) < 1e-8


def test_controls_shape_validation():
    L = free_particle()
    F = DiscreteForcePairRn.trapezoidal(1, 0.1)
    with pytest.raises(DimensionMismatch):
        mech.integrate(L, F, np.zeros(1), np.zeros(1), 5, controls=np.zeros((4, 2, 1)))


def test_forced_integration_matches_residual_with_controls():
    # the march assembles its step residual in closed form; the slot
    # derivatives' four-term residual checks it, also on a pendulum with
    # both drifts a^- and a^+
    rng = np.random.default_rng(6)
    h = 0.1
    cases = [(free_particle(h=h), DiscreteForcePairRn.trapezoidal(1, h), 0.0, 0.05)]
    h = 0.01
    cases.append((pendulum(h=h), pendulum_drifts(h), 0.3, 0.31))
    for L, F, q0, q1 in cases:
        controls = rng.normal(size=(10, 2, 1))
        qs = mech.integrate(L, F, np.array([q0]), np.array([q1]), 10, controls=controls)
        for k in range(1, 10):
            r = mech.forced_del_residual(
                L, F, qs[k - 1], qs[k], qs[k + 1],
                controls[k - 1, 1], controls[k, 0],
            )
            assert np.max(np.abs(r)) < 1e-10


@pytest.mark.parametrize("scale", [1e3, 1e6])
def test_forced_integration_far_from_origin(scale):
    # the DEL residual of a step cannot drop below rounding of M q / h, which
    # passes the absolute 1e-12 once |q| is large; the step tolerance follows it
    h = 0.01
    L = free_particle(n=3, h=h)
    F = DiscreteForcePairRn.trapezoidal(3, h)
    rng = np.random.default_rng(7)
    q0 = scale * rng.uniform(0.5, 1.0, size=3)
    q1 = q0 + h * rng.normal(size=3)
    controls = rng.normal(size=(50, 2, 3))
    qs = mech.integrate(L, F, q0, q1, 50, controls=controls)
    momentum_scale = np.max(np.abs(qs)) / h
    for k in range(1, 50):
        r = mech.forced_del_residual(
            L, F, qs[k - 1], qs[k], qs[k + 1], controls[k - 1, 1], controls[k, 0],
        )
        assert np.max(np.abs(r)) < 16.0 * np.finfo(float).eps * momentum_scale


def test_affine_step_takes_one_update_and_no_newton(monkeypatch):
    # no drift a^-: with a quadratic potential or none the DEL is linear in
    # the window's positions (the potential's constant curvature enters the
    # recurrence), so one update from the extrapolation solves the window of
    # 39 steps.  Each of the two residual evaluations forms the potential
    # gradient once for all the window's nodes, and the update reads the
    # model's Hessian; the trapezoidal force pair has no drift, which is
    # never called.  No slot derivative is called, and no newton.  Free,
    # then harmonic
    h, steps = 0.01, 40
    mass = np.array([[2.0, 0.3], [0.3, 1.0]])
    lagrangians = [RnLagrangian(mass, h=h), RnLagrangian(mass, h=h, potential=Quadratic())]
    F = DiscreteForcePairRn.trapezoidal(2, h)
    controls = np.random.default_rng(8).normal(size=(steps, 2, 2))
    drift, V_x = DiscreteForcePairRn.drift, RnLagrangian.V_x
    window_newton = solvers.window_newton
    for L in lagrangians:
        calls = {"-": 0, "+": 0, "V_x": 0}
        windows = []

        def counted_drift(self, which, qa, qb):
            calls[which] += 1
            return drift(self, which, qa, qb)

        def counted_gradient(self, q):
            calls["V_x"] += 1
            return V_x(self, q)

        def refused(*args, **kwargs):
            raise AssertionError("the march called a slot derivative or newton")

        def window(x, linearize):
            out = window_newton(x, linearize)
            windows.append(out[1:3])
            return out

        monkeypatch.setattr(DiscreteForcePairRn, "drift", counted_drift)
        monkeypatch.setattr(RnLagrangian, "V_x", counted_gradient)
        for name in ("d1", "d2", "d11", "d22"):
            monkeypatch.setattr(RnLagrangian, name, refused)
        monkeypatch.setattr(mech, "newton", refused)
        monkeypatch.setattr(solvers, "window_newton", window)
        qs = mech.integrate(L, F, np.zeros(2), np.array([0.01, -0.02]), steps,
                            controls=controls)
        assert windows == [(1, steps - 1)]
        assert calls == {"-": 0, "+": 0, "V_x": 2 if L.potential is not None else 0}
        monkeypatch.undo()
        for k in range(1, steps):
            r = mech.forced_del_residual(L, F, qs[k - 1], qs[k], qs[k + 1],
                                         controls[k - 1, 1], controls[k, 0])
            assert np.max(np.abs(r)) <= 1e-12


def test_step_failure_names_the_step(monkeypatch):
    # the drift is undefined once the velocity passes 1: the step that gets
    # there fails as a window of one step and in its newton rescue, and
    # StepSolveFailed names it
    h = 0.1
    fallbacks = []
    newton = mech.newton

    def counted(*args, **kwargs):
        fallbacks.append(1)
        return newton(*args, **kwargs)

    monkeypatch.setattr(mech, "newton", counted)
    L = free_particle(h=h)
    F = DiscreteForcePairRn(h / 2.0 * np.eye(1), h / 2.0 * np.eye(1),
                            a_minus=zero_below(1.0, h))
    # unit force: the velocity grows by h per step, from 0.55 on [q0, q1]
    controls = np.ones((12, 2, 1))
    with pytest.raises(StepSolveFailed) as info:
        mech.integrate(L, F, np.zeros(1), np.array([0.055]), 12, controls=controls)
    # v_k = 0.55 + 0.1 k on [q_k, q_{k+1}]: step k solves for q_{k+1}, and
    # v_5 = 1.05 is the first velocity past 1
    assert info.value.step == 5
    assert str(info.value).startswith("step 5: no convergence")
    assert len(fallbacks) == 1


# ---------------------------------------------------------------------------
# the march against its frozen reference
# ---------------------------------------------------------------------------

def reference_integrate(lagrangian, forces, q0, q1, steps, controls=None):
    """``mech.integrate`` as it stood with numpy reductions in its stopping
    tests (np.abs(.).max()) and the velocity term formed again every step.
    The march must return its positions bitwise."""
    n = lagrangian.dim
    q0 = np.asarray(q0, dtype=float)
    q1 = np.asarray(q1, dtype=float)
    if controls is None:
        controls = np.zeros((steps, 2, forces.control_dim))
    controls = np.asarray(controls, dtype=float)
    qs = np.empty((steps + 1, n))
    qs[0], qs[1] = q0, q1
    h = lagrangian.h
    Mt_h = lagrangian.mass.T / h
    rounding_per_q = mech._STEP_ROUNDING / h * np.max(np.sum(np.abs(lagrangian.mass), axis=1))
    control_forces = controls[:-1, 1] @ forces.b_plus.T + controls[1:, 0] @ forces.b_minus.T
    J = lagrangian.d12(q0, q1)
    J_inv = np.linalg.inv(J)
    for k in range(1, steps):
        q_prev, q_k = qs[k - 1], qs[k]
        step_tol = max(mech._STEP_TOL, rounding_per_q * np.abs(q_k).max())
        velocity = (q_k - q_prev) @ Mt_h
        forcing = (control_forces[k - 1] - h * lagrangian.V_x(q_k)
                   + forces.drift("+", q_prev, q_k))
        fixed = velocity + forcing

        def res(q_next):
            return fixed - (q_next - q_k) @ Mt_h + forces.drift("-", q_k, q_next)

        guess = 2.0 * q_k - q_prev
        q_next, r = guess, forcing + forces.drift("-", q_k, guess)
        err = np.abs(r).max()
        for _ in range(mech._STEP_MAX_ITER):
            if err <= step_tol or not math.isfinite(err):
                break
            q_next = q_next - J_inv @ r
            r = res(q_next)
            err = np.abs(r).max()
        if not err <= step_tol:
            system = solvers.plain_system(res, lambda _: J)
            try:
                q_next = mech.newton(system, guess, tol=step_tol,
                                     max_iter=mech._STEP_MAX_ITER)[0].x
            except (NoConvergence, SingularJacobian) as exc:
                raise StepSolveFailed(k, f"step {k}: {exc}") from exc
        qs[k + 1] = q_next
    return qs


def _benchmark_point_mass(steps, seed):
    """The benchmark's forced point mass: oscillating controls u = A sin(w t
    + phi) on n = 3, with the initial velocity that cancels their mean."""
    n, h = 3, 0.01
    lagrangian, forces = systems.make_point_mass(n, h=h)
    base = np.random.default_rng(20120303)
    amp = base.uniform(0.5, 1.5, size=n)
    omega = base.uniform(1.0, 3.0, size=n)
    phase = base.uniform(0.0, 2.0 * np.pi, size=n)
    rng = np.random.default_rng(seed)
    sign = rng.choice([-1.0, 1.0], size=n)
    t = h * (np.arange(steps)[:, None, None] + np.array([0.0, 1.0])[None, :, None])
    controls = sign * amp * np.sin(omega * t + phase)
    q0 = rng.uniform(-1.0, 1.0, size=n)
    q1 = q0 - h * sign * amp * np.cos(phase) / omega
    return lagrangian, forces, q0, q1, controls


def _reference_cases():
    """(lagrangian, forces, q0, q1, controls) of the marches checked against
    the frozen reference."""
    rng = np.random.default_rng(11)
    cases = {f"benchmark point mass {seed}": _benchmark_point_mass(1000, seed)
             for seed in (901, 7)}
    h = 0.05
    cases["harmonic"] = (harmonic(h=h), DiscreteForcePairRn.trapezoidal(1, h),
                         np.array([0.4]), np.array([0.42]), rng.normal(size=(300, 2, 1)))
    h = 0.01
    cases["drifts"] = (pendulum(h=h), pendulum_drifts(h), np.array([0.3]), np.array([0.31]),
                       rng.normal(size=(300, 2, 1)))
    for scale in (1e3, 1e6):
        q0 = scale * rng.uniform(0.5, 1.0, size=3)
        cases[f"far {scale:g}"] = (free_particle(n=3, h=h), DiscreteForcePairRn.trapezoidal(3, h),
                                   q0, q0 + h * rng.normal(size=3),
                                   rng.normal(size=(300, 2, 3)))
    return cases


@pytest.mark.parametrize("case", list(_reference_cases()))
def test_integrate_matches_its_reference_bitwise(case):
    # the march solves windows of steps at once, each step's DEL to the
    # step tolerance, and agrees with the step-by-step march to 1e-10
    # relative: far from the origin, with drifts and a potential
    L, F, q0, q1, controls = _reference_cases()[case]
    steps = len(controls)
    qs = mech.integrate(L, F, q0, q1, steps, controls=controls)
    expected = reference_integrate(L, F, q0, q1, steps, controls=controls)
    assert qs.shape == expected.shape
    assert np.max(np.abs(qs - expected)) <= 1e-10 * np.max(np.abs(expected))


@pytest.mark.parametrize("case", list(_reference_cases()))
def test_lone_steps_are_windows_of_one_step(case, monkeypatch):
    # with windows at most one step wide the march alternates lone steps
    # and windows of two: every lone step is a window of one step, solved by
    # window_newton with no newton call, and the march still agrees with
    # the step-by-step march to 1e-10 relative
    L, F, q0, q1, controls = _reference_cases()[case]
    steps = len(controls)
    window_newton = solvers.window_newton
    sizes = []

    def window(x, linearize):
        out = window_newton(x, linearize)
        assert out[2] == len(x)
        sizes.append(len(x))
        return out

    def refused(*args, **kwargs):
        raise AssertionError("a lone step went to newton")

    monkeypatch.setattr(solvers, "WINDOW_CAP", 1)
    monkeypatch.setattr(solvers, "window_newton", window)
    monkeypatch.setattr(mech, "newton", refused)
    qs = mech.integrate(L, F, q0, q1, steps, controls=controls)
    expected_sizes, k = [], 1
    while k < steps:
        expected_sizes.append(min(1 + len(expected_sizes) % 2, steps - k))
        k += expected_sizes[-1]
    assert sizes == expected_sizes
    expected = reference_integrate(L, F, q0, q1, steps, controls=controls)
    assert np.max(np.abs(qs - expected)) <= 1e-10 * np.max(np.abs(expected))


@pytest.mark.parametrize("case", ["benchmark point mass 901", "far 1000"])
def test_free_windows_sum_without_a_scan(case, monkeypatch):
    # without a potential or a drift the window's recurrence has the exact
    # blocks [[I, I], [0, I]]: its update is two cumulative sums, so no
    # scan's maps are formed or applied, and the DEL being linear every
    # window converges in one update
    L, F, q0, q1, controls = _reference_cases()[case]
    window_newton = solvers.window_newton
    windows = []

    def refused(*args):
        raise AssertionError("a free window formed or applied a scan")

    def window(x, linearize):
        out = window_newton(x, linearize)
        windows.append((len(x), out[1], out[2]))
        return out

    for module in (mech, solvers):
        for name in ("scan_maps", "scan_apply"):
            monkeypatch.setattr(module, name, refused)
    monkeypatch.setattr(solvers, "window_newton", window)
    mech.integrate(L, F, q0, q1, len(controls), controls=controls)
    assert windows
    assert all(updates == 1 and solved == size for size, updates, solved in windows)


@pytest.mark.parametrize("case", ["benchmark point mass 901", "harmonic", "drifts"])
def test_window_update_is_the_dense_newton_step(case, monkeypatch):
    # the first window's update, solved in the velocity coordinates e_k =
    # dq_{k+1} - dq_k (by two cumulative sums when free, by the scan
    # otherwise), is the Newton step of the window's block-tridiagonal
    # system assembled densely from the slot derivatives and the drifts'
    # Jacobians: free, with a potential, with both drifts
    L, F, q0, q1, controls = _reference_cases()[case]
    n, steps = L.dim, len(controls)
    window_newton = solvers.window_newton
    updates = []

    def window(x, linearize):
        if not updates:
            _, residual, build = linearize(x)
            updates.append((x, build()(residual)))
        return window_newton(x, linearize)

    monkeypatch.setattr(solvers, "window_newton", window)
    mech.integrate(L, F, q0, q1, steps, controls=controls)
    X, update = updates[0]
    size = len(X)
    q = np.concatenate([[q0, q1], X])
    q_prev, q_mid, q_next = q[:-2], q[1:-1], q[2:]
    r = mech.forced_del_residual(L, F, q_prev, q_mid, q_next,
                                 controls[:size, 1], controls[1:size + 1, 0])
    da_plus, db_plus = F.drift_jacobians("+", q_prev, q_mid)
    da_minus, db_minus = F.drift_jacobians("-", q_mid, q_next)
    d_next = np.broadcast_to(L.d12(q_mid, q_next) + db_minus, (size, n, n))
    d_mid = np.broadcast_to(L.d22(q_prev, q_mid) + L.d11(q_mid, q_next) + db_plus + da_minus,
                            (size, n, n))
    d_prev = np.broadcast_to(L.d21(q_prev, q_mid) + da_plus, (size, n, n))
    # row block j is node k + j; its unknowns are q_{k+j+1}, q_{k+j}, q_{k+j-1}
    J = np.zeros((size * n, size * n))
    for j in range(size):
        for offset, block in ((0, d_next), (1, d_mid), (2, d_prev)):
            if j >= offset:
                J[j * n:(j + 1) * n, (j - offset) * n:(j - offset + 1) * n] = block[j]
    dense = np.linalg.solve(J, -r.reshape(-1)).reshape(size, n)
    assert np.max(np.abs(update - dense)) <= 1e-12 * np.max(np.abs(dense))


def test_nan_residual_entry_goes_to_newton(monkeypatch):
    # the drift a^- is undefined on the second axis once its velocity passes
    # 1, so the step that gets there has a residual that is NaN there alone.
    # Python's max of |r| would pass over it after the first entry and take
    # the step as converged; the step goes to newton and fails, as with
    # numpy's reduction
    h = 0.1
    fallbacks = []
    newton = mech.newton

    def counted(*args, **kwargs):
        fallbacks.append(1)
        return newton(*args, **kwargs)

    L = free_particle(n=3, h=h)
    F = DiscreteForcePairRn(h / 2.0 * np.eye(3), h / 2.0 * np.eye(3),
                            a_minus=zero_below(1.0, h))
    # a unit force on the second axis alone
    controls = np.zeros((12, 2, 3))
    controls[:, :, 1] = 1.0
    q1 = np.array([0.01, 0.055, -0.02])
    monkeypatch.setattr(mech, "newton", counted)
    results = []
    for march in (mech.integrate, reference_integrate):
        fallbacks.clear()
        with pytest.raises(StepSolveFailed) as info:
            march(L, F, np.zeros(3), q1, 12, controls=controls)
        results.append((info.value.step, str(info.value), len(fallbacks)))
    assert results[0] == results[1]
    step, message, entered = results[0]
    assert step == 5 and message.startswith("step 5: no convergence") and entered == 1


@pytest.mark.parametrize("steps", [0, -3])
def test_integrate_rejects_steps_below_one(steps):
    L = free_particle(n=2)
    F = DiscreteForcePairRn.trapezoidal(2, 0.1)
    with pytest.raises(DimensionMismatch, match="steps"):
        mech.integrate(L, F, np.zeros(2), np.zeros(2), steps)


@pytest.mark.parametrize("q0, q1", [(np.zeros(3), np.zeros(2)), (np.zeros(2), np.zeros(1)),
                                    (np.zeros((1, 2)), np.zeros(2))])
def test_integrate_rejects_positions_of_the_wrong_length(q0, q1):
    L = free_particle(n=2)
    F = DiscreteForcePairRn.trapezoidal(2, 0.1)
    with pytest.raises(DimensionMismatch, match="length 2"):
        mech.integrate(L, F, q0, q1, 5)
