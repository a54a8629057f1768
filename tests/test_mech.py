"""Discrete mechanics on R^n: trapezoidal rule, forced equations, integrator."""

import numpy as np
import pytest

from discvar import mech
from discvar.errors import DimensionMismatch
from discvar.mech import DiscreteForcePairRn, RnLagrangian


def free_particle(n=1, mass=1.0, h=0.1):
    return RnLagrangian(np.eye(n) * mass, h=h)


def harmonic(h=0.1, k=1.0):
    return RnLagrangian(
        np.eye(1), h=h,
        potential=lambda q: 0.5 * k * float(q @ q),
        potential_grad=lambda q: k * q,
        potential_hess=lambda q: k * np.eye(1),
    )


def pendulum(h=0.01):
    return RnLagrangian(
        np.eye(1), h=h,
        potential=lambda q: -float(np.cos(q[0])),
        potential_grad=lambda q: np.sin(q),
        potential_hess=lambda q: np.diag(np.cos(q)),
    )


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
    L = RnLagrangian(
        M, h=h,
        potential=lambda q: float(q @ q) ** 2,
        potential_grad=lambda q: 4.0 * float(q @ q) * q,
    )
    for _ in range(10):
        qa, qb = rng.normal(size=2), rng.normal(size=2)
        d = qb - qa
        oracle = d @ M @ d / (2.0 * h) - (h / 2.0) * (
            float(qa @ qa) ** 2 + float(qb @ qb) ** 2
        )
        assert abs(L.ld(qa, qb) - oracle) < 1e-12


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


def test_mass_matrix_must_be_symmetric():
    with pytest.raises(DimensionMismatch):
        RnLagrangian(np.array([[1.0, 0.5], [0.0, 1.0]]), h=0.1)


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
    h = 0.1
    L = free_particle(h=h)
    F = DiscreteForcePairRn.trapezoidal(1, h)
    rng = np.random.default_rng(6)
    controls = rng.normal(size=(10, 2, 1))
    qs = mech.integrate(L, F, np.zeros(1), np.array([0.05]), 10, controls=controls)
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
