"""Ready-made systems and running costs."""

import numpy as np
import pytest
from models import Quadratic

from discvar import lie, mech, systems
from discvar.errors import DimensionMismatch
from discvar.systems import (
    HeavyTopPotential,
    L2Cost,
    SmoothedL1Cost,
    UuvParams,
    make_point_mass,
    make_rigid_body_so3,
    make_uuv_system,
)


# ---------------------------------------------------------------------------
# running costs
# ---------------------------------------------------------------------------

def test_l2_cost_values_and_grads():
    rng = np.random.default_rng(0)
    cost = L2Cost()
    u = rng.normal(size=4)
    assert abs(cost.value(u) - 0.5 * u @ u) < 1e-15
    assert np.array_equal(cost.grad(u), u)
    U = rng.normal(size=(7, 4))
    assert np.max(np.abs(cost.value_batch(U) - 0.5 * np.sum(U * U, axis=1))) < 1e-15
    assert np.array_equal(cost.grad_batch(U), U)


@pytest.mark.parametrize("eps", [1e-2, 1e-4])
def test_smoothed_l1_approaches_the_l1_norm(eps):
    rng = np.random.default_rng(1)
    cost = SmoothedL1Cost(eps=eps)
    U = rng.normal(size=(50, 5))
    gap = cost.value_batch(U) - np.sum(np.abs(U), axis=1)
    assert np.all(gap >= 0.0)
    assert np.max(gap) <= 5 * eps


def test_smoothed_l1_grad_matches_finite_differences():
    rng = np.random.default_rng(2)
    cost = SmoothedL1Cost(eps=1e-2, u_min=-1.0, u_max=1.0)
    u = rng.normal(size=3)
    g = cost.grad(u)
    step = 1e-7
    for j in range(3):
        up, um = u.copy(), u.copy()
        up[j] += step
        um[j] -= step
        fd = (cost.value(up) - cost.value(um)) / (2.0 * step)
        assert abs(g[j] - fd) < 1e-6


def _hessian_of_grad_by_differences(cost, U, step=1e-6):
    cols = []
    for e in np.eye(U.shape[-1]):
        cols.append((cost.grad_batch(U + step * e) - cost.grad_batch(U - step * e))
                    / (2.0 * step))
    return np.stack(cols, axis=-1)


def test_l2_cost_hessian_is_the_identity():
    U = np.random.default_rng(3).normal(size=(7, 4))
    H = L2Cost().hess_batch(U)
    assert H.shape == (7, 4, 4)
    assert np.max(np.abs(H - _hessian_of_grad_by_differences(L2Cost(), U))) < 1e-9
    assert np.array_equal(H, np.broadcast_to(np.eye(4), (7, 4, 4)))
    # a read-only view of one identity, the same at every call of a shape
    assert not H.flags.writeable and L2Cost().hess_batch(U) is H


def test_smoothed_l1_hessian_matches_differences_of_the_gradient():
    cost = SmoothedL1Cost(eps=1e-2, u_min=-1.0, u_max=1.0, weight=100.0)
    # inside the box, above u_max and below u_min, away from the kinks
    U = np.array([[0.3, -0.05, 0.7], [1.4, 0.02, -0.4], [-1.6, 0.9, 1.2]])
    H = cost.hess_batch(U)
    H_fd = _hessian_of_grad_by_differences(cost, U)
    assert np.max(np.abs(H - H_fd)) < 1e-6 * np.max(np.abs(H_fd))
    # the penalty adds 2 weight; the smoothing alone stays below 1/eps
    active = (U > 1.0) | (U < -1.0)
    assert np.all(np.diagonal(H, axis1=-2, axis2=-1)[active] > 200.0)
    assert np.all(np.diagonal(H, axis1=-2, axis2=-1)[~active] <= 100.0)


def test_smoothed_l1_bound_penalty():
    cost = SmoothedL1Cost(eps=1e-3, u_min=-1.0, u_max=1.0, weight=100.0)
    inside = cost.value(np.array([0.5]))
    outside = cost.value(np.array([1.5]))
    assert outside - inside > 100.0 * 0.25 - 1.1  # quadratic penalty dominates
    # gradient points back into the box
    assert cost.grad(np.array([1.5]))[0] > 50.0
    assert cost.grad(np.array([-1.5]))[0] < -50.0


def test_smoothed_l1_requires_positive_eps():
    with pytest.raises(DimensionMismatch):
        SmoothedL1Cost(eps=0.0)


# ---------------------------------------------------------------------------
# underwater vehicle
# ---------------------------------------------------------------------------

def test_uuv_inertia_frozen_values():
    p = UuvParams()
    ix = 0.5 * 3.0 * 0.1**2
    iyz = 3.0 * (3.0 * 0.1**2 + 0.6**2) / 12.0
    assert np.max(np.abs(p.inertia - np.diag([ix, iyz, iyz, 3.0, 3.0, 3.0]))) == 0.0


def test_uuv_control_matrix_frozen_rows():
    p = UuvParams()
    c, d, s = 0.3, 0.3, np.sin(np.pi / 3.0)
    B = p.control_matrix
    assert np.array_equal(B[0], [0.0, 0.0, 0.0, -d, d])
    assert np.array_equal(B[1], [c / 2.0, c / 2.0, -c, 0.0, 0.0])
    assert np.array_equal(B[2], [-c * s, c * s, 0.0, 0.0, 0.0])
    assert np.array_equal(B[3], [1.0, 1.0, 1.0, 0.0, 0.0])
    assert np.array_equal(B[4], [0.0, 0.0, 0.0, 1.0, 1.0])
    assert np.array_equal(B[5], np.zeros(5))


def test_uuv_single_thruster_force_example():
    # thruster 4 alone: unit surge-plane force offset by the moment arm d
    p = UuvParams()
    u = np.array([0.0, 0.0, 0.0, 1.0, 0.0])
    # at rest the drag drift vanishes and the force is B u
    f = p.control_matrix @ u + make_uuv_system(p).drift_values(np.zeros(6))
    assert np.max(np.abs(f - np.array([-0.3, 0.0, 0.0, 0.0, 1.0, 0.0]))) < 1e-15


def test_uuv_drag_drift_direction():
    # drag opposes motion: the drift covector paired with the velocity is
    # negative for every nonzero velocity
    p = UuvParams()
    system = make_uuv_system(p)
    rng = np.random.default_rng(3)
    for _ in range(10):
        xi = rng.normal(size=6)
        z = 0.1 * xi
        assert float(system.drift_values(z) @ z) < 0.0
    # and matches H z componentwise
    z = rng.normal(size=6)
    assert np.max(np.abs(system.drift_values(z) - p.drag @ z)) < 1e-14


def test_uuv_system_structure():
    system = make_uuv_system()
    assert system.group.name == "SE3"
    assert system.unactuated == (5,)
    assert system.m == 5
    assert system.has_drift


def test_uuv_control_basis_has_five_thrusters():
    assert make_uuv_system().control_basis.shape == (6, 5)


def test_uuv_params_validation():
    with pytest.raises(DimensionMismatch):
        UuvParams(drag=np.eye(6))  # positive definite, not admissible
    with pytest.raises(DimensionMismatch):
        UuvParams(drag=-np.eye(3))


# ---------------------------------------------------------------------------
# rigid body factory and heavy-top potential
# ---------------------------------------------------------------------------

def test_rigid_body_factory_structure():
    system = make_rigid_body_so3((1.0, 2.0, 3.0), actuated=(0, 2))
    assert np.array_equal(system.inertia, np.diag([1.0, 2.0, 3.0]))
    assert system.unactuated == (1,)
    assert np.array_equal(system.control_basis,
                          np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]]))
    full = make_rigid_body_so3(np.eye(3))
    assert full.unactuated == (2,)  # default actuated axes are (0, 1)
    # no actuated axis: a body without controls, which simulate can march
    free = make_rigid_body_so3(np.eye(3), actuated=())
    assert free.unactuated == (0, 1, 2) and free.control_basis.shape == (3, 0)


def test_heavy_top_left_grad_matches_finite_differences():
    pot = HeavyTopPotential(mgl=1.3)
    group = lie.so3(lie.EXPONENTIAL)
    rng = np.random.default_rng(4)
    R = group.tau(rng.normal(size=3))
    g = pot.left_grad(R)
    step = 1e-6
    for j in range(3):
        e = np.zeros(3)
        e[j] = step
        fd = (pot.value(R @ group.tau(e)) - pot.value(R @ group.tau(-e))) / (2.0 * step)
        assert abs(g[j] - fd) < 1e-8


def test_heavy_top_batched():
    pot = HeavyTopPotential()
    group = lie.so3()
    Rs = group.tau(np.random.default_rng(5).normal(size=(4, 3)))
    vals = pot.value(Rs)
    grads = pot.left_grad(Rs)
    assert vals.shape == (4,) and grads.shape == (4, 3)
    for i in range(4):
        assert abs(vals[i] - pot.value(Rs[i])) < 1e-15
        assert np.max(np.abs(grads[i] - pot.left_grad(Rs[i]))) < 1e-15


# ---------------------------------------------------------------------------
# point mass factory
# ---------------------------------------------------------------------------

def test_point_mass_conventions():
    L, F = make_point_mass(2, mass=1.5, h=0.1)
    assert np.array_equal(L.mass, 1.5 * np.eye(2))
    assert np.array_equal(F.b_minus, 0.05 * np.eye(2))
    L2, F2 = make_point_mass(2, h=0.1, force_convention="identity")
    assert np.array_equal(F2.b_minus, np.eye(2))
    with pytest.raises(DimensionMismatch):
        make_point_mass(2, force_convention="midpoint")


def test_point_mass_with_potential():
    L, _ = make_point_mass(1, h=0.05, potential=Quadratic())
    q = np.array([0.7])
    assert abs(L.V(q) - 0.245) < 1e-15
    assert np.max(np.abs(L.V_x(q) - q)) < 1e-15
