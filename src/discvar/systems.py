"""Ready-made systems and running costs.

* an underwater vehicle on SE(3) with five thrusters and linear drag,
* a rigid body on SO(3) with a configurable set of body-torque axes,
* a point mass (or general mechanical system) on R^n.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import lie, lgoc, mech
from .errors import DimensionMismatch


# ---------------------------------------------------------------------------
# running costs (control effort per interval endpoint)
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=16)
def _identities(shape):
    """A read-only stack of identities of the shape (..., m, m), a broadcast
    view of one identity, formed once per shape: a solve asks for the same
    one or two shapes at every Jacobian build.  Read-only, so the callers
    can share it."""
    return np.broadcast_to(np.eye(shape[-1]), shape)


class L2Cost:
    """C(u) = (1/2) |u|^2."""

    def value(self, u):
        u = np.asarray(u, dtype=float)
        return 0.5 * float(u @ u)

    def grad(self, u):
        return np.asarray(u, dtype=float).copy()

    def value_batch(self, U):
        U = np.asarray(U, dtype=float)
        return 0.5 * np.einsum("...i,...i->...", U, U)

    def grad_batch(self, U):
        return np.asarray(U, dtype=float).copy()

    def hess_batch(self, U):
        """The identity for every control vector, (..., m, m): a read-only
        view of one identity (``_identities``)."""
        shape = np.shape(U)
        return _identities(shape + shape[-1:])


class SmoothedL1Cost:
    """C(u) = sum_i sqrt(u_i^2 + eps^2), plus a quadratic penalty on bounds.

    The penalty term weight * sum_i (max(0, u_i - u_max)^2 +
    max(0, u_min - u_i)^2) keeps box bounds soft but stiff.
    """

    def __init__(self, eps=1e-4, u_min=None, u_max=None, weight=1e3):
        if eps <= 0:
            raise DimensionMismatch("smoothing eps must be positive")
        self.eps = float(eps)
        self.u_min = None if u_min is None else np.asarray(u_min, dtype=float)
        self.u_max = None if u_max is None else np.asarray(u_max, dtype=float)
        self.weight = float(weight)

    def value_batch(self, U):
        U = np.asarray(U, dtype=float)
        out = np.sum(np.sqrt(U * U + self.eps**2), axis=-1)
        if self.u_max is not None:
            out = out + self.weight * np.sum(np.maximum(0.0, U - self.u_max) ** 2, axis=-1)
        if self.u_min is not None:
            out = out + self.weight * np.sum(np.maximum(0.0, self.u_min - U) ** 2, axis=-1)
        return out

    def grad_batch(self, U):
        U = np.asarray(U, dtype=float)
        g = U / np.sqrt(U * U + self.eps**2)
        if self.u_max is not None:
            g = g + 2.0 * self.weight * np.maximum(0.0, U - self.u_max)
        if self.u_min is not None:
            g = g - 2.0 * self.weight * np.maximum(0.0, self.u_min - U)
        return g

    def hess_batch(self, U):
        """Diagonal Hessians (..., m, m): eps^2 / (u_i^2 + eps^2)^(3/2), plus
        2 weight where a soft bound is violated."""
        U = np.asarray(U, dtype=float)
        d = self.eps**2 / (U * U + self.eps**2) ** 1.5
        if self.u_max is not None:
            d = d + 2.0 * self.weight * (U > self.u_max)
        if self.u_min is not None:
            d = d + 2.0 * self.weight * (U < self.u_min)
        return d[..., None] * np.eye(U.shape[-1])

    def value(self, u):
        return float(self.value_batch(np.asarray(u, dtype=float)))

    def grad(self, u):
        return self.grad_batch(np.asarray(u, dtype=float))


# ---------------------------------------------------------------------------
# underwater vehicle on SE(3)
# ---------------------------------------------------------------------------

@dataclass
class UuvParams:
    """Cylindrical vehicle with five thrusters.

    mass            kg
    radius, length  cylinder geometry (axis along body x), m
    c, d            thruster moment arms, m
    drag            (6, 6) drag coefficient matrix H (negative definite);
                    the drift covector is H tau^-1(W)
    """

    mass: float = 3.0
    radius: float = 0.1
    length: float = 0.6
    c: float = 0.3
    d: float = 0.3
    drag: np.ndarray = field(
        default_factory=lambda: -0.1 * np.diag([1.0, 1.0, 1.0, 2.0, 2.0, 2.0])
    )

    def __post_init__(self):
        self.drag = np.asarray(self.drag, dtype=float)
        if self.drag.shape != (6, 6):
            raise DimensionMismatch("drag matrix must be 6x6")
        sym = 0.5 * (self.drag + self.drag.T)
        if np.max(np.linalg.eigvalsh(sym)) >= 0.0:
            raise DimensionMismatch("drag matrix must be negative definite")

    @property
    def inertia(self):
        ix = 0.5 * self.mass * self.radius**2
        iyz = self.mass * (3.0 * self.radius**2 + self.length**2) / 12.0
        return np.diag([ix, iyz, iyz, self.mass, self.mass, self.mass])

    @property
    def control_matrix(self):
        """(6, 5) map from thruster intensities to covector coordinates."""
        c, d = self.c, self.d
        s = np.sin(np.pi / 3.0)
        B = np.zeros((6, 5))
        B[0] = [0.0, 0.0, 0.0, -d, d]
        B[1] = [c / 2.0, c / 2.0, -c, 0.0, 0.0]
        B[2] = [-c * s, c * s, 0.0, 0.0, 0.0]
        B[3] = [1.0, 1.0, 1.0, 0.0, 0.0]
        B[4] = [0.0, 0.0, 0.0, 1.0, 1.0]
        return B


def make_uuv_system(params=None, retraction=lie.CAYLEY):
    """ReducedSystem for the vehicle; heave translation (e6) is unactuated.
    The drag is its linear drift: the matrix H, acting as H z."""
    if params is None:
        params = UuvParams()
    return lgoc.ReducedSystem(
        group=lie.se3(retraction),
        inertia=params.inertia,
        control_basis=params.control_matrix,
        unactuated=(5,),
        drift=params.drag.copy(),
    )


# ---------------------------------------------------------------------------
# rigid body on SO(3)
# ---------------------------------------------------------------------------

def make_rigid_body_so3(inertia, actuated=(0, 1), retraction=lie.CAYLEY,
                        potential=None):
    """Rigid body with unit torque authority about the given body axes."""
    inertia = np.asarray(inertia, dtype=float)
    if inertia.ndim == 1:
        inertia = np.diag(inertia)
    actuated = tuple(sorted(int(i) for i in actuated))
    B = np.zeros((3, len(actuated)))
    for col, axis in enumerate(actuated):
        B[axis, col] = 1.0
    unactuated = tuple(i for i in range(3) if i not in actuated)
    return lgoc.ReducedSystem(
        group=lie.so3(retraction),
        inertia=inertia,
        control_basis=B,
        unactuated=unactuated,
        potential=potential,
    )


# e3, shared by the heavy top's derivatives (read-only)
_E3 = np.array([0.0, 0.0, 1.0])
_E3.flags.writeable = False


class HeavyTopPotential:
    """V(R) = m g l <R e3, e3> for a body-fixed center of mass along e3.

    A potential model: value, left_grad, left_hess and left_curvature, each
    batched over leading axes, as ``lgoc.ReducedSystem`` reads them.  Its
    left derivatives are in closed form.  They depend on the retraction
    only through its first-order term, which all retractions share: moving
    R to R tau(s eta) moves gamma = R^T e3 by s gamma x eta.
    """

    def __init__(self, mgl=1.0):
        self.mgl = float(mgl)

    def value(self, R):
        R = np.asarray(R, dtype=float)
        return self.mgl * R[..., 2, 2]

    def left_grad(self, R):
        # d/ds V(R tau(s eta)) = mgl e3^T R hat(eta) e3 = mgl (e3 x R^T e3).eta
        R = np.asarray(R, dtype=float)
        gamma = R[..., 2, :]  # R^T e3 in body coordinates
        return self.mgl * np.cross(np.broadcast_to(_E3, gamma.shape), gamma)

    def left_hess(self, R):
        """H[..., :, l] = d/ds left_grad(R tau(s e_l)) at s = 0, that is
        mgl hat(e3) hat(gamma)."""
        gamma = np.asarray(R, dtype=float)[..., 2, :]
        return self.mgl * (lie.hat3(_E3) @ lie.hat3(gamma))

    def left_curvature(self, R, w):
        """T[..., m, l] = d/ds_l (left_hess(R tau(s))^T w)_m at s = 0, the
        third derivative along w: mgl w . (e3 x (e_m x (e_l x gamma))), which
        is mgl (gamma_m u_l - (u . gamma) delta_ml) with u = w x e3."""
        gamma = np.asarray(R, dtype=float)[..., 2, :]
        u = np.cross(np.asarray(w, dtype=float), _E3)
        ug = np.einsum("...i,...i->...", u, gamma)
        return self.mgl * (gamma[..., :, None] * u[..., None, :]
                           - ug[..., None, None] * np.eye(3))


# ---------------------------------------------------------------------------
# point mass / mechanical system on R^n
# ---------------------------------------------------------------------------

def make_point_mass(n, mass=1.0, h=0.1, potential=None, force_convention="trapezoidal"):
    """(RnLagrangian, DiscreteForcePairRn) for a mechanical system on R^n.

    ``potential`` is None or a model of V on R^n with batched value,
    left_grad, left_hess and left_curvature (``mech.RnLagrangian``).
    force_convention "trapezoidal" uses f^{+-} = (h/2) u so that recovered
    controls approximate the continuous force; "identity" uses f^{+-} = u.
    """
    mass = np.asarray(mass, dtype=float)
    if mass.ndim == 0:
        mass = mass * np.eye(n)
    elif mass.ndim == 1:
        mass = np.diag(mass)
    lagrangian = mech.RnLagrangian(mass=mass, h=h, potential=potential)
    if force_convention == "trapezoidal":
        forces = mech.DiscreteForcePairRn.trapezoidal(n, h)
    elif force_convention == "identity":
        forces = mech.DiscreteForcePairRn.identity(n)
    else:
        raise DimensionMismatch(f"unknown force convention {force_convention!r}")
    return lagrangian, forces
