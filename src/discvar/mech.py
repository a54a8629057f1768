"""Forced discrete mechanics on R^n with the trapezoidal discrete Lagrangian.

The discrete Lagrangian over one interval [q_a, q_b] of length h is

    Ld(q_a, q_b) = (1/(2h)) (q_b - q_a)^T M (q_b - q_a)
                   - (h/2) (V(q_a) + V(q_b))

Discrete control forces come in per-interval pairs (f^-, f^+); the forced
discrete Euler-Lagrange equation at an interior node k reads

    D2 Ld(q_{k-1}, q_k) + D1 Ld(q_k, q_{k+1}) + f^+_{k-1} + f^-_k = 0

and the two discrete Legendre transforms with forces give the momenta

    p_k     = -D1 Ld(q_k, q_{k+1}) - f^-_k
    p_{k+1} =  D2 Ld(q_k, q_{k+1}) + f^+_k

The potential and the drifts are models that supply their own derivatives
(``RnLagrangian``, ``DiscreteForcePairRn``), batched over leading axes, so
nothing here is differenced.  ``tboc`` builds its optimality conditions from
these slot derivatives.

``integrate`` marches the forced equation forward.  R^n is the abelian case
of the group march, so it runs ``lgoc.integrate_reduced`` on
``lie.real_n(n)``, whose march has neither drifts nor B^- != B^+.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import lgoc, lie, solvers
from .errors import (POTENTIAL_METHODS, ConfigError, DimensionMismatch, NotInvertible,
                     require_methods)


@dataclass
class RnLagrangian:
    """Mechanical Lagrangian (1/2) v^T M v - V(q) plus a time step h.

    The slot derivatives d1..d22 take one interval (q_a, q_b of shape (n,))
    or a batch of intervals along leading axes.  ``potential`` is None or a
    model of V with the methods a group's potential has, each batched over
    leading axes: value(q), left_grad(q) (n,), left_hess(q) (n, n) and
    left_curvature(q, w) (n, n), the third derivative along w.  On R^n the
    left translation is q + s, so these are the gradient, the Hessian and
    D^3 V(q)[w]; a potential without one of them raises ConfigError.
    """

    mass: np.ndarray
    h: float
    potential: Optional[object] = None

    def __post_init__(self):
        self.mass = np.atleast_2d(np.asarray(self.mass, dtype=float))
        n = self.mass.shape[0]
        if self.mass.shape != (n, n):
            raise DimensionMismatch("mass matrix must be square")
        if np.max(np.abs(self.mass - self.mass.T)) > 1e-12 * (
            1.0 + np.max(np.abs(self.mass))
        ):
            raise DimensionMismatch("mass matrix must be symmetric")
        if self.h <= 0:
            raise DimensionMismatch("time step must be positive")
        try:
            np.linalg.cholesky(self.mass)
        except np.linalg.LinAlgError:
            raise NotInvertible("mass matrix must be positive definite") from None
        self.mass_inv = np.linalg.inv(self.mass)
        if self.potential is not None:
            require_methods(self.potential, POTENTIAL_METHODS, "a potential")

    @property
    def dim(self):
        return self.mass.shape[0]

    def V(self, q):
        return 0.0 if self.potential is None else float(self.potential.value(q))

    # a scalar 0.0 leaves d1, d2, d11, d22 bitwise as zero arrays would
    def V_x(self, q):
        if self.potential is None:
            return 0.0
        return np.asarray(self.potential.left_grad(q), dtype=float)

    def V_xx(self, q):
        if self.potential is None:
            return 0.0
        return np.asarray(self.potential.left_hess(q), dtype=float)

    def V_xxx(self, q, w):
        """D^3 V(q)[w] = d/dt V_xx(q + t w) at t = 0, for one point or a
        batch: the potential's ``left_curvature``.  A scalar zero without a
        potential."""
        if self.potential is None:
            return 0.0
        return np.asarray(self.potential.left_curvature(q, w), dtype=float)

    # -- trapezoidal discrete Lagrangian and its slot derivatives ---------

    def ld(self, qa, qb):
        d = np.asarray(qb, dtype=float) - np.asarray(qa, dtype=float)
        return float(
            d @ self.mass @ d / (2.0 * self.h)
            - (self.h / 2.0) * (self.V(qa) + self.V(qb))
        )

    # d @ M^T is the sum M d takes; M is symmetric only to 1e-12
    def d1(self, qa, qb):
        d = np.asarray(qb, dtype=float) - np.asarray(qa, dtype=float)
        return -d @ self.mass.T / self.h - (self.h / 2.0) * self.V_x(qa)

    def d2(self, qa, qb):
        d = np.asarray(qb, dtype=float) - np.asarray(qa, dtype=float)
        return d @ self.mass.T / self.h - (self.h / 2.0) * self.V_x(qb)

    def d11(self, qa, qb):
        return self.mass / self.h - (self.h / 2.0) * self.V_xx(qa)

    def d12(self, qa, qb):
        return -self.mass / self.h

    def d21(self, qa, qb):
        return -self.mass / self.h

    def d22(self, qa, qb):
        return self.mass / self.h - (self.h / 2.0) * self.V_xx(qb)


# the methods of a drift a^-+ on R^n
_DRIFT_METHODS = ("__call__", "jacobians", "curvature")


@dataclass
class DiscreteForcePairRn:
    """Per-interval discrete force pair, affine in the control:

        f^-(q_a, q_b, u) = a^-(q_a, q_b) + B^- u
        f^+(q_a, q_b, u) = a^+(q_a, q_b) + B^+ u

    ``b_minus``/``b_plus`` are constant (n, m) matrices.  Each drift a^-+ is
    None (a scalar zero) or a model with three methods, batched over the
    leading axes of (q_a, q_b): ``a(qa, qb)``, the covector in R^n;
    ``a.jacobians(qa, qb)``, the pair (da/dq_a, da/dq_b) of (n, n)
    matrices; and ``a.curvature(qa, qb, v)``, the (2n, 2n) Hessian of v . a
    in (q_a, q_b).  A drift without one of them raises ConfigError.  The
    methods below take one interval or a batch.
    """

    b_minus: np.ndarray
    b_plus: np.ndarray
    a_minus: Optional[Callable] = None
    a_plus: Optional[Callable] = None

    def __post_init__(self):
        self.b_minus = np.atleast_2d(np.asarray(self.b_minus, dtype=float))
        self.b_plus = np.atleast_2d(np.asarray(self.b_plus, dtype=float))
        if self.b_minus.shape != self.b_plus.shape:
            raise DimensionMismatch("B^- and B^+ must have matching shapes")
        for name, a in (("a_minus", self.a_minus), ("a_plus", self.a_plus)):
            if a is not None:
                require_methods(a, _DRIFT_METHODS, f"the drift {name}")

    @property
    def dim(self):
        return self.b_minus.shape[0]

    @property
    def control_dim(self):
        return self.b_minus.shape[1]

    def drift(self, which, qa, qb):
        """a^- (``which`` "-") or a^+ at (q_a, q_b)."""
        a = self.a_minus if which == "-" else self.a_plus
        return 0.0 if a is None else np.asarray(a(qa, qb), dtype=float)

    def drift_jacobians(self, which, qa, qb):
        """d a / d(q_a, q_b), the drift's ``jacobians``; scalar zeros without
        a drift."""
        a = self.a_minus if which == "-" else self.a_plus
        if a is None:
            return 0.0, 0.0
        return tuple(np.asarray(J, dtype=float) for J in a.jacobians(qa, qb))

    def drift_curvature(self, which, qa, qb, v):
        """Hessian of v . a(q_a, q_b) in (q_a, q_b), shape (2n, 2n) per
        interval, the drift's ``curvature``; a scalar zero without a drift."""
        a = self.a_minus if which == "-" else self.a_plus
        if a is None:
            return 0.0
        return np.asarray(a.curvature(qa, qb, v), dtype=float)

    def f_minus(self, qa, qb, u):
        return self.drift("-", qa, qb) + np.asarray(u, dtype=float) @ self.b_minus.T

    def f_plus(self, qa, qb, u):
        return self.drift("+", qa, qb) + np.asarray(u, dtype=float) @ self.b_plus.T

    @classmethod
    def identity(cls, n):
        """f^{+-} = u, the raw-control convention."""
        return cls(np.eye(n), np.eye(n))

    @classmethod
    def trapezoidal(cls, n, h):
        """f^{+-} = (h/2) u: each half-interval carries half the impulse."""
        return cls((h / 2.0) * np.eye(n), (h / 2.0) * np.eye(n))


def forced_del_residual(lagrangian, forces, q_prev, q_k, q_next,
                        u_prev_plus, u_k_minus):
    """Residual of the forced discrete Euler-Lagrange equation at one node."""
    return (
        lagrangian.d2(q_prev, q_k)
        + lagrangian.d1(q_k, q_next)
        + forces.f_plus(q_prev, q_k, u_prev_plus)
        + forces.f_minus(q_k, q_next, u_k_minus)
    )


def legendre_pair(lagrangian, forces, q_a, q_b, u_minus, u_plus):
    """Momenta (p_a, p_b) at both ends of an interval, with forcing."""
    p_a = -lagrangian.d1(q_a, q_b) - forces.f_minus(q_a, q_b, u_minus)
    p_b = lagrangian.d2(q_a, q_b) + forces.f_plus(q_a, q_b, u_plus)
    return p_a, p_b


# the benchmark's traced runs wrap ``mech.newton`` by name; no path here
# calls it, and it goes once they stop naming it
newton = solvers.newton


def integrate(lagrangian, forces, q0, q1, steps, controls=None):
    """March the forced discrete Euler-Lagrange equation forward.

    ``controls`` has shape (steps, 2, m): controls[k] = (u_k^-, u_k^+) for
    the interval [q_k, q_{k+1}].  Returns positions of shape (steps + 1, n).
    The first interval [q0, q1] is part of the initial data, so ``steps``
    counts the intervals including that one; ``steps`` < 1, or a q0 or q1
    not of length n, raises DimensionMismatch.

    R^n is the abelian case of the group march, so this is
    ``lgoc.integrate_reduced`` on ``lie.real_n(n)``: with the velocities
    xi_k = (q_{k+1} - q_k) / h, the DEL at node k is

        M xi_k - M xi_{k-1} - B (u^+_{k-1} + u^-_k) + h grad V(q_k) = 0,

    the group march's momentum equation with inertia M, control basis
    (2/h) B and the Lagrangian's potential, from g_0 = q0 and xi_0 = (q1 -
    q0) / h.  Its windows, their step tolerance and their floor are the
    group march's, and the positions are its path, q_{k+1} = q_k + h xi_k.
    A step that its window does not solve raises StepSolveFailed with its
    index.  B is a control basis as ``lgoc.ReducedSystem`` takes one: of
    rank m, its zero rows the unactuated coordinates, n - m of them.

    That march has no drift a^-+(q_a, q_b) and one control basis for both
    ends, so forces with a drift, or with B^- != B^+, raise ConfigError;
    ``tboc`` keeps both.
    """
    n = lagrangian.dim
    q0 = np.asarray(q0, dtype=float)
    q1 = np.asarray(q1, dtype=float)
    if q0.shape != (n,) or q1.shape != (n,):
        raise DimensionMismatch(f"q0 and q1 must have length {n}, got shapes "
                                f"{q0.shape} and {q1.shape}")
    if forces.a_minus is not None or forces.a_plus is not None:
        raise ConfigError("mech.integrate marches without drifts: the group march on "
                          "R^n has no force a^-+(q_a, q_b)")
    if not np.array_equal(forces.b_minus, forces.b_plus):
        raise ConfigError("mech.integrate needs B^- == B^+: the group march on R^n "
                          "has one control basis")
    h = lagrangian.h
    B = forces.b_plus
    system = lgoc.ReducedSystem(lie.real_n(n), lagrangian.mass, (2.0 / h) * B,
                                unactuated=np.flatnonzero(~B.any(axis=1)),
                                potential=lagrangian.potential)
    return lgoc.integrate_reduced(system, q0, (q1 - q0) / h, h, steps, controls)[0]


def node_momenta(lagrangian, forces, qs, controls=None):
    """Momentum p_k at every node of a discrete path via the Legendre pairs.

    Interior nodes use the interval to their right (consistency with the
    interval to the left holds exactly on solutions of the forced equations).
    """
    qs = np.asarray(qs, dtype=float)
    if controls is None:
        controls = np.zeros((qs.shape[0] - 1, 2, forces.control_dim))
    p_a, p_b = legendre_pair(lagrangian, forces, qs[:-1], qs[1:],
                             controls[:, 0], controls[:, 1])
    return np.concatenate([p_a, p_b[-1:]])
