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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import DimensionMismatch, NoConvergence, SingularJacobian, StepSolveFailed
from .solvers import ResidualSystem, newton


def _fd_grad(fun, x, step=1e-6):
    """Central finite-difference gradient, step 1e-6 * (1 + |x_j|)."""
    x = np.asarray(x, dtype=float)
    g = np.empty(x.size)
    for j in range(x.size):
        h = step * (1.0 + abs(x[j]))
        xp, xm = x.copy(), x.copy()
        xp[j] += h
        xm[j] -= h
        g[j] = (fun(xp) - fun(xm)) / (2.0 * h)
    return g


@dataclass
class RnLagrangian:
    """Mechanical Lagrangian (1/2) v^T M v - V(q) plus a time step h.

    ``potential_grad``/``potential_hess`` may be omitted; finite differences
    are used as a fallback.
    """

    mass: np.ndarray
    h: float
    potential: Optional[Callable] = None
    potential_grad: Optional[Callable] = None
    potential_hess: Optional[Callable] = None

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
        # fails loudly right away if M is singular
        self.mass_inv = np.linalg.inv(self.mass)

    @property
    def dim(self):
        return self.mass.shape[0]

    def V(self, q):
        return 0.0 if self.potential is None else float(self.potential(q))

    def V_x(self, q):
        if self.potential is None:
            return np.zeros(self.dim)
        if self.potential_grad is not None:
            return np.asarray(self.potential_grad(q), dtype=float)
        return _fd_grad(self.V, q)

    def V_xx(self, q):
        if self.potential is None:
            return np.zeros((self.dim, self.dim))
        if self.potential_hess is not None:
            return np.atleast_2d(np.asarray(self.potential_hess(q), dtype=float))
        # symmetrized finite difference of the gradient
        q = np.asarray(q, dtype=float)
        H = np.empty((self.dim, self.dim))
        for j in range(self.dim):
            s = 1e-6 * (1.0 + abs(q[j]))
            qp, qm = q.copy(), q.copy()
            qp[j] += s
            qm[j] -= s
            H[:, j] = (self.V_x(qp) - self.V_x(qm)) / (2.0 * s)
        return 0.5 * (H + H.T)

    # -- trapezoidal discrete Lagrangian and its slot derivatives ---------

    def ld(self, qa, qb):
        d = np.asarray(qb, dtype=float) - np.asarray(qa, dtype=float)
        return float(
            d @ self.mass @ d / (2.0 * self.h)
            - (self.h / 2.0) * (self.V(qa) + self.V(qb))
        )

    def d1(self, qa, qb):
        d = np.asarray(qb, dtype=float) - np.asarray(qa, dtype=float)
        return -self.mass @ d / self.h - (self.h / 2.0) * self.V_x(qa)

    def d2(self, qa, qb):
        d = np.asarray(qb, dtype=float) - np.asarray(qa, dtype=float)
        return self.mass @ d / self.h - (self.h / 2.0) * self.V_x(qb)

    def d11(self, qa, qb):
        return self.mass / self.h - (self.h / 2.0) * self.V_xx(qa)

    def d12(self, qa, qb):
        return -self.mass / self.h

    def d21(self, qa, qb):
        return -self.mass / self.h

    def d22(self, qa, qb):
        return self.mass / self.h - (self.h / 2.0) * self.V_xx(qb)


@dataclass
class DiscreteForcePairRn:
    """Per-interval discrete force pair, affine in the control:

        f^-(q_a, q_b, u) = a^-(q_a, q_b) + B^- u
        f^+(q_a, q_b, u) = a^+(q_a, q_b) + B^+ u

    ``b_minus``/``b_plus`` are constant (n, m) matrices; the drift callables
    return covectors in R^n and default to zero.
    """

    b_minus: np.ndarray
    b_plus: np.ndarray
    a_minus: Callable = field(default=None)
    a_plus: Callable = field(default=None)

    def __post_init__(self):
        self.b_minus = np.atleast_2d(np.asarray(self.b_minus, dtype=float))
        self.b_plus = np.atleast_2d(np.asarray(self.b_plus, dtype=float))
        if self.b_minus.shape != self.b_plus.shape:
            raise DimensionMismatch("B^- and B^+ must have matching shapes")
        self.zero_drift_minus = self.a_minus is None
        self.zero_drift_plus = self.a_plus is None
        if self.a_minus is None:
            self.a_minus = lambda qa, qb: np.zeros(self.dim)
        if self.a_plus is None:
            self.a_plus = lambda qa, qb: np.zeros(self.dim)

    @property
    def dim(self):
        return self.b_minus.shape[0]

    @property
    def control_dim(self):
        return self.b_minus.shape[1]

    def f_minus(self, qa, qb, u):
        return np.asarray(self.a_minus(qa, qb), dtype=float) + self.b_minus @ np.asarray(u, dtype=float)

    def f_plus(self, qa, qb, u):
        return np.asarray(self.a_plus(qa, qb), dtype=float) + self.b_plus @ np.asarray(u, dtype=float)

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


# floor of the step tolerance, per unit of |M q| / h: a few rounding units
_STEP_ROUNDING = 16.0 * np.finfo(float).eps


def integrate(lagrangian, forces, q0, q1, steps, controls=None, tol=1e-12):
    """March the forced discrete Euler-Lagrange equation forward.

    ``controls`` has shape (steps, 2, m): controls[k] = (u_k^-, u_k^+) for
    the interval [q_k, q_{k+1}].  Returns positions of shape (steps + 1, n).
    The first interval [q0, q1] is part of the initial data, so ``steps``
    counts the intervals including that one.

    ``tol`` bounds the max-abs DEL residual of each step, but never below a
    few rounding units of the momentum terms M q / h: the difference
    quotients lose eps |q| / h each, so far from the origin an absolute 1e-12
    could not be met.
    """
    n = lagrangian.dim
    q0 = np.asarray(q0, dtype=float)
    q1 = np.asarray(q1, dtype=float)
    if controls is None:
        controls = np.zeros((steps, 2, forces.control_dim))
    controls = np.asarray(controls, dtype=float)
    if controls.shape != (steps, 2, forces.control_dim):
        raise DimensionMismatch("controls must have shape (steps, 2, m)")
    qs = np.empty((steps + 1, n))
    qs[0], qs[1] = q0, q1
    # 16 eps |M q_k|_inf / h <= rounding_per_q * |q_k|_inf
    rounding_per_q = (_STEP_ROUNDING / lagrangian.h
                      * np.max(np.sum(np.abs(lagrangian.mass), axis=1)))
    for k in range(1, steps):
        q_prev, q_k = qs[k - 1], qs[k]
        step_tol = max(tol, rounding_per_q * np.max(np.abs(q_k)))
        u_prev_plus = controls[k - 1, 1]
        u_k_minus = controls[k, 0]

        def res(q_next):
            return forced_del_residual(
                lagrangian, forces, q_prev, q_k, q_next, u_prev_plus, u_k_minus
            )

        def jac(q_next):
            # d/dq_next of D1 Ld(q_k, q_next); drift terms, if any, are mild
            # enough that the quasi-Newton iteration still contracts
            return lagrangian.d12(q_k, q_next)

        system = ResidualSystem(dim=n, eval=res, jacobian=jac)
        try:
            q_next, _ = newton(system, 2.0 * q_k - q_prev, tol=step_tol, max_iter=50)
        except (NoConvergence, SingularJacobian) as exc:
            raise StepSolveFailed(k, f"step {k}: {exc}") from exc
        qs[k + 1] = q_next
    return qs


def node_momenta(lagrangian, forces, qs, controls=None):
    """Momentum p_k at every node of a discrete path via the Legendre pairs.

    Interior nodes use the interval to their right (consistency with the
    interval to the left holds exactly on solutions of the forced equations).
    """
    qs = np.asarray(qs, dtype=float)
    N = qs.shape[0] - 1
    if controls is None:
        controls = np.zeros((N, 2, forces.control_dim))
    ps = np.empty_like(qs)
    for k in range(N):
        p_a, p_b = legendre_pair(
            lagrangian, forces, qs[k], qs[k + 1], controls[k, 0], controls[k, 1]
        )
        ps[k] = p_a
        if k == N - 1:
            ps[N] = p_b
    return ps
