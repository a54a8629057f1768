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
nothing here is differenced.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import (POTENTIAL_METHODS, DimensionMismatch, NoConvergence, NotInvertible,
                     SingularJacobian, StepSolveFailed, require_methods)
from .solvers import march_in_windows, max_abs, newton, plain_system, scan_apply, scan_maps


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


# bound on the max-abs DEL residual of each step, and its floor per unit of
# |M q| / h: a few rounding units
_STEP_TOL = 1e-12
_STEP_ROUNDING = 16.0 * np.finfo(float).eps
# the iteration budget of a lone step's rescue
_STEP_MAX_ITER = 50


def integrate(lagrangian, forces, q0, q1, steps, controls=None):
    """March the forced discrete Euler-Lagrange equation forward.

    ``controls`` has shape (steps, 2, m): controls[k] = (u_k^-, u_k^+) for
    the interval [q_k, q_{k+1}].  Returns positions of shape (steps + 1, n).
    The first interval [q0, q1] is part of the initial data, so ``steps``
    counts the intervals including that one; ``steps`` < 1, or a q0 or q1
    not of length n, raises DimensionMismatch.

    The DEL at node k is solved to an absolute 1e-12, but never below a few
    rounding units of the momentum terms M q / h: the velocities (q_{k+1} -
    q_k) / h lose eps |q| / h each, so far from the origin 1e-12 could not
    be met.
    The residual is assembled from the trapezoidal Lagrangian's closed form,
    not through the slot derivatives,

        r_k = (q_k - q_{k-1}) M^T / h - (q_{k+1} - q_k) M^T / h + f^+_{k-1} + f^-_k
              - h grad V(q_k) + a^+(q_{k-1}, q_k) + a^-(q_k, q_{k+1}),

    with the control forces B^-+ u of the whole march from one product each,
    and only the terms the system has.

    The march solves its steps in windows (``solvers.march_in_windows``):
    the positions q_{k+1}..q_{k+W} of W steps at once, by Newton's method
    (``solvers.window_newton``) from the extrapolation of the last velocity.
    r_k depends on q_{k+1}, q_k and q_{k-1}, so a Newton update is an
    affine recurrence, 2n wide, that a prefix scan solves: the window's
    operator keeps the scan's maps (``solvers.scan_maps``) and is built
    only when ``window_newton`` needs a new one.  It runs in velocity
    coordinates, on the state (dq_{k+1}, e_k) with e_k = dq_{k+1} - dq_k:

        d_next e_k = -r_k - S_k dq_k + d_prev e_{k-1},

    with (d_next, d_mid, d_prev) = d r_k / d(q_{k+1}, q_k, q_{k-1}) and S_k
    = d_next + d_mid + d_prev.  The M / h terms cancel from S_k and from
    d_prev - d_next, which hold only the potential's and the drifts' terms,
    so without either the recurrence's blocks are the exact [[I, I], [0,
    I]]: the operator is then two cumulative sums, e = cumsum(b) and dq =
    cumsum(e) of b_k = d_next^-1 (-r_k), and forms no blocks and no scan.
    Otherwise the blocks take d_next^-1: the factored -M / h, or with a
    drift a^- one batched inverse of d_next = -M / h + d a^-/d q_{k+1}.
    The drifts' Jacobians are their ``jacobians``, read only when an
    operator is built, and the potential's Hessian is the Lagrangian's
    ``V_xx``.  A DEL whose drifts and potential gradient are affine, as the
    point mass's, is linear: one update solves a window, to a few
    hundredths of the tolerance on the benchmark's point mass.

    A window that does not converge is halved, and one whose residual is
    not finite is solved step by step.  A step alone is a window of one
    step.  When it is not solved, its rescue is Newton with a line search
    (``newton``) on that window's residual, from the same extrapolation,
    with the constant Jacobian D1 D2 Ld = -M / h; a step that does not
    converge within _STEP_MAX_ITER iterations there raises StepSolveFailed
    with its index.
    """
    n = lagrangian.dim
    if steps < 1:
        raise DimensionMismatch(f"steps must be at least 1, got {steps}")
    q0 = np.asarray(q0, dtype=float)
    q1 = np.asarray(q1, dtype=float)
    if q0.shape != (n,) or q1.shape != (n,):
        raise DimensionMismatch(f"q0 and q1 must have length {n}, got shapes "
                                f"{q0.shape} and {q1.shape}")
    if controls is None:
        controls = np.zeros((steps, 2, forces.control_dim))
    controls = np.asarray(controls, dtype=float)
    if controls.shape != (steps, 2, forces.control_dim):
        raise DimensionMismatch("controls must have shape (steps, 2, m)")
    qs = np.empty((steps + 1, n))
    qs[0], qs[1] = q0, q1
    h = lagrangian.h
    # a velocity term v M^T / h in one product
    Mt_h = lagrangian.mass.T / h
    # 16 eps |M q_k|_inf / h <= rounding_per_q * |q_k|_inf
    rounding_per_q = float(
        _STEP_ROUNDING / h * np.max(np.sum(np.abs(lagrangian.mass), axis=1)))
    # f^+_{k-1} + f^-_k of every node
    control_forces = controls[:-1, 1] @ forces.b_plus.T + controls[1:, 0] @ forces.b_minus.T
    potential = lagrangian.potential is not None
    a_plus, a_minus = forces.a_plus is not None, forces.a_minus is not None
    # without a potential or a drift a window's recurrence has the exact
    # blocks [[I, I], [0, I]]
    exact = not (potential or a_plus or a_minus)
    # d/dq_next of D1 Ld(q_k, q_next), without a drift
    J = lagrangian.d12(q0, q1)
    J_inv = np.linalg.inv(J)

    def rescue(k, x, linearize):
        step_tol = max(_STEP_TOL, rounding_per_q * max_abs(qs[k]))
        system = plain_system(lambda q: linearize(q[None])[1][0], lambda _: J)
        try:
            return newton(system, x[0], tol=step_tol, max_iter=_STEP_MAX_ITER)[0].x[None]
        except (NoConvergence, SingularJacobian) as exc:
            raise StepSolveFailed(k, f"step {k}: {exc}") from exc

    def window(k, size):
        # nodes k..k+size-1 and their neighbours q_{k-1}..q_{k+size}
        u = control_forces[k - 1:k - 1 + size]

        def linearize(X):
            q = np.concatenate([qs[k - 1:k + 1], X])
            q_prev, q_mid, q_next = q[:-2], q[1:-1], q[2:]
            v = (q[1:] - q[:-1]) @ Mt_h
            r = v[:-1] - v[1:] + u
            if potential:
                r -= h * lagrangian.V_x(q_mid)
            if a_plus:
                r += forces.drift("+", q_prev, q_mid)
            if a_minus:
                r += forces.drift("-", q_mid, q_next)
            tol = np.maximum(_STEP_TOL, rounding_per_q * np.max(np.abs(q_mid), axis=1))
            error = np.max(np.abs(r), axis=1) / tol

            def build():
                if exact:
                    # the scan of [[I, I], [0, I]]: e_k = e_{k-1} + b_k and
                    # dq_{k+1} = dq_k + e_k, two cumulative sums of b_k =
                    # d_next^-1 (-r_k); the update of q_{k+1} is dq_{k+1}
                    return lambda res: np.cumsum(np.cumsum(res @ -J_inv.T, axis=0), axis=0)
                # d r_k / d(q_{k+1}, q_k, q_{k-1}) = (d_next, d_mid, d_prev)
                # in the velocity coordinates e_k = dq_{k+1} - dq_k:
                #   d_next e_k = -r_k - S_k dq_k + (d_next + P_k) e_{k-1},
                # S_k = d_next + d_mid + d_prev and P_k = d_prev - d_next.  The
                # -M/h, 2M/h, -M/h of both cancel, so they hold only the
                # potential's and the drifts' terms
                G, S, P = J_inv[None], 0.0, 0.0
                if potential:
                    S = S - h * lagrangian.V_xx(q_mid)
                if a_plus:
                    da, db = forces.drift_jacobians("+", q_prev, q_mid)
                    S, P = S + da + db, P + da
                if a_minus:
                    da, db = forces.drift_jacobians("-", q_mid, q_next)
                    S, P = S + da + db, P - db
                    G = np.linalg.inv(J + db)
                # the state (dq_{k+1}, e_k) = (dq_k + e_k, e_k), with G =
                # d_next^-1: A = [[I - G S, I + G P], [-G S, I + G P]]
                GS = G @ -np.broadcast_to(S, (size, n, n))
                GP = G @ np.broadcast_to(P, (size, n, n))
                A = np.empty((size, 2 * n, 2 * n))
                A[:, :n, :n] = GS + np.eye(n)
                A[:, n:, :n] = GS
                A[:, :n, n:] = A[:, n:, n:] = GP + np.eye(n)
                maps = scan_maps(A[1:])

                def solve(res):
                    # b_k = (G_k (-r_k), G_k (-r_k)); the update of q_{k+1}
                    # is dq_{k+1}
                    out = (G[:len(res)] @ -res[..., None])[..., 0]
                    return scan_apply(maps, np.concatenate([out, out], axis=1))[:, :n]

                return solve

            return error, r, build

        def commit(X, count, operator):
            qs[k + 1:k + 1 + count] = X[:count]

        start = qs[k] + np.arange(1, size + 1)[:, None] * (qs[k] - qs[k - 1])
        return start, linearize, commit

    march_in_windows(1, steps, window, rescue)
    return qs


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
