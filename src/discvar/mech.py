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

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import (DimensionMismatch, NoConvergence, NotInvertible, SingularJacobian,
                     StepSolveFailed)
from .solvers import (CURVATURE_STEP, DIFFERENCE_STEP, central_difference,
                      march_in_windows, max_abs, newton, plain_system, scan_apply, scan_maps)


def _per_point(fun, *points):
    """A user callable with a per-point contract, at every point of a batch.

    The points share their leading axes and hold vectors along the last one;
    a single point (no leading axis) is passed straight through.
    """
    lead = np.shape(points[0])[:-1]
    if not lead:
        return np.asarray(fun(*points), dtype=float)
    rows = zip(*(np.reshape(p, (-1, np.shape(p)[-1])) for p in points))
    out = np.array([fun(*row) for row in rows], dtype=float)
    return out.reshape(lead + out.shape[1:])


def _hessian(fun, x, step):
    """Symmetrized nested central difference of ``fun``, scalar per point, at
    the points x (..., n): one call of 4 n^2 evaluations."""
    H = central_difference(lambda s: central_difference(
        lambda t: fun(x + s + t), np.broadcast_to(step, s.shape)), step)
    return 0.5 * (H + np.swapaxes(H, -1, -2))


@dataclass
class RnLagrangian:
    """Mechanical Lagrangian (1/2) v^T M v - V(q) plus a time step h.

    The slot derivatives d1..d22 take one interval (q_a, q_b of shape (n,))
    or a batch of intervals along leading axes.  The user's ``potential``,
    ``potential_grad`` and ``potential_hess`` take a single point; on a
    batch they are mapped over its rows.  ``potential_grad``/
    ``potential_hess`` may be omitted; central differences are used as a
    fallback: of the gradient for the Hessian, and of the value twice, at
    CURVATURE_STEP, when there is no gradient.
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
        try:
            np.linalg.cholesky(self.mass)
        except np.linalg.LinAlgError:
            raise NotInvertible("mass matrix must be positive definite") from None
        self.mass_inv = np.linalg.inv(self.mass)

    @property
    def dim(self):
        return self.mass.shape[0]

    def V(self, q):
        return 0.0 if self.potential is None else float(self.potential(q))

    # a scalar 0.0 leaves d1, d2, d11, d22 bitwise as zero arrays would
    def V_x(self, q):
        if self.potential is None:
            return 0.0
        if self.potential_grad is not None:
            return _per_point(self.potential_grad, q)
        return central_difference(lambda s: _per_point(self.V, q + s),
                                  DIFFERENCE_STEP * (1.0 + np.abs(q)))

    def V_xx(self, q):
        if self.potential is None:
            return 0.0
        if self.potential_hess is not None:
            return _per_point(lambda x: np.atleast_2d(self.potential_hess(x)), q)
        if self.potential_grad is None:
            return _hessian(lambda x: _per_point(self.V, x), q,
                            CURVATURE_STEP * (1.0 + np.abs(q)))
        H = central_difference(lambda s: self.V_x(q + s),
                               DIFFERENCE_STEP * (1.0 + np.abs(q)))
        return 0.5 * (H + np.swapaxes(H, -1, -2))

    def V_xxx(self, q, w):
        """D^3 V(q)[w] = d/dt V_xx(q + t w) at t = 0, for one point or a
        batch: the potential's third derivative along w, by a central
        difference of V_xx.  A scalar zero without a potential."""
        if self.potential is None:
            return 0.0
        q, w = np.asarray(q, dtype=float), np.asarray(w, dtype=float)
        size = np.max(np.abs(w), axis=-1, keepdims=True)
        # the shift t w has max norm CURVATURE_STEP (1 + |q|)
        t = (CURVATURE_STEP * (1.0 + np.max(np.abs(q), axis=-1, keepdims=True))
             / np.where(size > 0.0, size, 1.0))
        return central_difference(lambda s: self.V_xx(q + s * w), t)[..., 0]

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


@dataclass
class DiscreteForcePairRn:
    """Per-interval discrete force pair, affine in the control:

        f^-(q_a, q_b, u) = a^-(q_a, q_b) + B^- u
        f^+(q_a, q_b, u) = a^+(q_a, q_b) + B^+ u

    ``b_minus``/``b_plus`` are constant (n, m) matrices.  The optional drift
    callables take one interval and return a covector in R^n; absent, the
    drift is a scalar zero.  The methods take one interval or a batch.
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

    @property
    def dim(self):
        return self.b_minus.shape[0]

    @property
    def control_dim(self):
        return self.b_minus.shape[1]

    def drift(self, which, qa, qb):
        """a^- (``which`` "-") or a^+ at (q_a, q_b)."""
        a = self.a_minus if which == "-" else self.a_plus
        return 0.0 if a is None else _per_point(a, qa, qb)

    def drift_jacobians(self, which, qa, qb):
        """d a / d(q_a, q_b) by central differences; scalar zeros without a
        drift."""
        a = self.a_minus if which == "-" else self.a_plus
        if a is None:
            return 0.0, 0.0
        x = np.concatenate([qa, qb], axis=-1)
        J = central_difference(lambda s: _per_point(a, *np.split(x + s, 2, axis=-1)),
                               DIFFERENCE_STEP * (1.0 + np.abs(x)))
        return tuple(np.split(J, 2, axis=-1))

    def drift_curvature(self, which, qa, qb, v):
        """Hessian of v . a(q_a, q_b) in (q_a, q_b), shape (2n, 2n) per
        interval, by nested central differences of the drift; a scalar zero
        without a drift."""
        a = self.a_minus if which == "-" else self.a_plus
        if a is None:
            return 0.0
        x = np.concatenate([qa, qb], axis=-1)

        def pairing(y):
            return np.sum(v * _per_point(a, *np.split(y, 2, axis=-1)), axis=-1)

        return _hessian(pairing, x, CURVATURE_STEP * (1.0 + np.abs(x)))

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
    rounding units of the momentum terms M q / h: the difference quotients
    lose eps |q| / h each, so far from the origin 1e-12 could not be met.
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
    The drifts' Jacobians are differenced, only when an operator is built, and the
    potential's Hessian is the Lagrangian's ``V_xx``.  A DEL whose drifts and potential gradient are
    affine, as the point mass's, is linear: one update solves a window, to
    a few hundredths of the tolerance on the benchmark's point mass.

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
