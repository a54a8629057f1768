"""Optimal control on T*R^n by root-finding discrete optimality conditions.

The running cost over one interval, (h/2) (C(u^-) + C(u^+)), is rewritten as
a function of (q_k, p_k, q_{k+1}, p_{k+1}) by inverting the force maps in the
forced discrete Legendre transforms:

    u^- = (B^-)^+ (-D1 Ld(q_k, q_{k+1}) - p_k     - a^-)
    u^+ = (B^+)^+ ( p_{k+1} - D2 Ld(q_k, q_{k+1}) - a^+)

C is the running cost ``lgoc`` takes too, such as ``systems.L2Cost`` or
``systems.SmoothedL1Cost``, read through its value_batch, grad_batch and
hess_batch.  Summing this momentum-space cost over all intervals and zeroing
its gradient in the interior (q_k, p_k) gives a square system of 2(N-1)n
equations, with (q_0, p_0) and (q_N, p_N) pinned to the boundary data.

Underactuated problems (rank B = m < n) add, per interval, the 2(n-m)
orthogonal-complement conditions Phi^{+-} = 0 stating that the momentum
defect lies in the range of the control matrix, with one multiplier pair
per interval adjoined to the interval cost.

The residual is the gradient of this augmented action sum, so its Jacobian
is the sum's Hessian, assembled exactly from per-interval blocks
(``residual_system``).  Only the user callables' own derivatives are
differenced: the potential's third derivative (h/2) D^3V(q_k)[w_k] and the
drift curvature v . d^2 a.  A linear problem converges in one Newton step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import solvers
from .errors import DimensionMismatch, NotInvertible, RankDeficient
from .solvers import ResidualSystem, levenberg_marquardt, newton
from .systems import L2Cost


# ---------------------------------------------------------------------------
# running cost
# ---------------------------------------------------------------------------

class QuadraticControlCost(L2Cost):
    """``systems.L2Cost`` under its old ``tboc`` name; ``h`` is not read.

    The running cost takes its time step from the problem, so this name adds
    nothing.  It stays only because the benchmark's workloads and the
    acceptance tests construct it, and goes with the next benchmark change.
    """

    def __init__(self, h):
        pass


# ---------------------------------------------------------------------------
# problem container
# ---------------------------------------------------------------------------

@dataclass
class OcProblemRn:
    """Two-point optimal control problem on T*R^n.

    Boundary data pins (x0, p0) at node 0 and (xT, pT) at node N.
    ``cost`` is a running cost C with value_batch, grad_batch and hess_batch
    over stacks of control vectors, such as ``systems.L2Cost``; interval k
    costs (h/2) (C(u^-_k) + C(u^+_k)), with h the Lagrangian's time step.
    """

    lagrangian: object
    forces: object
    cost: object
    x0: np.ndarray
    p0: np.ndarray
    xT: np.ndarray
    pT: np.ndarray
    N: int

    def __post_init__(self):
        n = self.lagrangian.dim
        for name in ("x0", "p0", "xT", "pT"):
            v = np.atleast_1d(np.asarray(getattr(self, name), dtype=float))
            if v.shape != (n,):
                raise DimensionMismatch(f"{name} must have length {n}")
            setattr(self, name, v)
        if self.N < 2:
            raise DimensionMismatch("need at least two intervals")
        if self.forces.dim != n:
            raise DimensionMismatch("force pair dimension does not match")

    @property
    def n(self):
        return self.lagrangian.dim

    @property
    def m(self):
        return self.forces.control_dim

    @property
    def fully_actuated(self):
        return self.m == self.n

    @property
    def h(self):
        return self.lagrangian.h


def _pinv_or_raise(B, full):
    m = B.shape[1]
    rank = np.linalg.matrix_rank(B)
    if full:
        if rank < B.shape[0]:
            raise NotInvertible("control matrix is not invertible")
        return np.linalg.inv(B)
    if rank < m:
        raise RankDeficient("control matrix rank is below the control dimension")
    return np.linalg.pinv(B)


def _complement_basis(B):
    """Orthonormal basis of the orthogonal complement of range(B), via QR."""
    n, m = B.shape
    Q, _ = np.linalg.qr(B, mode="complete")
    return Q[:, m:]


def _vm(v, A):
    """v^T A over the batch axes: the transposed Jacobian A^T applied to v."""
    return np.einsum("...j,...ji->...i", v, A)


def _mt(A):
    """The transpose of every matrix in a batch."""
    return np.swapaxes(A, -1, -2)


class AugmentedLagrangianRn:
    """Interval cost as a function of endpoint states (q, p) on both ends.

    Provides the recovered control pair and the cost term's analytic
    derivatives in all four slots; for underactuated problems also the
    complement conditions Phi^{+-} and their derivatives.  Every method
    takes one interval (states of shape (n,), multipliers of shape (n-m,))
    or a batch of intervals along leading axes, and evaluates the batch in
    one pass.
    """

    def __init__(self, problem):
        self.problem = problem
        self.L = problem.lagrangian
        self.F = problem.forces
        self.cost = problem.cost
        full = problem.fully_actuated
        self.w_minus = _pinv_or_raise(self.F.b_minus, full)
        self.w_plus = _pinv_or_raise(self.F.b_plus, full)
        if not full:
            self.c_minus = _complement_basis(self.F.b_minus)
            self.c_plus = _complement_basis(self.F.b_plus)
        else:
            self.c_minus = self.c_plus = np.zeros((problem.n, 0))

    # momentum defects: what the force pair must supply on this interval
    def _defects(self, qk, pk, qk1, pk1):
        ym = -self.L.d1(qk, qk1) - pk - self.F.drift("-", qk, qk1)
        yp = pk1 - self.L.d2(qk, qk1) - self.F.drift("+", qk, qk1)
        return ym, yp

    def controls(self, qk, pk, qk1, pk1):
        ym, yp = self._defects(qk, pk, qk1, pk1)
        return ym @ self.w_minus.T, yp @ self.w_plus.T

    def phi(self, qk, pk, qk1, pk1):
        """Complement conditions (Phi^-, Phi^+), each of length n - m."""
        ym, yp = self._defects(qk, pk, qk1, pk1)
        return ym @ self.c_minus, yp @ self.c_plus

    def _position_jacobians(self, qk, qk1):
        """Minus the defects' Jacobians in the position slots:
        (d11 + da^-/dq_a, d12 + da^-/dq_b, d21 + da^+/dq_a, d22 + da^+/dq_b)."""
        dam_a, dam_b = self.F.drift_jacobians("-", qk, qk1)
        dap_a, dap_b = self.F.drift_jacobians("+", qk, qk1)
        return (self.L.d11(qk, qk1) + dam_a, self.L.d12(qk, qk1) + dam_b,
                self.L.d21(qk, qk1) + dap_a, self.L.d22(qk, qk1) + dap_b)

    def _covectors(self, qk, pk, qk1, pk1, lam_minus, lam_plus):
        """The controls and the defect covectors (v^-, v^+): the gradients of
        the interval term in the defects (y^-, y^+)."""
        um, up = self.controls(qk, pk, qk1, pk1)
        half_h = self.problem.h / 2.0
        vm = (half_h * self.cost.grad_batch(um)) @ self.w_minus
        vp = (half_h * self.cost.grad_batch(up)) @ self.w_plus
        if lam_minus is not None:
            vm = vm + lam_minus @ self.c_minus.T
            vp = vp + lam_plus @ self.c_plus.T
        return um, up, vm, vp

    def grads(self, qk, pk, qk1, pk1, lam_minus=None, lam_plus=None):
        """Slot gradients (d_qk, d_pk, d_qk1, d_pk1) of the interval term.

        When multipliers are given the term includes lam . Phi.  The term
        depends on p only through the defects, so its defect covectors vm, vp
        give the momentum slots directly and, through the defect Jacobians,
        the position slots.
        """
        _, _, vm, vp = self._covectors(qk, pk, qk1, pk1, lam_minus, lam_plus)
        ym_a, ym_b, yp_a, yp_b = self._position_jacobians(qk, qk1)
        d_qk = -_vm(vm, ym_a) - _vm(vp, yp_a)
        d_qk1 = -_vm(vm, ym_b) - _vm(vp, yp_b)
        return d_qk, -vm, d_qk1, vp

    def hessians(self, qk, pk, qk1, pk1, lam_minus=None, lam_plus=None):
        """Second derivatives of the interval term over a batch of intervals.

        Returns (H, E, vm, vp).  H[k] (4n, 4n) is the Hessian in the slots
        x = (q_k, p_k, q_{k+1}, p_{k+1}): K^T blockdiag(W^-T G^- W^-,
        W^+T G^+ W^+) K, with K = d(y^-, y^+)/dx the defect Jacobian and G^+-
        = (h/2) C''(u^+-) the control Hessians, minus the drift curvature
        d^2(v^- . a^- + v^+ . a^+) in the position slots.  E[k] (4n, 2(n-m))
        = K^T blockdiag(C^-, C^+) couples x to the multipliers.  The
        potential's curvature (h/2) D^3V[v] is left to the caller, which sums
        the covectors vm, vp of the two intervals meeting at a node and
        differences it once per node.  The cost does not depend on the
        positions, so it contributes through its control Hessians alone.
        """
        n = self.problem.n
        um, up, vm, vp = self._covectors(qk, pk, qk1, pk1, lam_minus, lam_plus)
        ym_a, ym_b, yp_a, yp_b = self._position_jacobians(qk, qk1)
        K = np.zeros(np.shape(qk)[:-1] + (2 * n, 4 * n))
        q_a, p_a, q_b, p_b = (slice(i * n, (i + 1) * n) for i in range(4))
        minus, plus = slice(0, n), slice(n, 2 * n)
        K[..., minus, q_a] = -ym_a
        K[..., minus, p_a] = -np.eye(n)
        K[..., minus, q_b] = -ym_b
        K[..., plus, q_a] = -yp_a
        K[..., plus, q_b] = -yp_b
        K[..., plus, p_b] = np.eye(n)
        Km, Kp = K[..., minus, :], K[..., plus, :]
        Gm = (self.problem.h / 2.0) * self.cost.hess_batch(um)
        Gp = (self.problem.h / 2.0) * self.cost.hess_batch(up)
        H = (_mt(Km) @ (self.w_minus.T @ Gm @ self.w_minus) @ Km
             + _mt(Kp) @ (self.w_plus.T @ Gp @ self.w_plus) @ Kp)
        curvature = (self.F.drift_curvature("-", qk, qk1, vm)
                     + self.F.drift_curvature("+", qk, qk1, vp))
        if np.ndim(curvature):
            q = np.r_[q_a, q_b]
            H[..., q[:, None], q] -= curvature
        E = np.concatenate([_mt(Km) @ self.c_minus, _mt(Kp) @ self.c_plus], axis=-1)
        return H, E, vm, vp


# ---------------------------------------------------------------------------
# residual assembly
# ---------------------------------------------------------------------------

def _states(problem, qs, ps):
    qs = np.asarray(qs, dtype=float)
    ps = np.asarray(ps, dtype=float)
    if qs.shape != (problem.N + 1, problem.n) or ps.shape != qs.shape:
        raise DimensionMismatch("state arrays must have shape (N+1, n)")
    return qs, ps


def optimality_residual(problem, qs, ps, lambdas=None, aug=None):
    """Stacked interior optimality conditions.

    Fully actuated: per interior node k the position and momentum stationarity
    blocks, interleaved -> 2(N-1)n entries.  Underactuated: the same blocks
    with multiplier terms, followed by (Phi^-_k, Phi^+_k) for every interval
    -> 2(N-1)n + 2N(n-m) entries.  ``lambdas`` has shape (N, 2, n-m).
    """
    qs, ps = _states(problem, qs, ps)
    if aug is None:
        aug = AugmentedLagrangianRn(problem)
    N, n, m = problem.N, problem.n, problem.m
    ends = (qs[:-1], ps[:-1], qs[1:], ps[1:])
    if problem.fully_actuated:
        d_qk, d_pk, d_qk1, d_pk1 = aug.grads(*ends)
    else:
        if lambdas is None:
            raise DimensionMismatch("underactuated problems need multipliers")
        lambdas = np.asarray(lambdas, dtype=float)
        if lambdas.shape != (N, 2, n - m):
            raise DimensionMismatch("multipliers must have shape (N, 2, n-m)")
        d_qk, d_pk, d_qk1, d_pk1 = aug.grads(*ends, lambdas[:, 0], lambdas[:, 1])
    # node k sums the right-end slots of interval k-1 and the left-end slots
    # of interval k: position stationarity, then momentum stationarity
    nodes = np.stack([d_qk1[:-1] + d_qk[1:], d_pk1[:-1] + d_pk[1:]], axis=1)
    if problem.fully_actuated:
        return nodes.reshape(-1)
    return np.concatenate([nodes.reshape(-1),
                           np.stack(aug.phi(*ends), axis=1).reshape(-1)])


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

@dataclass
class OcSolutionRn:
    qs: np.ndarray
    ps: np.ndarray
    controls: np.ndarray  # (N, 2, m)
    lambdas: Optional[np.ndarray]
    cost: float
    report: object


def _pack(problem, qs, ps, lambdas):
    N, n = problem.N, problem.n
    parts = [np.stack([qs[1:N], ps[1:N]], axis=1).reshape(-1)]
    if lambdas is not None:
        parts.append(lambdas.reshape(-1))
    return np.concatenate(parts)


def _unpack(problem, z):
    N, n, m = problem.N, problem.n, problem.m
    qs = np.empty((N + 1, n))
    ps = np.empty((N + 1, n))
    qs[0], ps[0] = problem.x0, problem.p0
    qs[N], ps[N] = problem.xT, problem.pT
    interior = z[: 2 * (N - 1) * n].reshape(N - 1, 2, n)
    qs[1:N] = interior[:, 0]
    ps[1:N] = interior[:, 1]
    lambdas = None
    if not problem.fully_actuated:
        lambdas = z[2 * (N - 1) * n :].reshape(N, 2, n - m)
    return qs, ps, lambdas


def residual_system(problem, aug=None):
    """The square ResidualSystem solved by ``solve``, with its exact Jacobian.

    The residual is the gradient of the augmented action sum, so its
    Jacobian is that sum's Hessian: block tridiagonal in the interior node
    blocks (q_k, p_k), bordered by the multiplier blocks.  Every interval's
    blocks come from ``AugmentedLagrangianRn.hessians`` in one batched pass
    and are summed into the two nodes the interval touches.  Only the user
    callables' own derivatives are differenced: the potential's third
    derivative (h/2) D^3V(q_k)[w_k], w_k the summed defect covectors at node
    k, and the drift curvature v . d^2 a.  A linear problem therefore
    converges in one Newton step.
    """
    if aug is None:
        aug = AugmentedLagrangianRn(problem)
    N, n, s = problem.N, problem.n, problem.n - problem.m
    P = 2 * (N - 1) * n
    dim = P + 2 * N * s

    def eval_(z):
        qs, ps, lambdas = _unpack(problem, z)
        return optimality_residual(problem, qs, ps, lambdas, aug=aug)

    def jacobian(z):
        qs, ps, lambdas = _unpack(problem, z)
        lam = (None, None) if lambdas is None else (lambdas[:, 0], lambdas[:, 1])
        H, E, vm, vp = aug.hessians(qs[:-1], ps[:-1], qs[1:], ps[1:], *lam)
        # interior node j + 1 takes the right-end block of interval j and
        # the left-end block of interval j + 1
        diag = H[:-1, 2 * n :, 2 * n :] + H[1:, : 2 * n, : 2 * n]
        diag[:, :n, :n] += (problem.h / 2.0) * problem.lagrangian.V_xxx(
            qs[1:N], vm[1:] + vp[:-1])
        J = np.zeros((dim, dim))
        # block views of J (splitting an axis never copies)
        nodes = J[:P, :P].reshape(N - 1, 2 * n, N - 1, 2 * n)
        j = np.arange(N - 1)
        nodes[j, :, j, :] = diag
        nodes[j[:-1], :, j[1:], :] = H[1:-1, : 2 * n, 2 * n :]
        nodes[j[1:], :, j[:-1], :] = H[1:-1, 2 * n :, : 2 * n]
        if s:
            # interval k's multipliers meet interior nodes k and k + 1
            cross = J[:P, P:].reshape(N - 1, 2 * n, N, 2 * s)
            cross[j, :, j + 1, :] = E[1:, : 2 * n]
            cross[j, :, j, :] = E[:-1, 2 * n :]
            J[P:, :P] = J[:P, P:].T
        return J

    return ResidualSystem(dim=dim, eval=eval_, jacobian=jacobian)


def initial_guess(problem):
    """Straight-line positions with centered-difference momenta."""
    N, n = problem.N, problem.n
    t = np.linspace(0.0, 1.0, N + 1)[:, None]
    qs = (1.0 - t) * problem.x0 + t * problem.xT
    ps = np.empty_like(qs)
    M, h = problem.lagrangian.mass, problem.h
    ps[0], ps[N] = problem.p0, problem.pT
    ps[1:N] = (qs[2:] - qs[:-2]) @ M.T / (2.0 * h)
    lambdas = None
    if not problem.fully_actuated:
        lambdas = np.zeros((N, 2, n - problem.m))
    return qs, ps, lambdas


def solve(problem, tol=1e-9, max_iter=100, method="auto", guess=None):
    """Solve the two-point problem and recover the control trajectory.

    ``method`` is one of ``solvers.METHODS`` or "auto", as in ``lgoc.solve``:
    ``solvers.solve`` runs its attempts, each from the initial guess z0 with
    its own budget of ``max_iter`` iterations.  Auto means Newton with an LM
    fallback when fully actuated, and LM first (then Newton) when
    underactuated: with constant M and B and no potential the multiplier
    block makes the Jacobian rank-deficient (the unactuated momentum is
    conserved, so the complement conditions are redundant given the pinned
    boundary data); with a coupling potential it has full rank.  Raises
    NoConvergence or SingularJacobian when every attempt fails, ConfigError
    for an unknown method.
    """
    aug = AugmentedLagrangianRn(problem)
    system = residual_system(problem, aug=aug)
    if guess is None:
        guess = initial_guess(problem)
    z0 = _pack(problem, *guess)
    attempts = {"newton": newton, "levenberg_marquardt": levenberg_marquardt}
    z, report = solvers.solve(system, z0, attempts, method,
                              problem.fully_actuated, tol, max_iter)
    return assemble_solution(problem, z, report, aug=aug)


def assemble_solution(problem, z, report=None, aug=None):
    """Build an OcSolutionRn from a packed unknown vector (e.g. a solver's
    best iterate), recovering controls and cost."""
    if aug is None:
        aug = AugmentedLagrangianRn(problem)
    qs, ps, lambdas = _unpack(problem, z)
    um, up = aug.controls(qs[:-1], ps[:-1], qs[1:], ps[1:])
    cost = float(
        np.sum((problem.h / 2.0) * (problem.cost.value_batch(um)
                                    + problem.cost.value_batch(up)))
    )
    return OcSolutionRn(qs=qs, ps=ps, controls=np.stack([um, up], axis=1),
                        lambdas=lambdas, cost=cost, report=report)
