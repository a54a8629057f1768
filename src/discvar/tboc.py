"""Optimal control on T*R^n by root-finding discrete optimality conditions.

The running cost over one interval, Cd(q_k, u^-, q_{k+1}, u^+), is rewritten
as a function of (q_k, p_k, q_{k+1}, p_{k+1}) by inverting the force maps in
the forced discrete Legendre transforms:

    u^- = (B^-)^+ (-D1 Ld(q_k, q_{k+1}) - p_k     - a^-)
    u^+ = (B^+)^+ ( p_{k+1} - D2 Ld(q_k, q_{k+1}) - a^+)

Summing this momentum-space cost over all intervals and zeroing its gradient
in the interior (q_k, p_k) gives a square system of 2(N-1)n equations, with
(q_0, p_0) and (q_N, p_N) pinned to the boundary data.

Underactuated problems (rank B = m < n) add, per interval, the 2(n-m)
orthogonal-complement conditions Phi^{+-} = 0 stating that the momentum
defect lies in the range of the control matrix, with one multiplier pair
per interval adjoined to the interval cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import solvers
from .errors import DimensionMismatch, NotInvertible, RankDeficient
from .solvers import (
    JacobianStructure,
    ResidualSystem,
    levenberg_marquardt,
    newton,
)


# ---------------------------------------------------------------------------
# interval costs
# ---------------------------------------------------------------------------

class QuadraticControlCost:
    """Cd = (h/4) (|u^-|^2 + |u^+|^2), the trapezoidal effort cost."""

    def __init__(self, h):
        self.h = float(h)

    def value(self, qa, um, qb, up):
        return (self.h / 4.0) * (np.sum(um * um, axis=-1) + np.sum(up * up, axis=-1))

    # the cost does not depend on the positions; a scalar zero broadcasts
    def grad_qa(self, qa, um, qb, up):
        return 0.0

    def grad_qb(self, qa, um, qb, up):
        return 0.0

    def grad_um(self, qa, um, qb, up):
        return (self.h / 2.0) * np.asarray(um, dtype=float)

    def grad_up(self, qa, um, qb, up):
        return (self.h / 2.0) * np.asarray(up, dtype=float)


# ---------------------------------------------------------------------------
# problem container
# ---------------------------------------------------------------------------

@dataclass
class OcProblemRn:
    """Two-point optimal control problem on T*R^n.

    Boundary data pins (x0, p0) at node 0 and (xT, pT) at node N.
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


class AugmentedLagrangianRn:
    """Interval cost as a function of endpoint states (q, p) on both ends.

    Provides the value, the recovered control pair and analytic derivatives
    in all four slots; for underactuated problems also the complement
    conditions Phi^{+-} and their derivatives.  Every method takes one
    interval (states of shape (n,), multipliers of shape (n-m,)) or a batch
    of intervals along leading axes, and evaluates the batch in one pass.
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

    def value(self, qk, pk, qk1, pk1):
        um, up = self.controls(qk, pk, qk1, pk1)
        return self.cost.value(qk, um, qk1, up)

    def phi(self, qk, pk, qk1, pk1):
        """Complement conditions (Phi^-, Phi^+), each of length n - m."""
        ym, yp = self._defects(qk, pk, qk1, pk1)
        return ym @ self.c_minus, yp @ self.c_plus

    def grads(self, qk, pk, qk1, pk1, lam_minus=None, lam_plus=None):
        """Slot gradients (d_qk, d_pk, d_qk1, d_pk1) of the interval term.

        When multipliers are given the term includes lam . Phi.  The term
        depends on p only through the defects, so its defect covectors vm, vp
        give the momentum slots directly and, through the defect Jacobians,
        the position slots.
        """
        um, up = self.controls(qk, pk, qk1, pk1)
        vm = self.cost.grad_um(qk, um, qk1, up) @ self.w_minus
        vp = self.cost.grad_up(qk, um, qk1, up) @ self.w_plus
        if lam_minus is not None:
            vm = vm + lam_minus @ self.c_minus.T
            vp = vp + lam_plus @ self.c_plus.T
        dam_a, dam_b = self.F.drift_jacobians("-", qk, qk1)
        dap_a, dap_b = self.F.drift_jacobians("+", qk, qk1)
        # the defects' Jacobians in the two position slots
        d_qk = (self.cost.grad_qa(qk, um, qk1, up)
                - _vm(vm, self.L.d11(qk, qk1) + dam_a)
                - _vm(vp, self.L.d21(qk, qk1) + dap_a))
        d_qk1 = (self.cost.grad_qb(qk, um, qk1, up)
                 - _vm(vm, self.L.d12(qk, qk1) + dam_b)
                 - _vm(vp, self.L.d22(qk, qk1) + dap_b))
        return d_qk, -vm, d_qk1, vp

    def multiplier_value(self, qk, pk, qk1, pk1, lam_minus, lam_plus):
        v = self.value(qk, pk, qk1, pk1)
        if lam_minus is not None:
            pm, pp = self.phi(qk, pk, qk1, pk1)
            v = v + np.sum(lam_minus * pm, axis=-1) + np.sum(lam_plus * pp, axis=-1)
        return v


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


def _jacobian_structure(problem):
    """Sparsity of the residual Jacobian, read off the block layout.

    The unknowns are the interior node blocks (q_k, p_k), k = 1..N-1, then
    the multiplier pairs of the N intervals.  Interval k touches node blocks
    k and k+1 (interior ones only) and its own multipliers.  The 2n
    stationarity rows at node k sum the terms of intervals k-1 and k; the
    complement rows of interval k touch only its node blocks, since Phi does
    not depend on the multipliers.  No row is dense, so there is no border.
    """
    N, n, s = problem.N, problem.n, problem.n - problem.m
    # touches[k, j]: interval k touches interior node j + 1
    lag = np.arange(N)[:, None] - np.arange(N - 1)
    touches = (lag == 0) | (lag == 1)
    blocks = np.block([[touches.T @ touches, touches.T],
                       [touches, np.zeros((N, N), dtype=bool)]])
    # node blocks hold 2n unknowns (and rows), multiplier blocks 2(n-m)
    sizes = np.r_[np.full(N - 1, 2 * n), np.full(N, 2 * s)]
    pattern = np.repeat(np.repeat(blocks, sizes, axis=0), sizes, axis=1)
    return JacobianStructure(pattern=pattern)


def residual_system(problem, aug=None):
    """The square ResidualSystem solved by ``solve``.

    The system carries the block-tridiagonal sparsity of its Jacobian, so a
    finite-difference Jacobian takes one residual pair per column colour:
    6n colours for a fully actuated problem at any N >= 4.
    """
    if aug is None:
        aug = AugmentedLagrangianRn(problem)
    structure = _jacobian_structure(problem)

    def eval_(z):
        qs, ps, lambdas = _unpack(problem, z)
        return optimality_residual(problem, qs, ps, lambdas, aug=aug)

    return ResidualSystem(dim=structure.pattern.shape[0], eval=eval_,
                          structure=structure)


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
    underactuated, whose multiplier block makes every Newton Jacobian
    singular.  Raises NoConvergence or SingularJacobian when every attempt
    fails, ConfigError for an unknown method.
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
    cost = float(np.sum(problem.cost.value(qs[:-1], um, qs[1:], up)))
    return OcSolutionRn(qs=qs, ps=ps, controls=np.stack([um, up], axis=1),
                        lambdas=lambdas, cost=cost, report=report)
