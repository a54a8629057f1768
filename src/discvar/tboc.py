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

from .errors import DimensionMismatch, NoConvergence, NotInvertible, RankDeficient, SingularJacobian
from .solvers import JacobianStructure, ResidualSystem, levenberg_marquardt, newton


# ---------------------------------------------------------------------------
# interval costs
# ---------------------------------------------------------------------------

class QuadraticControlCost:
    """Cd = (h/4) (|u^-|^2 + |u^+|^2), the trapezoidal effort cost."""

    def __init__(self, h):
        self.h = float(h)

    def value(self, qa, um, qb, up):
        return (self.h / 4.0) * (float(um @ um) + float(up @ up))

    def grad_qa(self, qa, um, qb, up):
        return np.zeros_like(np.asarray(qa, dtype=float))

    def grad_qb(self, qa, um, qb, up):
        return np.zeros_like(np.asarray(qb, dtype=float))

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


def _drift_jacobians(forces, qa, qb, which, step=1e-6):
    """d a^{+-} / d(qa, qb), by forward differences; zero for default drifts."""
    n = forces.dim
    if which == "-" and forces.zero_drift_minus:
        return np.zeros((n, n)), np.zeros((n, n))
    if which == "+" and forces.zero_drift_plus:
        return np.zeros((n, n)), np.zeros((n, n))
    fun = forces.a_minus if which == "-" else forces.a_plus
    f0 = np.asarray(fun(qa, qb), dtype=float)
    Ja = np.empty((n, n))
    Jb = np.empty((n, n))
    qa = np.asarray(qa, dtype=float).copy()
    qb = np.asarray(qb, dtype=float).copy()
    for j in range(n):
        s = step * (1.0 + abs(qa[j]))
        qa[j] += s
        Ja[:, j] = (np.asarray(fun(qa, qb), dtype=float) - f0) / s
        qa[j] -= s
        s = step * (1.0 + abs(qb[j]))
        qb[j] += s
        Jb[:, j] = (np.asarray(fun(qa, qb), dtype=float) - f0) / s
        qb[j] -= s
    return Ja, Jb


class AugmentedLagrangianRn:
    """Interval cost as a function of endpoint states (q, p) on both ends.

    Provides the value, the recovered control pair and analytic derivatives
    in all four slots; for underactuated problems also the complement
    conditions Phi^{+-} and their derivatives.
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
        ym = -self.L.d1(qk, qk1) - pk - np.asarray(self.F.a_minus(qk, qk1), dtype=float)
        yp = pk1 - self.L.d2(qk, qk1) - np.asarray(self.F.a_plus(qk, qk1), dtype=float)
        return ym, yp

    def controls(self, qk, pk, qk1, pk1):
        ym, yp = self._defects(qk, pk, qk1, pk1)
        return self.w_minus @ ym, self.w_plus @ yp

    def value(self, qk, pk, qk1, pk1):
        um, up = self.controls(qk, pk, qk1, pk1)
        return self.cost.value(qk, um, qk1, up)

    def phi(self, qk, pk, qk1, pk1):
        """Complement conditions (Phi^-, Phi^+), each of length n - m."""
        ym, yp = self._defects(qk, pk, qk1, pk1)
        return self.c_minus.T @ ym, self.c_plus.T @ yp

    def grads(self, qk, pk, qk1, pk1, lam_minus=None, lam_plus=None):
        """Slot gradients (d_qk, d_pk, d_qk1, d_pk1) of the interval term.

        When multipliers are given the term includes lam . Phi.
        """
        um, up = self.controls(qk, pk, qk1, pk1)
        cum = self.cost.grad_um(qk, um, qk1, up)
        cup = self.cost.grad_up(qk, um, qk1, up)
        dam_a, dam_b = _drift_jacobians(self.F, qk, qk1, "-")
        dap_a, dap_b = _drift_jacobians(self.F, qk, qk1, "+")
        # defect jacobians in the two position slots
        dym_qk = -self.L.d11(qk, qk1) - dam_a
        dym_qk1 = -self.L.d12(qk, qk1) - dam_b
        dyp_qk = -self.L.d21(qk, qk1) - dap_a
        dyp_qk1 = -self.L.d22(qk, qk1) - dap_b

        d_qk = (
            self.cost.grad_qa(qk, um, qk1, up)
            + dym_qk.T @ (self.w_minus.T @ cum)
            + dyp_qk.T @ (self.w_plus.T @ cup)
        )
        d_qk1 = (
            self.cost.grad_qb(qk, um, qk1, up)
            + dym_qk1.T @ (self.w_minus.T @ cum)
            + dyp_qk1.T @ (self.w_plus.T @ cup)
        )
        d_pk = -self.w_minus.T @ cum
        d_pk1 = self.w_plus.T @ cup

        if lam_minus is not None and lam_minus.size:
            vm = self.c_minus @ lam_minus
            d_qk = d_qk + dym_qk.T @ vm
            d_qk1 = d_qk1 + dym_qk1.T @ vm
            d_pk = d_pk - self.c_minus @ lam_minus
        if lam_plus is not None and lam_plus.size:
            vp = self.c_plus @ lam_plus
            d_qk = d_qk + dyp_qk.T @ vp
            d_qk1 = d_qk1 + dyp_qk1.T @ vp
            d_pk1 = d_pk1 + self.c_plus @ lam_plus
        return d_qk, d_pk, d_qk1, d_pk1

    def multiplier_value(self, qk, pk, qk1, pk1, lam_minus, lam_plus):
        v = self.value(qk, pk, qk1, pk1)
        if lam_minus is not None and lam_minus.size:
            pm, pp = self.phi(qk, pk, qk1, pk1)
            v += float(lam_minus @ pm) + float(lam_plus @ pp)
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
    under = not problem.fully_actuated
    if under:
        if lambdas is None:
            raise DimensionMismatch("underactuated problems need multipliers")
        lambdas = np.asarray(lambdas, dtype=float)
        if lambdas.shape != (N, 2, n - m):
            raise DimensionMismatch("multipliers must have shape (N, 2, n-m)")

    def interval_grads(k):
        lm = lambdas[k, 0] if under else None
        lp = lambdas[k, 1] if under else None
        return aug.grads(qs[k], ps[k], qs[k + 1], ps[k + 1], lm, lp)

    grads = [interval_grads(k) for k in range(N)]
    blocks = []
    for k in range(1, N):
        g_prev = grads[k - 1]
        g_here = grads[k]
        blocks.append(g_prev[2] + g_here[0])  # position stationarity
        blocks.append(g_prev[3] + g_here[1])  # momentum stationarity
    if under:
        for k in range(N):
            pm, pp = aug.phi(qs[k], ps[k], qs[k + 1], ps[k + 1])
            blocks.append(pm)
            blocks.append(pp)
    return np.concatenate(blocks)


def action_sum(problem, qs, ps, lambdas=None, aug=None):
    """Sum of the momentum-space interval costs (with multiplier terms)."""
    qs, ps = _states(problem, qs, ps)
    if aug is None:
        aug = AugmentedLagrangianRn(problem)
    total = 0.0
    for k in range(problem.N):
        lm = lambdas[k, 0] if lambdas is not None else None
        lp = lambdas[k, 1] if lambdas is not None else None
        if lm is None:
            total += aug.value(qs[k], ps[k], qs[k + 1], ps[k + 1])
        else:
            total += aug.multiplier_value(qs[k], ps[k], qs[k + 1], ps[k + 1], lm, lp)
    return total


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
    nodes = 2 * (N - 1) * n
    dim = nodes + 2 * N * s
    # node[j] holds node j's columns; only the interior nodes 1..N-1 are used
    node = np.arange(-2 * n, 2 * N * n).reshape(N + 1, 2 * n)
    lam = nodes + np.arange(2 * N * s).reshape(N, 2 * s)

    def interval_nodes(k):
        return np.concatenate([node[j] for j in (k, k + 1) if 0 < j < N])

    pattern = np.zeros((dim, dim), dtype=bool)
    for k in range(1, N):
        cols = np.concatenate([interval_nodes(k - 1), lam[k - 1],
                               interval_nodes(k), lam[k]])
        pattern[node[k][:, None], cols] = True
    for k in range(N):
        pattern[nodes + 2 * k * s : nodes + 2 * (k + 1) * s, interval_nodes(k)] = True
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
    for k in range(1, N):
        ps[k] = M @ (qs[k + 1] - qs[k - 1]) / (2.0 * h)
    lambdas = None
    if not problem.fully_actuated:
        lambdas = np.zeros((N, 2, n - problem.m))
    return qs, ps, lambdas


def solve(problem, tol=1e-9, max_iter=100, guess=None):
    """Solve the two-point problem; Newton first, Levenberg-Marquardt fallback."""
    aug = AugmentedLagrangianRn(problem)
    system = residual_system(problem, aug=aug)
    if guess is None:
        guess = initial_guess(problem)
    z0 = _pack(problem, *guess)
    try:
        z, report = newton(system, z0, tol=tol, max_iter=max_iter)
    except (NoConvergence, SingularJacobian):
        z, report = levenberg_marquardt(system, z0, tol=tol, max_iter=max(max_iter, 200))
    return assemble_solution(problem, z, report, aug=aug)


def assemble_solution(problem, z, report=None, aug=None):
    """Build an OcSolutionRn from a packed unknown vector (e.g. a solver's
    best iterate), recovering controls and cost."""
    if aug is None:
        aug = AugmentedLagrangianRn(problem)
    qs, ps, lambdas = _unpack(problem, z)
    controls = np.empty((problem.N, 2, problem.m))
    cost = 0.0
    for k in range(problem.N):
        um, up = aug.controls(qs[k], ps[k], qs[k + 1], ps[k + 1])
        controls[k, 0], controls[k, 1] = um, up
        cost += problem.cost.value(qs[k], um, qs[k + 1], up)
    return OcSolutionRn(qs=qs, ps=ps, controls=controls, lambdas=lambdas,
                        cost=cost, report=report)
