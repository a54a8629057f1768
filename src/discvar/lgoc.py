"""Optimal control of left-trivialized reduced systems on Lie groups.

A trajectory is described by per-interval body velocities xi_k (algebra
coordinates, k = 0..N-1) with configurations reconstructed through the
retraction, g_{k+1} = g_k tau(h xi_k).  Each interval carries the momentum

    mu_k = dtau_inv(h xi_k)^* (I xi_k)

and the node momenta

    nu_k     = mu_k                 - (h/2) f(xi_k, u_k^-)
    nu_{k+1} = coAd(tau(h xi_k), mu_k) + (h/2) f(xi_k, u_k^+)

with the affine force model f(xi, u) = drift(h xi) + B u.  Inverting these
relations expresses the control pair, hence the running cost, in terms of
(nu_k, xi_k, nu_{k+1}); zeroing the gradient of the summed cost under
group-consistent variations, together with the reconstruction condition that
the tau-product of the interval displacements matches g0^-1 gT, yields a
square root-finding problem.  nu_0 and nu_N are pinned to the boundary
velocities.

The residual is exact up to the user's callables: the derivatives of the
interval maps in xi_k come in closed form from the retraction's tangent maps
and their derivative (``_xi_gradients``), and only the drift and the
potential gradient are differenced.  The solvers difference the residual for
its Jacobian.

Underactuated systems (unactuated coordinate set sigma nonempty) add the
per-interval conditions that the momentum defects have no sigma-component,
with one multiplier pair per interval adjoined to the interval cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import solvers
from .errors import (
    DimensionMismatch,
    NoConvergence,
    NotInvertible,
    RankDeficient,
    SingularJacobian,
    StepSolveFailed,
)
from .solvers import (
    JacobianStructure,
    ResidualSystem,
    fd_jacobian,
    levenberg_marquardt,
    newton,
)

def _mt(A):
    return np.swapaxes(A, -1, -2)


def _mv(A, x):
    return np.einsum("...ij,...j->...i", A, x)


# ---------------------------------------------------------------------------
# system and problem containers
# ---------------------------------------------------------------------------

@dataclass
class ReducedSystem:
    """Left-invariant kinetic energy plus an affine force model on a group.

    inertia        (n, n) symmetric positive definite
    control_basis  (n, m) constant control-to-covector matrix B
    unactuated     coordinate indices with no control authority; the rows of
                   B at these indices must vanish
    drift          optional callable z -> covector coordinates, evaluated at
                   the interval displacement z = h xi (batched over leading
                   dimensions); defaults to zero
    potential      optional object with value(g) and left_grad(g) -> (n,)
                   (the left-trivialized gradient), both batched
    """

    group: object
    inertia: np.ndarray
    control_basis: np.ndarray
    unactuated: tuple = ()
    drift: Optional[Callable] = None
    potential: Optional[object] = None

    def __post_init__(self):
        n = self.group.dim
        self.inertia = np.atleast_2d(np.asarray(self.inertia, dtype=float))
        if self.inertia.shape != (n, n):
            raise DimensionMismatch("inertia must be (n, n)")
        if np.max(np.abs(self.inertia - self.inertia.T)) > 1e-12 * (
            1.0 + np.max(np.abs(self.inertia))
        ):
            raise DimensionMismatch("inertia must be symmetric")
        try:
            np.linalg.cholesky(self.inertia)
        except np.linalg.LinAlgError:
            raise NotInvertible("inertia must be positive definite") from None
        self.control_basis = np.atleast_2d(np.asarray(self.control_basis, dtype=float))
        if self.control_basis.shape[0] != n:
            raise DimensionMismatch("control basis must have n rows")
        m = self.control_basis.shape[1]
        self.unactuated = tuple(sorted(int(i) for i in self.unactuated))
        if len(self.unactuated) != n - m or any(
            i < 0 or i >= n for i in self.unactuated
        ):
            raise DimensionMismatch(
                "unactuated indices must be the n - m coordinates without control"
            )
        if self.unactuated and np.max(
            np.abs(self.control_basis[list(self.unactuated), :])
        ) > 0.0:
            raise DimensionMismatch("control basis has entries on unactuated rows")
        if np.linalg.matrix_rank(self.control_basis) < m:
            raise RankDeficient("control basis rank is below the control dimension")
        self.control_pinv = np.linalg.pinv(self.control_basis)

    @property
    def n(self):
        return self.group.dim

    @property
    def m(self):
        return self.control_basis.shape[1]

    @property
    def fully_actuated(self):
        return not self.unactuated

    def drift_values(self, z):
        if self.drift is None:
            return np.zeros_like(z)
        return np.asarray(self.drift(z), dtype=float)

    @property
    def has_drift(self):
        return self.drift is not None


@dataclass
class OcProblemLie:
    """Two-point reduced optimal control problem on a Lie group.

    The boundary pins the configurations g0, gT and the velocities xi0, xiT
    (through the node momenta nu_0 = I xi0, nu_N = I xiT).
    """

    system: ReducedSystem
    g0: np.ndarray
    xi0: np.ndarray
    gT: np.ndarray
    xiT: np.ndarray
    N: int
    h: float
    cost: object

    def __post_init__(self):
        n = self.system.n
        self.g0 = self.system.group.check(np.asarray(self.g0, dtype=float))
        self.gT = self.system.group.check(np.asarray(self.gT, dtype=float))
        self.xi0 = np.atleast_1d(np.asarray(self.xi0, dtype=float))
        self.xiT = np.atleast_1d(np.asarray(self.xiT, dtype=float))
        if self.xi0.shape != (n,) or self.xiT.shape != (n,):
            raise DimensionMismatch("boundary velocities must have length n")
        if self.N < 2:
            raise DimensionMismatch("need at least two intervals")
        if self.h <= 0:
            raise DimensionMismatch("time step must be positive")

    @property
    def nu0(self):
        return self.system.inertia @ self.xi0

    @property
    def nuN(self):
        return self.system.inertia @ self.xiT

    @property
    def displacement(self):
        g = self.system.group
        return g.multiply(g.inverse(self.g0), self.gT)


# ---------------------------------------------------------------------------
# interval kinematics (batched)
# ---------------------------------------------------------------------------

def interval_momenta(system, h, xis):
    """mu_k and its transport coAd(tau(h xi_k), mu_k), for all intervals."""
    xis = np.asarray(xis, dtype=float)
    z = h * xis
    group = system.group
    W = group.tau(z)
    Dinv = group.dtau_inv_matrix(z)
    mu = _mv(_mt(Dinv), xis @ system.inertia.T)
    transported = _mv(_mt(group.Ad_matrix(W)), mu)
    return z, W, mu, transported


def nu_momenta(system, h, xi, u_minus, u_plus):
    """Node momentum pair (nu_k, nu_{k+1}) generated by one interval."""
    z, _, mu, transported = interval_momenta(system, h, np.asarray(xi, dtype=float))
    Bt = system.control_basis.T
    f_m = system.drift_values(z) + np.asarray(u_minus, dtype=float) @ Bt
    f_p = system.drift_values(z) + np.asarray(u_plus, dtype=float) @ Bt
    return mu - (h / 2.0) * f_m, transported + (h / 2.0) * f_p


def dep_step(system, h, xi_prev, mu_prev, u_prev_plus=None, u_minus=None,
             g_k=None, step_index=0, tol=1e-13, max_fixed_point=200):
    """Advance the discrete momentum equation by one interval.

    Given the previous interval's (xi_{k-1}, mu_{k-1}) and the forcing around
    node k, solves the implicit relation mu_k = dtau_inv(h xi_k)^* I xi_k for
    the new interval velocity and returns (xi_k, mu_k).  When the system has
    a potential the configuration g_k at the node must be supplied.
    """
    group = system.group
    inertia_inv = np.linalg.inv(system.inertia)
    z_prev = h * np.asarray(xi_prev, dtype=float)
    rhs = group.coAd(group.tau(z_prev), _mv(_mt(group.dtau_inv_matrix(z_prev)),
                                            system.inertia @ np.asarray(xi_prev, dtype=float)))
    if u_prev_plus is not None:
        rhs = rhs + (h / 2.0) * (
            system.drift_values(z_prev) + system.control_basis @ np.asarray(u_prev_plus, dtype=float)
        )
    if system.potential is not None:
        if g_k is None:
            raise DimensionMismatch("potential systems need g_k in dep_step")
        rhs = rhs - h * np.asarray(system.potential.left_grad(g_k), dtype=float)

    def mu_of(xi):
        z = h * xi
        out = rhs.copy()
        if u_minus is not None:
            out = out + (h / 2.0) * (
                system.drift_values(z) + system.control_basis @ np.asarray(u_minus, dtype=float)
            )
        return out

    xi = np.asarray(xi_prev, dtype=float).copy()
    for _ in range(max_fixed_point):
        target = mu_of(xi)
        xi_new = inertia_inv @ np.linalg.solve(_mt(group.dtau_inv_matrix(h * xi)), target)
        if np.max(np.abs(xi_new - xi)) < tol * (1.0 + np.max(np.abs(xi_new))):
            xi = xi_new
            break
        xi = xi_new
    else:
        # fall back to Newton on the residual
        def res(x):
            return _mv(_mt(group.dtau_inv_matrix(h * x)), system.inertia @ x) - mu_of(x)

        try:
            xi, _ = newton(ResidualSystem(dim=system.n, eval=res), xi, tol=1e-12)
        except (NoConvergence, SingularJacobian) as exc:
            raise StepSolveFailed(step_index, str(exc)) from exc
    mu = _mv(_mt(group.dtau_inv_matrix(h * xi)), system.inertia @ xi)
    return xi, mu


def integrate_reduced(system, g0, xi0, h, steps, controls=None):
    """March the forced discrete momentum equation; returns (gs, xis, mus).

    ``controls`` has shape (steps, 2, m) holding (u_k^-, u_k^+); interval 0
    is determined by the initial velocity, so its u_0^- is unused.
    """
    group = system.group
    n = system.n
    if controls is not None:
        controls = np.asarray(controls, dtype=float)
        if controls.shape != (steps, 2, system.m):
            raise DimensionMismatch("controls must have shape (steps, 2, m)")
    gs = [np.asarray(g0, dtype=float)]
    xis = np.empty((steps, n))
    mus = np.empty((steps, n))
    xis[0] = np.asarray(xi0, dtype=float)
    mus[0] = _mv(
        _mt(group.dtau_inv_matrix(h * xis[0])), system.inertia @ xis[0]
    )
    gs.append(group.multiply(gs[0], group.tau(h * xis[0])))
    for k in range(1, steps):
        upp = controls[k - 1, 1] if controls is not None else None
        um = controls[k, 0] if controls is not None else None
        xis[k], mus[k] = dep_step(
            system, h, xis[k - 1], mus[k - 1], u_prev_plus=upp, u_minus=um,
            g_k=gs[k], step_index=k,
        )
        gs.append(group.multiply(gs[k], group.tau(h * xis[k])))
    return np.stack(gs), xis, mus


def reconstruct(group, g0, h, xis):
    """Configurations g_0..g_N from interval velocities."""
    gs = [np.asarray(g0, dtype=float)]
    W = group.tau(h * np.asarray(xis, dtype=float))
    for k in range(len(xis)):
        gs.append(group.multiply(gs[-1], W[k]))
    return np.stack(gs)


# ---------------------------------------------------------------------------
# interval cost evaluation (batched over intervals)
# ---------------------------------------------------------------------------

def _controls_from_momenta(problem, xis, nus, gs=None):
    """Recover (u^-, u^+) for every interval from the node momenta.

    Returns (z, W, mu, transported, um, up).  ``nus`` has shape (N+1, n) and
    includes the pinned boundary entries.  For potential-coupled systems the
    node configurations gs (N+1 elements) must be given.
    """
    sys_ = problem.system
    h = problem.h
    z, W, mu, transported = interval_momenta(sys_, h, xis)
    d = sys_.drift_values(z)
    left = mu.copy()
    right = transported.copy()
    if sys_.potential is not None:
        G = np.asarray(sys_.potential.left_grad(gs), dtype=float)
        left = left + (h / 2.0) * G[:-1]
        right = right - (h / 2.0) * G[1:]
    rm = (2.0 / h) * (left - nus[:-1]) - d
    rp = (2.0 / h) * (nus[1:] - right) - d
    um = rm @ sys_.control_pinv.T
    up = rp @ sys_.control_pinv.T
    return z, W, mu, transported, um, up


def _interval_costs(problem, xis, nus, lambdas=None, gs=None):
    """(h/2)(C(u^-) + C(u^+)) per interval, plus multiplier terms if given."""
    sys_ = problem.system
    h = problem.h
    z, W, mu, transported, um, up = _controls_from_momenta(problem, xis, nus, gs)
    vals = (h / 2.0) * (problem.cost.value_batch(um) + problem.cost.value_batch(up))
    if lambdas is not None and lambdas.size:
        sigma = list(sys_.unactuated)
        d = sys_.drift_values(z)
        phi_m = (mu - nus[:-1] - (h / 2.0) * d)[:, sigma]
        phi_p = (nus[1:] - transported - (h / 2.0) * d)[:, sigma]
        vals = vals + np.einsum("ks,ks->k", lambdas[:, 0], phi_m)
        vals = vals + np.einsum("ks,ks->k", lambdas[:, 1], phi_p)
    return vals


def action_sum(problem, xis, nus, lambdas=None, gs=None):
    """Total momentum-space cost (with multiplier terms) over the path."""
    if gs is None and problem.system.potential is not None:
        gs = reconstruct(problem.system.group, problem.g0, problem.h, xis)
    return float(np.sum(_interval_costs(problem, xis, nus, lambdas, gs)))


def _interval_maps(problem, xis, nus, gs=None):
    """Per-interval (u^-, u^+, phi^-, phi^+) as functions of the velocities."""
    sys_ = problem.system
    h = problem.h
    z, W, mu, transported, um, up = _controls_from_momenta(problem, xis, nus, gs)
    d = sys_.drift_values(z)
    phi_m = mu - nus[:-1] - (h / 2.0) * d
    phi_p = nus[1:] - transported - (h / 2.0) * d
    return um, up, phi_m, phi_p


def _xi_gradients(problem, xis, z, W, mu, c_minus, c_plus):
    """d/dxi_k of the interval-k cost term, holding nu, lambda and gs fixed.

    The term depends on xi only through mu, its transport coAd(W, mu) and
    the drift d(h xi).  ``c_minus`` and ``c_plus`` are its derivatives in mu
    and in the transport; its derivative in d is -(h/2)(c_minus - c_plus).
    The chain rule runs through closed forms: dmu/dxi = D^T I + h (dD/dz)
    contracted with I xi, where D = dtau_inv(z), and the transport moves by
    coAd(W, dmu) + coAd(W, ad(eta)^* mu) with eta = h dtau(z) dxi (tau is
    right-trivialized).  Only the user's drift is differenced.
    """
    sys_ = problem.system
    group = sys_.group
    h = problem.h
    e_plus = _mv(group.Ad_matrix(W), c_plus)
    e = c_minus + e_plus
    out = _mv(group.dtau_inv_matrix(z), e) @ sys_.inertia
    out += h * np.einsum("kjil,kj,ki->kl", group.dtau_inv_deriv(z),
                         xis @ sys_.inertia, e)
    out -= h * _mv(_mt(group.dtau_matrix(z)), _mv(_mt(group.ad_matrix(e_plus)), mu))
    if sys_.has_drift:
        # the drift acts pointwise in z, so shifting coordinate j of every
        # interval at once gives column j of each interval's Jacobian
        n = z.shape[-1]
        J = fd_jacobian(lambda s: sys_.drift_values(z + s), np.zeros(n))
        out -= (h * h / 2.0) * np.einsum("kij,ki->kj", J.reshape(z.shape + (n,)),
                                         c_minus - c_plus)
    return out


def _potential_hessians(system, gs_interior, step=1e-6):
    """Left-trivialized directional derivatives of the potential gradient.

    Returns H with H[k, :, j] = d/ds left_grad(g_k tau(s e_j)) at s = 0.
    """
    group = system.group
    n = system.n

    def shifted_grads(s):
        return system.potential.left_grad(group.multiply(gs_interior, group.tau(s)))

    return fd_jacobian(shifted_grads, np.zeros(n), step=step).reshape(-1, n, n)


def reconstruction_residual(problem, xis):
    """tau^-1 of the mismatch between the path displacement and g0^-1 gT."""
    group = problem.system.group
    W_inv = group.inverse(group.tau(problem.h * np.asarray(xis, dtype=float)))
    acc = problem.displacement
    for k in range(len(xis)):
        acc = group.multiply(W_inv[k], acc)
    return group.tau_inv(acc)


def _full_nus(problem, nus_interior):
    nus = np.empty((problem.N + 1, problem.system.n))
    nus[0] = problem.nu0
    nus[-1] = problem.nuN
    nus[1:-1] = nus_interior
    return nus


# ---------------------------------------------------------------------------
# residuals
# ---------------------------------------------------------------------------

def general_residual(problem, xis, nus_interior, lambdas=None):
    """Optimality system for the momentum-space formulation.

    Blocks, in order:
      * velocity-slot stationarity at nodes 1..N-1        ((N-1) n)
      * node-momentum stationarity at nodes 1..N-1        ((N-1) n)
      * underactuation conditions per interval, if any    (2 N (n-m))
      * reconstruction constraint                         (n)
    """
    sys_ = problem.system
    group = sys_.group
    h, N = problem.h, problem.N
    xis = np.asarray(xis, dtype=float)
    nus = _full_nus(problem, np.asarray(nus_interior, dtype=float))
    gs = None
    if sys_.potential is not None:
        gs = reconstruct(group, problem.g0, h, xis)
    if lambdas is not None:
        lambdas = np.asarray(lambdas, dtype=float)

    z, W, mu, transported, um, up = _controls_from_momenta(problem, xis, nus, gs)
    gum = problem.cost.grad_batch(um) @ sys_.control_pinv
    gup = problem.cost.grad_batch(up) @ sys_.control_pinv
    # the interval costs' derivatives in mu and in its transport
    c_minus, c_plus = gum.copy(), -gup
    underactuated = lambdas is not None and lambdas.size > 0
    if underactuated:
        sigma = list(sys_.unactuated)
        c_minus[:, sigma] += lambdas[:, 0]
        c_plus[:, sigma] -= lambdas[:, 1]
    gxi = _xi_gradients(problem, xis, z, W, mu, c_minus, c_plus)
    Dm = group.dtau_inv_matrix(-z)
    Dp = group.dtau_inv_matrix(z)
    pulled_prev = _mv(_mt(Dm), gxi)   # contribution of interval k-1 at node k
    pulled_here = _mv(_mt(Dp), gxi)   # contribution of interval k at node k
    xi_blocks = (pulled_prev[:-1] - pulled_here[1:]) / h

    if sys_.potential is not None:
        # left-trivialized dependence of the interval costs on interior nodes:
        # d(cost_k)/dG_k = (h/2) P^T gradC(u^-_k); d(cost_{k-1})/dG_k likewise
        Hs = _potential_hessians(sys_, gs[1:N])
        w = (h / 2.0) * (gum[1:N] + gup[: N - 1])
        xi_blocks = xi_blocks + np.einsum("kij,ki->kj", Hs, w)

    # nu_k enters interval k opposite mu_k, and interval k-1 opposite its transport
    nu_blocks = -(c_minus[1:N] + c_plus[: N - 1])

    parts = [xi_blocks.reshape(-1), nu_blocks.reshape(-1)]
    if underactuated:
        d = sys_.drift_values(z)
        phi_m = (mu - nus[:-1] - (h / 2.0) * d)[:, sigma]
        phi_p = (nus[1:] - transported - (h / 2.0) * d)[:, sigma]
        parts.append(np.stack([phi_m, phi_p], axis=1).reshape(-1))
    parts.append(reconstruction_residual(problem, xis))
    return np.concatenate(parts)


def _momenta_eliminable(problem):
    """Whether momentum stationarity can be solved for the node momenta in
    closed form: quadratic control cost, full actuation, no drift and no
    potential."""
    sys_ = problem.system
    return (
        sys_.fully_actuated
        and not sys_.has_drift
        and sys_.potential is None
        and getattr(problem.cost, "is_quadratic", False)
    )


def eliminated_nus(problem, xis):
    """Node momenta (boundary entries included) that satisfy momentum
    stationarity exactly.

    Valid when ``_momenta_eliminable``: each interior nu_k is the average of
    the momenta the two adjacent intervals propagate to node k.
    """
    sys_ = problem.system
    if not _momenta_eliminable(problem):
        raise DimensionMismatch("momentum elimination needs the kinetic L2 setup")
    _, _, mu, transported = interval_momenta(sys_, problem.h, np.asarray(xis, dtype=float))
    nus = np.empty((problem.N + 1, sys_.n))
    nus[0] = problem.nu0
    nus[-1] = problem.nuN
    nus[1:-1] = 0.5 * (mu[1:] + transported[:-1])
    return nus


def residual_dimension(problem, eliminate_momenta=False):
    N, n, m = problem.N, problem.system.n, problem.system.m
    if eliminate_momenta:
        return N * n
    dim = (2 * N - 1) * n
    if not problem.system.fully_actuated:
        dim += 2 * N * (n - m)
    return dim


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

@dataclass
class LieOcSolution:
    gs: np.ndarray
    xis: np.ndarray
    nus: np.ndarray        # (N+1, n), boundary entries included
    lambdas: Optional[np.ndarray]
    controls: np.ndarray   # (N, 2, m)
    cost: float
    report: object


def initial_guess(problem):
    """Constant-velocity interpolation of the boundary displacement."""
    sys_ = problem.system
    N, n = problem.N, sys_.n
    xi_bar = sys_.group.tau_inv(problem.displacement) / (N * problem.h)
    xis = np.tile(xi_bar, (N, 1))
    _, _, mu, transported = interval_momenta(sys_, problem.h, xis)
    nus_interior = 0.5 * (mu[1:] + transported[:-1])
    lambdas = None
    if not sys_.fully_actuated:
        lambdas = np.zeros((N, 2, n - sys_.m))
    return xis, nus_interior, lambdas


def _pack(problem, xis, nus_interior, lambdas, eliminate):
    parts = [np.asarray(xis, dtype=float).reshape(-1)]
    if not eliminate:
        parts.append(np.asarray(nus_interior, dtype=float).reshape(-1))
        if lambdas is not None:
            parts.append(np.asarray(lambdas, dtype=float).reshape(-1))
    return np.concatenate(parts)


def _unpack(problem, z, eliminate):
    sys_ = problem.system
    N, n, m = problem.N, sys_.n, sys_.m
    xis = z[: N * n].reshape(N, n)
    if eliminate:
        return xis, None, None
    nus_interior = z[N * n : N * n + (N - 1) * n].reshape(N - 1, n)
    lambdas = None
    if not sys_.fully_actuated:
        lambdas = z[N * n + (N - 1) * n :].reshape(N, 2, n - m)
    return xis, nus_interior, lambdas


def _jacobian_structure(problem, eliminate):
    """Sparsity of the residual Jacobian, read off the block layout.

    The unknowns of interval k are xi_k, the interior node momenta nu_k and
    nu_{k+1}, and its multiplier pair.  The velocity and momentum rows at
    node k touch intervals k-1 and k; with eliminated momenta nu_k is built
    from xi_{k-1} and xi_k, so node k touches xi_{k-2..k+1}.  Complement
    rows touch their own interval.  With a potential g_k depends on every
    earlier xi, and so do the rows at node k.  The n reconstruction rows
    depend on every xi: they are the dense border, differenced through
    ``reconstruction_residual`` alone.
    """
    sys_ = problem.system
    N, n, s = problem.N, sys_.n, sys_.n - sys_.m
    dim = residual_dimension(problem, eliminate)
    xi = np.arange(N * n).reshape(N, n)
    pattern = np.zeros((dim, dim), dtype=bool)
    if eliminate:
        for k in range(1, N):
            pattern[(k - 1) * n : k * n, xi[max(k - 2, 0) : k + 2].ravel()] = True
    else:
        # nu[j] holds node j's columns; only the interior rows 1..N-1 are used
        nu = N * n + np.arange(-n, N * n).reshape(N + 1, n)
        lam = (2 * N - 1) * n + np.arange(2 * N * s).reshape(N, 2 * s)

        def interval(k):
            nodes = [nu[j] for j in (k, k + 1) if 0 < j < N]
            return np.concatenate([xi[k], lam[k]] + nodes)

        for k in range(1, N):
            cols = np.concatenate([interval(k - 1), interval(k)])
            if sys_.potential is not None:
                cols = np.concatenate([cols, xi[:k].ravel()])
            rows = np.r_[(k - 1) * n : k * n, (N + k - 2) * n : (N + k - 1) * n]
            pattern[np.ix_(rows, cols)] = True
        for k in range(N):
            first = 2 * (N - 1) * n + 2 * k * s
            pattern[first : first + 2 * s, interval(k)] = True

    def border(z):
        return reconstruction_residual(problem, z[: N * n].reshape(N, n))

    return JacobianStructure(pattern=pattern, border_rows=np.arange(dim - n, dim),
                             border_cols=xi.ravel(), border=border)


def residual_system(problem, eliminate_momenta=None):
    """Square ResidualSystem for ``solve``; returns (system, eliminate_flag).

    With eliminated momenta the unknowns are the interval velocities alone
    and the residual is the N n-dimensional one: velocity stationarity at
    the interior nodes plus the reconstruction constraint.  The system
    carries the Jacobian's sparsity, so finite-difference Jacobians take one
    residual pair per column colour.
    """
    if eliminate_momenta is None:
        eliminate_momenta = _momenta_eliminable(problem)
    N, n = problem.N, problem.system.n

    def eval_(z):
        xis, nus_interior, lambdas = _unpack(problem, z, eliminate_momenta)
        if not eliminate_momenta:
            return general_residual(problem, xis, nus_interior, lambdas)
        res = general_residual(problem, xis, eliminated_nus(problem, xis)[1:-1])
        # node-momentum stationarity vanishes identically under the elimination
        return np.concatenate([res[: (N - 1) * n], res[2 * (N - 1) * n :]])

    dim = residual_dimension(problem, eliminate_momenta)
    structure = _jacobian_structure(problem, eliminate_momenta)
    return ResidualSystem(dim=dim, eval=eval_, structure=structure), eliminate_momenta


def solve(problem, tol=1e-6, max_iter=100, method="auto", guess=None,
          eliminate_momenta=None):
    """Solve the two-point problem and recover the control trajectory.

    ``method`` is one of ``solvers.METHODS`` or "auto"; ``solvers.solve``
    runs its attempts, each from the initial guess z0 with its own budget of
    ``max_iter`` iterations.  Auto means Newton with an LM fallback when
    fully actuated; for underactuated problems LM runs first (robust against
    the cold-start multiplier block) and, if it stalls, damped Newton
    restarts from z0 (not from LM's best iterate).  Raises NoConvergence or
    SingularJacobian when every attempt fails, ConfigError for an unknown
    method.
    """
    system, eliminate = residual_system(problem, eliminate_momenta)
    if guess is None:
        guess = initial_guess(problem)
    z0 = _pack(problem, *guess, eliminate)
    attempts = {"newton": newton, "levenberg_marquardt": levenberg_marquardt}
    z, report = solvers.solve(system, z0, attempts, method,
                              problem.system.fully_actuated, tol, max_iter)
    return assemble_solution(problem, z, eliminate, report)


def assemble_solution(problem, z, eliminate_momenta=None, report=None):
    """Build a LieOcSolution from a packed unknown vector (e.g. a solver's
    best iterate), recovering path, controls and cost."""
    sys_ = problem.system
    if eliminate_momenta is None:
        eliminate_momenta = _momenta_eliminable(problem)
    xis, nus_interior, lambdas = _unpack(problem, z, eliminate_momenta)
    if eliminate_momenta:
        nus = eliminated_nus(problem, xis)
    else:
        nus = _full_nus(problem, nus_interior)
    gs = reconstruct(sys_.group, problem.g0, problem.h, xis)
    _, _, _, _, um, up = _controls_from_momenta(problem, xis, nus, gs)
    controls = np.stack([um, up], axis=1)
    cost = float(
        np.sum((problem.h / 2.0) * (problem.cost.value_batch(um)
                                    + problem.cost.value_batch(up)))
    )
    return LieOcSolution(gs=gs, xis=xis, nus=nus, lambdas=lambdas,
                         controls=controls, cost=cost, report=report)
