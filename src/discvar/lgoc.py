"""Optimal control of left-trivialized reduced systems on Lie groups.

A trajectory is described by per-interval body velocities xi_k (algebra
coordinates, k = 0..N-1) with configurations reconstructed through the
retraction, g_{k+1} = g_k tau(h xi_k).  Each interval carries the momentum

    mu_k = dtau_inv(h xi_k)^* (I xi_k)

and the node momenta

    nu_k     = mu_k + (h/2) dV(g_k)                    - (h/2) f(xi_k, u_k^-)
    nu_{k+1} = coAd(tau(h xi_k), mu_k) - (h/2) dV(g_{k+1}) + (h/2) f(xi_k, u_k^+)

with the affine force model f(xi, u) = drift(h xi) + B u and the
left-trivialized potential gradient dV.  Inverting these relations
(``momentum_defects``) expresses the control pair, hence the running cost, in
terms of (nu_k, xi_k, nu_{k+1}); zeroing the gradient of the summed cost under
group-consistent variations, together with the reconstruction condition that
the tau-product of the interval displacements matches g0^-1 gT, yields a
square root-finding problem.  nu_0 and nu_N are pinned to the boundary
velocities.

The residual is exact: the derivatives of the interval maps in xi_k come in
closed form from the retraction's tangent maps and their derivative
(``_xi_gradients``), and the drift and the potential supply their own
(``ReducedSystem``).  The residual is the gradient of the summed cost, so
its Jacobian (``residual_system``) is assembled exactly from the interval
terms' Hessians in (nu_k, xi_k, lambda_k, nu_{k+1}), one batched pass for
all intervals, through the tangent maps' first and second derivatives
(``_interval_hessians``).  What flows through the reconstruction, the
potential's dependence on the node configurations and the reconstruction
rows, is chained through the configuration sensitivities of one
``reconstruct``.  Nothing is differenced.  The interval pass that the
residual and the Jacobian share (``_interval_pass``) also takes a leading
axis of points, on which Newton's line search evaluates its trial steps
together (``residual_system``).

Underactuated systems (unactuated coordinate set sigma nonempty) add the
per-interval conditions that the momentum defects, less the drift, have no
sigma-component, with one multiplier pair per interval adjoined to the
interval cost.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import solvers
from .errors import (POTENTIAL_METHODS, DimensionMismatch, NotInvertible, RankDeficient,
                     require_methods)
from .lie import mt, mv
from .solvers import Point, ResidualSystem, levenberg_marquardt, newton

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
    drift          optional force on the interval displacement z = h xi:
                   either an (n, n) matrix H, the linear drift z -> z H^T
                   (H z per interval), whose Jacobian is H and whose
                   curvature is zero, or a model with drift(z) -> covector
                   coordinates, its Jacobian drift.jacobian(z) -> (n, n)
                   and drift.curvature(z, w) -> (n, n), the Hessian in z of
                   w . drift(z), all batched over leading axes; defaults to
                   zero
    potential      optional model with value(g), the left-trivialized
                   gradient left_grad(g) -> (n,), its left Hessian
                   left_hess(g) -> (n, n) and the Hessian's derivative
                   along a covector w, left_curvature(g, w) -> (n, n), all
                   batched (``systems.HeavyTopPotential``)

    A drift model or a potential without one of its methods raises
    ConfigError.  ``sigma`` holds the unactuated coordinates as a read-only
    np.intp array, the index the complement conditions take; the
    pseudo-inverse ``control_pinv`` is formed when first read, which a march
    (``integrate_reduced``) never does.
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
        self.inertia_inv = np.linalg.inv(self.inertia)
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
        self.sigma = np.array(self.unactuated, dtype=np.intp)
        self.sigma.flags.writeable = False
        if np.any(self.control_basis[self.sigma, :] != 0.0):
            raise DimensionMismatch("control basis has entries on unactuated rows")
        if np.linalg.matrix_rank(self.control_basis) < m:
            raise RankDeficient("control basis rank is below the control dimension")
        if callable(self.drift):
            require_methods(self.drift, ("jacobian", "curvature"), "a drift")
        elif self.drift is not None:
            self.drift = np.asarray(self.drift, dtype=float)
            if self.drift.shape != (n, n):
                raise DimensionMismatch("a linear drift must be an (n, n) matrix")
        if self.potential is not None:
            require_methods(self.potential, POTENTIAL_METHODS, "a potential")

    @functools.cached_property
    def control_pinv(self):
        return np.linalg.pinv(self.control_basis)

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
        if self.drift_is_linear:
            return np.asarray(z, dtype=float) @ self.drift.T
        return np.asarray(self.drift(z), dtype=float)

    @property
    def has_drift(self):
        return self.drift is not None

    @property
    def drift_is_linear(self):
        return isinstance(self.drift, np.ndarray)


@dataclass
class OcProblemLie:
    """Two-point reduced optimal control problem on a Lie group.

    The boundary pins the configurations g0, gT and the velocities xi0, xiT
    (through the node momenta nu_0 = I xi0, nu_N = I xiT).  ``cost`` is a
    running cost with value_batch, grad_batch and hess_batch over stacks of
    control vectors, such as ``systems.L2Cost``.
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
    """mu_k and its transport coAd(tau(h xi_k), mu_k), for all intervals.

    Returns (z, W, mu, transported, D, A) with z = h xi, W = tau(z),
    D = dtau_inv(z) and A = Ad(W), so callers reuse the kernels.
    """
    xis = np.asarray(xis, dtype=float)
    z = h * xis
    return _interval_maps(system, xis, z, system.group.dtau_inv_matrix(z))


def _interval_maps(system, xis, z, D):
    """``interval_momenta`` from its D = dtau_inv(z).  The residual and the
    Jacobian, which also need D's derivative, hand in the D of their one
    ``dtau_inv_deriv`` call."""
    group = system.group
    W = group.tau(z)
    A = group.Ad_matrix(W)
    mu = mv(mt(D), xis @ system.inertia.T)
    return z, W, mu, mv(mt(A), mu), D, A


def _node_grads(system, gs):
    """The potential's left gradients grad V(g) at the node configurations
    gs; None without a potential."""
    if system.potential is None:
        return None
    if gs is None:
        raise DimensionMismatch("potential systems need the node configurations gs")
    return np.asarray(system.potential.left_grad(gs), dtype=float)


def _legendre_ends(h, mu, transported, G):
    """l_k = mu_k + (h/2) grad V(g_k) and r_k = coAd(tau(h xi_k), mu_k)
    - (h/2) grad V(g_{k+1}), from the node gradients G of ``_node_grads``;
    leading point axes ride along."""
    if G is None:
        return mu, transported
    G = G.reshape(mu.shape[:-2] + (-1, mu.shape[-1]))
    return (mu + (h / 2.0) * G[..., :-1, :].reshape(mu.shape),
            transported - (h / 2.0) * G[..., 1:, :].reshape(mu.shape))


def nu_momenta(system, h, xi, u_minus, u_plus, gs=None, maps=None):
    """Node momenta (nu_k, nu_{k+1}) of one interval xi (n,) or of a batch
    (N, n).  With a potential, ``gs`` must hold the node configurations:
    (g_k, g_{k+1}), or g_0..g_N for a batch; ``maps`` is xi's
    ``interval_momenta`` if the caller formed it."""
    z, _, mu, transported, _, _ = maps or interval_momenta(system, h, np.asarray(xi, dtype=float))
    left, right = _legendre_ends(h, mu, transported, _node_grads(system, gs))
    Bt = system.control_basis.T
    d = system.drift_values(z)
    f_m = d + np.asarray(u_minus, dtype=float) @ Bt
    f_p = d + np.asarray(u_plus, dtype=float) @ Bt
    return left - (h / 2.0) * f_m, right + (h / 2.0) * f_p


# step j of a window of march steps is solved when max |r_j| is at most
# _WINDOW_TOL (1 + max |m+(xi_j)|), its momentum's size
_WINDOW_TOL = 1e-13


def _step_errors(r, m):
    """max |r_j| / (_WINDOW_TOL (1 + max |m_j|)) of every step j.  The row
    maxima read column-major copies: numpy reduces a row of a few entries
    per inner loop, and a column-major array in one pass."""
    return np.abs(r, order="F").max(axis=1) / (
        _WINDOW_TOL * (1.0 + np.abs(m, order="F").max(axis=1)))


def _window_system(system, h, X, g, head, forcing, constant):
    """The step residuals of a window of march steps at its velocities X
    (W, n), and the factoring of their Newton step (``integrate_reduced``);
    returns (error, d, r, factor).

    ``g`` is the configuration g_0 at the window's first node, ``head`` the
    first step's m-(xi_{-1}) with its half drift, and ``forcing`` the steps'
    control covectors f_j or None.  r (W, n) holds the residuals r_j,
    formed from one ``dtau_inv_matrix`` call at +-h xi; with a potential r_j
    gains h grad V(g_j), at g_j = g_0 tau(h xi_0) ... tau(h xi_{j-1}) of X,
    from one batched ``tau``, a per-step product and one ``left_grad`` call.
    ``error`` (W,) is max |r_j| against _WINDOW_TOL (1 + max |m+(xi_j)|),
    and d the half drifts (h/2) d(h xi_j) or None.

    factor() returns the operator of the Newton step B_j delta_j = C_j
    delta_{j-1} - r_j, whose blocks are the derivatives of the momenta:
    d/dxi of dtau_inv(+-h xi)^T I xi is D^T I +- h K, with K from one
    ``dtau_inv_deriv_along`` call at the points of the evaluation, less the
    drift's (h^2/2) d drift/dz.  It inverts the blocks B_j in one batched
    call, and keeps A_j = B_j^-1 C_j in the scan's maps
    (``solvers.scan_maps``) of the recurrence delta_j = A_j delta_{j-1} +
    b_j; operator(res) maps the residuals of the first V steps to b_j =
    -B_j^-1 r_j and scans them, so it solves the update of any residual, or
    of any leading steps'.  It raises LinAlgError on a singular block.

    With a potential, moving the velocities moves g_j to g_j tau(s_j), s_0
    = 0 and s_j = P_{j-1} delta_{j-1} + E_{j-1} s_{j-1} with E = Ad(tau(h
    xi)^-1) and P = E h dtau(h xi) = h dtau(-h xi) (``_sensitivities``), and
    the step becomes B_j delta_j = C_j delta_{j-1} - h H_j s_j - r_j, H the
    potential's left Hessians (its ``left_hess``).  The state (delta_j,
    s_j) then follows a recurrence 2n wide, with the maps [[A_j - G_j
    P_{j-1}, -G_j E_{j-1}], [P_{j-1}, E_{j-1}]], G_j = h B_j^-1 H_j, and b_j
    in its first n coordinates.

    ``constant`` says that every row of X is the same velocity, the window's
    start: D and tau come from +-h xi at one point each, and the build
    forms one (B, C) pair, a (1, n, n) stack, through the same batched
    calls, which then broadcasts over the window, bitwise the blocks, maps
    and updates of the 2W-1 points.  The drift values, the path and the
    potential's terms stay W wide.

    On R^n without a potential or a drift, m+-(xi) = I xi needs no
    ``dtau_inv_matrix`` call, and B_j = C_j = I makes A_j = I exactly: the
    operator is the cumulative sum of b_j = -I^-1 r_j, with no scan.
    """
    group, inertia, n = system.group, system.inertia, system.n
    drift = system.drift_values if system.has_drift else None
    if group.name == "Rn" and drift is None and system.potential is None:
        m = X @ inertia.T
        r = m - np.concatenate([head[None], m[:-1]])
        if forcing is not None:
            r -= forcing
        step = -system.inertia_inv.T
        return _step_errors(r, m), None, r, lambda: lambda res: (res @ step).cumsum(axis=0)
    size = len(X)
    z = h * X
    Ixi = X @ inertia.T
    # +h xi_j at every step, -h xi_j at all but the last
    plus, minus = (1, 1) if constant else (size, size - 1)
    Ixi = np.concatenate([Ixi[:plus], Ixi[:minus]])
    points = np.concatenate([z[:plus], -z[:minus]])
    D = group.dtau_inv_matrix(points)
    m = (Ixi[:, None, :] @ D)[:, 0]
    r = m[:plus] - np.concatenate([head[None], np.broadcast_to(m[plus:], (size - 1, n))])
    d = None
    if drift is not None:
        d = (h / 2.0) * drift(z)
        r -= d
        r[1:] -= d[:-1]
    if forcing is not None:
        r -= forcing
    if system.potential is not None:
        taus = group.tau(z[:minus])
        path = reconstruct(group, g, h, None, np.broadcast_to(taus, (size - 1,) + taus.shape[1:]))
        r += h * _node_grads(system, path)
    error = _step_errors(r, m[:plus])

    def factor():
        signed = np.repeat([h, -h], [plus, minus])[:, None, None]
        J = mt(D) @ inertia + signed * group.dtau_inv_deriv_along(points, Ixi)
        B, C = J[:plus], J[plus:]
        if drift is not None:
            Jd = np.broadcast_to((h * h / 2.0) * _drift_jacobians(system, z[:plus]), B.shape)
            B = B - Jd
            C = C + (Jd if constant else Jd[:-1])
        inverse = np.linalg.inv(B)
        later = inverse if constant else inverse[1:]
        A = later @ C
        if system.potential is None:
            maps = solvers.scan_maps(np.broadcast_to(A, (size - 1, n, n)))
            return lambda res: solvers.scan_apply(maps, -mv(inverse[:len(res)], res))
        E = group.Ad_matrix(group.inverse(taus))
        P = h * group.dtau_matrix(points[plus:])
        G = (h * later) @ np.asarray(system.potential.left_hess(path[1:]), dtype=float)
        maps = np.empty((size - 1, 2 * n, 2 * n))
        maps[:, :n, :n] = A - G @ P
        maps[:, :n, n:] = -(G @ E)
        maps[:, n:, :n] = P
        maps[:, n:, n:] = E
        maps = solvers.scan_maps(maps)

        def solve(res):
            b = -mv(inverse[:len(res)], res)
            return solvers.scan_apply(maps, np.concatenate([b, np.zeros_like(b)], axis=1))[:, :n]

        return solve

    return error, d, r, factor


def integrate_reduced(system, g0, xi0, h, steps, controls=None):
    """March the forced discrete momentum equation; returns (gs, xis, mus).

    ``steps`` >= 1 counts the intervals, the first one included, ``xi0``
    has length n and ``g0`` the shape of the group's elements; anything else
    raises DimensionMismatch.
    ``controls`` has shape (steps, 2, m) holding (u_k^-, u_k^+); interval 0
    is determined by the initial velocity, so its u_0^- is unused.  The
    control covectors f_k = (h/2) B (u^+_{k-1} + u^-_k) of every node come
    from one product.

    The march solves its steps in windows (``solvers.march_in_windows``):
    the velocities xi_k..xi_{k+W-1} of W steps at once, by Newton's method
    (``solvers.window_newton``) from the constant velocity xi_{k-1}, on

        r_j = m+(xi_j) - m-(xi_{j-1}) - (h/2) (d(h xi_j) + d(h xi_{j-1})) - f_j
              + h grad V(g_j),

    with m+-(xi) = dtau_inv(+-h xi)^T I xi, d the drift and grad V the
    potential's left gradient at g_j = g_k tau(h xi_k) ... tau(h xi_{j-1}):
    the forced discrete momentum equation, since coAd(tau(h xi), m+(xi)) =
    m-(xi).  The first step's m-(xi_{k-1}) is the carried momentum
    transported, coAd(tau(h xi_{k-1}), mu_{k-1}).  Only the terms the system
    has are formed.  An evaluation forms every r_j from one
    ``dtau_inv_matrix`` call on the stacked displacements +-h xi
    (``_window_system``).  The Jacobian is block lower triangular, so a
    Newton update is an affine recurrence, which a prefix scan solves:
    delta_j = A_j delta_{j-1} + b_j, n wide, and with a potential, whose
    r_j reads every earlier velocity of the window through g_j, the
    recurrence of (delta_j, s_j), 2n wide, s_j the move of g_j.  The
    window's operator (``_window_system``'s factor) inverts its blocks in
    one batched call, takes their derivative part from one
    ``dtau_inv_deriv_along`` call, and keeps the scan's maps, so it solves
    the update of any residual.  It is built only when ``window_newton``
    needs a new one, and reused while the chord step is predicted to
    converge.  The window's first evaluation, at its constant start, works
    from single points: D at +-h xi_{k-1}, and for its operator one pair of
    blocks, a (1, n, n) stack broadcast over the window, bitwise the
    blocks, maps and updates of the 2W-1 points.  A step of the window is
    solved when max |r_j| is at most _WINDOW_TOL (1 + max |m+(xi_j)|); the
    solved steps then take one more update, by the window's last operator
    (built at the start when the window converged there; the one built
    before a build that met a singular block, none when the first build met
    one), which lands them within rounding of the root.  Their tau(h xi_j)
    come from one batched call, and each g_{j+1} = g_j tau(h xi_j), the
    first step's included, is written straight into the preallocated path
    by ``_sequential_products``, the primitive ``reconstruct`` runs: one
    np.dot per step on row views, the bytes of np.matmul (``_composition``).
    The momentum is carried as mu_j = coAd(tau(h xi_{j-1}), mu_{j-1})
    + f_j + (h/2) (d_{j-1} + d_j) - h grad V(g_j), with the drift values of
    the window's last evaluation and the potential's gradients on the
    committed path, from one call.  The free body transports it step by
    step, exactly, mu_j = mu_{j-1} Ad(tau(h xi_{j-1})) by the same
    primitive, np.dot of a row vector (gemv, as np.matmul calls it); with
    controls, a drift or a potential it is the affine
    recurrence mu_j = Ad(tau(h xi_{j-1}))^T mu_{j-1} + c_j, whose c_j are
    formed in one pass, mu_{k-1}'s transport folded into c_0, and solved by
    one scan over the window's transposed Ad blocks.

    R^n (``lie.real_n``, the march ``mech.integrate`` runs) is abelian: tau
    is the identity chart, Ad and coAd are the identity, and g_{j+1} = g_j +
    h xi_j.  There the first step's m-(xi_{k-1}) is mu_{k-1} itself, and
    the commit forms the path and the momentum carry mu_j = mu_{j-1} + c_j
    by cumulative sums, bitwise the sequential adds.  Without a potential
    or a drift the momenta are m+-(xi) = I xi, formed with no
    ``dtau_inv_matrix`` call, and the Newton step's recurrence has A_j = I
    exactly, so the operator is the cumulative sum of -I^-1 r_j, with no
    scan.

    A window that does not converge is halved, and one whose residual is
    not finite is solved step by step, each step a window of one step.  The
    march passes no rescue: a step alone that is not solved within
    ``solvers.WINDOW_MAX_ITER`` updates, or whose residual is not finite,
    makes ``march_in_windows`` raise StepSolveFailed with its index.
    """
    group = system.group
    n = system.n
    inertia = system.inertia
    if steps < 1:
        raise DimensionMismatch(f"steps must be at least 1, got {steps}")
    xi0 = np.asarray(xi0, dtype=float)
    if xi0.shape != (n,):
        raise DimensionMismatch(f"xi0 must have length {n}, got shape {xi0.shape}")
    g0 = np.asarray(g0, dtype=float)
    shape = group.identity().shape
    if g0.shape != shape:
        raise DimensionMismatch(f"g0 must have the shape {shape}, got {g0.shape}")
    forcing = None
    if controls is not None:
        controls = np.asarray(controls, dtype=float)
        if controls.shape != (steps, 2, system.m):
            raise DimensionMismatch("controls must have shape (steps, 2, m)")
        forcing = ((h / 2.0) * (controls[:-1, 1] + controls[1:, 0])) @ system.control_basis.T
    drift = system.drift_values if system.has_drift else None
    abelian = group.name == "Rn"
    gs = np.empty((steps + 1,) + shape)
    gs[0] = g0
    compose = _composition(group)
    xis = np.empty((steps, n))
    mus = np.empty((steps, n))
    taus = np.empty((steps,) + shape)
    xis[0] = xi0
    mus[0] = (inertia @ xi0) @ group.dtau_inv_matrix(h * xi0)
    taus[0] = group.tau(h * xi0)
    _sequential_products(list(gs[:2]), taus[:1], compose)
    # with a drift, the (h/2) d(h xi) of the last step solved
    half_drift = None

    def window(k, size):
        nonlocal half_drift
        if drift is not None and half_drift is None:
            half_drift = (h / 2.0) * drift(h * xis[k - 1])
        # coAd is the identity on R^n
        head = mus[k - 1] if abelian else group.coAd(taus[k - 1], mus[k - 1])
        if drift is not None:
            head = head + half_drift
        f = None if forcing is None else forcing[k - 1:k - 1 + size]
        start = np.repeat(xis[k - 1][None], size, axis=0)
        point = None

        def linearize(X):
            nonlocal point
            error, d, r, factor = _window_system(system, h, X, gs[k], head, f, X is start)
            point = (d, r)
            return error, r, factor

        def commit(X, count, operator):
            nonlocal half_drift
            d, r = point
            # one more update, by the window's last operator: from a solved
            # point it lands within rounding of the root.  The drift values
            # d stay those of the point before it: the update moves each
            # xi_j by about the step tolerance, so d differs from the drift
            # at the committed xi_j by that times the drift's slope, far
            # below the momentum's rounding checks, and no drift call is
            # spent on the committed point
            try:
                X = X[:count] + operator()(r[:count])
            except np.linalg.LinAlgError:
                X = X[:count]
            xis[k:k + count] = X
            if abelian:
                # g_{j+1} = g_j + h xi_j by one cumulative sum, bitwise the
                # sequential adds
                path = gs[k:k + count + 1]
                np.multiply(h, X, out=path[1:])
                path.cumsum(axis=0, out=path)
            else:
                taus[k:k + count] = group.tau(h * X)
                _sequential_products(list(gs[k:k + count + 1]), taus[k:k + count], compose)
                Ad = group.Ad_matrix(taus[k - 1:k + count - 1])
                if f is None and d is None and system.potential is None:
                    # step by step, so that the free body's mu_j is exactly
                    # coAd(tau(h xi_{j-1}), mu_{j-1})
                    _sequential_products(list(mus[k - 1:k + count]), Ad, np.dot)
                    return
            # mu_j = Ad_j^T mu_{j-1} + c_j is an affine recurrence: c_j = f_j +
            # (h/2) (d_{j-1} + d_j) - h grad V(g_j), with mu_{k-1}'s transport
            # in c_0, and one scan over the transposed Ad_j of the later steps
            c = np.zeros((count, n)) if f is None else f[:count].copy()
            if d is not None:
                c += d[:count]
                c[0] += half_drift
                c[1:] += d[:count - 1]
                half_drift = d[count - 1]
            if system.potential is not None:
                c -= h * _node_grads(system, gs[k:k + count])
            if abelian:
                # Ad_j = I: mu_j = mu_{j-1} + c_j
                c[0] += mus[k - 1]
                c.cumsum(axis=0, out=mus[k:k + count])
                return
            c[0] += mus[k - 1] @ Ad[0]
            mus[k:k + count] = solvers.scan_apply(solvers.scan_maps(mt(Ad[1:])), c)

        return start, linearize, commit

    solvers.march_in_windows(1, steps, window)
    return gs, xis, mus


def _composition(group, stacked=False):
    """The group product, written into its third argument: R^n composes by
    addition, the matrix groups by the product ``GroupSpec.multiply`` forms.
    One point's 2-D rows take np.dot, which calls the BLAS routine np.matmul
    calls (gemm), with the same arguments, so it writes the same bytes
    without matmul's ufunc dispatch; its output must be C-contiguous, as
    the rows of a fresh array are.  A ``stacked`` product, whose operands
    carry leading point axes, takes np.matmul: np.dot on operands of more
    than two axes is a tensordot, not a batched product, and raises a shape
    error, which a stacked interval pass would meet only as a silent
    fallback to its rows (``solvers._evaluate_stack``)."""
    if group.name == "Rn":
        return np.add
    return np.matmul if stacked else np.dot


def _sequential_products(rows, steps, product):
    """x_{j+1} = x_j M_j for j = 0, 1, ... in turn: ``rows`` are the row
    views x_0..x_N of a preallocated array, x_0 set, and ``steps`` holds
    M_0..M_{N-1}; ``product(x_j, M_j, x_{j+1})`` writes each row.  The
    march's path and momentum carry and ``reconstruct`` share it."""
    for a, b, c in zip(rows, steps, rows[1:]):
        product(a, b, c)


def reconstruct(group, g0, h, xis, W=None):
    """Configurations g_0..g_N from interval velocities xis (..., N, n), any
    leading axes being points that share g0; ``W`` is their tau(h xi_k) when
    the caller has formed it (``interval_momenta``).  Each product g_k W_k
    is written straight into the preallocated path by
    ``_sequential_products``, as ``GroupSpec.multiply`` would form it: for
    one point by np.dot on its 2-D rows, for a stack of points by one
    np.matmul per node over every point at once (``_composition``)."""
    if W is None:
        W = group.tau(h * np.asarray(xis, dtype=float))
    g0 = np.asarray(g0, dtype=float)
    axis = W.ndim - g0.ndim - 1
    gs = np.empty(W.shape[:axis] + (W.shape[axis] + 1,) + g0.shape)
    # views with the node axis first: writing them writes gs
    nodes, steps = gs.swapaxes(0, axis), W.swapaxes(0, axis)
    nodes[0] = g0
    _sequential_products(list(nodes), steps, _composition(group, axis > 0))
    return gs


# ---------------------------------------------------------------------------
# interval cost evaluation (batched over intervals)
# ---------------------------------------------------------------------------

def momentum_defects(problem, xis, nus, gs=None, maps=None, grads=None, drift=None):
    """(u^-, u^+, phi^-, phi^+) for every interval from the node momenta,
    at one point or, along leading axes, at a stack of points.

    The defects delta^- = l_k - nu_k and delta^+ = nu_{k+1} - r_k (l, r of
    ``_legendre_ends``) give the controls u = B^+((2/h) delta - d) and the
    complement conditions phi = (delta - (h/2) d)_sigma, d the drift.
    ``nus`` (N+1, n) includes the boundary entries; ``gs`` (g_0..g_N) is
    needed with a potential, unless ``grads`` holds the potential's
    gradients there (``_node_grads``); ``maps`` defaults to
    ``interval_momenta``, and ``drift`` to the drift values at its z.  A
    system without a drift has no d: no drift is evaluated and no zero is
    subtracted, and since x - (+0.0) is x bitwise, -0.0 and NaN included,
    the controls and complement conditions are the bits a zero d gives.
    """
    sys_ = problem.system
    h = problem.h
    if maps is None:
        maps = interval_momenta(sys_, h, xis)
    z, _, mu, transported, _, _ = maps
    d = sys_.drift_values(z) if drift is None and sys_.has_drift else drift
    if grads is None:
        grads = _node_grads(sys_, gs)
    left, right = _legendre_ends(h, mu, transported, grads)
    delta_m = left - nus[..., :-1, :]
    delta_p = nus[..., 1:, :] - right
    Pt = sys_.control_pinv.T
    sigma = sys_.sigma
    if d is None:
        um, up = ((2.0 / h) * delta_m) @ Pt, ((2.0 / h) * delta_p) @ Pt
        return um, up, delta_m[..., sigma], delta_p[..., sigma]
    um = ((2.0 / h) * delta_m - d) @ Pt
    up = ((2.0 / h) * delta_p - d) @ Pt
    phi_m = (delta_m - (h / 2.0) * d)[..., sigma]
    phi_p = (delta_p - (h / 2.0) * d)[..., sigma]
    return um, up, phi_m, phi_p


def action_sum(problem, xis, nus, lambdas=None, gs=None):
    """Total momentum-space cost (with multiplier terms) over the path."""
    h = problem.h
    if gs is None and problem.system.potential is not None:
        gs = reconstruct(problem.system.group, problem.g0, h, xis)
    um, up, phi_m, phi_p = momentum_defects(problem, xis, nus, gs)
    vals = (h / 2.0) * (problem.cost.value_batch(um) + problem.cost.value_batch(up))
    if lambdas is not None and lambdas.size:
        vals = vals + np.einsum("ks,ks->k", lambdas[:, 0], phi_m)
        vals = vals + np.einsum("ks,ks->k", lambdas[:, 1], phi_p)
    return float(np.sum(vals))


def _xi_gradients(problem, xis, D, T3, mu, e, ad_e, c_minus, c_plus, Jd, T):
    """d/dxi_k of the interval-k cost term, holding nu, lambda and gs fixed.

    The term depends on xi only through mu, its transport coAd(W, mu) and
    the drift d(z), z = h xi; D = dtau_inv(z) and its derivative T3 come from one
    ``dtau_inv_deriv`` call, Jd from ``_drift_jacobians`` and T =
    dtau_matrix(z).  ``c_minus`` and ``c_plus`` are the term's derivatives
    in mu and in the transport, with e = c_minus + Ad(W) c_plus and ad_e =
    ad(Ad(W) c_plus); its derivative in d is -(h/2)(c_minus - c_plus).
    The chain rule runs through closed forms: dmu/dxi = D^T I + h (dD/dz)
    contracted with I xi, where D = dtau_inv(z), and the transport moves by
    coAd(W, dmu) + coAd(W, ad(eta)^* mu) with eta = h dtau(z) dxi (tau is
    right-trivialized).  Leading point axes ride along.
    """
    sys_ = problem.system
    h = problem.h
    out = mv(D, e) @ sys_.inertia
    out += h * np.einsum("...lji,...j,...i->...l", T3, xis @ sys_.inertia, e)
    out -= h * mv(mt(T), mv(mt(ad_e), mu))
    if Jd is not None:
        out -= (h * h / 2.0) * np.einsum("...ij,...i->...j", Jd, c_minus - c_plus)
    return out


def _drift_jacobians(system, z):
    """d drift / dz at the interval displacements z (..., n), the drift's
    ``jacobian``, (..., n, n), or for a linear drift its matrix H, (n, n),
    the same at every z; None without a drift."""
    if not system.has_drift:
        return None
    if system.drift_is_linear:
        return system.drift
    return np.asarray(system.drift.jacobian(z), dtype=float)


def _reconstruction_gap(problem, g_N):
    """The reconstruction rows tau^-1(g_N^-1 gT), g_N the end of the path
    ``reconstruct`` builds from the velocities: zero when it reaches gT."""
    group = problem.system.group
    return group.tau_inv(group.multiply(group.inverse(g_N), problem.gT))


def _sensitivities(group, h, xis, gs, T):
    """Factors of the configurations' sensitivities to the velocities.

    Moving xi_k by dxi moves g_j, j > k, to g_j tau(S[j, k] dxi) to first
    order, with the left-trivialized S[j, k] = Ad(g_j^-1 g_k) h dtau(h xi_k)
    (tau is right-trivialized).  Returns (Ainv, P) with Ainv[j] = Ad(g_j^-1)
    for j = 0..N and P[k] = Ad(g_k) h dtau(h xi_k), so S[j, k] = Ainv[j] P[k],
    from T = dtau(h xi_k).
    """
    N = len(xis)
    A = group.Ad_matrix(np.concatenate([gs[:N], group.inverse(gs)]))
    P = A[:N] @ (h * T)
    return A[N:], P


def _full_nus(problem, nus_interior):
    nus = np.empty(nus_interior.shape[:-2] + (problem.N + 1, problem.system.n))
    nus[..., 0, :] = problem.nu0
    nus[..., -1, :] = problem.nuN
    nus[..., 1:-1, :] = nus_interior
    return nus


class _Layout(NamedTuple):
    """What every Jacobian build reads that depends on the problem's layout
    alone, not on the point or on the system's values (``_layout``): the
    index map of ``residual_system``'s scatter and the constants the
    interval blocks read."""

    dest: np.ndarray        # each block entry's bin in the transposed Jacobian
    discard: int            # the last bin, which entries to drop go to
    vel: np.ndarray         # the velocity columns of each interior node
    vel_shift: np.ndarray   # and its shift's rows, (N-1, n, 1)
    dim: int                # the unknowns
    width: int              # the transpose's columns, dim - n
    shifts: int             # its first shift row
    height: int             # its rows
    ad_basis: np.ndarray    # ad(e_l), l = 0..n-1, (n, n, n)
    F: np.ndarray           # dy/d(slots) of ``_interval_hessians``, its -I, +I filled


@functools.lru_cache(maxsize=16)
def _layout(group, N, s, eliminated, potential):
    """The ``_Layout`` of N intervals on ``group`` (n = group.dim) with s
    unactuated coordinates, eliminated or explicit momenta and with or
    without a potential, formed once per layout: every solve of a sweep, a
    restart or a repeated problem reads the same one.  Its arrays are
    read-only, so the builds can share them."""
    n = group.dim
    dim = N * n if eliminated else (2 * N - 1) * n + 2 * N * s
    # the transpose's columns: velocity rows at nodes 1..N-1, then, with
    # explicit momenta, momentum rows there and complement rows
    width = dim - n
    # its rows: xi_0..xi_{N-1}, nu_1..nu_{N-1}, lambda_0..lambda_{N-1}, then
    # the shifts s_1..s_N
    shifts = (2 * N - 1) * n + 2 * N * s
    height = shifts + N * n if potential else shifts
    # the index map: block row r of interval k lands in the transpose's
    # column rows[k, r], block column c in its row cols[k, c].  The entries
    # to drop go to the scatter's last bin, ``discard``: every index past it
    # clips to it
    discard = height * width
    j = np.arange(N + 1)[:, None]
    node = (j - 1) * n + np.arange(n)
    # node j's entries in a group held at nodes 1..N-1
    inner = np.where((j >= 1) & (j < N), node, discard)
    complement = 2 * s * j[:-1] + np.arange(2 * s)
    if eliminated:
        # the blocks hold the velocity rows alone (``_jacobian_blocks``)
        rows = np.concatenate([inner[:-1], inner[1:]], axis=1)
    else:
        rows = np.concatenate([inner[:-1], inner[:-1] + (N - 1) * n,
                               2 * (N - 1) * n + complement,
                               inner[1:], inner[1:] + (N - 1) * n], axis=1)
    rows[rows >= width] = discard
    cols = [inner[:-1] + N * n, node[1:], (2 * N - 1) * n + complement, inner[1:] + N * n]
    if potential:
        s_rows = np.where(j >= 1, shifts + node, discard)
        cols += [s_rows[:-1], s_rows[1:]]
    cols = np.concatenate(cols, axis=1)
    dest = np.minimum(cols[:, None, :] * width + rows[:, :, None], discard).ravel()
    vel = node[1:N]
    vel_shift = (shifts + vel)[:, :, None]
    nu_a, _, _, nu_b = _slots(n, s)
    F = np.zeros((N, 2 * n, 3 * n + 2 * s))
    F[:, :n, nu_a] = -np.eye(n)
    F[:, n:, nu_b] = np.eye(n)
    ad_basis = group.ad_matrix(np.eye(n))
    for a in (dest, vel, vel_shift, ad_basis, F):
        a.flags.writeable = False
    return _Layout(dest, discard, vel, vel_shift, dim, width, shifts, height, ad_basis, F)


def _layout_of(problem):
    """The problem's ``_layout``."""
    sys_ = problem.system
    return _layout(sys_.group, problem.N, sys_.n - sys_.m, _momenta_eliminable(problem),
                   sys_.potential is not None)


# ---------------------------------------------------------------------------
# residuals
# ---------------------------------------------------------------------------

def _interval_covectors(problem, xis, nus, lambdas, maps, grads, drift):
    """(u^-, u^+, phi^-, phi^+, c_minus, c_plus): ``momentum_defects`` and
    the interval cost terms' derivatives in mu and in its transport."""
    sys_ = problem.system
    um, up, phi_m, phi_p = momentum_defects(problem, xis, nus, maps=maps, grads=grads,
                                            drift=drift)
    c_minus = problem.cost.grad_batch(um) @ sys_.control_pinv
    c_plus = -(problem.cost.grad_batch(up) @ sys_.control_pinv)
    if lambdas is not None and lambdas.size:
        sigma = sys_.sigma
        c_minus[..., sigma] += lambdas[..., 0, :]
        c_plus[..., sigma] -= lambdas[..., 1, :]
    return um, up, phi_m, phi_p, c_minus, c_plus


def _nus(problem, xis, nus_interior, maps, drift=None):
    """All node momenta: the eliminated ones (``eliminated_nus``) when
    ``nus_interior`` is None."""
    if nus_interior is None:
        return eliminated_nus(problem, xis, maps, drift)
    return _full_nus(problem, np.asarray(nus_interior, dtype=float))


class _IntervalPass(NamedTuple):
    """The terms ``general_residual`` and ``_jacobian_blocks`` share at a
    point, or at a stack of points along a leading axis
    (``_interval_pass``)."""

    maps: tuple             # (z, W, mu, transported, D, A) of _interval_maps
    T3: np.ndarray          # dD/dz, from the dtau_inv_deriv call that gave D
    T: np.ndarray           # dtau_matrix(z)
    nus: np.ndarray         # nu_0..nu_N
    gs: np.ndarray          # the path g_0..g_N
    gap: np.ndarray         # _reconstruction_gap at g_N
    um: np.ndarray
    up: np.ndarray
    phi_m: np.ndarray
    phi_p: np.ndarray
    c_minus: np.ndarray
    c_plus: np.ndarray
    e: np.ndarray           # c_minus + Ad(W) c_plus
    ad_e: np.ndarray        # ad(Ad(W) c_plus)
    Jd: Optional[np.ndarray]  # _drift_jacobians
    gxi: np.ndarray         # _xi_gradients

    def point(self, k, linear_drift):
        """Point k's pass, out of a stack's: every array is sliced at k but a
        linear drift's Jd, the drift's matrix, which no point axis leads."""
        maps = tuple(a[k] for a in self.maps)
        Jd = self.Jd if self.Jd is None or linear_drift else self.Jd[k]
        return _IntervalPass(maps, *(a[k] for a in self[1:-2]), Jd, self.gxi[k])


def _interval_pass(problem, xis, nus_interior, lambdas):
    """The interval pass at (xis, nus_interior, lambdas): z = h xi, D and
    its derivative from one ``dtau_inv_deriv`` call, the interval maps, the
    drift values (one evaluation, read by the node momenta and the
    covectors; none without a drift), the node momenta (``_nus``), the path
    and its reconstruction gap, the potential's node gradients, the interval
    covectors, e, ad(e_plus), the drift Jacobians, dtau(z) and the
    xi-gradients.  No array in it aliases xis, nus_interior or lambdas, so
    a point's pass outlives later writes to the caller's buffers.

    xis (..., N, n), nus_interior (..., N-1, n) or None and lambdas (..., N,
    2, s) or None may carry a leading axis of points, a stack evaluated in
    the same calls: every kernel and product runs along it, and each
    point's slice of the pass (``_IntervalPass.point``) is bitwise the pass
    of that point alone.  A chart check (``OutOfChart``) raises for the
    whole stack."""
    sys_ = problem.system
    group, h = sys_.group, problem.h
    z = h * xis
    D, T3 = group.dtau_inv_deriv(z)
    maps = _interval_maps(sys_, xis, z, D)
    d = sys_.drift_values(z) if sys_.has_drift else None
    nus = _nus(problem, xis, nus_interior, maps, d)
    gs = reconstruct(group, problem.g0, h, xis, maps[1])
    um, up, phi_m, phi_p, c_minus, c_plus = _interval_covectors(
        problem, xis, nus, lambdas, maps, _node_grads(sys_, gs), d)
    e_plus = mv(maps[5], c_plus)
    e, ad_e = c_minus + e_plus, group.ad_matrix(e_plus)
    Jd = _drift_jacobians(sys_, z)
    T = group.dtau_matrix(z)
    gxi = _xi_gradients(problem, xis, D, T3, maps[2], e, ad_e, c_minus, c_plus, Jd, T)
    gap = _reconstruction_gap(problem, _nodes(gs, xis.ndim - 2, -1))
    return _IntervalPass(maps, T3, T, nus, gs, gap,
                         um, up, phi_m, phi_p, c_minus, c_plus, e, ad_e, Jd, gxi)


def _nodes(gs, lead, k):
    """The nodes ``k`` (an index or a slice) of a path gs whose node axis
    follows ``lead`` point axes."""
    return gs[(slice(None),) * lead + (k,)]


def general_residual(problem, xis, nus_interior, lambdas=None, interval_pass=None):
    """Optimality system for the momentum-space formulation.

    Blocks, in order:
      * velocity-slot stationarity at nodes 1..N-1        ((N-1) n)
      * node-momentum stationarity at nodes 1..N-1        ((N-1) n)
      * complement conditions per interval, if any        (2 N (n-m))
      * reconstruction constraint tau^-1(g_N^-1 gT)       (n)

    ``nus_interior`` None stands for the eliminated momenta of
    ``eliminated_nus``, taken from the same interval maps as the rest.
    ``interval_pass`` is the ``_interval_pass`` at this point when the
    caller has formed it (``residual_system``); it is formed here otherwise.
    The velocity rows are ``_velocity_rows``.  A leading axis of points
    (``_interval_pass``) gives one residual row per point.
    """
    N = problem.N
    xis = np.asarray(xis, dtype=float)
    if lambdas is not None:
        lambdas = np.asarray(lambdas, dtype=float)
    if interval_pass is None:
        interval_pass = _interval_pass(problem, xis, nus_interior, lambdas)
    c_minus, c_plus = interval_pass.c_minus, interval_pass.c_plus
    # nu_k enters interval k opposite mu_k, and interval k-1 opposite its transport
    nu_blocks = -(c_minus[..., 1:N, :] + c_plus[..., : N - 1, :])
    flat = xis.shape[:-2] + (-1,)
    parts = [_velocity_rows(problem, interval_pass).reshape(flat), nu_blocks.reshape(flat)]
    if lambdas is not None and lambdas.size:
        # interval k's phi^- then its phi^+
        parts.append(np.concatenate([interval_pass.phi_m, interval_pass.phi_p],
                                    axis=-1).reshape(flat))
    parts.append(interval_pass.gap)
    return np.concatenate(parts, axis=-1)


def verify_terms(problem, xis, nus, u_minus, u_plus, lambdas=None):
    """(``general_residual``, the path gs, ``nu_momenta`` of the controls u-+,
    phi^-, phi^+) at a written solution (float arrays), from one interval pass
    at (xis, nus[1:-1], lambdas): phi+- read the pinned boundary momenta."""
    p = _interval_pass(problem, xis, nus[1:-1], lambdas)
    left, right = nu_momenta(problem.system, problem.h, xis, u_minus, u_plus, p.gs, p.maps)
    return (general_residual(problem, xis, nus[1:-1], lambdas, p), p.gs, left, right,
            p.phi_m, p.phi_p)


def _velocity_rows(problem, interval_pass):
    """Velocity-slot stationarity at the interior nodes, (..., N-1, n), from
    the interval pass, leading point axes included: the first block of
    ``general_residual``, and with the reconstruction gap all of an
    eliminated residual.

    The rows pull each interval's xi-gradient back to its two nodes through
    dtau_inv(-+z)^T, z = h xi_k.  Since dtau_inv(-z) = dtau_inv(z) Ad(tau(z))
    (Bou-Rabee & Marsden 2009), the pull to node k+1 is Ad(tau(z))^T times
    the pull to node k, both from the pass's D and A: no kernel runs at -z.
    """
    sys_ = problem.system
    h, N = problem.h, problem.N
    _, _, _, _, D, A = interval_pass.maps
    pulled_here = mv(mt(D), interval_pass.gxi)   # contribution of interval k at node k
    pulled_prev = mv(mt(A), pulled_here)         # of interval k-1 at node k
    xi_blocks = (pulled_prev[..., :-1, :] - pulled_here[..., 1:, :]) / h
    if sys_.potential is not None:
        # left-trivialized dependence of the interval costs on interior nodes:
        # G_k enters interval k beside mu_k and interval k-1 opposite its
        # transport, each with weight h/2
        c_minus, c_plus = interval_pass.c_minus, interval_pass.c_plus
        w = (h / 2.0) * (c_minus[..., 1:N, :] - c_plus[..., : N - 1, :])
        inner = _nodes(interval_pass.gs, D.ndim - 3, slice(1, -1))
        hessians = np.asarray(sys_.potential.left_hess(inner), dtype=float)
        xi_blocks = xi_blocks + np.einsum("...kij,...ki->...kj", hessians, w)
    return xi_blocks


def _momenta_eliminable(problem):
    """Whether momentum stationarity can be solved for the node momenta in
    closed form (``eliminated_nus``): whenever the system is fully
    actuated, whatever its drift, potential and cost."""
    return problem.system.fully_actuated


def eliminated_nus(problem, xis, maps=None, drift=None):
    """Node momenta (boundary entries included) that satisfy momentum
    stationarity exactly, for a fully actuated problem
    (``_momenta_eliminable``).

    Stationarity in nu_k reads grad C(u^-_k) = grad C(u^+_{k-1}).  Equal
    controls u^-_k = u^+_{k-1} satisfy it for any cost (and are its only
    solution for a strictly convex one); with B invertible
    (``momentum_defects``) they give nu_k = (l_k + r_{k-1})/2 - (h/4)(d_k -
    d_{k-1}), d the drift.  The potential's half steps in l_k and r_{k-1}
    cancel, so

        nu_k = (mu_k + coAd(tau(h xi_{k-1}), mu_{k-1}))/2 - (h/4)(d_k - d_{k-1}).

    ``maps`` defaults to ``interval_momenta``, and ``drift`` to the drift
    values at its z.  Leading point axes of xis ride along.
    """
    if not _momenta_eliminable(problem):
        raise DimensionMismatch("momentum elimination needs a fully actuated system")
    sys_ = problem.system
    if maps is None:
        maps = interval_momenta(sys_, problem.h, np.asarray(xis, dtype=float))
    z, _, mu, transported, _, _ = maps
    nus = 0.5 * (mu[..., 1:, :] + transported[..., :-1, :])
    if sys_.has_drift:
        d = sys_.drift_values(z) if drift is None else drift
        nus -= (problem.h / 4.0) * (d[..., 1:, :] - d[..., :-1, :])
    return _full_nus(problem, nus)


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


def _constant_velocities(problem):
    """The velocities of the constant-velocity path from g0 to gT, (N, n):
    tau^-1(g0^-1 gT) / (N h) on every interval."""
    xi_bar = problem.system.group.tau_inv(problem.displacement) / (problem.N * problem.h)
    return np.tile(xi_bar, (problem.N, 1))


def initial_guess(problem):
    """Constant-velocity interpolation of the boundary displacement."""
    sys_ = problem.system
    N, n = problem.N, sys_.n
    xis = _constant_velocities(problem)
    _, _, mu, transported, _, _ = interval_momenta(sys_, problem.h, xis)
    nus_interior = 0.5 * (mu[1:] + transported[:-1])
    lambdas = None
    if not sys_.fully_actuated:
        lambdas = np.zeros((N, 2, n - sys_.m))
    return xis, nus_interior, lambdas


def _pack(xis, nus_interior, lambdas, eliminate):
    parts = [np.asarray(xis, dtype=float).reshape(-1)]
    if not eliminate:
        parts.append(np.asarray(nus_interior, dtype=float).reshape(-1))
        if lambdas is not None:
            parts.append(np.asarray(lambdas, dtype=float).reshape(-1))
    return np.concatenate(parts)


def _unpack(problem, z, eliminate):
    """(xis, nus_interior, lambdas) of z (..., dim), views with z's leading
    axes."""
    sys_ = problem.system
    N, n, m = problem.N, sys_.n, sys_.m
    lead = z.shape[:-1]
    xis = z[..., : N * n].reshape(lead + (N, n))
    if eliminate:
        return xis, None, None
    nus_interior = z[..., N * n : N * n + (N - 1) * n].reshape(lead + (N - 1, n))
    lambdas = None
    if not sys_.fully_actuated:
        lambdas = z[..., N * n + (N - 1) * n :].reshape(lead + (N, 2, n - m))
    return xis, nus_interior, lambdas


def _slots(n, s):
    """Slices of nu_k, xi_k, lambda_k and nu_{k+1} among an interval's slots."""
    return (slice(0, n), slice(n, 2 * n), slice(2 * n, 2 * n + 2 * s),
            slice(2 * n + 2 * s, 3 * n + 2 * s))


def _interval_hessians(problem, xis, interval_pass, layout):
    """Hessians of the interval cost terms in (nu_k, xi_k, lambda_k, nu_{k+1}),
    all intervals at once; returns (H, dmu/dxi, d transport/dxi).

    With the defects y^- = mu + (h/2) G_k - nu_k - (h/2) d and y^+ = nu_{k+1}
    - transport + (h/2) G_{k+1} - (h/2) d, the term is (h/2)(C(u^-) + C(u^+))
    + lambda . y_sigma with u = (2/h) B^+ y, so H = (2/h) F^T Q F plus the
    multiplier blocks F_sigma, F = dy/d(slots) and Q = B^+T C'' B^+, plus the
    curvature of y in xi_k along the cost derivatives:
    K = d^2/dxi^2 [c_minus . mu + c_plus . transport - (h/2)(c_minus - c_plus) . d].
    K takes the closed forms of ``_xi_gradients`` one derivative further,
    through ``dtau_inv_deriv2_along`` (d^2 dtau_inv contracted with I xi and
    e) and d dtau = -dtau (d dtau_inv) dtau; a drift model gives its own
    curvature, and a linear drift has none.  ``layout``
    (``_layout``) holds the ad structure constants and F with its constant -I
    and +I blocks, which a copy fills.
    """
    sys_ = problem.system
    group, h, n = sys_.group, problem.h, sys_.n
    sigma = sys_.sigma
    p = interval_pass
    (z, _, mu, _, D, A), T3, T, e, ad_e = p.maps, p.T3, p.T, p.e, p.ad_e
    I, P = sys_.inertia, sys_.control_pinv
    Ixi = xis @ I.T
    Mxi = mt(D) @ I + h * np.einsum("klji,kj->kil", T3, Ixi)
    # ad(eta)^* mu = Bmu eta, so the transport moves by A^T (dmu + Bmu eta)
    Bmu = np.einsum("lai,ka->kil", layout.ad_basis, mu)
    Txi = mt(A) @ (Mxi + h * Bmu @ T)
    # the transport's A moves by ad(eta) A, so e_plus by -ad(e_plus) eta;
    # dtau moves by -dtau (d dtau_inv) dtau
    IU = I.T @ np.einsum("klab,kb->kal", T3, e)
    MadT = mt(Mxi) @ ad_e @ T
    u = mv(mt(T), mv(mt(ad_e), mu))
    K = (h * h * group.dtau_inv_deriv2_along(z, Ixi, e)
         + h * (IU + mt(IU)) - h * (MadT + mt(MadT))
         + h * h * mt(T) @ (np.einsum("kmai,ka->kim", T3, u) + Bmu @ ad_e @ T))
    if p.Jd is not None and not sys_.drift_is_linear:
        K -= (h**3 / 2.0) * np.asarray(sys_.drift.curvature(z, p.c_minus - p.c_plus),
                                       dtype=float)

    s = len(sigma)
    _, xi, lam, _ = _slots(n, s)
    F = layout.F.copy()
    F[:, :n, xi] = Mxi
    F[:, n:, xi] = -Txi
    if p.Jd is not None:
        F[:, :, xi] -= (h * h / 2.0) * np.concatenate([p.Jd, p.Jd], axis=-2)
    Fm, Fp = F[:, :n], F[:, n:]
    Qm = mt(P) @ problem.cost.hess_batch(p.um) @ P
    Qp = mt(P) @ problem.cost.hess_batch(p.up) @ P
    H = (2.0 / h) * (mt(Fm) @ Qm @ Fm + mt(Fp) @ Qp @ Fp)
    H[:, xi, xi] += K
    if s:
        Fs = np.concatenate([Fm[:, sigma], Fp[:, sigma]], axis=1)
        H[:, lam] += Fs
        H[:, :, lam] += mt(Fs)
    return H, Mxi, Txi


def _jacobian_blocks(problem, xis, interval_pass, layout):
    """Every interval's block of the residual Jacobian, from one batched pass.

    ``interval_pass`` is the ``_interval_pass`` at the point, which the
    residual there shares.  Returns (O, curvature, dmu/dxi, d transport/dxi).
    O[k] has the rows (velocity row at node k, momentum row at node k,
    complement rows of interval k, velocity and momentum rows at node k+1)
    and the columns (nu_k, xi_k, lambda_k, nu_{k+1}), then, with a
    potential, (s_k, s_{k+1}), where s_j moves g_j to g_j tau(s_j).  The
    velocity rows pull the xi-gradient back through dtau_inv(-+z), z = h
    xi_k, and add the potential's Hessians times the weights (h/2)(c_minus_k
    - c_plus_{k-1}); G_k enters interval k beside nu_k, so its columns are
    those of nu_k times -+(h/2) H(g_k).
    Every tangent map comes from the pass, none from a kernel call at -z:
    dtau_inv(-z) = D A with D = dtau_inv(z) and A = Ad(tau(z)), and A moves
    along e_l by ad(T e_l) A, T = dtau(z), so the derivative of
    dtau_inv(-z) along e_l is -(T3_l + D ad(T e_l)) A, T3_l that of D.
    ``curvature`` (None without a potential) holds, per interior node, the
    derivative of the Hessian term in s_j (the potential's
    ``left_curvature``).
    With eliminated momenta (``_momenta_eliminable``: a fully actuated
    problem, so no complement rows) O[k] holds only the velocity rows at
    nodes k and k+1: the residual has no momentum rows then, and none is
    formed.  ``layout`` is the problem's ``_layout``.
    """
    eliminated = _momenta_eliminable(problem)
    sys_ = problem.system
    h, N, n = problem.h, problem.N, sys_.n
    s = n - sys_.m
    p = interval_pass
    _, _, _, _, D, A = p.maps
    T3, gs, gxi, c_minus, c_plus = p.T3, p.gs, p.gxi, p.c_minus, p.c_plus
    H, Mxi, Txi = _interval_hessians(problem, xis, p, layout)

    nu_a, xi, lam, nu_b = _slots(n, s)
    width = 3 * n + 2 * s
    potential = sys_.potential is not None
    # the first row of the velocity rows at node k+1
    after = n if eliminated else 2 * n + 2 * s
    O = np.empty((N, after + (n if eliminated else 2 * n),
                  width + 2 * n if potential else width))
    Oy = O[:, :, :width]
    curvature = None
    # rows in terms of the slot gradients: the velocity row at node k takes
    # -D^T gxi / h - Ha^T d/dnu_k, the one at node k+1 A^T D^T gxi / h + Hb^T
    # d/dnu_{k+1}; the other rows are slot gradients themselves.  Along xi_k
    # the first moves by -T3_l^T gxi, the second by A^T (T3_l^T gxi +
    # ad(T e_l)^T D^T gxi), and ad(x)^T q = Bq x
    DH = mt(D) @ H[:, xi] / h
    dgxi = np.einsum("klai,ka->kil", T3, gxi)
    Bq = np.einsum("lai,ka->kil", layout.ad_basis, mv(mt(D), gxi))
    if potential:
        Hs = np.zeros((N + 1, n, n))
        Hs[1:] = (h / 2.0) * np.asarray(sys_.potential.left_hess(gs[1:]), dtype=float)
        curvature = np.asarray(sys_.potential.left_curvature(
            gs[1:N], (h / 2.0) * (c_minus[1:] - c_plus[:-1])), dtype=float)
        Ha, Hb = Hs[:-1], Hs[1:]
        Oy[:, :n] = -(mt(Ha) @ H[:, nu_a] + DH)
    else:
        Oy[:, :n] = -DH
    Oy[:, :n, xi] -= dgxi
    if not eliminated:
        Oy[:, n : 2 * n] = H[:, nu_a]
        Oy[:, 2 * n : after] = H[:, lam]
        Oy[:, after + n :] = H[:, nu_b]
    # DH becomes the node k+1 row's, before A^T
    DH[:, :, xi] += dgxi + Bq @ p.T
    Oy[:, after : after + n] = mt(A) @ DH
    if potential:
        Oy[:, after : after + n] += mt(Hb) @ H[:, nu_b]
        O[:, :, width : width + n] = -Oy[:, :, nu_a] @ Ha
        O[:, :, width + n :] = Oy[:, :, nu_b] @ Hb
    return O, curvature, Mxi, Txi


def residual_system(problem):
    """Square ResidualSystem for ``solve``, with its exact Jacobian; returns
    (system, eliminated).

    The momenta are eliminated whenever the system is fully actuated
    (``_momenta_eliminable``), whatever its cost, drift and potential: the
    unknowns are then the interval velocities alone and the residual is the
    N n-dimensional one, velocity stationarity at the interior nodes plus
    the reconstruction constraint, at the node momenta of
    ``eliminated_nus``.

    ``stack(Z)`` forms one ``_interval_pass`` for the points Z (K, dim),
    along a leading point axis (the interval maps, the path and its
    reconstruction gap, the covectors, the xi-gradients and the tangent
    maps they read), and returns a ``solvers.Point`` for each row.  The
    residuals are read from the pass by ``general_residual``, or with
    eliminated momenta by ``_velocity_rows``, which forms only the rows the
    residual keeps; a point's ``jacobian()`` slices its own pass out
    (``_IntervalPass.point``) and builds from it, and so does its
    ``kept()``, so a root-finder that linearizes the point it accepted
    forms one pass per stack and none per build.  ``at(z)`` forms the same
    pass with no point axis, and its point keeps it whole.  Each stacked
    point's residual, pass and Jacobian are bitwise those ``at`` gives.

    The residual is the gradient of the action sum under group-consistent
    variations, so its Jacobian is assembled from the interval terms'
    Hessians in (nu_k, xi_k, lambda_k, nu_{k+1}) (``_jacobian_blocks``),
    evaluated in one batched pass, with no loop over intervals.  An index
    map sends every entry of an interval block to its place in the
    transposed Jacobian, and a build is one scatter-add (``np.bincount``) of
    the blocks through it.  The transpose has one row per unknown (xi_k,
    then nu_k and lambda_k when the momenta are explicit), then auxiliary
    rows for the eliminated nu_1..nu_{N-1} and, with a potential, for the
    shifts s_1..s_N of the node configurations; its columns are the
    residual's rows without the reconstruction rows.  Entries at the
    boundary nodes go to one discard bin; with eliminated momenta the blocks
    have no momentum rows (and a fully actuated problem no complement rows),
    so the map holds only entries the residual keeps there and at the
    interior nodes.  Then everything that flows
    through the reconstruction g_{k+1} = g_k tau(h xi_k) is chained through
    the sensitivities S[j, k] of ``_sensitivities``:
      * the shift rows onto the xi rows, dF/dxi_k += sum_{j > k} dF/ds_j
        S[j, k];
      * the reconstruction rows, r = tau^-1(g_N^-1 gT), in closed form:
        dr/dxi_k = -dtau_inv(r) S[N, k].
    Eliminated momenta chain through nu_k = (mu_k + transported_{k-1}) / 2
    - (h/4)(d_k - d_{k-1}), d_k = drift(h xi_k): onto the xi_k rows with
    dmu/dxi / 2 - (h^2/4) Jd_k, onto the xi_{k-1} rows with
    d transport/dxi / 2 + (h^2/4) Jd_{k-1}, Jd the drift Jacobians.
    The drift's Jacobian and curvature are the model's own (a linear drift's
    are its matrix and zero), and so are the potential's Hessian and third
    derivative: nothing is differenced, and no residual is evaluated.

    What depends on the problem's layout alone (its group, N, unactuated
    count, eliminated or explicit momenta and whether it has a potential),
    the index map, the ad structure constants ad(e_l) and the defect
    Jacobian F with its constant -I and +I blocks, is formed once per
    layout (``_layout``) and read by every build of every problem that
    shares it.  Everything else, the inertia, the models, h and the
    boundary, is read from the problem at each evaluation and build, so a
    system changed between calls is read afresh by the next one.
    """
    eliminated = _momenta_eliminable(problem)
    group, h = problem.system.group, problem.h
    N, n = problem.N, problem.system.n
    layout = _layout_of(problem)
    dest, discard, vel, vel_shift, dim, width, shifts, height = layout[:8]

    def jacobian(xis, interval_pass):
        O, curvature, Mxi, Txi = _jacobian_blocks(problem, xis, interval_pass, layout)
        # the transpose: the chains below then run along whole rows
        Jt = np.bincount(dest, O.ravel(), discard + 1)[:-1].reshape(height, width)
        xi_rows = Jt[: N * n].reshape(N, n, width)
        Ainv, P = _sensitivities(group, h, xis, interval_pass.gs, T=interval_pass.T)
        if curvature is not None:
            Jt[vel_shift, vel[:, None, :]] += mt(curvature)
            # xi_k's rows gain sum_{j > k} dF/ds_j S[j, k]: suffix sums of
            # dF/ds_j Ainv[j], times P[k]
            Q = mt(Ainv[1:]) @ Jt[shifts:].reshape(N, n, width)
            xi_rows += mt(P) @ np.cumsum(Q[::-1], axis=0)[::-1]
        if eliminated:
            # nu_k = (mu_k + transported_{k-1})/2 - (h/4)(d_k - d_{k-1})
            nu_rows = Jt[N * n : (2 * N - 1) * n].reshape(N - 1, n, width)
            here, prev = 0.5 * Mxi[1:], 0.5 * Txi[:-1]
            if interval_pass.Jd is not None:
                Jd = (h * h / 4.0) * np.broadcast_to(interval_pass.Jd, Mxi.shape)
                here, prev = here - Jd[1:], prev + Jd[:-1]
            xi_rows[1:] += mt(here) @ nu_rows
            xi_rows[:-1] += mt(prev) @ nu_rows
        J = np.empty((dim, dim))
        J[:width] = Jt[:dim].T
        left = -group.dtau_inv_matrix(interval_pass.gap) @ Ainv[N]
        J[width:, : N * n] = np.einsum("ab,kbc->akc", left, P).reshape(n, N * n)
        J[width:, N * n :] = 0.0
        return J

    linear_drift = problem.system.drift_is_linear

    def evaluate(z):
        xis, nus_interior, lambdas = _unpack(problem, z, eliminated)
        interval_pass = _interval_pass(problem, xis, nus_interior, lambdas)
        if eliminated:
            # node-momentum stationarity vanishes identically under the
            # elimination, and a fully actuated problem has no complement rows
            rows = _velocity_rows(problem, interval_pass).reshape(z.shape[:-1] + (-1,))
            return xis, interval_pass, np.concatenate([rows, interval_pass.gap], axis=-1)
        return xis, interval_pass, general_residual(problem, xis, nus_interior, lambdas,
                                                    interval_pass)

    def at(z):
        xis, interval_pass, f = evaluate(z)
        return Point(z, f, lambda: jacobian(xis, interval_pass), lambda: interval_pass)

    def stack(Z):
        xis, interval_pass, F = evaluate(Z)

        def point(k):
            def kept():
                return interval_pass.point(k, linear_drift)

            return Point(Z[k], F[k], lambda: jacobian(xis[k], kept()), kept)

        return [point(k) for k in range(len(Z))]

    return ResidualSystem(at, stack), eliminated


def solve(problem, tol=1e-6, max_iter=100, method="auto", guess=None):
    """Solve the two-point problem and recover the control trajectory.

    ``guess`` is (xis, nus_interior, lambdas); with eliminated momenta
    (``residual_system``) only xis is read, and the default start is the
    constant velocities of ``initial_guess`` alone, with no interval
    momenta formed for it.  Once per solve: the residual system, the start
    z0 and each point's interval pass; once per layout: the Jacobian's index
    map and constants (``_layout``), which later solves of the same layout
    reuse.
    ``method`` is one of ``solvers.METHODS``; ``solvers.solve`` runs its
    attempts, each from the initial guess z0 with its own budget of
    ``max_iter`` iterations.  Auto means damped Newton, then, if it fails,
    LM from z0 (not from Newton's best iterate), fully actuated or not.
    When every attempt fails, raises the NoConvergence or SingularJacobian
    with the lowest best residual; ConfigError for an unknown method.
    The solution is read from the interval pass of the point the solve
    returns, bitwise what ``assemble_solution`` forms there.
    """
    system, eliminated = residual_system(problem)
    if guess is None:
        guess = ((_constant_velocities(problem), None, None) if eliminated
                 else initial_guess(problem))
    z0 = _pack(*guess, eliminated)
    attempts = {"newton": newton, "levenberg_marquardt": levenberg_marquardt}
    point, report = solvers.solve(system, z0, attempts, method, tol, max_iter)
    return _solution(problem, point.x, eliminated, point.kept(), report)


def assemble_solution(problem, z, report=None):
    """Build a LieOcSolution from a packed unknown vector of
    ``residual_system`` (e.g. a solver's best iterate), recovering path,
    controls and cost from the system's evaluation at z, as ``solve`` reads
    them from the point it returns."""
    system, eliminated = residual_system(problem)
    return _solution(problem, z, eliminated, system.at(z).kept(), report)


def _solution(problem, z, eliminated, interval_pass, report):
    """The LieOcSolution at the packed z, from the node momenta, path and
    controls of its interval pass."""
    xis, _, lambdas = _unpack(problem, z, eliminated)
    um, up = interval_pass.um, interval_pass.up
    controls = np.stack([um, up], axis=1)
    cost = float(
        np.sum((problem.h / 2.0) * (problem.cost.value_batch(um)
                                    + problem.cost.value_batch(up)))
    )
    return LieOcSolution(gs=interval_pass.gs, xis=xis, nus=interval_pass.nus, lambdas=lambdas,
                         controls=controls, cost=cost, report=report)
