"""Root-finding: Newton, Levenberg-Marquardt, and ``solve``, which tries them
in turn, plus the central differences ``fd_jacobian`` and ``fd_mixed``.

The formulations supply exact Jacobians, so the differences only reach what
a user gives as a callable (a drift, a potential), and ``fd_jacobian``
serves the tests as their oracle."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError, NoConvergence, SingularJacobian


@dataclass
class ResidualSystem:
    """A square nonlinear system F(x) = 0 of dimension ``dim``.

    ``jacobian`` is optional; when absent the Jacobian is a central
    difference with per-column step 1e-6 * (1 + |x_j|), column by column.
    """

    dim: int
    eval: Callable[[np.ndarray], np.ndarray]
    jacobian: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def jac(self, x):
        if self.jacobian is not None:
            return np.asarray(self.jacobian(x), dtype=float)
        return fd_jacobian(self.eval, x)


@dataclass
class SolveReport:
    converged: bool = False
    iterations: int = 0
    residual_norm: float = np.inf
    method: str = ""
    residual_history: list = field(default_factory=list)

    def as_dict(self):
        return {
            "converged": bool(self.converged),
            "iterations": int(self.iterations),
            "residual_norm": float(self.residual_norm),
            "method": self.method,
            "residual_history": [float(r) for r in self.residual_history],
        }


def fd_jacobian(fun, x, step=1e-6):
    """Central-difference Jacobian of ``fun`` at ``x``.

    Column j perturbs x_j by +-h_j, h_j = step * (1 + |x_j|).  The output of
    ``fun`` is flattened, so a scalar function gives a gradient row; the
    rows are counted from the first difference, so ``fun`` is never
    evaluated at ``x`` itself.
    """
    x = np.asarray(x, dtype=float)
    J = None
    for j in range(x.size):
        h = step * (1.0 + abs(x[j]))
        xp, xm = x.copy(), x.copy()
        xp[j] += h
        xm[j] -= h
        d = (np.asarray(fun(xp), dtype=float).reshape(-1)
             - np.asarray(fun(xm), dtype=float).reshape(-1)) / (2.0 * h)
        if J is None:
            J = np.zeros((d.shape[0], x.size))
        J[:, j] = d
    return J if J is not None else np.zeros((0, 0))


# relative step of the nested differences that give a user callable's
# curvature: each differences a derivative that is itself a central
# difference, so rounding grows like eps / step^2 against a truncation error
# like step^2
CURVATURE_STEP = 1e-4


def fd_mixed(fun, n, step=CURVATURE_STEP):
    """d^2 f(s, t) / ds_l dt_j at s = t = 0, for s and t in R^n, by central
    differences in both: the nested ``fd_jacobian`` with every evaluation in
    one call.

    ``fun(S, T)`` takes stacks S, T of shape (4 n^2, n) and returns its values
    stacked along a leading axis; the result has shape (n, n) + the value
    shape, indexed [l, j].
    """
    shifts = step * np.concatenate([np.eye(n), -np.eye(n)])
    f = np.asarray(fun(np.repeat(shifts, 2 * n, axis=0), np.tile(shifts, (2 * n, 1))),
                   dtype=float)
    f = f.reshape((2, n, 2, n) + f.shape[1:])
    return (f[0, :, 0] - f[0, :, 1] - f[1, :, 0] + f[1, :, 1]) / (4.0 * step * step)


class _Singular(Exception):
    """A step's linear solve failed: the Jacobian is numerically singular."""


def _iterate(system, x0, method, step, tol, max_iter):
    """The loop Newton and LM share.

    ``step(x, f)`` returns the accepted (x, F(x)), None when no trial point
    lowers the residual, or raises ``_Singular``.  The loop owns the first
    evaluation, the residual history, the best iterate, the stopping test
    ``max|F| <= tol`` and the budget of ``max_iter`` accepted steps; every
    failure carries the best iterate and the report so far.
    """
    x = np.asarray(x0, dtype=float).copy()
    report = SolveReport(method=method)
    f = np.asarray(system.eval(x), dtype=float)
    norm = np.max(np.abs(f))
    report.residual_history.append(norm)
    best_x, best_norm = x.copy(), norm

    def failed(iterations):
        report.iterations = iterations
        report.residual_norm = best_norm
        return NoConvergence(best_norm, iterations, best_x, report)

    for it in itertools.count():
        if norm <= tol:
            report.converged = True
            report.iterations = it
            report.residual_norm = norm
            return x, report
        if it >= max_iter:
            raise failed(it)
        try:
            accepted = step(x, f)
        except _Singular:
            report.iterations = it
            report.residual_norm = best_norm
            raise SingularJacobian(it, best_x=best_x, report=report) from None
        if accepted is None:
            raise failed(it + 1)
        x, f = accepted
        norm = np.max(np.abs(f))
        report.residual_history.append(norm)
        if norm < best_norm:
            best_x, best_norm = x.copy(), norm


def newton(system, x0, tol=1e-9, max_iter=50, max_backtrack=30):
    """Newton's method with step-halving line search.

    Returns (x, SolveReport).  Raises SingularJacobian on a numerically
    singular Jacobian and NoConvergence when the iteration budget runs out;
    both carry the best iterate seen and the report so far.
    """

    def step(x, f):
        J = system.jac(x)
        try:
            dx = np.linalg.solve(J, -f)
        except np.linalg.LinAlgError:
            raise _Singular from None
        if not np.all(np.isfinite(dx)):
            raise _Singular
        # backtracking on the euclidean residual norm
        fnorm2 = np.dot(f, f)
        alpha = 1.0
        for _ in range(max_backtrack + 1):
            x_new = x + alpha * dx
            f_new = np.asarray(system.eval(x_new), dtype=float)
            if np.all(np.isfinite(f_new)) and np.dot(f_new, f_new) < fnorm2:
                return x_new, f_new
            alpha *= 0.5
        return None

    return _iterate(system, x0, "newton", step, tol, max_iter)


def levenberg_marquardt(system, x0, tol=1e-9, max_iter=200, lam0=1e-3,
                        lam_max=1e14):
    """Levenberg-Marquardt for square systems.

    Damping starts at ``lam0``, is multiplied by 10 on a rejected step and
    divided by 10 on an accepted one.  The half squared residual never
    increases across accepted steps.
    """
    lam = lam0

    def step(x, f):
        nonlocal lam
        J = system.jac(x)
        JtJ = J.T @ J
        g = J.T @ f
        scale = np.maximum(np.diag(JtJ), 1e-12)
        cost = 0.5 * np.dot(f, f)
        while lam <= lam_max:
            try:
                dx = np.linalg.solve(JtJ + lam * np.diag(scale), -g)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            x_new = x + dx
            f_new = np.asarray(system.eval(x_new), dtype=float)
            if np.all(np.isfinite(f_new)) and 0.5 * np.dot(f_new, f_new) < cost:
                lam = max(lam / 10.0, 1e-14)
                return x_new, f_new
            lam *= 10.0
        return None

    return _iterate(system, x0, "levenberg_marquardt", step, tol, max_iter)


# the root-finders each method tries in turn; "auto" means "newton" for a
# fully actuated problem and "lm_then_newton" otherwise
METHODS = {
    "newton": ("newton", "levenberg_marquardt"),
    "lm": ("levenberg_marquardt",),
    "lm_then_newton": ("levenberg_marquardt", "newton"),
}


def solve(system, z0, attempts, method="auto", fully_actuated=True, tol=1e-9,
          max_iter=100):
    """Root-find ``system`` from ``z0``; returns (z, SolveReport).

    Runs the attempts of ``method`` (see ``METHODS``) in order, each from
    ``z0`` with its own budget of ``max_iter`` iterations, and returns the
    first that converges.  When every attempt fails the last failure
    (NoConvergence or SingularJacobian) propagates.  ``attempts`` maps
    "newton" and "levenberg_marquardt" to the root-finders to call: the
    formulations pass the ones their own module names when ``solve`` runs.
    An unknown method raises ConfigError.
    """
    if method == "auto":
        method = "newton" if fully_actuated else "lm_then_newton"
    if method not in METHODS:
        raise ConfigError(f"unknown solver method {method!r}; expected auto, "
                          + ", ".join(METHODS))
    *fallible, last = METHODS[method]
    for name in fallible:
        try:
            return attempts[name](system, z0, tol=tol, max_iter=max_iter)
        except (NoConvergence, SingularJacobian):
            pass
    return attempts[last](system, z0, tol=tol, max_iter=max_iter)
