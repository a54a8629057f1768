"""Root-finding: Newton, Levenberg-Marquardt, and ``solve``, which tries them
in turn, plus ``central_difference``, the one central-difference quotient.

Every system supplies its Jacobian, so the differences only reach what a
user gives as a callable (a drift, a potential); ``fd_jacobian`` adapts the
quotient to a callable of one point and serves the tests as their oracle."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigError, NoConvergence, SingularJacobian


@dataclass
class ResidualSystem:
    """A square nonlinear system F(x) = 0 of dimension ``dim`` and its
    Jacobian ``jacobian``."""

    dim: int
    eval: Callable[[np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray], np.ndarray]

    def jac(self, x):
        return np.asarray(self.jacobian(x), dtype=float)


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


# relative steps of a central difference, and of the nested ones that give a
# user callable's curvature: those difference a derivative that is itself a
# central difference, so rounding grows like eps / step^2 against a
# truncation error like step^2
DIFFERENCE_STEP = 1e-6
CURVATURE_STEP = 1e-4


def central_difference(fun, step):
    """Central differences of ``fun`` in n coordinates, from one call.

    ``step`` (..., n) holds each coordinate's step at each point of a batch.
    ``fun`` receives the 2n shifts S, shape (2n,) + step.shape, with
    S[j] = step_j e_j and S[n + j] = -S[j], and returns its values stacked
    the same way, batch axes first.  Returns (f(S[j]) - f(S[n + j])) /
    (2 step_j) with j last: shape batch + value shape + (n,).  Nested, with
    the inner step ``np.broadcast_to(step, S.shape)``, it gives second
    derivatives from one call of 4 n^2 evaluations.
    """
    step = np.asarray(step, dtype=float)
    n = step.shape[-1]
    plus = np.moveaxis(step[..., None, :] * np.eye(n), -2, 0)
    f = np.asarray(fun(np.concatenate([plus, -plus])), dtype=float)
    h = np.expand_dims(np.moveaxis(step, -1, 0), tuple(range(step.ndim, f.ndim)))
    return np.moveaxis((f[:n] - f[n:]) / (2.0 * h), 0, -1)


def fd_jacobian(fun, x, step=DIFFERENCE_STEP):
    """Central-difference Jacobian at ``x`` of ``fun``, a callable of one point.

    Column j perturbs x_j by +-h_j, h_j = step * (1 + |x_j|).  The output of
    ``fun`` is flattened, so a scalar function gives a gradient row; ``fun``
    is never evaluated at ``x`` itself.
    """
    x = np.asarray(x, dtype=float)
    if x.size == 0:
        return np.zeros((0, 0))
    return central_difference(
        lambda shifts: [np.asarray(fun(x + s), dtype=float).reshape(-1) for s in shifts],
        step * (1.0 + np.abs(x)))


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


# the root-finders each method tries in turn; "auto" is "newton"'s order for
# every problem, fully actuated or not
METHODS = {
    "auto": ("newton", "levenberg_marquardt"),
    "newton": ("newton", "levenberg_marquardt"),
    "lm": ("levenberg_marquardt",),
    "lm_then_newton": ("levenberg_marquardt", "newton"),
}


def solve(system, z0, attempts, method="auto", tol=1e-9, max_iter=100):
    """Root-find ``system`` from ``z0``; returns (z, SolveReport).

    Runs the attempts of ``method`` (see ``METHODS``) in order, each from
    ``z0`` with its own budget of ``max_iter`` iterations, and returns the
    first that converges.  When every attempt fails, the failure
    (NoConvergence or SingularJacobian) with the lowest best residual is
    raised, the later one on a tie, so its best iterate and report are the
    best the solve found.  ``attempts`` maps
    "newton" and "levenberg_marquardt" to the root-finders to call: the
    formulations pass the ones their own module names when ``solve`` runs.
    An unknown method raises ConfigError.
    """
    if method not in METHODS:
        raise ConfigError(f"unknown solver method {method!r}; expected "
                          + ", ".join(METHODS))
    failure = None
    for name in METHODS[method]:
        try:
            return attempts[name](system, z0, tol=tol, max_iter=max_iter)
        except (NoConvergence, SingularJacobian) as exc:
            if failure is None or exc.best_residual <= failure.best_residual:
                failure = exc
    raise failure
