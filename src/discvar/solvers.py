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
    """One root-finder attempt: its outcome, its residual history, and the
    calls it made of the system's ``eval`` and ``jacobian``."""

    converged: bool = False
    iterations: int = 0
    residual_norm: float = np.inf
    method: str = ""
    residual_history: list = field(default_factory=list)
    residual_evaluations: int = 0
    jacobian_evaluations: int = 0

    def as_dict(self):
        return {
            "converged": bool(self.converged),
            "iterations": int(self.iterations),
            "residual_norm": float(self.residual_norm),
            "method": self.method,
            "residual_history": [float(r) for r in self.residual_history],
            "residual_evaluations": int(self.residual_evaluations),
            "jacobian_evaluations": int(self.jacobian_evaluations),
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


def _evaluate(system, x, report):
    report.residual_evaluations += 1
    return np.asarray(system.eval(x), dtype=float)


def _jacobian(system, x, report):
    report.jacobian_evaluations += 1
    return system.jac(x)


def _sumsq(f):
    """The squared euclidean norm of ``f``; inf, without a warning, where it
    overflows."""
    with np.errstate(over="ignore"):
        return np.dot(f, f)


def _iterate(system, x0, method, step, tol, max_iter):
    """The loop Newton and LM share.

    ``step(x, f, report)`` returns the accepted (x, F(x)), None when no trial
    point lowers the residual, or raises ``_Singular``; it makes its calls
    of the system through ``_evaluate`` and ``_jacobian``, which count them
    in ``report``.  The loop owns the first evaluation, the residual
    history, the best iterate, the stopping test ``max|F| <= tol`` and the
    budget of ``max_iter`` accepted steps; every failure carries the best
    iterate and the report so far.
    """
    x = np.asarray(x0, dtype=float).copy()
    report = SolveReport(method=method)
    f = _evaluate(system, x, report)
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
            accepted = step(x, f, report)
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


def _first_model_decrease(f0, f1, alphas):
    """The first index j >= 1 of the step-length grid ``alphas`` (alphas[j]
    = 2^-j) at which the model of the residual along a Newton step lowers
    the norm: ||m(alpha)|| < ||f0||, where m(alpha) = (1 - alpha) f0 +
    alpha^2 f1 with f0 = F(x) and f1 = F(x + dx).  Since f0 + J dx = 0, m is
    F(x + alpha dx) exactly when F is quadratic.  Returns 1, where plain
    halving starts, when f0 or f1 is not finite or no grid point qualifies.
    """
    # scaled by the largest entry, so no squared norm overflows
    scale = np.maximum(np.max(np.abs(f0)), np.max(np.abs(f1)))
    if not (np.isfinite(scale) and scale > 0.0):
        return 1
    f0, f1 = f0 / scale, f1 / scale
    a, b, c = np.dot(f0, f0), np.dot(f0, f1), np.dot(f1, f1)
    alpha = alphas[1:]
    # (||m(alpha)||^2 - ||f0||^2) / alpha < 0
    lower = alpha ** 3 * c + 2.0 * alpha * (1.0 - alpha) * b < (2.0 - alpha) * a
    return 1 + int(np.argmax(lower)) if lower.any() else 1


def newton(system, x0, tol=1e-9, max_iter=50, max_backtrack=30):
    """Newton's method with a backtracking line search.

    Each step tries step lengths alpha on the grid 2^-j, 0 <= j <=
    ``max_backtrack`` (>= 0), and accepts one at which ||F(x + alpha dx)||^2
    < ||F(x)||^2.  The full step comes first.  When it fails, a quadratic
    model of the residual along dx, built from F(x) and F(x + dx) without
    another evaluation (``_first_model_decrease``), names the grid point to
    try next.  If that point fails too, the model is wrong and the search
    is plain halving: it accepts the first passing point from j = 1 on.  If
    it passes, the search looks for the longest passing step towards the
    failed full step: one grid point at a time, then in doubling strides,
    then by bisection.  Where the passing grid points form an up-set (a
    pass at 2^-j implies a pass at every shorter grid step), the accepted
    step is the one plain halving accepts, in fewer evaluations when the
    model is right; elsewhere a passing model point may lead to another
    passing step.

    Returns (x, SolveReport).  Raises SingularJacobian on a numerically
    singular Jacobian and NoConvergence when the iteration budget runs out,
    or when no grid point lowers the residual; both carry the best iterate
    seen and the report so far.
    """
    alphas = 0.5 ** np.arange(max_backtrack + 1)

    def step(x, f, report):
        J = _jacobian(system, x, report)
        try:
            dx = np.linalg.solve(J, -f)
        except np.linalg.LinAlgError:
            raise _Singular from None
        if not np.all(np.isfinite(dx)):
            raise _Singular
        fnorm2 = _sumsq(f)

        def trial(j):
            x_new = x + alphas[j] * dx
            f_new = _evaluate(system, x_new, report)
            return x_new, f_new, np.all(np.isfinite(f_new)) and _sumsq(f_new) < fnorm2

        x_new, f_new, passed = trial(0)
        if passed:
            return x_new, f_new
        if max_backtrack == 0:
            return None
        j = _first_model_decrease(f, f_new, alphas)
        x_new, f_new, passed = trial(j)
        if not passed:
            # plain halving, past the model's point
            for i in range(1, max_backtrack + 1):
                if i != j:
                    x_new, f_new, passed = trial(i)
                    if passed:
                        return x_new, f_new
            return None
        # Longer steps, between the full step (lo, failing) and hi (passing):
        # the three grid points next to the model's one at a time, then in
        # doubling strides (j - 5, j - 9, j - 17, ...), then by bisection
        # once a point fails, so a model far off costs O(log j) evaluations.
        lo, hi, bracketed = 0, j, False
        while hi - lo > 1:
            if bracketed:
                k = (lo + hi) // 2
            else:
                k = max(hi - max(1, j - hi - 1), 1)
            x_k, f_k, passed = trial(k)
            if passed:
                hi, x_new, f_new = k, x_k, f_k
            else:
                lo, bracketed = k, True
        return x_new, f_new

    return _iterate(system, x0, "newton", step, tol, max_iter)


def levenberg_marquardt(system, x0, tol=1e-9, max_iter=200, lam0=1e-3,
                        lam_max=1e14):
    """Levenberg-Marquardt for square systems.

    Damping starts at ``lam0``, is multiplied by 10 on a rejected step and
    divided by 10 on an accepted one.  The half squared residual never
    increases across accepted steps.
    """
    lam = lam0

    def step(x, f, report):
        nonlocal lam
        J = _jacobian(system, x, report)
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
            f_new = _evaluate(system, x_new, report)
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
