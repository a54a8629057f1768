"""Root-finding: finite-difference Jacobians (dense or column-coloured),
Newton, Levenberg-Marquardt."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import NoConvergence, SingularJacobian


def greedy_colouring(pattern):
    """Group the columns of a boolean sparsity pattern so that no two columns
    in a group share a row (Curtis, Powell & Reid 1974).  Columns are taken
    in order, each joining the first group it does not conflict with."""
    groups, used = [], []
    for j in range(pattern.shape[1]):
        rows = pattern[:, j]
        for cols, mask in zip(groups, used):
            if not np.any(mask & rows):
                cols.append(j)
                mask |= rows
                break
        else:
            groups.append([j])
            used.append(rows.copy())
    return [np.array(cols) for cols in groups]


@dataclass
class JacobianStructure:
    """What a finite-difference Jacobian may skip.

    ``pattern[i, j]`` is False where F_i does not depend on x_j; the columns
    are coloured from it, so one residual pair recovers a whole colour.  A
    block-local system such as ``tboc`` gives only the pattern.

    The border is optional.  Dense ``border_rows`` stay False in the pattern,
    so they do not merge every colour into one; they are filled one column
    of ``border_cols`` at a time by differencing ``border(x)``, which returns
    F(x)[border_rows] more cheaply than F itself.  A column that is a colour
    of its own gets every row, border included, from its residual pair.
    """

    pattern: np.ndarray
    border_rows: np.ndarray = ()
    border_cols: np.ndarray = ()
    border: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        self.colours = greedy_colouring(self.pattern)
        alone = {int(cols[0]) for cols in self.colours if cols.size == 1}
        self.border_rows = np.asarray(self.border_rows, dtype=int)
        self.border_cols = np.array([j for j in self.border_cols if j not in alone],
                                    dtype=int)


@dataclass
class ResidualSystem:
    """A square nonlinear system F(x) = 0 of dimension ``dim``.

    ``jacobian`` is optional; when absent the Jacobian is a central
    difference with per-column step 1e-6 * (1 + |x_j|), taken column by
    column, or colour by colour when a ``structure`` is given.
    """

    dim: int
    eval: Callable[[np.ndarray], np.ndarray]
    jacobian: Optional[Callable[[np.ndarray], np.ndarray]] = None
    structure: Optional[JacobianStructure] = None

    def jac(self, x, f0=None):
        if self.jacobian is not None:
            return np.asarray(self.jacobian(x), dtype=float)
        return fd_jacobian(self.eval, x, f0=f0, structure=self.structure)


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


def fd_jacobian(fun, x, f0=None, step=1e-6, structure=None):
    """Central-difference Jacobian of ``fun`` at ``x``.

    Each residual pair perturbs one colour of columns by +-h_j, with
    h_j = step * (1 + |x_j|), and column j keeps the rows the pattern gives
    it.  Without a ``structure`` every column is its own colour.  ``f0`` is
    accepted (and used to size the output) so callers can share a residual
    evaluation with the step logic.
    """
    x = np.asarray(x, dtype=float)
    if f0 is None:
        f0 = np.asarray(fun(x), dtype=float)
    if structure is None:
        passes = [(fun, np.arange(f0.size), np.arange(x.size)[:, None], None)]
    else:
        passes = [(fun, np.arange(f0.size), structure.colours, structure.pattern),
                  (structure.border, structure.border_rows,
                   structure.border_cols[:, None], None)]
    J = np.zeros((f0.size, x.size))
    for g, rows, colours, pattern in passes:
        for cols in colours:
            h = step * (1.0 + np.abs(x[cols]))
            xp, xm = x.copy(), x.copy()
            xp[cols] += h
            xm[cols] -= h
            d = (np.asarray(g(xp), dtype=float)
                 - np.asarray(g(xm), dtype=float))[:, None] / (2.0 * h)
            if cols.size > 1:
                d = np.where(pattern[:, cols], d, 0.0)
            J[np.ix_(rows, cols)] = d
    return J


def newton(system, x0, tol=1e-9, max_iter=50, max_backtrack=30):
    """Newton's method with step-halving line search.

    Returns (x, SolveReport).  Raises SingularJacobian on a numerically
    singular Jacobian and NoConvergence when the iteration budget runs out;
    both carry the best iterate seen and the report so far.
    """
    x = np.asarray(x0, dtype=float).copy()
    report = SolveReport(method="newton")
    f = np.asarray(system.eval(x), dtype=float)
    norm = np.max(np.abs(f))
    report.residual_history.append(norm)
    best_x, best_norm = x.copy(), norm
    for it in range(max_iter):
        if norm <= tol:
            report.converged = True
            report.iterations = it
            report.residual_norm = norm
            return x, report
        J = system.jac(x, f0=f)
        try:
            dx = np.linalg.solve(J, -f)
        except np.linalg.LinAlgError:
            dx = None
        if dx is None or not np.all(np.isfinite(dx)):
            report.iterations = it
            report.residual_norm = best_norm
            raise SingularJacobian(it, best_x=best_x, report=report)
        # backtracking on the euclidean residual norm
        fnorm2 = np.dot(f, f)
        alpha = 1.0
        for _ in range(max_backtrack + 1):
            x_new = x + alpha * dx
            f_new = np.asarray(system.eval(x_new), dtype=float)
            if np.all(np.isfinite(f_new)) and np.dot(f_new, f_new) < fnorm2:
                break
            alpha *= 0.5
        else:
            report.iterations = it + 1
            report.residual_norm = best_norm
            raise NoConvergence(best_norm, it + 1, best_x, report)
        x, f = x_new, f_new
        norm = np.max(np.abs(f))
        report.residual_history.append(norm)
        if norm < best_norm:
            best_x, best_norm = x.copy(), norm
    if norm <= tol:
        report.converged = True
        report.iterations = max_iter
        report.residual_norm = norm
        return x, report
    report.iterations = max_iter
    report.residual_norm = best_norm
    raise NoConvergence(best_norm, max_iter, best_x, report)


def levenberg_marquardt(system, x0, tol=1e-9, max_iter=200, lam0=1e-3,
                        lam_max=1e14):
    """Levenberg-Marquardt for square systems.

    Damping starts at ``lam0``, is multiplied by 10 on a rejected step and
    divided by 10 on an accepted one.  The half squared residual never
    increases across accepted steps.
    """
    x = np.asarray(x0, dtype=float).copy()
    report = SolveReport(method="levenberg_marquardt")
    f = np.asarray(system.eval(x), dtype=float)
    cost = 0.5 * np.dot(f, f)
    norm = np.max(np.abs(f))
    report.residual_history.append(norm)
    best_x, best_norm = x.copy(), norm
    lam = lam0
    J = None
    for it in range(max_iter):
        if norm <= tol:
            report.converged = True
            report.iterations = it
            report.residual_norm = norm
            return x, report
        if J is None:
            J = system.jac(x, f0=f)
            JtJ = J.T @ J
            g = J.T @ f
            scale = np.maximum(np.diag(JtJ), 1e-12)
        accepted = False
        while lam <= lam_max:
            try:
                dx = np.linalg.solve(JtJ + lam * np.diag(scale), -g)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            x_new = x + dx
            f_new = np.asarray(system.eval(x_new), dtype=float)
            if np.all(np.isfinite(f_new)):
                cost_new = 0.5 * np.dot(f_new, f_new)
                if cost_new < cost:
                    accepted = True
                    break
            lam *= 10.0
        if not accepted:
            report.iterations = it + 1
            report.residual_norm = best_norm
            raise NoConvergence(best_norm, it + 1, best_x, report)
        x, f, cost = x_new, f_new, cost_new
        lam = max(lam / 10.0, 1e-14)
        J = None
        norm = np.max(np.abs(f))
        report.residual_history.append(norm)
        if norm < best_norm:
            best_x, best_norm = x.copy(), norm
    if norm <= tol:
        report.converged = True
        report.iterations = max_iter
        report.residual_norm = norm
        return x, report
    report.iterations = max_iter
    report.residual_norm = best_norm
    raise NoConvergence(best_norm, max_iter, best_x, report)
