"""Root-finding: Newton, Levenberg-Marquardt, and ``solve``, which tries them
in turn, plus the window driver of the marches, ``march_in_windows`` with
``window_newton``, whose updates a window's operator solves by a prefix scan
(``scan_maps``, ``scan_apply``).  The driver solves every step of a march
in a window, a lone step in a window of one step.

A system is evaluated at a point: ``ResidualSystem.at(x)`` returns the
``Point`` x with its residual F(x) and ``jacobian()``, which builds F'(x)
from what that evaluation kept.  A root-finder linearizes the point it
accepted and returns it, so a formulation whose residual and Jacobian share
work (the interval passes of ``lgoc`` and ``tboc``) does that work once per
point, and reads its solution from the returned point.  A formulation that
evaluates a stack of points in one pass (``lgoc``) also gives
``ResidualSystem.stack``; Newton's line search hands it the trial steps it
may read in one stack, and reads their pass/fail flags in the order of its
one-at-a-time search, so it accepts the same step.  Any other system's
stack is evaluated row by row, each row when it is first read.

Newton and the window driver read one rebuild rule, the chord rule
(``_chord_keeps``): a step is taken on the last Jacobian or operator built,
and builds none, where the last step's contraction predicts that it
converges.  Levenberg-Marquardt builds its Jacobian at every step.

Every system supplies its exact Jacobian, and every model (a drift, a
potential) its own derivatives, so nothing in the package is differenced.
``fd_jacobian``, the one difference quotient left, is no part of a solve:
it is the tests' Jacobian oracle, and the benchmark's traced runs name it."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import ConfigError, NoConvergence, SingularJacobian, StepSolveFailed


class Point(NamedTuple):
    """A point x of a system and its residual F(x).  ``jacobian()`` builds
    F'(x) from what the evaluation kept; ``kept()`` returns that, for a
    caller that reads more of the point than F (``kept`` is None where the
    evaluation keeps only x)."""

    x: np.ndarray
    f: np.ndarray
    jacobian: Callable[[], np.ndarray]
    kept: Optional[Callable[[], object]] = None


@dataclass
class ResidualSystem:
    """A square nonlinear system F(x) = 0: ``at(x)`` evaluates it at x (dim,)
    and returns the ``Point``.  ``stack(X)``, where the formulation has one,
    evaluates the rows of X (K, dim) in one pass and returns their K points,
    each bitwise the point ``at`` gives; it raises where any row would.
    Without it a root-finder evaluates a stack's rows through ``at``."""

    at: Callable[[np.ndarray], Point]
    stack: Optional[Callable[[np.ndarray], Sequence[Point]]] = None


def plain_system(residual, jacobian):
    """The ResidualSystem of a residual and a Jacobian callable of x: a point
    keeps only x, and its ``jacobian()`` is jacobian(x)."""
    return ResidualSystem(lambda x: Point(x, np.asarray(residual(x), dtype=float),
                                          lambda: jacobian(x)))


@dataclass
class SolveReport:
    """One root-finder attempt: its outcome, its residual history, how many
    points it evaluated (``residual_evaluations``) in how many passes of
    the system (``residual_passes``: one per stack evaluated together, one
    per point evaluated alone; a stack that raised counts as a pass with no
    point), how many points it linearized (``jacobian_evaluations``) and
    how many steps it took on a Jacobian kept from an earlier point
    (``jacobian_reuses``, Newton's chord steps; LM takes none).  Each
    accepted step is taken on a Jacobian built at its point or on a kept
    one, so jacobian_evaluations + jacobian_reuses == iterations, but where
    Newton's last build met a singular Jacobian and took no step."""

    converged: bool = False
    iterations: int = 0
    residual_norm: float = np.inf
    method: str = ""
    residual_history: list = field(default_factory=list)
    residual_evaluations: int = 0
    residual_passes: int = 0
    jacobian_evaluations: int = 0
    jacobian_reuses: int = 0

    def as_dict(self):
        return {
            "converged": bool(self.converged),
            "iterations": int(self.iterations),
            "residual_norm": float(self.residual_norm),
            "method": self.method,
            "residual_history": [float(r) for r in self.residual_history],
            "residual_evaluations": int(self.residual_evaluations),
            "residual_passes": int(self.residual_passes),
            "jacobian_evaluations": int(self.jacobian_evaluations),
            "jacobian_reuses": int(self.jacobian_reuses),
        }


def fd_jacobian(fun, x, step=1e-6):
    """Central-difference Jacobian at ``x`` of ``fun``, a callable of one point.

    Column j perturbs x_j by +-h_j, h_j = step * (1 + |x_j|).  The output of
    ``fun`` is flattened, so a scalar function gives a gradient row; ``fun``
    is never evaluated at ``x`` itself.
    """
    x = np.asarray(x, dtype=float)
    h = step * (1.0 + np.abs(x))
    columns = []
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = h[j]
        plus = np.asarray(fun(x + e), dtype=float).reshape(-1)
        minus = np.asarray(fun(x - e), dtype=float).reshape(-1)
        columns.append((plus - minus) / (2.0 * h[j]))
    return np.stack(columns, axis=-1) if columns else np.zeros((0, 0))


class _Singular(Exception):
    """A step's linear solve failed: the Jacobian is numerically singular."""


def _evaluate(system, x, report):
    report.residual_passes += 1
    report.residual_evaluations += 1
    return system.at(x)


class _Rows:
    """The points of a stack X (K, dim) read by index, each evaluated alone
    (``_evaluate``) when it is first read."""

    def __init__(self, system, X, report):
        self._system, self._X, self._report = system, X, report
        self._points = {}

    def __getitem__(self, k):
        if k not in self._points:
            self._points[k] = _evaluate(self._system, self._X[k], self._report)
        return self._points[k]


def _evaluate_stack(system, X, report):
    """The points of the stack X (K, dim), for the caller to read by index:
    from one pass of ``system.stack`` where it has one (a system may be any
    object with an ``at``) and K > 1, else ``_Rows``.  A stack raises where
    any of its points does, so when the pass raises its rows are evaluated
    alone, as they are read: only a point the caller reads can then raise,
    as it would have alone."""
    stack = getattr(system, "stack", None)
    if stack is None or len(X) == 1:
        return _Rows(system, X, report)
    report.residual_passes += 1
    try:
        points = stack(X)
    except Exception:
        # whatever a row raised is raised again if the caller reads that row
        return _Rows(system, X, report)
    report.residual_evaluations += len(X)
    return points


def _jacobian(point, report):
    report.jacobian_evaluations += 1
    return np.asarray(point.jacobian(), dtype=float)


def max_abs(v):
    """np.abs(v).max() of a short vector, the same float, read from its
    Python floats: max and abs are exact.  Python's max can pass over a NaN,
    so a vector whose sum is NaN is left to numpy."""
    values = v.tolist()
    total = sum(values)
    if total != total:
        return float(np.abs(v).max())
    return max(map(abs, values))


def _sumsq(f):
    """The squared euclidean norm of ``f``; inf, without a warning, where it
    overflows."""
    with np.errstate(over="ignore"):
        return np.dot(f, f)


def _chord_keeps(error, last, tol):
    """The chord rule both Newton loops read (``newton`` through ``_chord``,
    and ``window_newton``): the last operator built is kept for the next
    step, and none is built, when e_k^2 <= tol * e_{k-1}, with e_k the error
    at the accepted point and e_{k-1} the error at the one before it.  The
    last step's contraction e_k / e_{k-1}, once more, predicts the error
    e_k^2 / e_{k-1} after the next step, so the rule keeps the operator
    where that step is predicted to converge.  ``last`` is None before the
    first step, where nothing is kept."""
    return last is not None and error * error <= tol * last


def _chord(system, tol, step):
    """Newton's step under the chord rule (``_chord_keeps``, with e = max|F|
    at the accepted points and ``tol`` the stopping tolerance).

    ``step(point, J, report)`` is the step taken from the Jacobian J built
    at ``point``.  Where the rule holds, the returned step first tries the
    full step dx = -J^-1 F(x) on the last Jacobian built, and builds none:
    if that point lowers ||F||^2 it is the accepted step, counted in
    ``report.jacobian_reuses``.  Where the rule does not hold, or the chord
    point does not lower ||F||^2, it builds J at ``point`` and returns
    ``step(point, J, report)``, the step it takes without the rule."""
    kept = None

    def chord_step(point, report):
        nonlocal kept
        history = report.residual_history
        if kept is not None and _chord_keeps(history[-1], history[-2], tol):
            dx = np.linalg.solve(kept, -point.f)
            if np.all(np.isfinite(dx)):
                new = _evaluate(system, point.x + dx, report)
                if np.all(np.isfinite(new.f)) and _sumsq(new.f) < _sumsq(point.f):
                    report.jacobian_reuses += 1
                    return new
        kept = _jacobian(point, report)
        return step(point, kept, report)

    return chord_step


def _iterate(system, x0, method, step, tol, max_iter):
    """The loop Newton and LM share.

    ``step(point, report)`` takes a step from the accepted ``point`` and
    returns the next accepted point, None when no trial point lowers the
    residual, or raises ``_Singular``; it linearizes ``point``, or, where
    Newton's chord rule keeps the last Jacobian (``_chord``), reads the
    residual history in ``report`` and steps on that one.  It makes its
    calls through ``_evaluate`` and ``_jacobian``, which count them in
    ``report``.  The loop owns the first
    evaluation, the residual history, the best iterate, the stopping test
    ``max|F| <= tol`` and the budget of ``max_iter`` accepted steps; it
    returns (point, report) at the point that passes the test, and every
    failure carries the best iterate and the report so far.
    """
    report = SolveReport(method=method)
    point = _evaluate(system, np.asarray(x0, dtype=float).copy(), report)
    norm = np.max(np.abs(point.f))
    report.residual_history.append(norm)
    best_x, best_norm = point.x.copy(), norm

    def failed(iterations):
        report.iterations = iterations
        report.residual_norm = best_norm
        return NoConvergence(best_norm, iterations, best_x, report)

    for it in itertools.count():
        if norm <= tol:
            report.converged = True
            report.iterations = it
            report.residual_norm = norm
            return point, report
        if it >= max_iter:
            raise failed(it)
        try:
            accepted = step(point, report)
        except _Singular:
            report.iterations = it
            report.residual_norm = best_norm
            raise SingularJacobian(it, best_x=best_x, report=report) from None
        if accepted is None:
            raise failed(it + 1)
        point = accepted
        norm = np.max(np.abs(point.f))
        report.residual_history.append(norm)
        if norm < best_norm:
            best_x, best_norm = point.x.copy(), norm


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

    The full step is evaluated alone.  When it fails, the trial steps are
    evaluated in stacks (``_evaluate_stack``), and the search above reads
    their pass/fail flags in its own order, so it accepts the same grid
    point, bitwise, as the search that evaluates one step at a time.  The
    first stack holds the model's grid point j and the three longer ones
    j-1, j-2 and j-3 (those >= 1), which the search reads next when the
    model is right.  When the search reads a point outside it, one more
    stack holds every grid point it may still read: from that point to
    2^-max_backtrack when it halves, the open bracket when it looks for
    longer steps.  A system with a ``stack`` evaluates each in one pass;
    any other evaluates only the points the search reads, those of the
    one-at-a-time search.

    Each step linearizes the point it accepted last, whichever trial that
    was, but for a chord step (``_chord``): where e_k^2 <= tol * e_{k-1},
    with e = max|F| at the accepted points, the last step's contraction
    predicts that one more step converges, and the step first tries the
    full step on the last Jacobian built, which it accepts if it lowers
    ||F||^2.  Where that trial fails, the step builds the Jacobian at x and
    searches as above, as it would have without the trial.  A chord step
    trades a build for one more linear solve (numpy keeps no LU factors);
    a failed trial costs one residual evaluation.  A converged solve's last
    step is often one.

    Returns (point, SolveReport), the ``Point`` it stopped at.  Raises
    SingularJacobian on a numerically singular Jacobian and NoConvergence
    when the iteration budget runs out, or when no grid point lowers the
    residual; both carry the best iterate seen and the report so far.
    """
    alphas = 0.5 ** np.arange(max_backtrack + 1)

    def step(point, J, report):
        x, f = point.x, point.f
        try:
            dx = np.linalg.solve(J, -f)
        except np.linalg.LinAlgError:
            raise _Singular from None
        if not np.all(np.isfinite(dx)):
            raise _Singular
        fnorm2 = _sumsq(f)

        def lowers(new):
            return np.all(np.isfinite(new.f)) and _sumsq(new.f) < fnorm2

        new = _evaluate(system, x + dx, report)
        if lowers(new):
            return new
        if max_backtrack == 0:
            return None
        j = _first_model_decrease(f, new.f, alphas)
        # grid index -> (the stack that holds its trial point, its row there)
        stacked = {}

        def evaluate(grid):
            grid = [i for i in grid if i not in stacked]
            points = _evaluate_stack(system, x + alphas[grid, None] * dx, report)
            stacked.update((i, (points, row)) for row, i in enumerate(grid))

        def trial(k, ahead):
            # ``ahead``: the grid points the search may still read, k among them
            if k not in stacked:
                evaluate(ahead)
            points, row = stacked[k]
            new = points[row]
            return new, lowers(new)

        evaluate(range(j, max(j - 4, 0), -1))
        new, passed = trial(j, ())
        if not passed:
            # plain halving, past the model's point
            for i in range(1, max_backtrack + 1):
                if i != j:
                    new, passed = trial(i, range(i, max_backtrack + 1))
                    if passed:
                        return new
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
            tried, passed = trial(k, range(hi - 1, lo, -1))
            if passed:
                hi, new = k, tried
            else:
                lo, bracketed = k, True
        return new

    return _iterate(system, x0, "newton", _chord(system, tol, step), tol, max_iter)


# Levenberg-Marquardt's first damping, and the damping past which a step
# gives up
_LM_LAM0 = 1e-3
_LM_LAM_MAX = 1e14


def levenberg_marquardt(system, x0, tol=1e-9, max_iter=200):
    """Levenberg-Marquardt for square systems.

    Damping starts at _LM_LAM0, is multiplied by 10 on a rejected step and
    divided by 10 on an accepted one, and a step that takes it past
    _LM_LAM_MAX fails.  The half squared residual never
    increases across accepted steps.  Each step linearizes the point it
    accepted last; returns (point, SolveReport) as ``newton`` does.
    """
    lam = _LM_LAM0

    def step(point, report):
        nonlocal lam
        J = _jacobian(point, report)
        x, f = point.x, point.f
        JtJ = J.T @ J
        g = J.T @ f
        scale = np.maximum(np.diag(JtJ), 1e-12)
        cost = 0.5 * _sumsq(f)
        while lam <= _LM_LAM_MAX:
            try:
                dx = np.linalg.solve(JtJ + lam * np.diag(scale), -g)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            new = _evaluate(system, x + dx, report)
            if np.all(np.isfinite(new.f)) and 0.5 * _sumsq(new.f) < cost:
                lam = max(lam / 10.0, 1e-14)
                return new
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
    """Root-find ``system`` from ``z0``; returns (point, SolveReport), the
    ``Point`` the converged attempt stopped at.

    Runs the attempts of ``method`` (see ``METHODS``) in order, each from
    ``z0`` with its own budget of ``max_iter`` iterations, and returns the
    first that converges.  When every attempt fails, the failure
    (NoConvergence or SingularJacobian) with the lowest best residual is
    raised, the later one on a tie, so its best iterate and report are the
    best the solve found; its message then names every attempt, with its
    iterations and best residual.  ``attempts`` maps
    "newton" and "levenberg_marquardt" to the root-finders to call: the
    formulations pass the ones their own module names when ``solve`` runs.
    An unknown method raises ConfigError.
    """
    if method not in METHODS:
        raise ConfigError(f"unknown solver method {method!r}; expected "
                          + ", ".join(METHODS))
    failure, tried = None, []
    for name in METHODS[method]:
        try:
            return attempts[name](system, z0, tol=tol, max_iter=max_iter)
        except (NoConvergence, SingularJacobian) as exc:
            if failure is None or exc.best_residual <= failure.best_residual:
                failure = exc
            iterations = exc.iterations if isinstance(exc, NoConvergence) else exc.iteration
            tried.append(f"{name} {iterations} iterations, best residual "
                         f"{exc.best_residual:.3e}")
    failure.args = (f"{failure}; attempts: {'; '.join(tried)}",)
    raise failure


# ---------------------------------------------------------------------------
# marching in windows
# ---------------------------------------------------------------------------

# the widest window of march steps solved as one system, the Newton
# iterations a window may take, and the most it may take for the next window
# to be twice as wide
WINDOW_CAP = 128
WINDOW_MAX_ITER = 8
_WINDOW_QUICK = 6


def scan_maps(A):
    """The maps of a Hillis-Steele prefix scan of the affine recurrence x_j =
    A_j x_{j-1} + b_j, j = 0..W-1, from x_{-1} = 0, given A (W-1, m, m), the
    maps of steps 1..W-1 (A_0 multiplies x_{-1} = 0, so it is never read).
    Returns one entry per round: the round of offset d holds, for j =
    d..W-1, the composition A_j A_{j-1} ... A_{j-d+1}, shape (W-d, m, m).
    They depend on A alone, so they are built once and applied
    (``scan_apply``) to as many b as a caller has.  A is copied
    C-contiguous: the batched products round by the layout of their
    operands, so equal values give the same bytes whatever layout the
    caller hands in (a broadcast A)."""
    T = np.array(A, dtype=float, order="C")
    maps, W, d = [], len(T) + 1, 1
    while d < W:
        maps.append(T)
        if 2 * d < W:
            # round 2d's maps j >= 2d: round d's map j after its map j - d
            T = T[d:] @ T[:-d]
        d *= 2
    return maps


def scan_apply(maps, b):
    """Every state x_j, j = 0..V-1, of the recurrence whose ``scan_maps`` are
    ``maps``, given b (V, m) for its first V <= W steps: shape (V, m).
    After the round of offset d, element j holds the composition of the
    maps j - 2d + 1..j applied to the b before it, so log2 V rounds of
    batched products give every state; a state reads no later step, so a
    prefix of b gives the prefix of the states, bitwise.  b is copied
    C-contiguous, as ``scan_maps`` copies A."""
    x = np.array(b, dtype=float, order="C")
    V, d = len(x), 1
    for T in maps:
        if d >= V:
            break
        # the right-hand side is formed before the slice is written
        x[d:] = x[d:] + (T[:V - d] @ x[:-d, :, None])[..., 0]
        d *= 2
    return x


def window_newton(x, linearize):
    """Newton's method on the unknowns x (W, n) of a window of W march steps,
    whose Jacobian is block lower triangular: step j's residual depends on
    the steps before it only through a short recurrence.

    ``linearize(x)`` returns (error, residual, build): ``error`` (W,) is each
    step's residual measured against its tolerance, at most 1 where the step
    is solved, ``residual`` the residual itself, and ``build()`` returns the
    operator of the Newton step at x, a callable that gives the update of x
    for any residual, or for the residual of any leading steps (their
    update reads no later step); it raises LinAlgError on a singular block.

    An update is x <- x + op(residual), by the last operator built: a new
    one is built at the first update, and at each later one unless the
    chord rule ``newton`` reads too (``_chord_keeps``, with e the window's
    largest error and tolerance 1) keeps it: while e_k^2 / e_{k-1}, the
    error the last contraction predicts, is above 1 an operator is built,
    and once it is at most 1 the factored operator is reused (the chord
    method); an update that then contracts too little to keep the
    prediction at most 1 has the next one rebuilt.

    Returns (x, iterations, solved, operator): the last point evaluated, the
    updates made to reach it, how many leading steps are solved there, and
    operator(), which gives the last operator built.  Where none was built
    it builds one at x when the window converged at its start, and raises
    LinAlgError when the window's first build met a singular block, with
    no second try.  ``solved`` is all W when the window converges, and
    fewer when WINDOW_MAX_ITER updates do not get there or a build meets a
    singular block: a step's residual depends only on the steps up to it,
    so a solved prefix stays solved whatever the rest does, and a singular
    block of the diverging tail leaves the operator built before it to the
    prefix.  ``solved`` is None when a residual is not finite.  The
    iteration runs under ``np.errstate(all="ignore")``, so a diverging
    window fails without a warning.
    """
    op = last = None
    tried = False

    def renew():
        # on a singular block op stays the last operator built
        nonlocal op, tried
        tried = True
        op = build()

    def operator():
        if op is None and not tried:
            with np.errstate(all="ignore"):
                renew()
        if op is None:
            raise np.linalg.LinAlgError("the window's build met a singular block")
        return op

    with np.errstate(all="ignore"):
        for iteration in itertools.count():
            error, residual, build = linearize(x)
            solved = error <= 1.0
            if solved.all():
                return x, iteration, len(x), operator
            if not np.isfinite(error).all():
                return x, iteration, None, None
            if iteration == WINDOW_MAX_ITER:
                break
            largest = float(np.max(error))
            # the tolerance is 1 in the units of ``error``
            if not _chord_keeps(largest, last, 1.0):
                try:
                    renew()
                except np.linalg.LinAlgError:
                    break
            last = largest
            x = x + op(residual)
    return x, iteration, int(np.argmin(solved)), operator


def march_in_windows(first, stop, window, rescue=None):
    """Solve the steps first..stop-1 of a march, in order.

    ``window(k, size)`` sets up the steps k..k+size-1 as one system and
    returns (x, linearize, commit): a start x (size, n), the ``linearize``
    of ``window_newton`` and commit(x, count, operator), which takes the
    first ``count`` steps of x as solved; ``operator`` is
    ``window_newton``'s, for a commit that makes one more update.

    The first window is WINDOW_CAP steps wide, or what is left of the march.
    A window that converges within _WINDOW_QUICK iterations lets the next be
    twice as wide, up to the cap.  One that does not converge within its
    budget keeps its solved prefix, and the next window, half as wide,
    starts where the prefix ends.  One whose residual is not finite keeps
    nothing: its steps are solved alone, one at a time, so a step whose
    equation cannot be evaluated fails as it fails in a march of single
    steps, and the next window is half as wide.  A width of 1 solves its
    step alone, and the next window is 2 wide.

    A step alone is the march's floor: a window of one step, solved by
    ``window_newton``.  When it is not solved, ``rescue(k, x, linearize)``
    returns step k's solution (1, n) from the window's start x, or raises;
    without a rescue, StepSolveFailed names the step.
    """
    k, width = first, WINDOW_CAP
    while k < stop:
        size = min(width, stop - k)
        if size > 1:
            x, linearize, commit = window(k, size)
            x, iterations, solved, operator = window_newton(x, linearize)
            if solved is not None:
                if solved:
                    commit(x, solved, operator)
                k += solved
                if solved < size:
                    width = size // 2
                elif iterations <= _WINDOW_QUICK:
                    width = min(2 * width, WINDOW_CAP)
                continue
            width = size // 2
        for j in range(k, k + size):
            start, linearize, commit = window(j, 1)
            x, _, solved, operator = window_newton(start, linearize)
            if not solved:
                if rescue is None:
                    raise StepSolveFailed(j, f"step {j}: " + (
                        "the residual is not finite" if solved is None
                        else f"not solved within {WINDOW_MAX_ITER} updates"))
                x = rescue(j, start, linearize)
            commit(x, 1, operator)
        k += size
        width = max(width, 2)
