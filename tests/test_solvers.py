"""Root-finder tests: finite-difference Jacobians, Newton, Levenberg-Marquardt,
and the window driver of the marches."""

import itertools
from types import SimpleNamespace

import numpy as np
import pytest
from models import plain_system

from discvar import solvers
from discvar.errors import (ConfigError, NoConvergence, OutOfChart, SingularJacobian,
                            StepSolveFailed)
from discvar.solvers import (
    SolveReport,
    fd_jacobian,
    levenberg_marquardt,
    newton,
)


def fd_system(fun):
    """A system whose Jacobian is the central difference of its residual."""
    return plain_system(fun, lambda x: fd_jacobian(fun, x))


def test_fd_jacobian_identity():
    sys_ = fd_system(lambda x: x.copy())
    x = np.array([0.3, -1.0, 2.0])
    assert np.max(np.abs(sys_.at(x).jacobian() - np.eye(3))) < 1e-7


def test_fd_jacobian_linear_map():
    rng = np.random.default_rng(0)
    A = rng.normal(size=(4, 4))
    sys_ = fd_system(lambda x: A @ x)
    x = rng.normal(size=4)
    assert np.max(np.abs(sys_.at(x).jacobian() - A)) < 1e-6


def test_fd_jacobian_hand_derivative():
    f = lambda x: np.array([x[0] ** 2, x[0] * x[1]])
    x = np.array([1.0, 2.0])
    J = fd_jacobian(f, x)
    assert np.max(np.abs(J - np.array([[2.0, 0.0], [2.0, 1.0]]))) < 1e-5


def test_analytic_jacobian_matches_fd_on_random_points():
    rng = np.random.default_rng(1)

    def f(x):
        return np.array([np.sin(x[0]) + x[1] ** 2, x[0] * x[1] - 1.0])

    def jac(x):
        return np.array([[np.cos(x[0]), 2.0 * x[1]], [x[1], x[0]]])

    for _ in range(100):
        x = rng.normal(size=2)
        J_fd = fd_jacobian(f, x)
        scale = 1.0 + np.max(np.abs(jac(x)))
        assert np.max(np.abs(jac(x) - J_fd)) / scale < 1e-5


def test_fd_jacobian_without_structure_is_the_column_loop():
    def f(x):
        return np.array([np.sin(x[0] * x[1]), x[2] ** 3 - x[0], np.exp(x[1]) * x[2]])

    x = np.array([0.7, -1.3, 2.1])
    J_ref = np.empty((3, 3))
    for j in range(3):
        h = 1e-6 * (1.0 + abs(x[j]))
        xp, xm = x.copy(), x.copy()
        xp[j] += h
        xm[j] -= h
        J_ref[:, j] = (f(xp) - f(xm)) / (2.0 * h)
    assert np.array_equal(fd_jacobian(f, x), J_ref)


def test_newton_linear_one_step():
    sys_ = fd_system(lambda x: x - 1.0)
    point, report = newton(sys_, np.array([0.0]))
    # the finite-difference Jacobian limits the one-step accuracy
    assert abs(point.x[0] - 1.0) < 1e-9
    assert report.iterations == 1
    assert report.converged


def test_newton_square_root():
    sys_ = fd_system(lambda x: x * x - 4.0)
    point, report = newton(sys_, np.array([3.0]), tol=1e-12)
    assert abs(point.x[0] - 2.0) < 1e-10
    assert report.iterations <= 8


def test_newton_quadratic_convergence_rate():
    sys_ = plain_system(lambda x: x * x - 4.0, lambda x: np.array([[2.0 * x[0]]]))
    errs = []
    x = np.array([3.0])
    for _ in range(4):
        try:
            x = newton(sys_, x, tol=0.0, max_iter=1)[0].x
        except NoConvergence as exc:
            x = exc.best_x
        errs.append(abs(x[0] - 2.0))
    ratios = [errs[i + 1] / errs[i] ** 2 for i in range(2)]
    assert max(ratios) < 1.0  # e_{k+1} <= C e_k^2 with small C near the root


def test_newton_double_root_is_flagged():
    sys_ = fd_system(lambda x: x * x)
    try:
        _, report = newton(sys_, np.array([1.0]), tol=1e-14, max_iter=25)
        converged_slowly = report.iterations > 10
    except NoConvergence as exc:
        converged_slowly = True
        assert exc.best_residual < 1.0
    assert converged_slowly


def test_newton_singular_jacobian():
    sys_ = plain_system(
        lambda x: np.array([x[0] + x[1], x[0] + x[1]]),
        lambda x: np.ones((2, 2)),
    )
    with pytest.raises(SingularJacobian):
        newton(sys_, np.array([1.0, 2.0]))


def test_singular_jacobian_carries_best_iterate():
    sys_ = plain_system(
        lambda x: np.array([x[0] + x[1], x[0] + x[1]]),
        lambda x: np.ones((2, 2)),
    )
    with pytest.raises(SingularJacobian) as info:
        newton(sys_, np.array([1.0, 2.0]))
    exc = info.value
    assert np.array_equal(exc.best_x, [1.0, 2.0])
    assert exc.report.method == "newton"
    assert exc.report.residual_norm == 3.0
    assert not exc.report.converged


def test_newton_backtracks_on_overshoot():
    # steep arctan makes the raw Newton step overshoot from far away
    sys_ = fd_system(lambda x: np.arctan(5.0 * x))
    point, report = newton(sys_, np.array([2.0]), tol=1e-12)
    assert abs(point.x[0]) < 1e-12
    assert report.converged


def test_no_convergence_carries_best_iterate():
    sys_ = fd_system(lambda x: x * x + 1.0)  # no real root
    with pytest.raises(NoConvergence) as info:
        newton(sys_, np.array([2.0]), max_iter=10)
    exc = info.value
    assert exc.best_x is not None
    assert exc.report is not None
    assert exc.best_residual >= 1.0
    assert exc.iterations <= 10


def test_lm_agrees_with_newton():
    sys_ = fd_system(lambda x: x * x - 4.0)
    point, _ = levenberg_marquardt(sys_, np.array([3.0]), tol=1e-12)
    assert abs(point.x[0] - 2.0) < 1e-10


def test_lm_converges_to_nearest_root():
    sys_ = fd_system(lambda x: x * x - 4.0)
    point, _ = levenberg_marquardt(sys_, np.array([-3.0]), tol=1e-12)
    assert abs(point.x[0] + 2.0) < 1e-10


def test_lm_rank_deficient_residual():
    sys_ = fd_system(lambda x: np.array([x[0] - 1.0, 0.0]))
    point, report = levenberg_marquardt(sys_, np.array([5.0, 3.0]), tol=1e-10)
    assert abs(point.x[0] - 1.0) < 1e-10
    assert report.converged


def test_lm_merit_never_increases():
    rng = np.random.default_rng(2)

    def f(x):  # coupled nonlinear system with a known zero at (1, 1)
        return np.array(
            [10.0 * (x[1] - x[0] ** 2), 1.0 - x[0]]
        )

    sys_ = fd_system(f)
    x0 = rng.normal(size=2) * 2.0
    _, report = levenberg_marquardt(sys_, x0, tol=1e-10)
    merits = [0.5 * r ** 2 for r in report.residual_history]
    # the recorded history tracks accepted steps only
    assert all(b <= a + 1e-15 for a, b in zip(merits, merits[1:]))


def test_report_as_dict():
    sys_ = fd_system(lambda x: x - 1.0)
    _, report = newton(sys_, np.array([0.5]))
    payload = report.as_dict()
    assert payload["converged"] is True
    assert payload["iterations"] == report.iterations
    assert payload["residual_norm"] == report.residual_norm
    assert payload["method"] == "newton"


# ---------------------------------------------------------------------------
# the shared iteration loop, against frozen copies of the two loops it
# replaced (the copies call ``system.eval(x)`` and ``system.jac(x)``, the
# calls of a system before its points: the old ``f0`` argument only sized
# the finite-difference output).  The Newton copy takes the chord steps of
# the package's rule, ``solvers._chord_keeps``, and counts them
# ---------------------------------------------------------------------------

def frozen_newton(system, x0, tol=1e-9, max_iter=50, max_backtrack=30):
    x = np.asarray(x0, dtype=float).copy()
    report = SolveReport(method="newton")
    f = np.asarray(system.eval(x), dtype=float)
    norm = np.max(np.abs(f))
    report.residual_history.append(norm)
    best_x, best_norm = x.copy(), norm
    J, last = None, None
    for it in range(max_iter):
        if norm <= tol:
            report.converged = True
            report.iterations = it
            report.residual_norm = norm
            return x, report
        fnorm2 = np.dot(f, f)
        chord = None
        if J is not None and solvers._chord_keeps(norm, last, tol):
            # the full step on the last Jacobian built, kept where it lowers
            # the residual
            dx = np.linalg.solve(J, -f)
            if np.all(np.isfinite(dx)):
                f_new = np.asarray(system.eval(x + dx), dtype=float)
                if np.all(np.isfinite(f_new)) and np.dot(f_new, f_new) < fnorm2:
                    chord = x + dx, f_new
        if chord is not None:
            report.jacobian_reuses += 1
            x_new, f_new = chord
        else:
            J = system.jac(x)
            try:
                dx = np.linalg.solve(J, -f)
            except np.linalg.LinAlgError:
                dx = None
            if dx is None or not np.all(np.isfinite(dx)):
                report.iterations = it
                report.residual_norm = best_norm
                raise SingularJacobian(it, best_x=best_x, report=report)
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
        x, f, last = x_new, f_new, norm
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


def frozen_lm(system, x0, tol=1e-9, max_iter=200, lam0=1e-3, lam_max=1e14):
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
            J = system.jac(x)
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


def _recorded(fun, jacobian=None):
    """A system that logs its calls, in order.  ``log.points`` holds every
    point its residual is evaluated at, a central-difference Jacobian's
    included; ``log.calls`` holds the root-finder's own calls, ("eval", x,
    F(x)) and ("jac", x, J(x)).  Without ``jacobian`` its Jacobian is the
    central difference of the logged residual.  The root-finders evaluate
    its points (``at``), the frozen loops call ``eval`` and ``jac``."""
    log = SimpleNamespace(points=[], calls=[])
    in_jacobian = []

    def eval_(x):
        x = np.array(x, dtype=float)
        f = fun(x)
        log.points.append(x)
        if not in_jacobian:
            log.calls.append(("eval", x, np.array(f, dtype=float)))
        return f

    if jacobian is None:
        def jacobian(x):
            return fd_jacobian(eval_, x)

    def jacobian_(x):
        in_jacobian.append(True)
        try:
            J = jacobian(x)
        finally:
            in_jacobian.pop()
        log.calls.append(("jac", np.array(x, dtype=float), np.array(J, dtype=float)))
        return J

    system = plain_system(eval_, jacobian_)
    return SimpleNamespace(at=system.at, eval=eval_, jac=jacobian_), log


def _run(solver, make_system, x0, **kw):
    system, log = make_system()
    try:
        x, report = solver(system, x0, **kw)
        # the root-finders return a point, the frozen loops x
        outcome = ("ok", getattr(x, "x", x))
    except (NoConvergence, SingularJacobian) as exc:
        x, report = None, exc.report
        fields = {k: v for k, v in vars(exc).items() if k != "report"}
        outcome = (type(exc).__name__, fields, str(exc))
    return outcome, report, log


COUNTERS = ("residual_evaluations", "residual_passes", "jacobian_evaluations")


def _assert_same_outcome(a, b):
    """The same outcome and report, but for the call counters, which the
    frozen loops do not keep."""
    (out_a, rep_a, _), (out_b, rep_b, _) = a, b
    assert out_a[0] == out_b[0]
    if out_a[0] == "ok":
        assert np.array_equal(out_a[1], out_b[1])
    else:
        assert out_a[2] == out_b[2]
        assert out_a[1].keys() == out_b[1].keys()
        for key in out_a[1]:
            assert np.array_equal(out_a[1][key], out_b[1][key]), key
    dict_a, dict_b = rep_a.as_dict(), rep_b.as_dict()
    for key in COUNTERS:
        del dict_a[key], dict_b[key]
    assert dict_a == dict_b


def _assert_same(a, b):
    _assert_same_outcome(a, b)
    pts_a, pts_b = a[2].points, b[2].points
    assert len(pts_a) == len(pts_b)
    assert all(np.array_equal(p, q) for p, q in zip(pts_a, pts_b))


def _assert_on_the_frozen_grid(new, frozen, max_backtrack):
    """``new`` takes its Jacobians where the frozen Newton loop does, and
    every point it evaluates is x_0, a point x_i + 2^-j dx_i, 0 <= j <=
    ``max_backtrack``, on the frozen loop's iterates x_i and Newton
    directions dx_i, or a chord point x - J^-1 F(x), on a point x evaluated
    before it and the Jacobian J built last."""
    jacobians = [[(x, J) for kind, x, J in log.calls if kind == "jac"] for log in (new, frozen)]
    assert len(jacobians[0]) == len(jacobians[1])
    for (x, J), (x_f, J_f) in zip(*jacobians):
        assert np.array_equal(x, x_f) and np.array_equal(J, J_f)
    assert new.calls[0][0] == frozen.calls[0][0] == "eval"
    assert np.array_equal(new.calls[0][1], frozen.calls[0][1])
    grid = 0.5 ** np.arange(max_backtrack + 1)
    evaluated, J = [], None
    for kind, x, value in new.calls:
        if kind == "jac":
            # the Jacobian is built at a point evaluated before
            J, x_i = value, x
            f_i = next(f for p, f in reversed(evaluated) if np.array_equal(p, x))
            try:
                dx = np.linalg.solve(J, -f_i)
            except np.linalg.LinAlgError:  # a singular Jacobian ends the loop
                dx = None
            continue
        if evaluated:
            assert J is not None
            on_grid = dx is not None and any(np.array_equal(x, x_i + alpha * dx)
                                             for alpha in grid)
            assert on_grid or any(np.array_equal(x, p + np.linalg.solve(J, -f))
                                  for p, f in evaluated)
        evaluated.append((x, value))


def _cubic(seed):
    """F(x) = A x + (C x)^3 - b, cubed entrywise, with a root at a normal
    draw r, started at r plus a draw ten times larger: n = 3 for seeds
    below 20, else 6."""
    rng = np.random.default_rng(seed)
    n = 3 if seed < 20 else 6
    A, C = rng.normal(size=(2, n, n))
    root = rng.normal(size=n)
    b = A @ root + (C @ root) ** 3

    def fun(x):
        return A @ x + (C @ x) ** 3 - b

    def jacobian(x):
        return A + 3.0 * (C @ x)[:, None] ** 2 * C

    return fun, jacobian, root + 10.0 * rng.normal(size=n)


def _rosenbrock():
    return _recorded(lambda x: np.array([10.0 * (x[1] - x[0] ** 2), 1.0 - x[0]]))


def _no_real_root():
    return _recorded(lambda x: x * x + 1.0)


def _singular():
    return _recorded(lambda x: np.array([x[0] + x[1], x[0] + x[1]]),
                     jacobian=lambda x: np.ones((2, 2)))


def _flat():
    # zero Jacobian: LM rejects every damping, Newton finds it singular
    return _recorded(lambda x: np.array([1.0 + x[0] ** 2, 2.0]),
                     jacobian=lambda x: np.zeros((2, 2)))


def _steep():
    return _recorded(lambda x: np.arctan(5.0 * x))


NEWTON_CASES = {
    "converges": (_rosenbrock, np.array([-1.2, 1.0]), {"tol": 1e-12}),
    "converges after backtracking": (_steep, np.array([2.0]), {"tol": 1e-12}),
    "stalls in backtracking": (_steep, np.array([2.0]), {"max_backtrack": 0}),
    "singular": (_singular, np.array([1.0, 2.0]), {}),
    "out of budget": (_no_real_root, np.array([2.0]), {"max_iter": 10}),
    "zero budget": (_rosenbrock, np.array([-1.2, 1.0]), {"max_iter": 0}),
    "converged at start": (_rosenbrock, np.array([1.0, 1.0]), {"max_iter": 0}),
    # a chord trial that fails, and a build at its start (see
    # test_a_chord_step_that_does_not_lower_the_residual_is_rebuilt_where_it_starts)
    "rebuilds after a chord trial": (lambda: _recorded(*_cubic(26)[:2]), _cubic(26)[2],
                                     {"tol": 0.1}),
}

LM_CASES = {
    "converges": (_rosenbrock, np.array([-1.2, 1.0]), {"tol": 1e-12}),
    "stalls": (_flat, np.array([0.5, 0.5]), {}),
    "stalls at the merit minimum": (_no_real_root, np.array([2.0]), {"tol": 0.0}),
    "out of budget": (_rosenbrock, np.array([-1.2, 1.0]), {"tol": 0.0, "max_iter": 3}),
    "zero budget": (_rosenbrock, np.array([-1.2, 1.0]), {"max_iter": 0}),
}


@pytest.mark.parametrize("case", list(NEWTON_CASES))
def test_newton_matches_the_frozen_loop(case):
    make_system, x0, kw = NEWTON_CASES[case]
    new = _run(newton, make_system, x0, **kw)
    frozen = _run(frozen_newton, make_system, x0, **kw)
    _assert_same_outcome(new, frozen)
    # the line search tries the frozen loop's step lengths in another
    # order, and skips some of them
    _assert_on_the_frozen_grid(new[2], frozen[2], kw.get("max_backtrack", 30))
    n_new, n_frozen = len(new[2].calls), len(frozen[2].calls)
    assert n_new <= n_frozen
    if case in ("converges", "out of budget"):
        assert n_new < n_frozen
    if case == "converges after backtracking":
        # arctan overshoots to |F1| near |F0|: the model names j = 1, the
        # first pass is j = 2 or 3, and the search halves as the frozen loop
        assert n_new == n_frozen
    if case == "stalls in backtracking":
        # max_backtrack=0: the full step alone, as in the frozen loop
        _assert_same(new, frozen)
    expected = {"converges": "ok", "converges after backtracking": "ok",
                "stalls in backtracking": "NoConvergence",
                "singular": "SingularJacobian", "out of budget": "NoConvergence",
                "zero budget": "NoConvergence", "converged at start": "ok",
                "rebuilds after a chord trial": "ok"}
    assert new[0][0] == expected[case]


@pytest.mark.parametrize("case", list(LM_CASES))
def test_levenberg_marquardt_matches_the_frozen_loop(case):
    make_system, x0, kw = LM_CASES[case]
    new = _run(levenberg_marquardt, make_system, x0, **kw)
    _assert_same(new, _run(frozen_lm, make_system, x0, **kw))
    assert new[0][0] == ("ok" if case == "converges" else "NoConvergence")


@pytest.mark.parametrize("solver, case", [(newton, case) for case in NEWTON_CASES]
                         + [(levenberg_marquardt, case) for case in LM_CASES])
def test_report_counts_the_calls_of_the_system(solver, case):
    # the reports NoConvergence and SingularJacobian carry count them too
    make_system, x0, kw = (NEWTON_CASES if solver is newton else LM_CASES)[case]
    _, report, log = _run(solver, make_system, x0, **kw)
    kinds = [kind for kind, _, _ in log.calls]
    # a system without a stack evaluates each point in a pass of its own
    assert report.residual_evaluations == report.residual_passes == kinds.count("eval")
    assert report.jacobian_evaluations == kinds.count("jac")
    # each step is taken on a Jacobian built at its point or on a kept one
    # (Newton's chord steps; LM keeps none), but for Newton's build that
    # meets a singular Jacobian and takes no step
    stopped = solver is newton and case == "singular"
    assert report.jacobian_evaluations + report.jacobian_reuses == report.iterations + stopped
    if solver is levenberg_marquardt:
        assert report.jacobian_reuses == 0
    payload = report.as_dict()
    assert payload["jacobian_reuses"] == report.jacobian_reuses
    assert {key: payload[key] for key in COUNTERS} == {
        "residual_evaluations": kinds.count("eval"),
        "residual_passes": kinds.count("eval"),
        "jacobian_evaluations": kinds.count("jac")}


@pytest.mark.parametrize("seed", range(40))
def test_newton_matches_the_frozen_loop_on_random_cubics(seed):
    # at seed 15 one step's passing grid points are not an up-set (j = 3
    # passes, 4 to 6 fail, 7 on pass) and the model names j = 5: the search
    # halves from j = 1 and takes j = 3, as the frozen loop does
    fun, jacobian, x0 = _cubic(seed)
    make_system = lambda: _recorded(fun, jacobian)
    new = _run(newton, make_system, x0, tol=1e-10)
    frozen = _run(frozen_newton, make_system, x0, tol=1e-10)
    _assert_same_outcome(new, frozen)
    _assert_on_the_frozen_grid(new[2], frozen[2], 30)


def _first_iteration_points(log):
    jacs = [i for i, (kind, _, _) in enumerate(log.calls) if kind == "jac"]
    return [x for _, x, _ in log.calls[jacs[0] + 1:jacs[1]]]


def _clipped(big):
    """F(x) = x on |x| < 10 and ``big`` beyond, with the Jacobian 0.1, so
    the Newton step is -10 x: from x = 2 the full step lands at -18."""
    def fun(x):
        return np.where(np.abs(x) < 10.0, x, big)

    return lambda: _recorded(fun, jacobian=lambda x: np.array([[0.1]]))


def test_newton_halves_from_the_first_grid_point_after_a_non_finite_full_step():
    x0 = np.array([2.0])
    new = _run(newton, _clipped(np.nan), x0)
    _assert_same_outcome(new, _run(frozen_newton, _clipped(np.nan), x0))
    assert new[0][0] == "ok"
    # F(x0 + dx) is nan: no model, so 1, 1/2, 1/4 and 1/8 in turn, and
    # 1/8, the first that lowers the residual, is taken
    points = _first_iteration_points(new[2])
    assert np.array_equal(np.concatenate(points), x0 - 20.0 * 0.5 ** np.arange(4))


@pytest.mark.parametrize("exponent", np.arange(0.5, 20.0))
def test_newton_line_search_costs_log_j_more_than_halving_when_the_model_is_far_off(exponent):
    # from x = 2 the full step lands at -18, where F = -big, so the model
    # names j of 2 to 30 (j = 30 at big 3e19), while the first pass is j = 3
    big = 10.0 ** exponent
    x0 = np.array([2.0])
    new = _run(newton, _clipped(-big), x0)
    frozen = _run(frozen_newton, _clipped(-big), x0)
    _assert_same_outcome(new, frozen)
    j = solvers._first_model_decrease(np.array([2.0]), np.array([-big]), 0.5 ** np.arange(31))
    excess = len(_first_iteration_points(new[2])) - len(_first_iteration_points(frozen[2]))
    assert excess <= 2.0 * np.log2(j)


def test_newton_line_search_warns_of_no_overflow():
    # ||F(x0 + dx)||^2 = 1e400 overflows; RuntimeWarnings are errors here
    x0 = np.array([2.0])
    new = _run(newton, _clipped(1e200), x0)
    with np.errstate(over="ignore"):
        frozen = _run(frozen_newton, _clipped(1e200), x0)
    _assert_same_outcome(new, frozen)
    _assert_on_the_frozen_grid(new[2], frozen[2], 30)
    assert new[0][0] == "ok"
    assert np.array_equal(new[2].calls[2][1], [-18.0])


def test_levenberg_marquardt_warns_of_no_overflow():
    # LM's first trial lands near -18, where F = 1e200 squares past the
    # float range; RuntimeWarnings are errors here.  The trial's half
    # squared norm reads inf, so LM raises its damping as the frozen loop does
    x0 = np.array([2.0])
    new = _run(levenberg_marquardt, _clipped(1e200), x0)
    with np.errstate(over="ignore"):
        frozen = _run(frozen_lm, _clipped(1e200), x0)
    _assert_same(new, frozen)
    assert new[0][0] == "ok"
    assert new[2].calls[2][2][0] == 1e200


# ---------------------------------------------------------------------------
# stacked trial steps, against a frozen copy of the search that evaluated
# its trial steps one at a time
# ---------------------------------------------------------------------------

def sequential_newton(system, x0, tol=1e-9, max_iter=50, max_backtrack=30):
    """``newton`` as it was before it stacked its trial steps: the same grid,
    model and search, each trial step evaluated alone when the search reads
    it, and the same chord steps."""
    alphas = 0.5 ** np.arange(max_backtrack + 1)

    def step(point, J, report):
        x, f = point.x, point.f
        try:
            dx = np.linalg.solve(J, -f)
        except np.linalg.LinAlgError:
            raise solvers._Singular from None
        if not np.all(np.isfinite(dx)):
            raise solvers._Singular
        fnorm2 = solvers._sumsq(f)

        def trial(j):
            new = solvers._evaluate(system, x + alphas[j] * dx, report)
            return new, np.all(np.isfinite(new.f)) and solvers._sumsq(new.f) < fnorm2

        new, passed = trial(0)
        if passed:
            return new
        if max_backtrack == 0:
            return None
        j = solvers._first_model_decrease(f, new.f, alphas)
        new, passed = trial(j)
        if not passed:
            for i in range(1, max_backtrack + 1):
                if i != j:
                    new, passed = trial(i)
                    if passed:
                        return new
            return None
        lo, hi, bracketed = 0, j, False
        while hi - lo > 1:
            if bracketed:
                k = (lo + hi) // 2
            else:
                k = max(hi - max(1, j - hi - 1), 1)
            tried, passed = trial(k)
            if passed:
                hi, new = k, tried
            else:
                lo, bracketed = k, True
        return new

    # the chord steps of ``newton``, each the point it evaluates alone
    return solvers._iterate(system, x0, "newton", solvers._chord(system, tol, step), tol,
                            max_iter)


def _stacked(make_system):
    """``make_system`` with a stack that evaluates every row, as a
    formulation's one pass does: the points the search never reads are
    evaluated and logged too."""
    def make():
        system, log = make_system()
        return SimpleNamespace(at=system.at, eval=system.eval, jac=system.jac,
                               stack=lambda X: [system.at(x) for x in X]), log

    return make


def _cubic_system(seed):
    fun, jacobian, x0 = _cubic(seed)
    return (lambda: _recorded(fun, jacobian)), x0


REPLAY_CASES = {
    **{f"cubic {seed}": (lambda seed=seed: _cubic_system(seed), {"tol": 1e-10})
       for seed in range(40)},
    "non-finite full step": (lambda: (_clipped(np.nan), np.array([2.0])), {}),
    **{f"far model {exponent}": (lambda e=exponent: (_clipped(-10.0 ** e), np.array([2.0])), {})
       for exponent in np.arange(0.5, 20.0)},
    "overflow": (lambda: (_clipped(1e200), np.array([2.0])), {}),
    "cubic 15, a failed chord trial": (lambda: _cubic_system(15), {"tol": 0.1}),
}


@pytest.mark.parametrize("case", list(REPLAY_CASES))
def test_stacked_newton_accepts_the_steps_of_the_sequential_search(case):
    # the search reads the flags of its stacked trial steps in the order it
    # read them one at a time, so it accepts the same steps: the same
    # iterates, residual history and outcome, bitwise
    make, kw = REPLAY_CASES[case]
    make_system, x0 = make()
    new = _run(newton, _stacked(make_system), x0, **kw)
    sequential = _run(sequential_newton, make_system, x0, **kw)
    _assert_same_outcome(new, sequential)
    # every point the sequential search read was evaluated, and each is on
    # the grid of the frozen halving loop
    read = sequential[2].points
    assert all(any(np.array_equal(p, q) for q in new[2].points) for p in read)
    with np.errstate(over="ignore"):
        frozen = _run(frozen_newton, make_system, x0, **kw)
    _assert_on_the_frozen_grid(new[2], frozen[2], 30)
    # each stack is one pass: never more passes than the points read alone
    assert new[1].residual_passes <= sequential[1].residual_evaluations
    assert new[1].residual_evaluations == len(new[2].points)


def _out_of_chart_beyond(unread):
    """F(x) = x on |x| < 2.5 and 5 up to |x| = 5, with the Jacobian 0.1 at
    |x| >= 1 and 1 nearer: from x = 2 the full step lands at -18, where F =
    10, and the model names the step 1/8, to -0.5, which passes; the search
    then reads 1/4 (to -3), which fails, and never 1/2 (to -8).  Between |x|
    = 5 and 15 F is ``unread``: "raise" raises OutOfChart, as a chart check
    does, else F is that value."""
    def fun(x):
        if np.all(np.abs(x) < 2.5):
            return x.copy()
        if np.all(np.abs(x) < 5.0):
            return np.full_like(x, 5.0)
        if np.all(np.abs(x) < 15.0):
            if unread == "raise":
                raise OutOfChart("beyond the chart")
            return np.full_like(x, unread)
        return np.full_like(x, 10.0)

    return lambda: _recorded(fun, jacobian=lambda x: np.where(np.abs(x) < 1.0, 1.0, 0.1)[None])


@pytest.mark.parametrize("unread", ["raise", np.nan, np.inf])
def test_a_point_the_search_never_reads_changes_nothing(unread):
    # the stack of steps 1/8, 1/4 and 1/2 holds one the search never reads.
    # Where it raises the stack raises, and the search reads its rows alone,
    # in its own order; where it is not finite only its flag fails
    x0 = np.array([2.0])
    make_system = _out_of_chart_beyond(unread)
    new = _run(newton, _stacked(make_system), x0)
    sequential = _run(sequential_newton, make_system, x0)
    _assert_same_outcome(new, sequential)
    assert new[0][0] == "ok" and sequential[1].residual_evaluations == 5
    assert np.array_equal(np.concatenate(_first_iteration_points(sequential[2])),
                          [-18.0, -0.5, -3.0])
    report, first = new[1], np.concatenate(_first_iteration_points(new[2]))
    if unread == "raise":
        # the stack's pass raised at -8 and gave no point; the search then
        # evaluated the two it read alone
        assert (report.residual_passes, report.residual_evaluations) == (6, 5)
        assert np.array_equal(first, [-18.0, -0.5, -3.0, -0.5, -3.0])
    else:
        assert (report.residual_passes, report.residual_evaluations) == (4, 6)
        assert np.array_equal(first, [-18.0, -0.5, -3.0, -8.0])


# ---------------------------------------------------------------------------
# the chord rule: Newton keeps its last Jacobian where e_k^2 <= tol e_{k-1}
# ---------------------------------------------------------------------------

def _logged_chord_steps(monkeypatch):
    """``solvers._chord`` with each step logged: (point, builds before it,
    builds it made, the point it accepted)."""
    steps, chord = [], solvers._chord

    def logged(system, tol, step):
        chord_step = chord(system, tol, step)

        def run(point, report):
            before = report.jacobian_evaluations
            new = chord_step(point, report)
            steps.append((point, before, report.jacobian_evaluations - before, new))
            return new

        return run

    monkeypatch.setattr(solvers, "_chord", logged)
    return steps


def test_newton_keeps_its_last_jacobian_exactly_where_the_chord_rule_holds(monkeypatch):
    # the cubic of seed 5 converges quadratically to 1.1e-7 from 1.4e-4:
    # (1.1e-7)^2 <= 1e-10 * 1.4e-4, so its last two steps are chord steps,
    # each the full step on the Jacobian built last, and each lowers ||F||
    fun, jacobian, x0 = _cubic(5)
    built = []

    def spied(x):
        built.append((x, jacobian(x)))
        return built[-1][1]

    steps = _logged_chord_steps(monkeypatch)
    _, report = newton(plain_system(fun, spied), x0, tol=1e-10)
    history = report.residual_history
    kept = [k > 0 and history[k] ** 2 <= 1e-10 * history[k - 1] for k in range(len(steps))]
    assert kept[-2:] == [True, True] and not any(kept[:-2])
    assert [builds == 0 for _, _, builds, _ in steps] == kept
    assert report.jacobian_reuses == 2 and len(built) == report.jacobian_evaluations
    assert report.jacobian_evaluations + report.jacobian_reuses == report.iterations
    for (point, before, builds, new), keep in zip(steps, kept):
        if keep:
            _, J = built[before - 1]
            assert np.array_equal(new.x, point.x + np.linalg.solve(J, -point.f))
        else:
            assert builds == 1 and np.array_equal(built[before][0], point.x)


def test_a_chord_step_that_does_not_lower_the_residual_is_rebuilt_where_it_starts(monkeypatch):
    # the cubic of seed 15 at tol 0.1 reaches 0.71 from 5.3: 0.71^2 <= 0.1 *
    # 5.3, but the chord point from there does not lower ||F||^2, so the
    # step builds at the same point and takes the step a fresh build takes
    fun, jacobian, x0 = _cubic(15)
    make_system = lambda: _recorded(fun, jacobian)
    steps = _logged_chord_steps(monkeypatch)
    (outcome, _), report, log = _run(newton, make_system, x0, tol=0.1)
    assert outcome == "ok" and report.jacobian_reuses == 0
    history = report.residual_history
    k = next(k for k in range(1, len(steps)) if history[k] ** 2 <= 0.1 * history[k - 1])
    point, before, builds, _ = steps[k]
    assert builds == 1
    # the chord point, evaluated right before the build at the same point
    jacs = [i for i, (kind, _, _) in enumerate(log.calls) if kind == "jac"]
    previous, at = log.calls[jacs[before - 1]], jacs[before]
    chord_x, chord_f = log.calls[at - 1][1:]
    assert np.array_equal(chord_x, point.x + np.linalg.solve(previous[2], -point.f))
    assert np.sum(chord_f ** 2) >= np.sum(point.f ** 2)
    assert np.array_equal(log.calls[at][1], point.x)

    def trials(calls):
        # the points evaluated after a build, up to the next one
        return list(itertools.takewhile(lambda call: call[0] == "eval", calls[1:]))

    # a solve started at that point builds there first, and evaluates the
    # same trial points to accept the same one
    _, fresh, fresh_log = _run(newton, make_system, point.x, tol=0.1)
    assert [kind for kind, _, _ in fresh_log.calls[:2]] == ["eval", "jac"]
    assert np.array_equal(fresh_log.calls[1][2], log.calls[at][2])
    ours, theirs = trials(log.calls[at:]), trials(fresh_log.calls[1:])
    assert len(ours) == len(theirs) > 0
    assert all(np.array_equal(a[1], b[1]) for a, b in zip(ours, theirs))
    assert fresh.residual_history[1] == history[k + 1]


def test_newton_and_window_newton_read_the_one_chord_rule(monkeypatch):
    # every keep-or-build decision of both loops is a call of
    # solvers._chord_keeps: Newton's from its second step on, with max|F|
    # and its tol, the window's with its largest error and tolerance 1 (and
    # no last error at the first update); a rule that never keeps makes both
    # build at every step
    calls, rule = [], solvers._chord_keeps

    def spied(error, last, tol):
        calls.append((error, last, tol))
        return rule(error, last, tol)

    monkeypatch.setattr(solvers, "_chord_keeps", spied)
    fun, jacobian, x0 = _cubic(5)
    _, report = newton(plain_system(fun, jacobian), x0, tol=1e-10)
    history = report.residual_history
    assert calls == [(history[k], history[k - 1], 1e-10) for k in range(1, report.iterations)]
    calls.clear()
    linearize, log = _scripted_newton([1e12, 1e8, 1e2, 1e-3])
    solvers.window_newton(np.zeros((1, 1)), linearize)
    assert calls == [(1e12, None, 1.0), (1e8, 1e12, 1.0), (1e2, 1e8, 1.0)]
    assert log.count(("update", 1)) == 2

    monkeypatch.setattr(solvers, "_chord_keeps", lambda error, last, tol: False)
    _, report = newton(plain_system(fun, jacobian), x0, tol=1e-10)
    assert report.jacobian_reuses == 0 and report.jacobian_evaluations == report.iterations
    linearize, log = _scripted_newton([1e12, 1e8, 1e2, 1e-3])
    solvers.window_newton(np.zeros((1, 1)), linearize)
    assert log == [("build", 0), ("update", 0), ("build", 1), ("update", 1),
                   ("build", 2), ("update", 2)]


def test_linalg_error_in_the_residual_propagates():
    # only a failed linear solve is a singular Jacobian; a residual that
    # raises LinAlgError itself is the caller's error
    calls = []

    def fun(x):
        calls.append(1)
        if len(calls) > 1:
            raise np.linalg.LinAlgError("inside the residual")
        return x - 1.0

    for solver in (newton, levenberg_marquardt):
        calls.clear()
        system = plain_system(fun, lambda x: np.eye(1))
        with pytest.raises(np.linalg.LinAlgError, match="inside the residual"):
            solver(system, np.array([0.0]))


def test_linalg_error_in_the_jacobian_propagates():
    def jacobian(x):
        raise np.linalg.LinAlgError("inside the Jacobian")

    for solver in (newton, levenberg_marquardt):
        system = plain_system(lambda x: x - 1.0, jacobian)
        with pytest.raises(np.linalg.LinAlgError, match="inside the Jacobian"):
            solver(system, np.array([0.0]))


# ---------------------------------------------------------------------------
# solve: the attempts of a method, in turn
# ---------------------------------------------------------------------------

def _scripted_attempts(outcomes):
    """Attempts that log (name, max_iter) and succeed or raise as scripted."""
    log = []

    def make(name):
        def attempt(system, z0, tol, max_iter):
            log.append((name, max_iter))
            outcome = outcomes[name]
            if isinstance(outcome, Exception):
                raise outcome
            return z0, SolveReport(converged=True, method=name)
        return attempt

    return {name: make(name) for name in ("newton", "levenberg_marquardt")}, log


@pytest.mark.parametrize("method, fully_actuated, order", [
    ("newton", True, ["newton", "levenberg_marquardt"]),
    ("newton", False, ["newton", "levenberg_marquardt"]),
    ("lm", True, ["levenberg_marquardt"]),
    ("lm_then_newton", True, ["levenberg_marquardt", "newton"]),
    ("auto", True, ["newton", "levenberg_marquardt"]),
    ("auto", False, ["newton", "levenberg_marquardt"]),
])
def test_solve_runs_the_attempts_of_its_method_in_order(method, fully_actuated, order):
    # the order depends on the method alone: an underactuated problem
    # runs the same attempts as a fully actuated one
    problem = SimpleNamespace(fully_actuated=fully_actuated)
    failure = NoConvergence(1.0, 7)
    attempts, log = _scripted_attempts({"newton": failure,
                                        "levenberg_marquardt": failure})
    with pytest.raises(NoConvergence) as info:
        solvers.solve(problem, np.zeros(1), attempts, method, max_iter=7)
    assert info.value is failure
    # every attempt gets the whole budget
    assert log == [(name, 7) for name in order]


def test_solve_returns_the_first_attempt_that_converges():
    attempts, log = _scripted_attempts({"newton": SingularJacobian(0),
                                        "levenberg_marquardt": None})
    _, report = solvers.solve(None, np.zeros(1), attempts, "newton", max_iter=5)
    assert report.method == "levenberg_marquardt"
    assert log == [("newton", 5), ("levenberg_marquardt", 5)]
    attempts, log = _scripted_attempts({"newton": None, "levenberg_marquardt": None})
    _, report = solvers.solve(None, np.zeros(1), attempts, "newton")
    assert report.method == "newton" and len(log) == 1


def _failure(kind, best_residual):
    report = SolveReport(residual_norm=best_residual)
    if kind is SingularJacobian:
        return SingularJacobian(0, report=report)
    return NoConvergence(best_residual, 3, report=report)


@pytest.mark.parametrize("lm, newton_, raised", [
    ((NoConvergence, 0.386), (NoConvergence, 17.12), "lm"),
    ((NoConvergence, 17.12), (SingularJacobian, 0.386), "newton"),
    ((SingularJacobian, 0.386), (NoConvergence, 17.12), "lm"),
    ((NoConvergence, 2.0), (SingularJacobian, 2.0), "newton"),
], ids=["lm best", "newton best", "singular lm best", "tie"])
def test_solve_raises_the_failure_with_the_lowest_best_residual(lm, newton_, raised):
    # the best iterate and report of the whole solve, not of its last
    # attempt; on a tie the later attempt's
    failures = {"levenberg_marquardt": _failure(*lm), "newton": _failure(*newton_)}
    attempts, log = _scripted_attempts(failures)
    with pytest.raises((NoConvergence, SingularJacobian)) as info:
        solvers.solve(None, np.zeros(1), attempts, "lm_then_newton")
    assert [name for name, _ in log] == ["levenberg_marquardt", "newton"]
    assert info.value is failures["levenberg_marquardt" if raised == "lm" else "newton"]


def test_solve_failure_names_every_attempt():
    # F(x) = x^2 + 1 has no root and its least |F| is 1, at x = 0.  Newton's
    # first step lands there from x = 1, and its Jacobian is singular at
    # once; LM creeps toward it and runs out of its 3 iterations above 1.
    # Newton's failure is raised, and its message names both attempts
    system = plain_system(lambda x: x * x + 1.0, lambda x: np.diag(2.0 * x))
    attempts = {"newton": solvers.newton, "levenberg_marquardt": solvers.levenberg_marquardt}
    with pytest.raises(SingularJacobian) as info:
        solvers.solve(system, np.array([1.0]), attempts, "auto", max_iter=3)
    assert info.value.report.method == "newton" and info.value.best_residual == 1.0
    assert str(info.value) == (
        "singular Jacobian at iteration 1; attempts: newton 1 iterations, best residual "
        "1.000e+00; levenberg_marquardt 3 iterations, best residual 1.000e+00")


def test_solve_lets_other_errors_through():
    attempts, log = _scripted_attempts({"newton": ValueError("not a solver failure"),
                                        "levenberg_marquardt": None})
    with pytest.raises(ValueError):
        solvers.solve(None, np.zeros(1), attempts, "newton")
    assert log == [("newton", 100)]


def test_solve_rejects_an_unknown_method():
    attempts, log = _scripted_attempts({"newton": None, "levenberg_marquardt": None})
    with pytest.raises(ConfigError, match="frobnicate"):
        solvers.solve(None, np.zeros(1), attempts, "frobnicate")
    assert log == []


# ---------------------------------------------------------------------------
# marching in windows
# ---------------------------------------------------------------------------

def affine_scan(A, b):
    """Every state of x_j = A_j x_{j-1} + b_j from x_{-1} = 0: the scan's
    maps of A_1..A_{W-1}, applied to b."""
    return solvers.scan_apply(solvers.scan_maps(A[1:]), b)


def frozen_affine_scan(A, b):
    """The prefix scan as it was written before its maps were split from
    their application: A composed in place, round by round."""
    A = np.array(A, dtype=float, order="C")
    x = np.array(b, dtype=float, order="C")
    W, d = len(x), 1
    while d < W:
        x[d:] = x[d:] + (A[d:] @ x[:-d, :, None])[..., 0]
        if 2 * d < W:
            A[2 * d:] = A[2 * d:] @ A[d:-d]
        d *= 2
    return x


@pytest.mark.parametrize("W", [1, 2, 5, 128])
@pytest.mark.parametrize("m", [3, 6], ids=["n wide", "2n wide"])
def test_affine_scan_solves_the_recurrence(W, m):
    # x_j = A_j x_{j-1} + b_j from x_{-1} = 0, against the sequential loop
    # and a dense solve of the block bidiagonal system x_j - A_j x_{j-1} =
    # b_j; A_0 is never read, so a NaN there changes nothing
    rng = np.random.default_rng(10 * W + m)
    A = rng.normal(size=(W, m, m)) / (2.0 * np.sqrt(m))
    b = rng.normal(size=(W, m))
    A[0] = np.nan
    A_in, b_in = A.copy(), b.copy()
    got = affine_scan(A, b)
    x, loop = np.zeros(m), []
    for j in range(W):
        x = b[j] if j == 0 else A[j] @ x + b[j]
        loop.append(x)
    L = np.eye(W * m)
    for j in range(1, W):
        L[j * m:(j + 1) * m, (j - 1) * m:j * m] = -A[j]
    dense = np.linalg.solve(L, b.reshape(-1)).reshape(W, m)
    scale = np.max(np.abs(dense))
    assert got.shape == (W, m)
    assert np.max(np.abs(got - np.array(loop))) <= 1e-12 * scale
    assert np.max(np.abs(got - dense)) <= 1e-12 * scale
    assert np.array_equal(A, A_in, equal_nan=True) and np.array_equal(b, b_in)


@pytest.mark.parametrize("W", [5, 37, 128])
@pytest.mark.parametrize("m", [3, 6], ids=["n wide", "2n wide"])
def test_affine_scan_rounds_the_same_whatever_the_layout(W, m):
    # a broadcast A and a Fortran-ordered b, as a window's constant start
    # hands them in, give the bytes of their C-contiguous copies
    rng = np.random.default_rng(1000 * m + W)
    A = np.broadcast_to(rng.normal(size=(m, m)) / (2.0 * np.sqrt(m)), (W, m, m))
    b = rng.normal(size=(m, W)).T
    assert b.flags.f_contiguous and not b.flags.c_contiguous
    expected = affine_scan(np.ascontiguousarray(A), np.ascontiguousarray(b))
    assert affine_scan(A, b).tobytes() == expected.tobytes()


@pytest.mark.parametrize("W", [1, 2, 3, 5, 37, 128])
@pytest.mark.parametrize("m", [3, 6], ids=["n wide", "2n wide"])
def test_split_scan_is_the_in_place_scan_bitwise(W, m):
    # the maps built once and applied to several b give, for each b, the
    # bytes of the scan that composes A in place, for a general and a
    # broadcast A; a map applied again does not change, and a prefix of b
    # gives the prefix's scan
    rng = np.random.default_rng(7 * W + m)
    for A in (rng.normal(size=(W, m, m)) / (2.0 * np.sqrt(m)),
              np.broadcast_to(rng.normal(size=(m, m)) / (2.0 * np.sqrt(m)), (W, m, m))):
        maps = solvers.scan_maps(A[1:])
        assert [len(T) for T in maps] == [W - d for d in (1, 2, 4, 8, 16, 32, 64) if d < W]
        for b in rng.normal(size=(3, W, m)):
            expected = frozen_affine_scan(A, b)
            assert solvers.scan_apply(maps, b).tobytes() == expected.tobytes()
        assert solvers.scan_apply(maps, b).tobytes() == expected.tobytes()
        # the first V < W states, from the first V steps' b alone, are the
        # scan of the first V steps
        for V in sorted({1, 2, W // 2, W - 1} - {0, W}):
            expected = frozen_affine_scan(A[:V], b[:V])
            assert solvers.scan_apply(maps, b[:V]).tobytes() == expected.tobytes()


def _scripted_windows(solves_at, prefix=5, updates=2, nan_from=None):
    """A march whose windows of up to ``solves_at`` steps converge after
    ``updates`` updates, and wider ones keep a solved prefix of ``prefix``
    steps; with ``nan_from``, a window that reaches that step has a NaN
    residual.  Logs (k, size) of each window and ("commit", k, count) of
    each commit; ``committed`` holds what each commit of one step takes."""
    log, committed = [], []

    def window(k, size):
        log.append((k, size))
        calls = []
        start = np.zeros((size, 1))

        def linearize(x):
            calls.append(1)
            error = np.full(size, 2.0)
            if nan_from is not None and k + size > nan_from:
                error[nan_from - k:] = np.nan
            elif size <= solves_at:
                if len(calls) > updates:
                    error[:] = 0.0
            else:
                error[:prefix] = 0.0
            return error, np.zeros((size, 1)), lambda: (lambda residual: np.zeros((size, 1)))

        def commit(x, count, operator):
            log.append(("commit", k, count))
            if count == 1:
                committed.append(float(x[0, 0]))

        return start, linearize, commit

    return window, log, committed


def test_march_in_windows_halves_a_failed_window_and_doubles_a_quick_one():
    window, log, _ = _scripted_windows(solves_at=8)
    solvers.march_in_windows(1, 41, window)
    assert log == [
        (1, 40), ("commit", 1, 5),    # 128 wide, cut to the 40 steps left
        (6, 20), ("commit", 6, 5),    # halved, from the end of the prefix
        (11, 10), ("commit", 11, 5),
        (16, 5), ("commit", 16, 5),   # converged in 2 updates: doubled
        (21, 10), ("commit", 21, 5),
        (26, 5), ("commit", 26, 5),
        (31, 10), ("commit", 31, 5),
        (36, 5), ("commit", 36, 5),
    ]


def test_march_in_windows_solves_a_lone_step_as_a_window_of_one_step():
    # a width of 1 is the march's floor: a window of one step, solved by
    # window_newton and committed by the driver; after it the next window
    # is two wide
    window, log, committed = _scripted_windows(solves_at=1, prefix=0)
    solvers.march_in_windows(1, 6, window)
    assert log == [(1, 5), (1, 2), (1, 1), ("commit", 1, 1),
                   (2, 2), (2, 1), ("commit", 2, 1),
                   (3, 2), (3, 1), ("commit", 3, 1),
                   (4, 2), (4, 1), ("commit", 4, 1),
                   (5, 1), ("commit", 5, 1)]
    assert committed == [0.0] * 5


def test_march_in_windows_steps_through_a_window_with_a_nan_residual():
    # nothing of the window is kept: its steps are solved alone, each a
    # window of one step, so the step whose residual cannot be evaluated
    # fails there, as in a march of single steps, after the driver commits
    # the steps before it
    window, log, committed = _scripted_windows(solves_at=128, nan_from=5)
    with pytest.raises(StepSolveFailed) as info:
        solvers.march_in_windows(1, 12, window)
    assert info.value.step == 5
    alone = [[(k, 1), ("commit", k, 1)] for k in range(1, 5)]
    assert log == [(1, 11)] + sum(alone, []) + [(5, 1)]
    assert committed == [0.0] * 4


@pytest.mark.parametrize("scripted, step, message", [
    (dict(solves_at=0, prefix=0), 1, "step 1: not solved within 8 updates"),
    (dict(solves_at=128, nan_from=5), 5, "step 5: the residual is not finite"),
])
def test_march_in_windows_without_a_rescue_names_the_unsolved_step(scripted, step, message):
    # the steps before it are committed, and the march stops there
    window, log, _ = _scripted_windows(**scripted)
    with pytest.raises(StepSolveFailed) as info:
        solvers.march_in_windows(1, 12, window)
    assert info.value.step == step and str(info.value) == message
    assert [entry[1] for entry in log if entry[0] == "commit"] == list(range(1, step))


def test_window_newton_fails_a_diverging_window_without_a_warning():
    # an update that overflows: the next residual is not finite, so the
    # window fails with nothing solved, and neither the overflow nor the
    # residual raises a RuntimeWarning (tier-1 turns one into an error)
    def linearize(x):
        error = np.abs(np.exp(x[:, 0]) - 1.0) / 1e-12
        return error, x, lambda: (lambda residual: 1e300 * np.ones((len(x), 1)) * 1e10)

    x, iterations, solved, _ = solvers.window_newton(np.zeros((3, 1)) + 1.0, linearize)
    assert solved is None and iterations == 1 and not np.all(np.isfinite(x))


def _scripted_newton(errors, singular_at=()):
    """A window whose evaluations have the errors ``errors``, in turn (one
    step's, or each step's), and whose build at an evaluation in ``singular_at``
    raises LinAlgError.  Logs ("build", i) of each build at evaluation i and
    ("update", i) of each update by the operator built at evaluation i."""
    log, evaluations = [], []

    def linearize(x):
        i = len(evaluations)
        evaluations.append(i)

        def build():
            log.append(("build", i))
            if i in singular_at:
                raise np.linalg.LinAlgError("singular block")

            def op(residual):
                log.append(("update", i))
                return np.zeros_like(residual)

            return op

        error = np.atleast_1d(np.asarray(errors[i], dtype=float))
        return error, np.zeros((len(error), 1)), build

    return linearize, log


def test_window_newton_builds_until_the_chord_step_is_predicted_to_converge():
    # a quadratically converging history: a new operator at each update
    # while e_k^2 > e_{k-1}, in units of the step tolerance; at 1e2, 1e4 <=
    # 1e8 and the operator of the update before is reused
    linearize, log = _scripted_newton([1e12, 1e8, 1e2, 1e-3])
    x, iterations, solved, operator = solvers.window_newton(np.zeros((1, 1)), linearize)
    assert (iterations, solved) == (3, 1)
    assert log == [("build", 0), ("update", 0), ("build", 1), ("update", 1), ("update", 1)]
    log.clear()
    operator()(np.zeros((1, 1)))
    assert log == [("update", 1)]


def test_window_newton_rebuilds_a_stalled_chord_step():
    # the chord update from 1e4 stalls at 9e3: 8.1e7 > 1e4, so the next
    # update gets a new operator; a window that never contracts builds at
    # every update, not once for WINDOW_MAX_ITER stale updates
    linearize, log = _scripted_newton([1e12, 1e4, 9e3, 1e1, 0.5])
    x, iterations, solved, _ = solvers.window_newton(np.zeros((1, 1)), linearize)
    assert (iterations, solved) == (4, 1)
    assert log == [("build", 0), ("update", 0), ("update", 0),
                   ("build", 2), ("update", 2), ("update", 2)]
    linearize, log = _scripted_newton([1e4] * (solvers.WINDOW_MAX_ITER + 1))
    x, iterations, solved, _ = solvers.window_newton(np.zeros((1, 1)), linearize)
    assert (iterations, solved) == (solvers.WINDOW_MAX_ITER, 0)
    assert log == [entry for i in range(solvers.WINDOW_MAX_ITER)
                   for entry in (("build", i), ("update", i))]


def test_window_newton_hands_the_commit_its_last_operator():
    # converged after updates: the operator is the last one built, and no
    # build is made for it; converged at its start: one build, at the start,
    # however often it is asked for
    linearize, log = _scripted_newton([1e12, 1e2, 0.5])
    *_, operator = solvers.window_newton(np.zeros((1, 1)), linearize)
    log.clear()
    assert operator() is operator()
    operator()(np.zeros((1, 1)))
    assert log == [("update", 0)]
    linearize, log = _scripted_newton([0.5])
    x, iterations, solved, operator = solvers.window_newton(np.zeros((1, 1)), linearize)
    assert (iterations, solved, log) == (0, 1, [])
    assert operator() is operator()
    operator()(np.zeros((1, 1)))
    assert log == [("build", 0), ("update", 0)]


def test_window_newton_never_tries_a_failed_build_again():
    # a rebuild that meets a singular block leaves the operator built
    # before it; a first build that meets one leaves none, and operator()
    # raises without building, as it does after a start whose build failed
    linearize, log = _scripted_newton([1e12, 1e8], singular_at=(1,))
    x, iterations, solved, operator = solvers.window_newton(np.zeros((1, 1)), linearize)
    assert (iterations, solved) == (1, 0)
    assert log == [("build", 0), ("update", 0), ("build", 1)]
    log.clear()
    operator()(np.zeros((1, 1)))
    assert log == [("update", 0)]
    linearize, log = _scripted_newton([1e12], singular_at=(0,))
    x, iterations, solved, operator = solvers.window_newton(np.zeros((1, 1)), linearize)
    assert (iterations, solved, log) == (0, 0, [("build", 0)])
    for _ in range(2):
        with pytest.raises(np.linalg.LinAlgError):
            operator()
    assert log == [("build", 0)]
    linearize, log = _scripted_newton([0.5], singular_at=(0,))
    *_, operator = solvers.window_newton(np.zeros((1, 1)), linearize)
    for _ in range(2):
        with pytest.raises(np.linalg.LinAlgError):
            operator()
    assert log == [("build", 0)]


def test_window_newton_leaves_a_solved_prefix_its_operator_past_a_singular_tail():
    # three steps: after one update the first two are solved and the last
    # diverges, and the rebuild meets a singular block there; the prefix
    # is kept, and its extra update takes the operator built at the start,
    # with no build
    linearize, log = _scripted_newton([[1e12, 1e12, 1e12], [0.5, 0.5, 1e8]],
                                      singular_at=(1,))
    x, iterations, solved, operator = solvers.window_newton(np.zeros((3, 1)), linearize)
    assert (iterations, solved) == (1, 2)
    log.clear()
    assert operator()(np.ones((2, 1))).shape == (2, 1)
    assert log == [("update", 0)]
