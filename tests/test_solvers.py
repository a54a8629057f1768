"""Root-finder tests: finite-difference Jacobians, Newton, Levenberg-Marquardt."""

from types import SimpleNamespace

import numpy as np
import pytest

from discvar import solvers
from discvar.errors import ConfigError, NoConvergence, SingularJacobian
from discvar.solvers import (
    ResidualSystem,
    SolveReport,
    fd_jacobian,
    levenberg_marquardt,
    newton,
)


def fd_system(dim, fun):
    """A system whose Jacobian is the central difference of its residual."""
    return ResidualSystem(dim, fun, jacobian=lambda x: fd_jacobian(fun, x))


def test_fd_jacobian_identity():
    sys_ = fd_system(3, lambda x: x.copy())
    x = np.array([0.3, -1.0, 2.0])
    assert np.max(np.abs(sys_.jac(x) - np.eye(3))) < 1e-7


def test_fd_jacobian_linear_map():
    rng = np.random.default_rng(0)
    A = rng.normal(size=(4, 4))
    sys_ = fd_system(4, lambda x: A @ x)
    x = rng.normal(size=4)
    assert np.max(np.abs(sys_.jac(x) - A)) < 1e-6


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


def test_central_difference_with_per_point_steps_is_the_column_loop():
    # a batch of points, each with its own steps; f uses only + and *, so
    # it rounds the same on a batch as on one point
    def f(x):
        return np.stack([x[..., 0] * x[..., 1] + x[..., 2],
                         x[..., 2] * x[..., 2] * x[..., 2] - x[..., 0]], axis=-1)

    rng = np.random.default_rng(4)
    x = 3.0 * rng.normal(size=(5, 3))
    step = 1e-6 * (1.0 + np.abs(x))
    calls = []

    def batched(shifts):
        calls.append(shifts.shape)
        return f(x + shifts)

    J_ref = np.empty((5, 2, 3))
    for k in range(5):
        for j in range(3):
            xp, xm = x[k].copy(), x[k].copy()
            xp[j] += step[k, j]
            xm[j] -= step[k, j]
            J_ref[k, :, j] = (f(xp) - f(xm)) / (2.0 * step[k, j])
    assert np.array_equal(solvers.central_difference(batched, step), J_ref)
    assert calls == [(6, 5, 3)]


def test_nested_central_difference_matches_the_nested_fd_jacobian():
    # a vector-valued f(s, t) that is not a function of s + t
    def f(s, t):
        return np.stack([np.sin(s[..., 0] * t[..., 1]) + s[..., 1] ** 2 * t[..., 0],
                         np.exp(s[..., 0] + 2.0 * t[..., 0]) * t[..., 1]], axis=-1)

    calls = []

    def batched(s, t):
        calls.append(t.shape)
        return f(s, t)

    n = 2
    step = np.full(n, 1e-4)
    mixed = solvers.central_difference(lambda s: solvers.central_difference(
        lambda t: batched(s, t), np.broadcast_to(step, s.shape)), step)
    nested = fd_jacobian(lambda s: fd_jacobian(lambda t: f(s, t), np.zeros(n), step=1e-4),
                         np.zeros(n), step=1e-4)
    # nested[(i, j), l] = d^2 f_i / dt_j ds_l, and so is mixed[i, j, l]
    assert calls == [(2 * n, 2 * n, n)]
    assert mixed.shape == (2, n, n)
    assert np.max(np.abs(mixed - nested.reshape(2, n, n))) < 1e-7
    exact = np.array([[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]])
    assert np.max(np.abs(mixed - exact)) < 1e-7


def test_newton_linear_one_step():
    sys_ = fd_system(1, lambda x: x - 1.0)
    x, report = newton(sys_, np.array([0.0]))
    # the finite-difference Jacobian limits the one-step accuracy
    assert abs(x[0] - 1.0) < 1e-9
    assert report.iterations == 1
    assert report.converged


def test_newton_square_root():
    sys_ = fd_system(1, lambda x: x * x - 4.0)
    x, report = newton(sys_, np.array([3.0]), tol=1e-12)
    assert abs(x[0] - 2.0) < 1e-10
    assert report.iterations <= 8


def test_newton_quadratic_convergence_rate():
    sys_ = ResidualSystem(
        1, lambda x: x * x - 4.0, jacobian=lambda x: np.array([[2.0 * x[0]]])
    )
    errs = []
    x = np.array([3.0])
    for _ in range(4):
        try:
            x, _ = newton(sys_, x, tol=0.0, max_iter=1)
        except NoConvergence as exc:
            x = exc.best_x
        errs.append(abs(x[0] - 2.0))
    ratios = [errs[i + 1] / errs[i] ** 2 for i in range(2)]
    assert max(ratios) < 1.0  # e_{k+1} <= C e_k^2 with small C near the root


def test_newton_double_root_is_flagged():
    sys_ = fd_system(1, lambda x: x * x)
    try:
        x, report = newton(sys_, np.array([1.0]), tol=1e-14, max_iter=25)
        converged_slowly = report.iterations > 10
    except NoConvergence as exc:
        converged_slowly = True
        assert exc.best_residual < 1.0
    assert converged_slowly


def test_newton_singular_jacobian():
    sys_ = ResidualSystem(
        2, lambda x: np.array([x[0] + x[1], x[0] + x[1]]),
        jacobian=lambda x: np.ones((2, 2)),
    )
    with pytest.raises(SingularJacobian):
        newton(sys_, np.array([1.0, 2.0]))


def test_singular_jacobian_carries_best_iterate():
    sys_ = ResidualSystem(
        2, lambda x: np.array([x[0] + x[1], x[0] + x[1]]),
        jacobian=lambda x: np.ones((2, 2)),
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
    sys_ = fd_system(1, lambda x: np.arctan(5.0 * x))
    x, report = newton(sys_, np.array([2.0]), tol=1e-12)
    assert abs(x[0]) < 1e-12
    assert report.converged


def test_no_convergence_carries_best_iterate():
    sys_ = fd_system(1, lambda x: x * x + 1.0)  # no real root
    with pytest.raises(NoConvergence) as info:
        newton(sys_, np.array([2.0]), max_iter=10)
    exc = info.value
    assert exc.best_x is not None
    assert exc.report is not None
    assert exc.best_residual >= 1.0
    assert exc.iterations <= 10


def test_lm_agrees_with_newton():
    sys_ = fd_system(1, lambda x: x * x - 4.0)
    x, _ = levenberg_marquardt(sys_, np.array([3.0]), tol=1e-12)
    assert abs(x[0] - 2.0) < 1e-10


def test_lm_converges_to_nearest_root():
    sys_ = fd_system(1, lambda x: x * x - 4.0)
    x, _ = levenberg_marquardt(sys_, np.array([-3.0]), tol=1e-12)
    assert abs(x[0] + 2.0) < 1e-10


def test_lm_rank_deficient_residual():
    sys_ = fd_system(2, lambda x: np.array([x[0] - 1.0, 0.0]))
    x, report = levenberg_marquardt(sys_, np.array([5.0, 3.0]), tol=1e-10)
    assert abs(x[0] - 1.0) < 1e-10
    assert report.converged


def test_lm_merit_never_increases():
    rng = np.random.default_rng(2)

    def f(x):  # coupled nonlinear system with a known zero at (1, 1)
        return np.array(
            [10.0 * (x[1] - x[0] ** 2), 1.0 - x[0]]
        )

    sys_ = fd_system(2, f)
    x0 = rng.normal(size=2) * 2.0
    _, report = levenberg_marquardt(sys_, x0, tol=1e-10)
    merits = [0.5 * r ** 2 for r in report.residual_history]
    # the recorded history tracks accepted steps only
    assert all(b <= a + 1e-15 for a, b in zip(merits, merits[1:]))


def test_report_as_dict():
    sys_ = fd_system(1, lambda x: x - 1.0)
    _, report = newton(sys_, np.array([0.5]))
    payload = report.as_dict()
    assert payload["converged"] is True
    assert payload["iterations"] == report.iterations
    assert payload["residual_norm"] == report.residual_norm
    assert payload["method"] == "newton"


# ---------------------------------------------------------------------------
# the shared iteration loop, against frozen copies of the two loops it
# replaced (the copies call ``system.jac(x)``: the old ``f0`` argument only
# sized the finite-difference output)
# ---------------------------------------------------------------------------

def frozen_newton(system, x0, tol=1e-9, max_iter=50, max_backtrack=30):
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
        J = system.jac(x)
        try:
            dx = np.linalg.solve(J, -f)
        except np.linalg.LinAlgError:
            dx = None
        if dx is None or not np.all(np.isfinite(dx)):
            report.iterations = it
            report.residual_norm = best_norm
            raise SingularJacobian(it, best_x=best_x, report=report)
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


def _recorded(dim, fun, jacobian=None):
    """A system that logs its calls, in order.  ``log.points`` holds every
    point its residual is evaluated at, a central-difference Jacobian's
    included; ``log.calls`` holds the root-finder's own calls, ("eval", x,
    F(x)) and ("jac", x, J(x)).  Without ``jacobian`` its Jacobian is the
    central difference of the logged residual."""
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

    return ResidualSystem(dim, eval_, jacobian=jacobian_), log


def _run(solver, make_system, x0, **kw):
    system, log = make_system()
    try:
        x, report = solver(system, x0, **kw)
        outcome = ("ok", x)
    except (NoConvergence, SingularJacobian) as exc:
        x, report = None, exc.report
        fields = {k: v for k, v in vars(exc).items() if k != "report"}
        outcome = (type(exc).__name__, fields, str(exc))
    return outcome, report, log


COUNTERS = ("residual_evaluations", "jacobian_evaluations")


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
    every point it evaluates is x_0 or x_i + 2^-j dx_i, 0 <= j <=
    ``max_backtrack``, on the frozen loop's iterates x_i and Newton
    directions dx_i."""
    def iterations(log):
        # (x_i, J(x_i), the last evaluation before the Jacobian at x_i, the
        # evaluations after it)
        out, last = [], None
        for kind, x, value in log.calls:
            if kind == "jac":
                out.append((x, value, last, []))
            else:
                last = (x, value)
                if out:
                    out[-1][3].append(x)
        return out

    assert new.calls[0][0] == frozen.calls[0][0] == "eval"
    assert np.array_equal(new.calls[0][1], frozen.calls[0][1])
    new_its, frozen_its = iterations(new), iterations(frozen)
    assert len(new_its) == len(frozen_its)
    grid = 0.5 ** np.arange(max_backtrack + 1)
    for (x, J, _, points), (x_f, J_f, (last, f_f), _) in zip(new_its, frozen_its):
        # the frozen loop evaluates last the step it accepts
        assert np.array_equal(last, x_f)
        assert np.array_equal(x, x_f) and np.array_equal(J, J_f)
        if not points:  # a singular Jacobian ends the loop at x_f
            continue
        dx = np.linalg.solve(J_f, -f_f)
        for p in points:
            assert any(np.array_equal(p, x_f + alpha * dx) for alpha in grid)


def _rosenbrock():
    return _recorded(2, lambda x: np.array([10.0 * (x[1] - x[0] ** 2), 1.0 - x[0]]))


def _no_real_root():
    return _recorded(1, lambda x: x * x + 1.0)


def _singular():
    return _recorded(2, lambda x: np.array([x[0] + x[1], x[0] + x[1]]),
                     jacobian=lambda x: np.ones((2, 2)))


def _flat():
    # zero Jacobian: LM rejects every damping, Newton finds it singular
    return _recorded(2, lambda x: np.array([1.0 + x[0] ** 2, 2.0]),
                     jacobian=lambda x: np.zeros((2, 2)))


def _steep():
    return _recorded(1, lambda x: np.arctan(5.0 * x))


NEWTON_CASES = {
    "converges": (_rosenbrock, np.array([-1.2, 1.0]), {"tol": 1e-12}),
    "converges after backtracking": (_steep, np.array([2.0]), {"tol": 1e-12}),
    "stalls in backtracking": (_steep, np.array([2.0]), {"max_backtrack": 0}),
    "singular": (_singular, np.array([1.0, 2.0]), {}),
    "out of budget": (_no_real_root, np.array([2.0]), {"max_iter": 10}),
    "zero budget": (_rosenbrock, np.array([-1.2, 1.0]), {"max_iter": 0}),
    "converged at start": (_rosenbrock, np.array([1.0, 1.0]), {"max_iter": 0}),
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
                "zero budget": "NoConvergence", "converged at start": "ok"}
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
    assert report.residual_evaluations == kinds.count("eval")
    assert report.jacobian_evaluations == kinds.count("jac")
    payload = report.as_dict()
    assert {key: payload[key] for key in COUNTERS} == {
        "residual_evaluations": kinds.count("eval"),
        "jacobian_evaluations": kinds.count("jac")}


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


@pytest.mark.parametrize("seed", range(40))
def test_newton_matches_the_frozen_loop_on_random_cubics(seed):
    # at seed 15 one step's passing grid points are not an up-set (j = 3
    # passes, 4 to 6 fail, 7 on pass) and the model names j = 5: the search
    # halves from j = 1 and takes j = 3, as the frozen loop does
    fun, jacobian, x0 = _cubic(seed)
    make_system = lambda: _recorded(len(x0), fun, jacobian)
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

    return lambda: _recorded(1, fun, jacobian=lambda x: np.array([[0.1]]))


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
        system = ResidualSystem(1, fun, jacobian=lambda x: np.eye(1))
        with pytest.raises(np.linalg.LinAlgError, match="inside the residual"):
            solver(system, np.array([0.0]))


def test_linalg_error_in_the_jacobian_propagates():
    def jacobian(x):
        raise np.linalg.LinAlgError("inside the Jacobian")

    for solver in (newton, levenberg_marquardt):
        system = ResidualSystem(1, lambda x: x - 1.0, jacobian=jacobian)
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
