"""Root-finder tests: finite-difference Jacobians, Newton, Levenberg-Marquardt."""

import numpy as np
import pytest

from discvar.errors import NoConvergence, SingularJacobian
from discvar.solvers import (
    JacobianStructure,
    ResidualSystem,
    fd_jacobian,
    greedy_colouring,
    levenberg_marquardt,
    newton,
)


def test_fd_jacobian_identity():
    sys_ = ResidualSystem(3, lambda x: x.copy())
    x = np.array([0.3, -1.0, 2.0])
    assert np.max(np.abs(sys_.jac(x, sys_.eval(x)) - np.eye(3))) < 1e-7


def test_fd_jacobian_linear_map():
    rng = np.random.default_rng(0)
    A = rng.normal(size=(4, 4))
    sys_ = ResidualSystem(4, lambda x: A @ x)
    x = rng.normal(size=4)
    assert np.max(np.abs(sys_.jac(x, sys_.eval(x)) - A)) < 1e-6


def test_fd_jacobian_hand_derivative():
    f = lambda x: np.array([x[0] ** 2, x[0] * x[1]])
    x = np.array([1.0, 2.0])
    J = fd_jacobian(f, x, f(x))
    assert np.max(np.abs(J - np.array([[2.0, 0.0], [2.0, 1.0]]))) < 1e-5


def test_analytic_jacobian_matches_fd_on_random_points():
    rng = np.random.default_rng(1)

    def f(x):
        return np.array([np.sin(x[0]) + x[1] ** 2, x[0] * x[1] - 1.0])

    def jac(x):
        return np.array([[np.cos(x[0]), 2.0 * x[1]], [x[1], x[0]]])

    for _ in range(100):
        x = rng.normal(size=2)
        J_fd = fd_jacobian(f, x, f(x))
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


def _banded_with_border(x):
    """Rows 0..n-3 couple x_{i-1}, x_i, x_{i+1} and x_{n-1}; the last two
    rows are dense."""
    left = np.concatenate([[0.0], x[:-1]])
    right = np.concatenate([x[1:], [0.0]])
    band = x ** 2 * left + np.sin(x) + np.cos(x) * right + np.exp(x[-1]) * x
    border = [np.sum(x ** 3), np.sum(np.exp(0.1 * x) * np.arange(x.size))]
    return np.concatenate([band[:-2], border])


def test_coloured_fd_jacobian_equals_dense_on_banded_toy():
    n = 10
    pattern = np.zeros((n, n), dtype=bool)
    for i in range(n - 2):
        pattern[i, max(i - 1, 0) : i + 2] = True
    pattern[: n - 2, n - 1] = True
    structure = JacobianStructure(
        pattern=pattern, border_rows=np.arange(n - 2, n),
        border_cols=np.arange(n), border=lambda x: _banded_with_border(x)[-2:],
    )
    # x_{n-1} touches every band row, so it is a colour of its own and its
    # residual pair also gives its border entries
    assert [c.tolist() for c in structure.colours][-1] == [n - 1]
    assert len(structure.colours) == 4
    assert structure.border_cols.tolist() == list(range(n - 1))
    rng = np.random.default_rng(3)
    for _ in range(5):
        x = rng.normal(size=n)
        J_dense = fd_jacobian(_banded_with_border, x)
        system = ResidualSystem(n, _banded_with_border, structure=structure)
        assert np.array_equal(system.jac(x), J_dense)


def test_structure_without_border_equals_dense_on_banded_toy():
    def banded(x):
        left = np.concatenate([[0.0], x[:-1]])
        right = np.concatenate([x[1:], [0.0]])
        return x ** 2 * left + np.sin(x) + np.cos(x) * right

    n = 9
    pattern = np.zeros((n, n), dtype=bool)
    for i in range(n):
        pattern[i, max(i - 1, 0) : i + 2] = True
    structure = JacobianStructure(pattern=pattern)
    assert len(structure.colours) == 3
    assert structure.border is None and structure.border_cols.size == 0
    rng = np.random.default_rng(5)
    for _ in range(5):
        x = rng.normal(size=n)
        J = ResidualSystem(n, banded, structure=structure).jac(x)
        assert np.array_equal(J, fd_jacobian(banded, x))


def test_greedy_colouring_groups_share_no_row():
    rng = np.random.default_rng(4)
    pattern = rng.random((30, 40)) < 0.1
    colours = greedy_colouring(pattern)
    assert sorted(np.concatenate(colours).tolist()) == list(range(40))
    for cols in colours:
        assert np.max(pattern[:, cols].sum(axis=1)) <= 1


def test_newton_linear_one_step():
    sys_ = ResidualSystem(1, lambda x: x - 1.0)
    x, report = newton(sys_, np.array([0.0]))
    # the default finite-difference Jacobian limits the one-step accuracy
    assert abs(x[0] - 1.0) < 1e-9
    assert report.iterations == 1
    assert report.converged


def test_newton_square_root():
    sys_ = ResidualSystem(1, lambda x: x * x - 4.0)
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
    sys_ = ResidualSystem(1, lambda x: x * x)
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
    sys_ = ResidualSystem(1, lambda x: np.arctan(5.0 * x))
    x, report = newton(sys_, np.array([2.0]), tol=1e-12)
    assert abs(x[0]) < 1e-12
    assert report.converged


def test_no_convergence_carries_best_iterate():
    sys_ = ResidualSystem(1, lambda x: x * x + 1.0)  # no real root
    with pytest.raises(NoConvergence) as info:
        newton(sys_, np.array([2.0]), max_iter=10)
    exc = info.value
    assert exc.best_x is not None
    assert exc.report is not None
    assert exc.best_residual >= 1.0
    assert exc.iterations <= 10


def test_lm_agrees_with_newton():
    sys_ = ResidualSystem(1, lambda x: x * x - 4.0)
    x, _ = levenberg_marquardt(sys_, np.array([3.0]), tol=1e-12)
    assert abs(x[0] - 2.0) < 1e-10


def test_lm_converges_to_nearest_root():
    sys_ = ResidualSystem(1, lambda x: x * x - 4.0)
    x, _ = levenberg_marquardt(sys_, np.array([-3.0]), tol=1e-12)
    assert abs(x[0] + 2.0) < 1e-10


def test_lm_rank_deficient_residual():
    sys_ = ResidualSystem(2, lambda x: np.array([x[0] - 1.0, 0.0]))
    x, report = levenberg_marquardt(sys_, np.array([5.0, 3.0]), tol=1e-10)
    assert abs(x[0] - 1.0) < 1e-10
    assert report.converged


def test_lm_merit_never_increases():
    rng = np.random.default_rng(2)

    def f(x):  # coupled nonlinear system with a known zero at (1, 1)
        return np.array(
            [10.0 * (x[1] - x[0] ** 2), 1.0 - x[0]]
        )

    sys_ = ResidualSystem(2, f)
    x0 = rng.normal(size=2) * 2.0
    _, report = levenberg_marquardt(sys_, x0, tol=1e-10)
    merits = [0.5 * r ** 2 for r in report.residual_history]
    # the recorded history tracks accepted steps only
    assert all(b <= a + 1e-15 for a, b in zip(merits, merits[1:]))


def test_report_as_dict():
    sys_ = ResidualSystem(1, lambda x: x - 1.0)
    _, report = newton(sys_, np.array([0.5]))
    payload = report.as_dict()
    assert payload["converged"] is True
    assert payload["iterations"] == report.iterations
    assert payload["residual_norm"] == report.residual_norm
    assert payload["method"] == "newton"
