"""Retraction kernel tests: charts, trivialized tangents, duals, adjoints."""

import numpy as np
import pytest

from discvar import lie
from discvar.errors import DimensionMismatch, OutOfChart


def groups(retraction):
    return [lie.real_n(3, retraction=retraction),
            lie.so3(retraction=retraction),
            lie.se3(retraction=retraction)]


def random_algebra(rng, n, count, radius=2.0):
    v = rng.normal(size=(count, n))
    scale = rng.uniform(0.025 * radius, radius, size=(count, 1))
    return v / np.linalg.norm(v, axis=1, keepdims=True) * scale


def mat_t(a):
    return np.swapaxes(a, -1, -2)


def mv(a, x):
    return np.einsum("...ij,...j->...i", a, x)


# ---------------------------------------------------------------------------
# hat / vee
# ---------------------------------------------------------------------------

def test_hat3_antisymmetric_and_cross_product():
    rng = np.random.default_rng(0)
    w = rng.normal(size=3)
    v = rng.normal(size=3)
    W = lie.hat3(w)
    assert np.allclose(W, -W.T)
    assert np.allclose(W @ v, np.cross(w, v))
    assert np.allclose(lie.vee3(W), w)


def test_hat4_embedding_and_roundtrip():
    rng = np.random.default_rng(1)
    xi = rng.normal(size=6)
    X = lie.hat4(xi)
    assert X.shape == (4, 4)
    assert np.allclose(X[:3, :3], lie.hat3(xi[:3]))
    assert np.allclose(X[:3, 3], xi[3:])
    assert np.allclose(X[3], 0.0)
    assert np.allclose(lie.vee4(X), xi)


def test_hat_rejects_wrong_length():
    with pytest.raises(DimensionMismatch):
        lie.hat3(np.zeros(4))
    with pytest.raises(DimensionMismatch):
        lie.hat4(np.zeros(3))


# ---------------------------------------------------------------------------
# chart maps
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("retraction", [lie.CAYLEY, lie.EXPONENTIAL])
def test_tau_inverse_element(retraction):
    rng = np.random.default_rng(2)
    for g in groups(retraction):
        xi = random_algebra(rng, g.dim, 200)
        prod = g.multiply(g.tau(xi), g.tau(-xi))
        assert np.max(np.abs(prod - g.identity())) < 1e-12


@pytest.mark.parametrize("retraction", [lie.CAYLEY, lie.EXPONENTIAL])
def test_tau_roundtrip(retraction):
    rng = np.random.default_rng(3)
    for g in groups(retraction):
        xi = random_algebra(rng, g.dim, 200)
        assert np.max(np.abs(g.tau_inv(g.tau(xi)) - xi)) < 1e-10


def test_so3_exponential_is_axis_angle_rotation():
    # independent closed-form oracle for rotation about the x axis
    theta = 0.3
    g = lie.so3(retraction=lie.EXPONENTIAL)
    R = g.tau(np.array([theta, 0.0, 0.0]))
    c, s = np.cos(theta), np.sin(theta)
    oracle = np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])
    assert np.max(np.abs(R - oracle)) < 1e-10


def test_exponential_matches_scipy_expm():
    scipy = pytest.importorskip("scipy.linalg")
    rng = np.random.default_rng(4)
    g = lie.se3(retraction=lie.EXPONENTIAL)
    for _ in range(20):
        xi = rng.normal(size=6)
        assert np.max(np.abs(g.tau(xi) - scipy.expm(lie.hat4(xi)))) < 1e-12


def test_cayley_matches_exponential_to_second_order():
    rng = np.random.default_rng(5)
    for gc, ge in zip(groups(lie.CAYLEY), groups(lie.EXPONENTIAL)):
        xi = random_algebra(rng, gc.dim, 100, radius=1e-3)
        assert np.max(np.abs(gc.tau(xi) - ge.tau(xi))) < 1e-6


def test_so3_cayley_closed_form():
    # cay(w) = (I - hat(w)/2)^(-1) (I + hat(w)/2), assembled independently
    rng = np.random.default_rng(6)
    g = lie.so3(retraction=lie.CAYLEY)
    for _ in range(20):
        w = rng.normal(size=3)
        W = lie.hat3(w)
        oracle = np.linalg.solve(np.eye(3) - W / 2.0, np.eye(3) + W / 2.0)
        assert np.max(np.abs(g.tau(w) - oracle)) < 1e-13


def test_se3_cayley_is_matrix_cayley_transform():
    rng = np.random.default_rng(7)
    g = lie.se3(retraction=lie.CAYLEY)
    for _ in range(20):
        xi = rng.normal(size=6)
        X = lie.hat4(xi)
        oracle = np.linalg.solve(np.eye(4) - X / 2.0, np.eye(4) + X / 2.0)
        assert np.max(np.abs(g.tau(xi) - oracle)) < 1e-12


@pytest.mark.parametrize("retraction", [lie.CAYLEY, lie.EXPONENTIAL])
def test_chart_guard_near_half_turn(retraction):
    g = lie.so3(retraction=retraction)
    R = g.tau(np.array([np.pi - 1e-12, 0.0, 0.0])) if retraction == lie.EXPONENTIAL \
        else lie.so3(retraction=lie.EXPONENTIAL).tau(np.array([np.pi - 1e-12, 0.0, 0.0]))
    with pytest.raises(OutOfChart):
        g.tau_inv(R)


def test_se3_chart_guard():
    ge = lie.se3(retraction=lie.EXPONENTIAL)
    near_half_turn = ge.tau(np.array([np.pi - 1e-12, 0.0, 0.0, 0.3, 0.0, 0.0]))
    for retraction in (lie.CAYLEY, lie.EXPONENTIAL):
        with pytest.raises(OutOfChart):
            lie.se3(retraction=retraction).tau_inv(near_half_turn)


# ---------------------------------------------------------------------------
# group element validity
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("retraction", [lie.CAYLEY, lie.EXPONENTIAL])
def test_products_and_inverses_stay_valid(retraction):
    rng = np.random.default_rng(8)
    for g in groups(retraction):
        xi = random_algebra(rng, g.dim, 50)
        elems = g.tau(xi)
        prod = g.multiply(elems[:-1], elems[1:])
        g.check(prod, tol=1e-10)
        g.check(g.inverse(prod), tol=1e-10)


def test_se3_bottom_row_exact():
    rng = np.random.default_rng(9)
    g = lie.se3()
    elems = g.tau(random_algebra(rng, 6, 10))
    prod = g.multiply(elems[0], elems[1])
    assert np.array_equal(prod[3], np.array([0.0, 0.0, 0.0, 1.0]))


def test_check_rejects_invalid_matrix():
    g = lie.so3()
    bad = np.eye(3)
    bad = bad.copy()
    bad[0, 0] = 1.5
    with pytest.raises(DimensionMismatch):
        g.check(bad)


# ---------------------------------------------------------------------------
# trivialized tangent maps
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("retraction", [lie.CAYLEY, lie.EXPONENTIAL])
def test_dtau_and_inverse_compose_to_identity(retraction):
    rng = np.random.default_rng(10)
    for g in groups(retraction):
        xi = random_algebra(rng, g.dim, 200)
        prod = np.einsum(
            "kij,kjl->kil", g.dtau_matrix(xi), g.dtau_inv_matrix(xi)
        )
        assert np.max(np.abs(prod - np.eye(g.dim))) < 1e-10


@pytest.mark.parametrize("retraction", [lie.CAYLEY, lie.EXPONENTIAL])
def test_dtau_left_right_swap_identity(retraction):
    # dtau(xi) eta equals Ad of tau(xi) applied to dtau(-xi) eta
    rng = np.random.default_rng(11)
    for g in groups(retraction):
        xi = random_algebra(rng, g.dim, 200)
        eta = rng.normal(size=(200, g.dim))
        lhs = mv(g.dtau_matrix(xi), eta)
        rhs = mv(g.Ad_matrix(g.tau(xi)), mv(g.dtau_matrix(-xi), eta))
        assert np.max(np.abs(lhs - rhs)) < 1e-10


@pytest.mark.parametrize("retraction", [lie.CAYLEY, lie.EXPONENTIAL])
def test_dtau_inv_left_right_swap_identity(retraction):
    # dtau_inv(xi) eta equals dtau_inv(-xi) applied to Ad of tau(-xi) eta
    rng = np.random.default_rng(12)
    for g in groups(retraction):
        xi = random_algebra(rng, g.dim, 200)
        eta = rng.normal(size=(200, g.dim))
        lhs = mv(g.dtau_inv_matrix(xi), eta)
        rhs = mv(g.dtau_inv_matrix(-xi), mv(g.Ad_matrix(g.tau(-xi)), eta))
        assert np.max(np.abs(lhs - rhs)) < 1e-10


@pytest.mark.parametrize("retraction", [lie.CAYLEY, lie.EXPONENTIAL])
def test_dtau_finite_difference_consistency(retraction):
    # tau(xi + t eta) = (I + t hat(dtau(xi, eta))) tau(xi) + O(t^2);
    # Richardson slope of the defect must be >= 1.9
    rng = np.random.default_rng(13)
    for g in (lie.so3(retraction=retraction), lie.se3(retraction=retraction)):
        xi = rng.normal(size=g.dim) * 0.7
        eta = rng.normal(size=g.dim)
        hat = lie.hat3 if g.dim == 3 else lie.hat4
        ts = np.array([1e-3, 5e-4, 2.5e-4])
        defects = []
        for t in ts:
            approx = (np.eye(g.matrix_size) + t * hat(g.dtau_matrix(xi) @ eta)) @ g.tau(xi)
            defects.append(np.max(np.abs(g.tau(xi + t * eta) - approx)))
        slope = np.polyfit(np.log(ts), np.log(defects), 1)[0]
        assert slope >= 1.9


def test_se3_dcay_inv_closed_form_blocks():
    # block structure: [[I - W/2 + w w^T/4, 0], [-1/2 (I - W/2) vhat, I - W/2]]
    rng = np.random.default_rng(14)
    g = lie.se3(retraction=lie.CAYLEY)
    for _ in range(50):
        xi = rng.normal(size=6)
        w, v = xi[:3], xi[3:]
        W = lie.hat3(w)
        A = np.eye(3) - W / 2.0 + np.outer(w, w) / 4.0
        B = np.eye(3) - W / 2.0
        oracle = np.zeros((6, 6))
        oracle[:3, :3] = A
        oracle[3:, :3] = -0.5 * (B @ lie.hat3(v))
        oracle[3:, 3:] = B
        assert np.max(np.abs(g.dtau_inv_matrix(xi) - oracle)) < 1e-13


@pytest.mark.parametrize("retraction", [lie.CAYLEY, lie.EXPONENTIAL])
def test_dual_maps_satisfy_pairing(retraction):
    rng = np.random.default_rng(15)
    for g in groups(retraction):
        xi = random_algebra(rng, g.dim, 100)
        eta = rng.normal(size=(100, g.dim))
        mu = rng.normal(size=(100, g.dim))
        lhs = np.einsum("ki,ki->k", mv(mat_t(g.dtau_inv_matrix(xi)), mu), eta)
        rhs = np.einsum("ki,ki->k", mu, mv(g.dtau_inv_matrix(xi), eta))
        assert np.max(np.abs(lhs - rhs)) < 1e-12
        lhs = np.einsum("ki,ki->k", mv(mat_t(g.dtau_matrix(xi)), mu), eta)
        rhs = np.einsum("ki,ki->k", mu, mv(g.dtau_matrix(xi), eta))
        assert np.max(np.abs(lhs - rhs)) < 1e-12


# The power series the closed exp tangent maps replaced, kept verbatim (with
# the order argument fixed at its old default of 12) as their oracle.

def _bernoulli(n):
    """Bernoulli numbers B_0..B_n with the B_1 = -1/2 convention."""
    from math import comb

    b = [1.0]
    for m in range(1, n + 1):
        acc = 0.0
        for j in range(m):
            acc += comb(m + 1, j) * b[j]
        b.append(-acc / (m + 1))
    return tuple(b)


def _ad_series(ad, coeffs, min_terms, max_terms=250):
    """Sum coeffs[j] * ad^j, at least ``min_terms`` terms, then to round-off."""
    n = ad.shape[-1]
    power = np.zeros(ad.shape[:-2] + (n, n))
    power[...] = np.eye(n)
    total = coeffs[0] * power
    quiet = 0
    for j in range(1, max_terms):
        power = power @ ad
        if j < len(coeffs) and coeffs[j] != 0.0:
            total = total + coeffs[j] * power
        term = abs(coeffs[j]) * np.max(np.abs(power)) if j < len(coeffs) else 0.0
        if j >= min_terms:
            if term < 1e-17 * (1.0 + np.max(np.abs(total))):
                quiet += 1
                if quiet >= 2:
                    break
            else:
                quiet = 0
    return total


def _dexp_matrix(ad, order=12):
    m = min(max(order, 2) + 150, 169)
    coeffs = [1.0 / _factorial(j + 1) for j in range(m)]
    return _ad_series(ad, coeffs, min_terms=order, max_terms=m)


def _dexp_inv_matrix(ad, order=12):
    m = min(max(order, 2) + 150, 169)
    bern = _bernoulli(m)
    coeffs = [bern[j] / _factorial(j) for j in range(m)]
    return _ad_series(ad, coeffs, min_terms=order, max_terms=m)


def _factorial(n):
    from math import factorial

    return float(factorial(n))


def test_exp_tangent_maps_match_the_power_series():
    edge = lie._SMALL_ANGLE
    angles = [0.0, 1e-12, 1e-9, 1e-6, 1e-4, 1e-3, 1e-2, 0.1, 0.5, 1.0, 2.0, 3.0,
              np.nextafter(edge, 0.0), np.nextafter(edge, 1.0),
              edge * (1.0 - 1e-3), edge * (1.0 + 1e-3)]
    rng = np.random.default_rng(21)
    for g in (lie.so3(lie.EXPONENTIAL), lie.se3(lie.EXPONENTIAL)):
        w = rng.normal(size=(len(angles), 20, 3))
        xi = np.array(angles)[:, None, None] * w / np.linalg.norm(w, axis=-1, keepdims=True)
        if g.dim == 6:
            v = random_algebra(rng, 3, len(angles) * 20).reshape(len(angles), 20, 3)
            xi = np.concatenate([xi, v], axis=-1)
        # one batch holds every angle, so both sides of the threshold at once
        D = g.dtau_matrix(xi.reshape(-1, g.dim)).reshape(xi.shape + (g.dim,))
        Dinv = g.dtau_inv_matrix(xi.reshape(-1, g.dim)).reshape(D.shape)
        for i, angle in enumerate(angles):
            ad = g.ad_matrix(xi[i])
            worst = max(np.max(np.abs(D[i] - _dexp_matrix(ad))),
                        np.max(np.abs(Dinv[i] - _dexp_inv_matrix(ad))))
            assert worst <= 1e-14, (g.name, angle, worst)


def test_se3_exp_and_log_keep_digits_at_small_angles():
    scipy = pytest.importorskip("scipy.linalg")
    rng = np.random.default_rng(22)
    g = lie.se3(retraction=lie.EXPONENTIAL)
    for angle in (1e-8, 1e-6, 1e-3, 0.1):
        for _ in range(10):
            w, v = rng.normal(size=3), rng.normal(size=3)
            xi = np.concatenate([angle * w / np.linalg.norm(w), v])
            assert np.max(np.abs(g.tau(xi) - scipy.expm(lie.hat4(xi)))) < 1e-14
            assert np.max(np.abs(g.tau_inv(g.tau(xi)) - xi)) < 1e-14


def test_dtau_at_zero_is_identity():
    for retraction in (lie.CAYLEY, lie.EXPONENTIAL):
        for g in groups(retraction):
            zero = np.zeros(g.dim)
            eta = np.arange(1.0, g.dim + 1.0)
            assert np.allclose(g.dtau_matrix(zero) @ eta, eta)
            assert np.allclose(g.dtau_inv_matrix(zero) @ eta, eta)
            assert np.allclose(g.dtau_inv_matrix(zero).T @ eta, eta)


@pytest.mark.parametrize("retraction", [lie.CAYLEY, lie.EXPONENTIAL])
def test_dtau_inv_deriv_matches_central_difference(retraction):
    edge = lie._SMALL_ANGLE
    angles = np.array([0.0, 1e-9, 1e-4, 0.1, edge * (1.0 - 1e-3), edge,
                       edge * (1.0 + 1e-3), 1.0, 2.0, 3.0])
    rng = np.random.default_rng(23)
    step = 1e-6
    for g in groups(retraction):
        # one batch holds every angle, so both sides of the threshold at once
        xi = rng.normal(size=(len(angles), g.dim))
        xi[:, :3] *= angles[:, None] / np.linalg.norm(xi[:, :3], axis=1, keepdims=True)
        fd = np.stack([(g.dtau_inv_matrix(xi + step * e) - g.dtau_inv_matrix(xi - step * e))
                       / (2.0 * step) for e in np.eye(g.dim)], axis=-1)
        T = g.dtau_inv_deriv(xi)
        assert T.shape == (len(angles),) + (g.dim,) * 3
        assert np.max(np.abs(T - fd)) < 1e-8, (g.name, np.max(np.abs(T - fd)))


# ---------------------------------------------------------------------------
# adjoints
# ---------------------------------------------------------------------------

def test_adjoint_of_product_is_product_of_adjoints():
    rng = np.random.default_rng(16)
    for g in (lie.so3(), lie.se3()):
        a = g.tau(rng.normal(size=g.dim))
        b = g.tau(rng.normal(size=g.dim))
        lhs = g.Ad_matrix(g.multiply(a, b))
        rhs = g.Ad_matrix(a) @ g.Ad_matrix(b)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_co_adjoint_pairing():
    rng = np.random.default_rng(17)
    for g in (lie.so3(), lie.se3()):
        elem = g.tau(rng.normal(size=g.dim))
        mu = rng.normal(size=g.dim)
        eta = rng.normal(size=g.dim)
        lhs = g.coAd(elem, mu) @ eta
        rhs = mu @ (g.Ad_matrix(elem) @ eta)
        assert abs(lhs - rhs) < 1e-12


def test_ad_matrix_is_bracket():
    rng = np.random.default_rng(18)
    g = lie.se3()
    x = rng.normal(size=6)
    y = rng.normal(size=6)
    bracket = lie.hat4(x) @ lie.hat4(y) - lie.hat4(y) @ lie.hat4(x)
    assert np.max(np.abs(g.ad_matrix(x) @ y - lie.vee4(bracket))) < 1e-12


def test_abelian_group_is_trivial():
    g = lie.real_n(4)
    rng = np.random.default_rng(19)
    x = rng.normal(size=4)
    eta = rng.normal(size=4)
    assert np.allclose(g.tau(x), x)
    assert np.allclose(g.tau_inv(x), x)
    assert np.allclose(g.multiply(x, eta), x + eta)
    assert np.allclose(g.inverse(x), -x)
    assert np.allclose(g.dtau_matrix(x) @ eta, eta)
    assert np.allclose(g.Ad_matrix(x) @ eta, eta)
