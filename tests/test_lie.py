"""Retraction kernel tests: charts, trivialized tangents, duals, adjoints."""

from math import factorial

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


def hat4(xi):
    """4x4 se(3) matrix of xi = (omega, v): the oracle embedding of se(3)."""
    xi = np.asarray(xi, dtype=float)
    if xi.shape[-1] != 6:
        raise DimensionMismatch("expected vectors of length 6")
    out = np.zeros(xi.shape[:-1] + (4, 4))
    out[..., :3, :3] = lie.hat3(xi[..., :3])
    out[..., :3, 3] = xi[..., 3:]
    return out


def vee4(X):
    X = np.asarray(X, dtype=float)
    return np.concatenate([lie.vee3(X[..., :3, :3]), X[..., :3, 3]], axis=-1)


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


def _hat3_by_slices(w):
    # the zeros-and-slices construction hat3 used before it became one
    # product with a constant tensor, kept verbatim as its oracle
    w = np.asarray(w, dtype=float)
    out = np.zeros(w.shape[:-1] + (3, 3))
    out[..., 0, 1] = -w[..., 2]
    out[..., 0, 2] = w[..., 1]
    out[..., 1, 0] = w[..., 2]
    out[..., 1, 2] = -w[..., 0]
    out[..., 2, 0] = -w[..., 1]
    out[..., 2, 1] = w[..., 0]
    return out


@pytest.mark.parametrize("batch", [(), (1,), (32,), (1024,), (4, 8)])
def test_hat3_equals_the_slice_construction(batch):
    rng = np.random.default_rng(2)
    # magnitudes from 1e-300 to 1e300: each entry is one coordinate, exactly
    w = rng.normal(size=batch + (3,)) * 10.0 ** rng.integers(-300, 300, size=batch + (3,))
    W = lie.hat3(w)
    assert W.shape == batch + (3, 3)
    assert np.array_equal(W, _hat3_by_slices(w))


def test_hat4_embedding_and_roundtrip():
    rng = np.random.default_rng(1)
    xi = rng.normal(size=6)
    X = hat4(xi)
    assert X.shape == (4, 4)
    assert np.allclose(X[:3, :3], lie.hat3(xi[:3]))
    assert np.allclose(X[:3, 3], xi[3:])
    assert np.allclose(X[3], 0.0)
    assert np.allclose(vee4(X), xi)


def test_hat_rejects_wrong_length():
    with pytest.raises(DimensionMismatch):
        lie.hat3(np.zeros(4))
    with pytest.raises(DimensionMismatch):
        hat4(np.zeros(3))


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


@pytest.mark.parametrize("shape", [(), (8,), (4, 5)], ids=["single", "batch", "grid"])
def test_cayley_inverse_roundtrips_batches(shape):
    # the closed form 2 vee(R - R^T) / (1 + tr R) inverts cay to rounding
    rng = np.random.default_rng(31)
    for g in (lie.so3(retraction=lie.CAYLEY), lie.se3(retraction=lie.CAYLEY)):
        count = int(np.prod(shape))
        xi = random_algebra(rng, g.dim, count).reshape(shape + (g.dim,))
        G = g.tau(xi)
        back = g.tau_inv(G)
        assert back.shape == xi.shape
        assert np.max(np.abs(back - xi)) < 1e-14
        assert np.max(np.abs(g.tau(back) - G)) < 1e-14


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
        assert np.max(np.abs(g.tau(xi) - scipy.expm(hat4(xi)))) < 1e-12


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
        X = hat4(xi)
        oracle = np.linalg.solve(np.eye(4) - X / 2.0, np.eye(4) + X / 2.0)
        assert np.max(np.abs(g.tau(xi) - oracle)) < 1e-12


@pytest.mark.parametrize("retraction", [lie.CAYLEY, lie.EXPONENTIAL])
def test_chart_guard_near_half_turn(retraction):
    g = lie.so3(retraction=retraction)
    R = g.tau(np.array([np.pi - 1e-12, 0.0, 0.0])) if retraction == lie.EXPONENTIAL \
        else lie.so3(retraction=lie.EXPONENTIAL).tau(np.array([np.pi - 1e-12, 0.0, 0.0]))
    with pytest.raises(OutOfChart):
        g.tau_inv(R)


def test_cayley_chart_check_reads_the_trace():
    # the Cayley chart check compares tr R with a bound instead of taking the
    # rotation angle: it still raises on exactly the rotations whose angle
    # arccos((tr R - 1) / 2) is beyond pi - _CHART_ANGLE_TOL.  Angles from
    # pi - 1e-6 up to pi about eleven axes give traces on both sides of the
    # bound, the bound itself and the float just above it among them
    g = lie.so3(retraction=lie.CAYLEY)
    rng = np.random.default_rng(32)
    axes = rng.normal(size=(8, 3))
    axes = np.vstack([np.eye(3), axes / np.linalg.norm(axes, axis=1, keepdims=True)])
    offsets = np.concatenate([[0.0], np.geomspace(1e-10, 1e-6, 81)])
    R = lie.so3(retraction=lie.EXPONENTIAL).tau(
        (np.pi - offsets)[:, None, None] * axes[None, :, :]).reshape(-1, 3, 3)
    tr = np.trace(R, axis1=-2, axis2=-1)
    limit = np.pi - lie._CHART_ANGLE_TOL
    beyond = np.arccos(np.clip((tr - 1.0) / 2.0, -1.0, 1.0)) > limit
    bound, above = lie._CHART_TRACE, np.nextafter(lie._CHART_TRACE, 0.0)
    assert np.arccos((bound - 1.0) / 2.0) > limit >= np.arccos((above - 1.0) / 2.0)
    assert np.any(tr == bound) and np.any(tr == above)
    assert beyond.any() and not beyond.all()
    for rotation, out in zip(R, beyond):
        if out:
            with pytest.raises(OutOfChart):
                g.tau_inv(rotation)
        else:
            assert np.all(np.isfinite(g.tau_inv(rotation)))
    # a batch is out of the chart when one of its rotations is
    with pytest.raises(OutOfChart):
        g.tau_inv(R)
    assert np.all(np.isfinite(g.tau_inv(R[~beyond])))


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
        hat = lie.hat3 if g.dim == 3 else hat4
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
            assert np.max(np.abs(g.tau(xi) - scipy.expm(hat4(xi)))) < 1e-14
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
        # the derivative index first: T[..., l, i, j] = d D_ij / d xi_l
        fd = np.stack([(g.dtau_inv_matrix(xi + step * e) - g.dtau_inv_matrix(xi - step * e))
                       / (2.0 * step) for e in np.eye(g.dim)], axis=-3)
        _, T = g.dtau_inv_deriv(xi)
        assert T.shape == (len(angles),) + (g.dim,) * 3
        assert np.max(np.abs(T - fd)) < 1e-8, (g.name, np.max(np.abs(T - fd)))


def _angle_batch(rng, g, angles):
    xi = rng.normal(size=(len(angles), g.dim))
    xi[:, :3] *= angles[:, None] / np.linalg.norm(xi[:, :3], axis=1, keepdims=True)
    return xi


_CURVED = [lie.so3(lie.CAYLEY), lie.se3(lie.CAYLEY),
           lie.so3(lie.EXPONENTIAL), lie.se3(lie.EXPONENTIAL)]


@pytest.mark.parametrize("g", [lie.real_n(4)] + _CURVED,
                         ids=lambda g: f"{g.name}-{g.retraction}")
def test_dtau_inv_deriv_hands_back_dtau_inv_bitwise(g):
    # the step start and the residual take D from the one dtau_inv_deriv
    # call, so it must be the very matrix dtau_inv_matrix forms
    rng = np.random.default_rng(26)
    for shape in ((), (1,), (32,), (1024,)):
        # angles on both sides of _SMALL_ANGLE and _SERIES_ANGLE
        size = int(np.prod(shape))
        xi = _angle_batch(rng, g, rng.uniform(0.0, 3.0, size=size)).reshape(shape + (g.dim,))
        D, T = g.dtau_inv_deriv(xi)
        assert D.shape == shape + (g.dim,) * 2 and T.shape == shape + (g.dim,) * 3
        assert np.array_equal(D, g.dtau_inv_matrix(xi))


@pytest.mark.parametrize("batch", [1, 8])
@pytest.mark.parametrize("g", _CURVED, ids=lambda g: f"{g.name}-{g.retraction}")
def test_dtau_inv_at_minus_xi_follows_from_xi(g, batch):
    # dtau_inv(-z) = D Ad(tau(z)), D = dtau_inv(z), and A = Ad(tau(z)) moves
    # along e_l by ad(dtau(z) e_l) A, so the derivative of dtau_inv(-z) along
    # e_l is -(T_l + D ad(dtau(z) e_l)) A, T_l that of D at z
    xi = _angle_batch(np.random.default_rng(27), g, np.linspace(0.0, 2.5, batch + 1)[1:])
    D, T = g.dtau_inv_deriv(xi)
    A = g.Ad_matrix(g.tau(xi))
    ad = g.ad_matrix(mat_t(g.dtau_matrix(xi)))
    Dm, Tm = g.dtau_inv_deriv(-xi)
    assert np.max(np.abs(D @ A - Dm)) <= 1e-13 * np.max(np.abs(Dm))
    from_z = -(T + D[:, None] @ ad) @ A[:, None]
    assert np.max(np.abs(from_z - Tm)) <= 1e-13 * np.max(np.abs(Tm))


@pytest.mark.parametrize("g", [lie.real_n(4)] + _CURVED,
                         ids=lambda g: f"{g.name}-{g.retraction}")
def test_dtau_inv_deriv_along_is_the_derivative_contracted_with_mu(g):
    # K[..., i, l] = d (D^T mu)_i / d xi_l is mu_j T[..., l, j, i], T from
    # dtau_inv_deriv, to 1e-14 of each point's largest entry: rotation
    # angles below _SMALL_ANGLE, between it and _SERIES_ANGLE and above, on
    # a single point, a stack and a grid; exact zeros on R^n
    small, series = lie._SMALL_ANGLE, lie._SERIES_ANGLE
    angles = np.array([0.0, 1e-9, 1e-4, 0.3, small * (1.0 - 1e-3), small,
                       small * (1.0 + 1e-3), 1.2, series * (1.0 - 1e-3), series,
                       series * (1.0 + 1e-3), 2.9])
    rng = np.random.default_rng(29)
    xi = _angle_batch(rng, g, angles)
    mu = rng.normal(size=xi.shape) * 10.0 ** rng.uniform(-2.0, 2.0, size=(len(xi), 1))
    expected = np.einsum("...j,...lji->...il", mu, g.dtau_inv_deriv(xi)[1])
    cases = [(xi, mu, expected), (xi.reshape(3, 4, g.dim), mu.reshape(3, 4, g.dim),
                                   expected.reshape(3, 4, g.dim, g.dim))]
    cases += [(xi[i], mu[i], expected[i]) for i in range(len(xi))]
    for x, m, K_ref in cases:
        K = g.dtau_inv_deriv_along(x, m)
        assert K.shape == x.shape + (g.dim,)
        if g.name == "Rn":
            assert not K.any() and not K_ref.any()
            continue
        scale = np.max(np.abs(K_ref), axis=(-2, -1), keepdims=True)
        assert np.all(np.abs(K - K_ref) <= 1e-14 * scale), np.max(np.abs(K - K_ref) / scale)


# ---------------------------------------------------------------------------
# frozen oracles: the exp coefficients and the second derivative of dtau^-1
# as they stood before the contraction, a Horner loop and a np.where per
# coefficient, and the full 4-index tensor
# ---------------------------------------------------------------------------

_OLD_B = tuple((-1) ** n / factorial(2 * n + 2) for n in range(8))
_OLD_C = tuple((-1) ** n / factorial(2 * n + 3) for n in range(8))
_OLD_K = (1/12, 1/720, 1/30240, 1/1209600, 1/47900160, 691/1307674368000,
          1/74724249600, 3617/10670622842880000)
_OLD_DB, _OLD_DC = ([2 * n * f[n] for n in range(1, 8)] for f in (_OLD_B, _OLD_C))
_OLD_K_MORE = _OLD_K + tuple(p / (q * factorial(2 * n + 2)) for n, (p, q) in enumerate((
    (43867, 798), (174611, 330), (854513, 138), (236364091, 2730), (8553103, 6),
    (23749461029, 870), (8615841276005, 14322), (7709321041217, 510),
    (2577687858367, 6), (26315271553053477373, 1919190), (2929993913841559, 6),
    (261082718496449122051, 13530), (1520097643918070802691, 1806),
    (27833269579301024235023, 690), (596451111593912163277961, 282)), start=8))
_OLD_DK = [2 * n * f for n, f in enumerate(_OLD_K_MORE[:21])][1:]
_OLD_DDK = [4 * n * (n - 1) * f for n, f in enumerate(_OLD_K_MORE[:22])][2:]
_OLD_DDDK = [8 * n * (n - 1) * (n - 2) * f for n, f in enumerate(_OLD_K_MORE)][3:]


def _old_taylor(th2, coeffs):
    out = coeffs[-1]
    for c in coeffs[-2::-1]:
        out = out * th2 + c
    return out


def _old_coeffs(th2):
    """(b, c, b'/th, c'/th) and (k, k'/th, (k'/th)'/th, ((k'/th)'/th)'/th)
    at th^2 = th2, as the kernels formed them."""
    small = th2 < lie._SMALL_ANGLE**2
    series = th2 < lie._SERIES_ANGLE**2
    th = np.sqrt(np.where(small, 1.0, th2))
    b = 0.5 * np.sinc(np.sqrt(th2) / (2.0 * np.pi)) ** 2
    c = np.where(small, _old_taylor(th2, _OLD_C), (th - np.sin(th)) / th**3)
    db = np.where(small, _old_taylor(th2, _OLD_DB), (np.sin(th) / th - 2.0 * b) / th**2)
    dc = np.where(small, _old_taylor(th2, _OLD_DC), (b - 3.0 * c) / th**2)
    x = 0.5 * th
    k = np.where(small, _old_taylor(th2, _OLD_K), (1.0 - x * np.cos(x) / np.sin(x)) / th**2)
    dk = np.where(series, _old_taylor(th2, _OLD_DK),
                  (0.25 / np.sin(0.5 * th) ** 2 - 1.0 / th**2 - k) / th**2)
    half = 0.5 * th
    ddk = np.where(series, _old_taylor(th2, _OLD_DDK),
                   (2.0 / th**4 - np.cos(half) / (4.0 * th * np.sin(half) ** 3)
                    - 3.0 * dk) / th**2)
    sn, cs = np.sin(0.5 * th), np.cos(0.5 * th)
    dq = (-8.0 / th**6 + cs / (4.0 * th**3 * sn**3)
          + (1.0 / sn**2 + 3.0 * cs**2 / sn**4) / (8.0 * th**2))
    dddk = np.where(series, _old_taylor(th2, _OLD_DDDK), (dq - 5.0 * ddk) / th**2)
    return (b, c, db, dc), (k, dk, ddk, dddk)


_E = lie.hat3(np.eye(3))
_EL, _EM = _E[:, None], _E[None, :]
_DELTA = np.eye(3)[:, :, None, None]
_OUTER2 = 0.25 * (np.einsum("li,mj->lmij", np.eye(3), np.eye(3))
                  + np.einsum("mi,lj->lmij", np.eye(3), np.eye(3)))


def _sym(X):
    return X + mat_t(X)


def _se3_blocks(upper, lower):
    out = np.zeros(lower.shape[:-2] + (6, 6))
    out[..., :3, :3] = out[..., 3:, 3:] = upper
    out[..., 3:, :3] = lower
    return out


def _old_dtau_inv_deriv2(g, xi):
    """T[..., l, m, i, j] = d^2 dtau_inv_matrix(xi)[..., i, j] / d xi_l d xi_m."""
    xi = np.asarray(xi, dtype=float)
    if g.retraction == lie.CAYLEY:
        if g.name == "SO3":
            return np.broadcast_to(_OUTER2, xi.shape[:-1] + _OUTER2.shape)
        # the lower block -A V / 2 moves by E_l E_m / 4 along (w_l, v_m) and (v_m, w_l)
        T = np.zeros(xi.shape[:-1] + (6, 6, 6, 6))
        T[..., :3, :3, :3, :3] = _OUTER2
        T[..., :3, 3:, 3:, :3] = 0.25 * (_EL @ _EM)
        T[..., 3:, :3, 3:, :3] = 0.25 * (_EM @ _EL)
        return T
    w = xi[..., :3]
    _, (k, dk, ddk, dddk) = _old_coeffs(np.sum(w * w, axis=-1))
    k, dk, ddk, dddk = (c[..., None, None, None, None] for c in (k, dk, ddk, dddk))
    W = lie.hat3(w)[..., None, None, :, :]
    W2 = W @ W
    wl, wm = w[..., :, None, None, None], w[..., None, :, None, None]
    ElW, EmW = _sym(_EL @ W), _sym(_EM @ W)
    F2 = (k * _sym(_EL @ _EM) + dk * (wm * ElW + wl * EmW + _DELTA * W2)
          + ddk * wl * wm * W2)
    if g.name == "SO3":
        return F2
    v = xi[..., 3:]
    V = lie.hat3(v)[..., None, None, :, :]
    s = np.sum(w * v, axis=-1)[..., None, None, None, None]
    vl, vm = v[..., :, None, None, None], v[..., None, :, None, None]
    N2 = (dk * (wm * _sym(_EL @ V) + wl * _sym(_EM @ V) + vl * EmW + vm * ElW
                + s * _sym(_EL @ _EM))
          + (ddk * wl * wm + dk * _DELTA) * _sym(W @ V)
          + (ddk * (vm * wl + wm * vl + s * _DELTA) + dddk * s * wl * wm) * W2
          + ddk * s * (wl * EmW + wm * ElW))
    out = np.zeros(xi.shape[:-1] + (6, 6, 6, 6))
    out[..., :3, :3, :, :] = _se3_blocks(F2, N2)
    out[..., :3, 3:, 3:, :3] = F2
    out[..., 3:, :3, 3:, :3] = F2
    return out


# angles below _SMALL_ANGLE, at and between the thresholds and above
_EDGE_ANGLES = np.array([0.0, 1e-9, 1e-4, 0.1, 0.3, lie._SMALL_ANGLE * (1.0 - 1e-3),
                         lie._SMALL_ANGLE, lie._SMALL_ANGLE * (1.0 + 1e-3), 1.0, 1.2,
                         lie._SERIES_ANGLE * (1.0 - 1e-3), lie._SERIES_ANGLE,
                         lie._SERIES_ANGLE * (1.0 + 1e-3), 2.9])


def _covectors(rng, xi):
    scale = 10.0 ** rng.uniform(-2.0, 2.0, size=xi.shape[:-1] + (1,))
    return rng.normal(size=xi.shape) * scale, rng.normal(size=xi.shape)


@pytest.mark.parametrize("g", _CURVED, ids=lambda g: f"{g.name}-{g.retraction}")
def test_dtau_inv_deriv2_along_matches_central_difference(g):
    edge = lie._SMALL_ANGLE
    angles = np.array([0.0, 1e-9, 1e-4, 0.1, edge * (1.0 - 1e-3), edge,
                       edge * (1.0 + 1e-3), 1.0, 2.0])
    rng = np.random.default_rng(24)
    xi = _angle_batch(rng, g, angles)
    p, e = rng.normal(size=xi.shape), rng.normal(size=xi.shape)
    step = 1e-6

    def gradient(x):
        # d (p^T D e) / d xi_m = p^T T_m e, T from dtau_inv_deriv
        return np.einsum("...i,...mij,...j->...m", p, g.dtau_inv_deriv(x)[1], e)

    fd = np.stack([(gradient(xi + step * u) - gradient(xi - step * u)) / (2.0 * step)
                   for u in np.eye(g.dim)], axis=-2)
    H = g.dtau_inv_deriv2_along(xi, p, e)
    assert H.shape == (len(angles),) + (g.dim,) * 2
    assert np.max(np.abs(H - fd)) < 1e-8, np.max(np.abs(H - fd))
    assert np.max(np.abs(H - mat_t(H))) <= 1e-15


@pytest.mark.parametrize("g", _CURVED, ids=lambda g: f"{g.name}-{g.retraction}")
def test_dtau_inv_deriv2_along_is_the_second_derivative_contracted(g):
    # p^T (d^2 D) e from the frozen 4-index tensor, to 1e-14 of each point's
    # largest entry, on a stack, a grid and single points
    rng = np.random.default_rng(30)
    xi = _angle_batch(rng, g, _EDGE_ANGLES)
    p, e = _covectors(rng, xi)
    expected = np.einsum("...lmij,...i,...j->...lm", _old_dtau_inv_deriv2(g, xi), p, e)
    cases = [(xi, p, e, expected),
             (xi.reshape(2, 7, g.dim), p.reshape(2, 7, g.dim), e.reshape(2, 7, g.dim),
              expected.reshape(2, 7, g.dim, g.dim))]
    cases += [(xi[i], p[i], e[i], expected[i]) for i in range(len(xi))]
    for x, a, b, H_ref in cases:
        H = g.dtau_inv_deriv2_along(x, a, b)
        assert H.shape == x.shape + (g.dim,)
        scale = np.max(np.abs(H_ref), axis=(-2, -1), keepdims=True)
        assert np.all(np.abs(H - H_ref) <= 1e-14 * scale), np.max(np.abs(H - H_ref) / scale)


@pytest.mark.parametrize("g", _CURVED, ids=lambda g: f"{g.name}-{g.retraction}")
def test_dtau_inv_deriv2_along_batches_equal_single_points(g):
    rng = np.random.default_rng(25)
    for size in (1, 32, 1024):
        # angles on both sides of the small-angle threshold
        xi = _angle_batch(rng, g, rng.uniform(0.0, 2.0 * lie._SMALL_ANGLE, size=size))
        p, e = _covectors(rng, xi)
        batch = g.dtau_inv_deriv2_along(xi, p, e)
        single = np.stack([g.dtau_inv_deriv2_along(x, a, b)
                           for x, a, b in zip(xi[:32], p[:32], e[:32])])
        assert batch.shape == (size,) + (g.dim,) * 2
        # equal up to the rounding of batched and single matrix products
        assert np.max(np.abs(batch[:32] - single)) <= 1e-13 * np.max(np.abs(single))


def test_dtau_inv_deriv2_along_broadcasts_the_covectors():
    rng = np.random.default_rng(32)
    for g in _CURVED:
        xi = _angle_batch(rng, g, np.linspace(0.1, 2.5, 6))
        p, e = _covectors(rng, xi[:1])
        H = g.dtau_inv_deriv2_along(xi, p[0], e)
        assert H.shape == (6, g.dim, g.dim)
        assert np.array_equal(H, g.dtau_inv_deriv2_along(xi, np.repeat(p, 6, axis=0),
                                                         np.repeat(e, 6, axis=0)))


def _angles_across_the_thresholds():
    small, series = lie._SMALL_ANGLE, lie._SERIES_ANGLE
    return np.concatenate([np.linspace(0.0, 3.0, 301), _EDGE_ANGLES, [
        1e-12, 1e-6, np.nextafter(small, 0.0), np.nextafter(small, 1.0),
        np.nextafter(series, 0.0), np.nextafter(series, 3.0)]])


def test_exp_coefficients_match_the_frozen_forms():
    # every coefficient within 1e-14 of its frozen Horner / np.where form,
    # relative, on both sides of _SMALL_ANGLE and _SERIES_ANGLE
    th2 = _angles_across_the_thresholds() ** 2
    old_dexp, old_dexp_inv = _old_coeffs(th2)
    for new, old in ((lie._dexp_coeffs(th2, 4), old_dexp),
                     (lie._dexp_inv_coeffs(th2, 4), old_dexp_inv)):
        for i, (a, b) in enumerate(zip(new, old)):
            assert np.all(np.abs(a - b) <= 1e-14 * np.abs(b)), (i, np.max(np.abs(a / b - 1.0)))


def test_exp_coefficients_of_an_element_do_not_depend_on_its_batch():
    # a single element's coefficients are its row of any batch, bitwise: the
    # window starts evaluate one velocity, the general windows many, and
    # they must agree to the bit
    rng = np.random.default_rng(33)
    angles = _angles_across_the_thresholds()
    for size in (1, 2, 7, 32, 255, 1024):
        th2 = rng.choice(angles, size=size) ** 2
        for coeffs in (lie._dexp_coeffs, lie._dexp_inv_coeffs):
            for count in ((2, 4) if coeffs is lie._dexp_coeffs else (1, 2, 3, 4)):
                batch = coeffs(th2, count)
                grid = coeffs(th2.reshape(size, 1), count)
                for i in range(min(size, 40)):
                    single = coeffs(th2[i], count)
                    assert all(np.ndim(c) == 0 for c in single)
                    for c, b, r in zip(single, batch, grid):
                        assert c.tobytes() == b[i].tobytes() == r[i, 0].tobytes()
                # k, and b and c, are the same bits whatever the count
                assert batch[0].tobytes() == coeffs(th2, 4)[0].tobytes()


def _k_series_derivatives(count=48):
    """f(th2, order) = 2^order d^order k / d(th^2)^order for k = (1 - (th/2)
    cot(th/2)) / th^2, from its Taylor series K_n = |B_{2n+2}| / (2n+2)! with
    exact Bernoulli numbers.  Every term is positive, so the float sum keeps
    its digits; at th <= 3 the 48 terms leave a tail below 1e-28 of it."""
    from fractions import Fraction
    from math import comb, factorial, perm

    bernoulli = [Fraction(1)]
    for m in range(1, 2 * count + 2):
        bernoulli.append(-sum(comb(m + 1, j) * bernoulli[j] for j in range(m)) / (m + 1))
    coeffs = [abs(bernoulli[2 * n + 2]) / factorial(2 * n + 2) for n in range(count)]

    def derivative(th2, order):
        x = Fraction(float(th2))
        return float(sum(2**order * perm(n, order) * coeffs[n] * x ** (n - order)
                         for n in range(order, count)))

    return derivative


def test_dexp_inv_k_derivatives_keep_their_digits_above_the_small_angle():
    # (k'/th)'/th and ((k'/th)'/th)'/th, which the SE(3) exp derivatives of
    # dexp^-1 use: their closed forms kept only 10 and 8 digits just above
    # _SMALL_ANGLE.  th^2 in [0.25, 0.5] first, then on to th = 3, past the
    # end of their series band
    angles = np.concatenate([np.sqrt(np.linspace(0.25, 0.5, 26)),
                             np.linspace(0.75, 3.0, 19), [2.0 - 1e-9, 2.0]])
    series = _k_series_derivatives()
    for th in angles:
        _, _, ddk, dddk = lie._dexp_inv_coeffs(th * th, 4)
        for order, value in ((2, ddk), (3, dddk)):
            exact = series(th * th, order)
            assert abs(value - exact) <= 1e-12 * exact, (th, order, value / exact - 1.0)


def test_dexp_inv_dk_keeps_its_digits():
    # k'/th, which every exp dtau_inv_deriv and the SE(3) exp dtau_inv_matrix
    # use: its closed form kept only about 12 digits just above _SMALL_ANGLE
    # (8.8e-13 relative at th = 0.5).  From 0 to 3, across both thresholds
    edge, series_edge = lie._SMALL_ANGLE, lie._SERIES_ANGLE
    angles = np.concatenate([np.linspace(0.0, 3.0, 121), [
        1e-9, np.nextafter(edge, 0.0), edge, np.nextafter(series_edge, 0.0), series_edge,
        np.nextafter(series_edge, 3.0)]])
    series = _k_series_derivatives()
    for th in angles:
        dk = lie._dexp_inv_coeffs(th * th, 2)[1]
        exact = series(th * th, 1)
        assert abs(dk - exact) <= 1e-13 * exact, (th, dk / exact - 1.0)


def test_dtau_inv_deriv2_along_vanishes_on_the_abelian_group():
    g = lie.real_n(4)
    H = g.dtau_inv_deriv2_along(np.ones((5, 4)), np.ones((5, 4)), np.ones((5, 4)))
    assert np.array_equal(H, np.zeros((5, 4, 4)))


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
    bracket = hat4(x) @ hat4(y) - hat4(y) @ hat4(x)
    assert np.max(np.abs(g.ad_matrix(x) @ y - vee4(bracket))) < 1e-12


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


# vee3 and the chart inverses as np.stack and np.any formed them, kept as
# the oracle of their one-take and ndarray-test forms
def _stacked_vee3(W):
    W = np.asarray(W, dtype=float)
    return np.stack([W[..., 2, 1], W[..., 0, 2], W[..., 1, 0]], axis=-1)


def _stacked_so3_cay_inv(R):
    tr = np.trace(R, axis1=-2, axis2=-1)
    if np.any(tr <= lie._CHART_TRACE):
        raise OutOfChart("cay")
    return (2.0 / (1.0 + tr))[..., None] * _stacked_vee3(R - mat_t(R))


def _stacked_so3_log(R):
    th = lie._so3_angle(R)
    if np.any(th > np.pi - lie._CHART_ANGLE_TOL):
        raise OutOfChart("exp")
    small = th < 1e-8
    th_safe = np.where(small, 1.0, th)
    f = np.where(small, 0.5 + th**2 / 12.0, th_safe / (2.0 * np.sin(th_safe)))
    return f[..., None] * _stacked_vee3(R - mat_t(R))


def _stacked_se3_cay_inv(g):
    w = _stacked_so3_cay_inv(g[..., :3, :3])
    t = g[..., :3, 3]
    return np.concatenate([w, t - 0.5 * lie.mv(lie.hat3(w), t)], axis=-1)


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _signed_zero_batches(rng):
    """Random 3x3 batches and single matrices, with entries of +0.0 and -0.0."""
    out = []
    for shape in [(), (1,), (7,), (64,)]:
        W = rng.normal(size=shape + (3, 3))
        zeros = rng.random(size=W.shape) < 0.3
        W[zeros] = np.where(rng.random(size=W.shape) < 0.5, 0.0, -0.0)[zeros]
        out.append(W)
    return out


def test_vee3_is_the_stacked_form_bitwise():
    rng = np.random.default_rng(41)
    for W in _signed_zero_batches(rng):
        assert _same_bits(lie.vee3(W), _stacked_vee3(W))
        # a strided view reads the same entries
        assert _same_bits(lie.vee3(mat_t(W)), _stacked_vee3(mat_t(W)))
    W = np.zeros((3, 3))
    W[2, 1], W[0, 2], W[1, 0] = -0.0, 0.0, -0.0
    assert _same_bits(lie.vee3(W), np.array([-0.0, 0.0, -0.0]))


def _rotations(rng):
    """Rotation batches and single rotations: random ones, the identity and
    half-angle turns about the axes, whose exact zeros are signed."""
    so3 = lie.so3(lie.EXPONENTIAL)
    out = [so3.tau(random_algebra(rng, 3, count, radius=3.0)) for count in (1, 9, 64)]
    out.append(so3.tau(random_algebra(rng, 3, 1, radius=3.0)[0]))
    out.append(np.eye(3))
    for axis in range(3):
        w = np.zeros(3)
        w[axis] = 1.3
        R = so3.tau(w)
        R[R == 0.0] = -0.0
        out += [R, np.stack([R, np.eye(3), -0.0 * np.eye(3) + np.eye(3)])]
    return out


@pytest.mark.parametrize("chart, oracle", [
    (lie._so3_cay_inv, _stacked_so3_cay_inv),
    (lie._so3_log, _stacked_so3_log),
])
def test_so3_chart_inverses_are_the_stacked_forms_bitwise(chart, oracle):
    rng = np.random.default_rng(43)
    for R in _rotations(rng):
        assert _same_bits(chart(R), oracle(R))
    # beyond the chart both raise, on one matrix and in a batch
    far = lie.so3(lie.EXPONENTIAL).tau(np.array([0.0, np.pi, 0.0]))
    for R in (far, np.stack([np.eye(3), far])):
        with pytest.raises(OutOfChart):
            chart(R)
        with pytest.raises(OutOfChart):
            oracle(R)


def test_se3_cayley_inverse_is_the_stacked_form_bitwise():
    rng = np.random.default_rng(47)
    se3 = lie.se3(lie.CAYLEY)
    for count in (None, 1, 9, 64):
        shape = () if count is None else (count,)
        g = se3.tau(rng.normal(size=shape + (6,)))
        g[..., :3, 3][rng.random(size=shape + (3,)) < 0.3] = -0.0
        assert _same_bits(lie._se3_cay_inv(g), _stacked_se3_cay_inv(g))
    assert _same_bits(lie._se3_cay_inv(np.eye(4)), _stacked_se3_cay_inv(np.eye(4)))
