"""Small models with closed-form derivatives, in the protocols the package
reads, for the tests.

* Potentials on R^n: ``value``, ``left_grad``, ``left_hess`` and
  ``left_curvature(q, w)``, the gradient, the Hessian and the third
  derivative along w (the left translation of R^n is q + s).
* Drifts on R^n: ``a(qa, qb)``, ``a.jacobians(qa, qb)`` and
  ``a.curvature(qa, qb, v)``, the (2n, 2n) Hessian of v . a.
* Drifts on a group: ``d(z)``, ``d.jacobian(z)`` and ``d.curvature(z, w)``,
  the Hessian of w . d(z).

Every method is batched over leading axes, vectors along the last one.
"""

import numpy as np


def diag(v):
    """The diagonal matrices of the vectors v (..., n)."""
    return v[..., None] * np.eye(np.shape(v)[-1])


# ---------------------------------------------------------------------------
# potentials on R^n
# ---------------------------------------------------------------------------

class Quadratic:
    """V = (k/2) |q|^2."""

    def __init__(self, k=1.0):
        self.k = k

    def value(self, q):
        return 0.5 * self.k * np.sum(q * q, axis=-1)

    def left_grad(self, q):
        return self.k * np.asarray(q, dtype=float)

    def left_hess(self, q):
        return np.broadcast_to(self.k * np.eye(np.shape(q)[-1]), np.shape(q) + np.shape(q)[-1:])

    def left_curvature(self, q, w):
        return np.zeros(np.shape(q) + np.shape(q)[-1:])


class Cosines:
    """V = c sum_i cos q_i; c = -1 is the pendulum."""

    def __init__(self, c=1.0):
        self.c = c

    def value(self, q):
        return self.c * np.sum(np.cos(q), axis=-1)

    def left_grad(self, q):
        return -self.c * np.sin(q)

    def left_hess(self, q):
        return diag(-self.c * np.cos(q))

    def left_curvature(self, q, w):
        return diag(self.c * np.sin(q) * w)


class Quartic:
    """V = sum_i q_i^4."""

    def value(self, q):
        return np.sum(np.asarray(q, dtype=float) ** 4, axis=-1)

    def left_grad(self, q):
        return 4.0 * np.asarray(q, dtype=float) ** 3

    def left_hess(self, q):
        return diag(12.0 * np.asarray(q, dtype=float) ** 2)

    def left_curvature(self, q, w):
        return diag(24.0 * np.asarray(q, dtype=float) * w)


class SquaredNormSquared:
    """V = |q|^4, whose Hessian couples every pair of coordinates."""

    def value(self, q):
        return np.sum(q * q, axis=-1) ** 2

    def left_grad(self, q):
        return 4.0 * np.sum(q * q, axis=-1, keepdims=True) * q

    def left_hess(self, q):
        r2 = np.sum(q * q, axis=-1)[..., None, None]
        return 4.0 * r2 * np.eye(np.shape(q)[-1]) + 8.0 * q[..., :, None] * q[..., None, :]

    def left_curvature(self, q, w):
        qw = np.sum(q * w, axis=-1)[..., None, None]
        return 8.0 * (qw * np.eye(np.shape(q)[-1]) + q[..., :, None] * w[..., None, :]
                      + w[..., :, None] * q[..., None, :])


class CoupledCosines:
    """V = sum_i cos q_i + q_0^2 q_1 on R^2."""

    def value(self, q):
        q = np.asarray(q, dtype=float)
        return np.sum(np.cos(q), axis=-1) + q[..., 0] ** 2 * q[..., 1]

    def left_grad(self, q):
        q = np.asarray(q, dtype=float)
        coupling = np.stack([2.0 * q[..., 0] * q[..., 1], q[..., 0] ** 2], axis=-1)
        return -np.sin(q) + coupling

    def left_hess(self, q):
        q = np.asarray(q, dtype=float)
        H = diag(-np.cos(q))
        H[..., 0, 0] += 2.0 * q[..., 1]
        H[..., 0, 1] += 2.0 * q[..., 0]
        H[..., 1, 0] += 2.0 * q[..., 0]
        return H

    def left_curvature(self, q, w):
        # sum_i V_iml w_i; the only third derivatives of q_0^2 q_1 are
        # V_001 and its permutations, 2
        q, w = np.asarray(q, dtype=float), np.asarray(w, dtype=float)
        T = diag(np.sin(q) * w)
        T[..., 0, 0] += 2.0 * w[..., 1]
        T[..., 0, 1] += 2.0 * w[..., 0]
        T[..., 1, 0] += 2.0 * w[..., 0]
        return T


# ---------------------------------------------------------------------------
# drifts on R^n
# ---------------------------------------------------------------------------

class PairDrift:
    """a_i(q_a, q_b) = f(q_a,i, q_b,i), coordinate by coordinate, from f and
    its partial derivatives ``fx``, ``fy``, ``fxx``, ``fxy`` and ``fyy``, each
    a function of (x, y)."""

    def __init__(self, f, fx, fy, fxx, fxy, fyy):
        self.f, self.fx, self.fy = f, fx, fy
        self.fxx, self.fxy, self.fyy = fxx, fxy, fyy

    def __call__(self, qa, qb):
        return self.f(np.asarray(qa, dtype=float), np.asarray(qb, dtype=float))

    def jacobians(self, qa, qb):
        qa, qb = np.asarray(qa, dtype=float), np.asarray(qb, dtype=float)
        return diag(self.fx(qa, qb)), diag(self.fy(qa, qb))

    def curvature(self, qa, qb, v):
        qa, qb = np.asarray(qa, dtype=float), np.asarray(qb, dtype=float)
        n = qa.shape[-1]
        i = np.arange(n)
        lead = np.broadcast_shapes(qa.shape, qb.shape, np.shape(v))[:-1]
        out = np.zeros(lead + (2 * n, 2 * n))
        out[..., i, i] = v * self.fxx(qa, qb)
        out[..., i, n + i] = out[..., n + i, i] = v * self.fxy(qa, qb)
        out[..., n + i, n + i] = v * self.fyy(qa, qb)
        return out


def sine_times(c):
    """a = c sin(q_a) q_b."""
    return PairDrift(lambda x, y: c * np.sin(x) * y, lambda x, y: c * np.cos(x) * y,
                     lambda x, y: c * np.sin(x), lambda x, y: -c * np.sin(x) * y,
                     lambda x, y: c * np.cos(x), lambda x, y: 0.0 * x)


def times_square(c):
    """a = c q_a q_b^2."""
    return PairDrift(lambda x, y: c * x * y ** 2, lambda x, y: c * y ** 2,
                     lambda x, y: 2.0 * c * x * y, lambda x, y: 0.0 * x,
                     lambda x, y: 2.0 * c * y, lambda x, y: 2.0 * c * x)


def damping(c):
    """a = -c (q_b - q_a), linear."""
    return PairDrift(lambda x, y: -c * (y - x), lambda x, y: c + 0.0 * x,
                     lambda x, y: -c + 0.0 * x, lambda x, y: 0.0 * x,
                     lambda x, y: 0.0 * x, lambda x, y: 0.0 * x)


def sine_of_difference(c):
    """a = c sin(q_b - q_a)."""
    return PairDrift(lambda x, y: c * np.sin(y - x), lambda x, y: -c * np.cos(y - x),
                     lambda x, y: c * np.cos(y - x), lambda x, y: -c * np.sin(y - x),
                     lambda x, y: c * np.sin(y - x), lambda x, y: -c * np.sin(y - x))


def zero_below(speed, h):
    """a = 0 while |q_b - q_a| / h < speed, undefined (NaN) from there on,
    with its derivatives."""
    def f(x, y):
        return np.where(np.abs(y - x) / h < speed, 0.0, np.nan)

    return PairDrift(f, f, f, f, f, f)


# ---------------------------------------------------------------------------
# drifts on a group
# ---------------------------------------------------------------------------

class LinearDrift:
    """d(z) = z H^T, given as a model rather than as the matrix H."""

    def __init__(self, H):
        self.H = np.asarray(H, dtype=float)

    def __call__(self, z):
        return np.asarray(z, dtype=float) @ self.H.T

    def jacobian(self, z):
        return np.broadcast_to(self.H, np.shape(z)[:-1] + self.H.shape)

    def curvature(self, z, w):
        return np.zeros(np.shape(z) + np.shape(z)[-1:])


class Damping:
    """d(z) = -c z."""

    def __init__(self, c):
        self.c = c

    def __call__(self, z):
        return -self.c * np.asarray(z, dtype=float)

    def jacobian(self, z):
        n = np.shape(z)[-1]
        return np.broadcast_to(-self.c * np.eye(n), np.shape(z) + (n,))

    def curvature(self, z, w):
        return np.zeros(np.shape(z) + np.shape(z)[-1:])


class CutOffDrift(LinearDrift):
    """d(z) = z H^T, with d_i undefined (NaN) where |z_i| >= bound."""

    def __init__(self, H, bound):
        super().__init__(H)
        self.bound = bound

    def __call__(self, z):
        return np.where(np.abs(z) < self.bound, super().__call__(z), np.nan)

    def jacobian(self, z):
        inside = (np.abs(z) < self.bound)[..., :, None]
        return np.where(inside, super().jacobian(z), np.nan)

    def curvature(self, z, w):
        inside = np.all(np.abs(z) < self.bound, axis=-1)[..., None, None]
        return np.where(inside, super().curvature(z, w), np.nan)


class QuadraticDrag:
    """d(z) = -c z |z|, a drag quadratic in the velocity."""

    def __init__(self, c=0.5):
        self.c = c

    def __call__(self, z):
        return -self.c * z * np.linalg.norm(z, axis=-1, keepdims=True)

    def jacobian(self, z):
        r = np.linalg.norm(z, axis=-1, keepdims=True)[..., None]
        zz = z[..., :, None] * z[..., None, :]
        return -self.c * (r * np.eye(np.shape(z)[-1]) + zz / np.where(r > 0.0, r, 1.0))

    def curvature(self, z, w):
        # the Hessian of -c (w . z) |z|
        r = np.linalg.norm(z, axis=-1, keepdims=True)[..., None]
        r = np.where(r > 0.0, r, 1.0)
        wz = np.sum(w * z, axis=-1)[..., None, None]
        zw = z[..., :, None] * w[..., None, :]
        zz = z[..., :, None] * z[..., None, :]
        eye = np.eye(np.shape(z)[-1])
        return -self.c * ((zw + np.swapaxes(zw, -1, -2)) / r
                          + wz * (eye / r - zz / r ** 3))
