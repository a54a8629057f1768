"""Matrix Lie group kernel for R^n, SO(3) and SE(3).

Group elements are plain numpy arrays: vectors for the abelian group R^n,
3x3 rotation matrices for SO(3), 4x4 homogeneous matrices for SE(3).
Algebra and coalgebra vectors are coordinate arrays of length ``dim``;
the pairing between them is the Euclidean dot product, so every dual map
is the transpose of the corresponding primal coordinate matrix.

All operations broadcast over leading batch dimensions.

Two retractions are provided:

* ``cay``: Cayley transform, in closed form for SO(3)/SE(3).
* ``exp``: matrix exponential, Rodrigues' formula for the map itself and
  closed forms for its trivialized tangent maps dexp and dexp^-1 (see the
  exp tangent-map section below).

For both, ``GroupSpec.dtau_inv_deriv`` gives the derivative of dtau^-1 in
closed form.

se(3) coordinates are ordered (angular, linear): xi = (omega, v).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

import numpy as np

from .errors import DimensionMismatch, OutOfChart

CAYLEY = "cay"
EXPONENTIAL = "exp"

_CHART_ANGLE_TOL = 1e-8


# ---------------------------------------------------------------------------
# hat / vee
# ---------------------------------------------------------------------------

def hat3(w):
    """Skew-symmetric 3x3 matrix of w, i.e. hat3(w) @ x == cross(w, x)."""
    w = np.asarray(w, dtype=float)
    if w.shape[-1] != 3:
        raise DimensionMismatch("expected vectors of length 3")
    out = np.zeros(w.shape[:-1] + (3, 3))
    out[..., 0, 1] = -w[..., 2]
    out[..., 0, 2] = w[..., 1]
    out[..., 1, 0] = w[..., 2]
    out[..., 1, 2] = -w[..., 0]
    out[..., 2, 0] = -w[..., 1]
    out[..., 2, 1] = w[..., 0]
    return out


def vee3(W):
    W = np.asarray(W, dtype=float)
    return np.stack(
        [W[..., 2, 1], W[..., 0, 2], W[..., 1, 0]], axis=-1
    )


def hat4(xi):
    """4x4 se(3) matrix of xi = (omega, v)."""
    xi = np.asarray(xi, dtype=float)
    if xi.shape[-1] != 6:
        raise DimensionMismatch("expected vectors of length 6")
    out = np.zeros(xi.shape[:-1] + (4, 4))
    out[..., :3, :3] = hat3(xi[..., :3])
    out[..., :3, 3] = xi[..., 3:]
    return out


def vee4(X):
    X = np.asarray(X, dtype=float)
    return np.concatenate([vee3(X[..., :3, :3]), X[..., :3, 3]], axis=-1)


def _mt(A):
    """Batched matrix transpose."""
    return np.swapaxes(A, -1, -2)


def _mv(A, x):
    """Batched matrix-vector product."""
    return np.einsum("...ij,...j->...i", A, x)


def _eye_like(shape_src, n):
    out = np.zeros(shape_src + (n, n))
    out[...] = np.eye(n)
    return out


# ---------------------------------------------------------------------------
# SO(3) closed forms
# ---------------------------------------------------------------------------

def _so3_exp(w):
    w = np.asarray(w, dtype=float)
    th2 = np.einsum("...i,...i->...", w, w)
    th = np.sqrt(th2)
    small = th < 1e-8
    th_safe = np.where(small, 1.0, th)
    a = np.where(small, 1.0 - th2 / 6.0, np.sin(th_safe) / th_safe)
    b = np.where(small, 0.5 - th2 / 24.0, (1.0 - np.cos(th_safe)) / th_safe**2)
    W = hat3(w)
    return np.eye(3) + a[..., None, None] * W + b[..., None, None] * (W @ W)


def _so3_angle(R):
    tr = np.trace(R, axis1=-2, axis2=-1)
    return np.arccos(np.clip((tr - 1.0) / 2.0, -1.0, 1.0))


def _so3_log(R):
    R = np.asarray(R, dtype=float)
    th = _so3_angle(R)
    if np.any(th > np.pi - _CHART_ANGLE_TOL):
        raise OutOfChart("rotation angle too close to pi for the exp chart")
    small = th < 1e-8
    th_safe = np.where(small, 1.0, th)
    f = np.where(small, 0.5 + th**2 / 12.0, th_safe / (2.0 * np.sin(th_safe)))
    return f[..., None] * vee3(R - _mt(R))


def _so3_cay(w):
    # cay(w) = (I - hat(w)/2)^-1 (I + hat(w)/2), rational closed form
    w = np.asarray(w, dtype=float)
    s = np.einsum("...i,...i->...", w, w)
    W = hat3(w)
    return np.eye(3) + (4.0 / (4.0 + s))[..., None, None] * (W + 0.5 * (W @ W))


def _so3_cay_inv(R):
    R = np.asarray(R, dtype=float)
    th = _so3_angle(R)
    if np.any(th > np.pi - _CHART_ANGLE_TOL):
        raise OutOfChart("rotation angle too close to pi for the Cayley chart")
    # hat(w) = 2 (R - I)(R + I)^-1; solve on the transposed system
    X = _mt(np.linalg.solve(_mt(R + np.eye(3)), _mt(2.0 * (R - np.eye(3)))))
    return vee3(0.5 * (X - _mt(X)))


def _inv_i_minus_half_hat(w):
    """(I - hat(w)/2)^-1 = (4 I + 2 hat(w) + w w^T) / (4 + |w|^2)."""
    w = np.asarray(w, dtype=float)
    s = np.einsum("...i,...i->...", w, w)
    W = hat3(w)
    num = 4.0 * np.eye(3) + 2.0 * W + w[..., :, None] * w[..., None, :]
    return num / (4.0 + s)[..., None, None]


def _so3_dcay(w):
    """Right-trivialized tangent of the SO(3) Cayley map, on coordinates."""
    w = np.asarray(w, dtype=float)
    s = np.einsum("...i,...i->...", w, w)
    return (2.0 / (4.0 + s))[..., None, None] * (2.0 * np.eye(3) + hat3(w))


def _so3_dcay_inv(w):
    w = np.asarray(w, dtype=float)
    return (
        np.eye(3)
        - 0.5 * hat3(w)
        + 0.25 * w[..., :, None] * w[..., None, :]
    )


# ---------------------------------------------------------------------------
# exp tangent maps
# ---------------------------------------------------------------------------
# With W = hat3(w) and th = |w| (Kobilarov & Marsden 2011):
#   dexp(w)    = J    = I + b W + c W^2,  b = (1 - cos th)/th^2,  c = (th - sin th)/th^3
#   dexp^-1(w) = J^-1 = I - W/2 + k W^2,  k = (1 - (th/2) cot(th/2))/th^2
# c, k and the derivatives b', c', k' (in th) and (k'/th)' lose digits as th
# shrinks, so below _SMALL_ANGLE each is its Taylor polynomial in th^2 through
# th^12 to th^16, whose first omitted term is below 2e-17 of it there.

_SMALL_ANGLE = 0.5
_B = tuple((-1) ** n / factorial(2 * n + 2) for n in range(8))
_C = tuple((-1) ** n / factorial(2 * n + 3) for n in range(8))
_K = (1/12, 1/720, 1/30240, 1/1209600, 1/47900160, 691/1307674368000,
      1/74724249600, 3617/10670622842880000)
# b'/th, c'/th and k'/th, as f'(th)/th = 2 df/d(th^2)
_DB, _DC, _DK = ([2 * n * f[n] for n in range(1, 8)] for f in (_B, _C, _K))
# (k'/th)'/th = 4 d^2k/d(th^2)^2, from k's coefficients K_n = |B_{2n+2}| / (2n+2)!
# extended by three terms: this series starts two terms later and converges slower
_DDK = [4 * n * (n - 1) * f for n, f in enumerate(
    _K + (43867 / (798 * factorial(18)), 174611 / (330 * factorial(20)),
          854513 / (138 * factorial(22))))][2:]


def _angle(w):
    """th^2, the mask th < _SMALL_ANGLE, and th, replaced by 1 under the mask."""
    th2 = np.einsum("...i,...i->...", w, w)
    small = th2 < _SMALL_ANGLE**2
    return th2, small, np.sqrt(np.where(small, 1.0, th2))


def _taylor(th2, coeffs):
    out = coeffs[-1]
    for c in coeffs[-2::-1]:
        out = out * th2 + c
    return out


def _dexp_bc(th2, small, th):
    # b = (sin(th/2) / (th/2))^2 / 2 keeps its digits at every th
    b = 0.5 * np.sinc(np.sqrt(th2) / (2.0 * np.pi)) ** 2
    return b, np.where(small, _taylor(th2, _C), (th - np.sin(th)) / th**3)


def _dexp_inv_k(th2, small, th):
    x = 0.5 * th
    return np.where(small, _taylor(th2, _K), (1.0 - x * np.cos(x) / np.sin(x)) / th**2)


def _dexp_inv_dk(th2, small, th, k):
    # k'/th = (1/(4 sin^2(th/2)) - 1/th^2 - k) / th^2
    return np.where(small, _taylor(th2, _DK),
                    (0.25 / np.sin(0.5 * th) ** 2 - 1.0 / th**2 - k) / th**2)


def _so3_dexp(w):
    w = np.asarray(w, dtype=float)
    b, c = _dexp_bc(*_angle(w))
    W = hat3(w)
    return np.eye(3) + b[..., None, None] * W + c[..., None, None] * (W @ W)


def _so3_dexp_inv(w):
    w = np.asarray(w, dtype=float)
    k = _dexp_inv_k(*_angle(w))
    W = hat3(w)
    return np.eye(3) - 0.5 * W + k[..., None, None] * (W @ W)


# ---------------------------------------------------------------------------
# SE(3) closed forms
# ---------------------------------------------------------------------------

def _se3_build(R, t):
    out = np.zeros(R.shape[:-2] + (4, 4))
    out[..., :3, :3] = R
    out[..., :3, 3] = t
    out[..., 3, 3] = 1.0
    return out


def _se3_exp(xi):
    xi = np.asarray(xi, dtype=float)
    w, v = xi[..., :3], xi[..., 3:]
    J = _so3_dexp(w)
    # exp(W) = I + W dexp(W)
    return _se3_build(np.eye(3) + hat3(w) @ J, _mv(J, v))


def _se3_log(g):
    g = np.asarray(g, dtype=float)
    w = _so3_log(g[..., :3, :3])
    return np.concatenate([w, _mv(_so3_dexp_inv(w), g[..., :3, 3])], axis=-1)


def _se3_cay(xi):
    xi = np.asarray(xi, dtype=float)
    w, v = xi[..., :3], xi[..., 3:]
    return _se3_build(_so3_cay(w), _mv(_inv_i_minus_half_hat(w), v))


def _se3_cay_inv(g):
    g = np.asarray(g, dtype=float)
    w = _so3_cay_inv(g[..., :3, :3])
    t = g[..., :3, 3]
    v = t - 0.5 * _mv(hat3(w), t)
    return np.concatenate([w, v], axis=-1)


def _se3_blocks(upper, lower, diag=None):
    """The 6x6 matrix [[upper, 0], [lower, diag]]; diag defaults to upper."""
    out = np.zeros(lower.shape[:-2] + (6, 6))
    out[..., :3, :3] = upper
    out[..., 3:, :3] = lower
    out[..., 3:, 3:] = upper if diag is None else diag
    return out


def _se3_dcay(xi):
    """Right-trivialized tangent of the SE(3) Cayley map, 6x6 on coordinates."""
    xi = np.asarray(xi, dtype=float)
    w, v = xi[..., :3], xi[..., 3:]
    Dr = _so3_dcay(w)
    return _se3_blocks(Dr, 0.5 * (hat3(v) @ Dr), _inv_i_minus_half_hat(w))


def _se3_dcay_inv(xi):
    xi = np.asarray(xi, dtype=float)
    w, v = xi[..., :3], xi[..., 3:]
    A = np.eye(3) - 0.5 * hat3(w)
    return _se3_blocks(A + 0.25 * w[..., :, None] * w[..., None, :],
                       -0.5 * (A @ hat3(v)), A)


def _se3_tangent(xi, alpha, beta, dalpha, dbeta):
    """[[F, 0], [L, F]], a power series in ad(xi) = [[W, 0], [V, W]], V = hat3(v),
    that is F = I + alpha W + beta W^2 on so(3).  L, the derivative of F along v,
    is alpha V + beta (W V + V W) + (w.v) (dalpha W + dbeta W^2) with dalpha =
    alpha'/th, dbeta = beta'/th: Q of Barfoot & Furgale (2014) for dexp, and
    -J^-1 Q J^-1 for dexp^-1."""
    w, v = xi[..., :3], xi[..., 3:]
    W = hat3(w)
    W2 = W @ W
    s = np.einsum("...i,...i->...", w, v)
    alpha, beta, dalpha, dbeta, s = (np.asarray(x)[..., None, None]
                                     for x in (alpha, beta, dalpha, dbeta, s))
    return _se3_blocks(np.eye(3) + alpha * W + beta * W2,
                       _tangent_lower(W, W2, hat3(v), s, alpha, beta, dalpha, dbeta))


def _tangent_lower(W, W2, V, s, alpha, beta, dalpha, dbeta):
    """L of ``_se3_tangent``, with W2 = W @ W; every argument broadcasts
    against the trailing (3, 3)."""
    WV = W @ V
    return alpha * V + beta * (WV + _mt(WV)) + s * (dalpha * W + dbeta * W2)


def _se3_dexp(xi):
    xi = np.asarray(xi, dtype=float)
    th2, small, th = _angle(xi[..., :3])
    b, c = _dexp_bc(th2, small, th)
    db = np.where(small, _taylor(th2, _DB), (np.sin(th) / th - 2.0 * b) / th**2)
    dc = np.where(small, _taylor(th2, _DC), (b - 3.0 * c) / th**2)
    return _se3_tangent(xi, b, c, db, dc)


def _se3_dexp_inv(xi):
    xi = np.asarray(xi, dtype=float)
    th2, small, th = _angle(xi[..., :3])
    k = _dexp_inv_k(th2, small, th)
    return _se3_tangent(xi, -0.5, k, 0.0, _dexp_inv_dk(th2, small, th, k))


# ---------------------------------------------------------------------------
# derivatives of dtau^-1
# ---------------------------------------------------------------------------
# Each kernel returns T stacked along the derivative index first, T[..., l, i, j]
# = d D_ij / d xi_l for D = dtau^-1(xi); GroupSpec moves l last.  _E[l] = hat3(e_l).

_E = hat3(np.eye(3))


def _so3_dcay_inv_deriv(w):
    # D = I - W/2 + w w^T/4
    ew = np.eye(3)[:, :, None] * w[..., None, None, :]
    return -0.5 * _E + 0.25 * (ew + _mt(ew))


def _se3_dcay_inv_deriv(xi):
    # D = [[A + w w^T/4, 0], [-A V / 2, A]] with A = I - W/2: along w_l the
    # lower block moves by E_l V / 4, along v_l by -A E_l / 2
    w, v = xi[..., :3], xi[..., 3:]
    out = np.zeros(xi.shape[:-1] + (6, 6, 6))
    out[..., :3, :, :] = _se3_blocks(_so3_dcay_inv_deriv(w),
                                     0.25 * (_E @ hat3(v)[..., None, :, :]), -0.5 * _E)
    A = np.eye(3) - 0.5 * hat3(w)
    out[..., 3:, 3:, :3] = -0.5 * (A[..., None, :, :] @ _E)
    return out


def _dexp_inv_coeffs(w):
    """(th^2, mask, th, k, k'/th, W): ``_angle``, the dexp^-1 coefficients and
    W = hat3(w) with an axis for the derivative index."""
    th2, small, th = _angle(w)
    k = _dexp_inv_k(th2, small, th)
    dk = _dexp_inv_dk(th2, small, th, k)
    return th2, small, th, k, dk, hat3(w)[..., None, :, :]


def _so3_dexp_inv_deriv(w):
    # d/dw_l of I - W/2 + k W^2 is the L form of _se3_tangent along v = e_l
    _, _, _, k, dk, W = _dexp_inv_coeffs(w)
    k, dk = k[..., None, None, None], dk[..., None, None, None]
    return _tangent_lower(W, W @ W, _E, w[..., :, None, None], -0.5, k, 0.0, dk)


def _se3_dexp_inv_deriv(xi):
    # D = [[F, 0], [L, F]] with F = I - W/2 + k W^2 and L = -V/2 + k (W V + V W)
    # + s dk W^2, s = w.v.  Along v_l only L moves, by F's derivative along w_l;
    # along w_l, L moves by M_l = k (E_l V + V E_l) + s ddk w_l W^2
    # + dk (w_l (W V + V W) + v_l W^2 + s (E_l W + W E_l)), ddk = (k'/th)'/th
    w, v = xi[..., :3], xi[..., 3:]
    th2, small, th, k, dk, W = _dexp_inv_coeffs(w)
    half = 0.5 * th
    ddk = np.where(small, _taylor(th2, _DDK),
                   (2.0 / th**4 - np.cos(half) / (4.0 * th * np.sin(half) ** 3)
                    - 3.0 * dk) / th**2)
    s = np.einsum("...i,...i->...", w, v)[..., None, None, None]
    k, dk, ddk = (c[..., None, None, None] for c in (k, dk, ddk))
    wl, vl = w[..., :, None, None], v[..., :, None, None]
    W2 = W @ W
    F_l = _tangent_lower(W, W2, _E, wl, -0.5, k, 0.0, dk)
    WV, EV, EW = W @ hat3(v)[..., None, :, :], _E @ hat3(v)[..., None, :, :], _E @ W
    M_l = (k * (EV + _mt(EV)) + s * ddk * wl * W2
           + dk * (wl * (WV + _mt(WV)) + vl * W2 + s * (EW + _mt(EW))))
    out = np.zeros(xi.shape[:-1] + (6, 6, 6))
    out[..., :3, :, :] = _se3_blocks(F_l, M_l)
    out[..., 3:, 3:, :3] = F_l
    return out


# ---------------------------------------------------------------------------
# GroupSpec
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GroupSpec:
    """A matrix Lie group together with a choice of retraction.

    name        one of "Rn", "SO3", "SE3"
    dim         algebra dimension (n for R^n, 3 for SO(3), 6 for SE(3))
    retraction  "cay" or "exp"; both have closed-form tangent maps
    """

    name: str
    dim: int
    retraction: str = CAYLEY

    def __post_init__(self):
        if self.name not in ("Rn", "SO3", "SE3"):
            raise DimensionMismatch(f"unknown group name {self.name!r}")
        if self.name == "SO3" and self.dim != 3:
            raise DimensionMismatch("SO3 has algebra dimension 3")
        if self.name == "SE3" and self.dim != 6:
            raise DimensionMismatch("SE3 has algebra dimension 6")
        if self.dim < 1:
            raise DimensionMismatch("algebra dimension must be positive")
        if self.retraction not in (CAYLEY, EXPONENTIAL):
            raise DimensionMismatch(f"unknown retraction {self.retraction!r}")

    # -- basic group structure ------------------------------------------

    @property
    def matrix_size(self):
        return {"Rn": None, "SO3": 3, "SE3": 4}[self.name]

    def identity(self):
        if self.name == "Rn":
            return np.zeros(self.dim)
        return np.eye(self.matrix_size)

    def multiply(self, a, b):
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        if self.name == "Rn":
            return a + b
        return a @ b

    def inverse(self, g):
        g = np.asarray(g, dtype=float)
        if self.name == "Rn":
            return -g
        if self.name == "SO3":
            return _mt(g)
        Rt = _mt(g[..., :3, :3])
        return _se3_build(Rt, -_mv(Rt, g[..., :3, 3]))

    def check(self, g, tol=1e-10):
        """Validate that g is a well-formed element; raises DimensionMismatch."""
        g = np.asarray(g, dtype=float)
        if self.name == "Rn":
            if g.shape[-1] != self.dim:
                raise DimensionMismatch("R^n element has wrong length")
            return g
        size = self.matrix_size
        if g.shape[-2:] != (size, size):
            raise DimensionMismatch(f"expected {size}x{size} matrices")
        R = g[..., :3, :3]
        if np.max(np.abs(_mt(R) @ R - np.eye(3))) > tol:
            raise DimensionMismatch("rotation block is not orthonormal")
        if np.max(np.abs(np.linalg.det(R) - 1.0)) > tol:
            raise DimensionMismatch("rotation block must have determinant +1")
        if self.name == "SE3":
            if np.max(np.abs(g[..., 3, :] - np.array([0.0, 0.0, 0.0, 1.0]))) != 0.0:
                raise DimensionMismatch("SE3 bottom row must be exactly (0,0,0,1)")
        return g

    # -- adjoint structure -----------------------------------------------

    def ad_matrix(self, xi):
        xi = np.asarray(xi, dtype=float)
        if self.name == "Rn":
            return np.zeros(xi.shape[:-1] + (self.dim, self.dim))
        if self.name == "SO3":
            return hat3(xi)
        return _se3_blocks(hat3(xi[..., :3]), hat3(xi[..., 3:]))

    def Ad_matrix(self, g):
        g = np.asarray(g, dtype=float)
        if self.name == "Rn":
            return _eye_like(g.shape[:-1], self.dim)
        if self.name == "SO3":
            return g.copy()
        R = g[..., :3, :3]
        return _se3_blocks(R, hat3(g[..., :3, 3]) @ R)

    def coAd(self, g, mu):
        """Dual of Ad: <coAd(g, mu), eta> == <mu, Ad(g, eta)>."""
        return _mv(_mt(self.Ad_matrix(g)), mu)

    # -- retraction -------------------------------------------------------

    def tau(self, xi):
        xi = np.asarray(xi, dtype=float)
        if xi.shape[-1] != self.dim:
            raise DimensionMismatch("algebra vector has wrong length")
        if self.name == "Rn":
            return xi.copy()
        if self.retraction == CAYLEY:
            return _so3_cay(xi) if self.name == "SO3" else _se3_cay(xi)
        return _so3_exp(xi) if self.name == "SO3" else _se3_exp(xi)

    def tau_inv(self, g):
        g = np.asarray(g, dtype=float)
        if self.name == "Rn":
            return g.copy()
        if self.retraction == CAYLEY:
            return _so3_cay_inv(g) if self.name == "SO3" else _se3_cay_inv(g)
        return _so3_log(g) if self.name == "SO3" else _se3_log(g)

    def dtau_matrix(self, xi):
        """Right-trivialized tangent of tau as a dim x dim coordinate matrix."""
        xi = np.asarray(xi, dtype=float)
        if self.name == "Rn":
            return _eye_like(xi.shape[:-1], self.dim)
        if self.retraction == CAYLEY:
            return _so3_dcay(xi) if self.name == "SO3" else _se3_dcay(xi)
        return _so3_dexp(xi) if self.name == "SO3" else _se3_dexp(xi)

    def dtau_inv_matrix(self, xi):
        xi = np.asarray(xi, dtype=float)
        if self.name == "Rn":
            return _eye_like(xi.shape[:-1], self.dim)
        if self.retraction == CAYLEY:
            return _so3_dcay_inv(xi) if self.name == "SO3" else _se3_dcay_inv(xi)
        return _so3_dexp_inv(xi) if self.name == "SO3" else _se3_dexp_inv(xi)

    def dtau_inv_deriv(self, xi):
        """T with T[..., i, j, l] = d dtau_inv_matrix(xi)[..., i, j] / d xi_l."""
        xi = np.asarray(xi, dtype=float)
        if self.name == "Rn":
            return np.zeros(xi.shape[:-1] + (self.dim,) * 3)
        if self.retraction == CAYLEY:
            kernel = _so3_dcay_inv_deriv if self.name == "SO3" else _se3_dcay_inv_deriv
        else:
            kernel = _so3_dexp_inv_deriv if self.name == "SO3" else _se3_dexp_inv_deriv
        return np.moveaxis(kernel(xi), -3, -1)


def real_n(n, retraction=CAYLEY):
    return GroupSpec("Rn", n, retraction)


def so3(retraction=CAYLEY):
    return GroupSpec("SO3", 3, retraction)


def se3(retraction=CAYLEY):
    return GroupSpec("SE3", 6, retraction)
