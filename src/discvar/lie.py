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

For both, ``GroupSpec.dtau_inv_deriv`` and ``GroupSpec.dtau_inv_deriv2`` give
the first and second derivatives of dtau^-1 in closed form, the first
together with dtau^-1 itself from one call; the derivative of dtau follows
from them as -dtau (d dtau^-1) dtau.  ``GroupSpec.dtau_inv_deriv_along``
gives the first derivative of dtau^-1(xi)^T mu alone, the one contraction
of it a momentum needs, without forming the derivative tensor.

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

# the 3x3 identity, shared by the kernels (read-only)
_I3 = np.eye(3)
_I3.flags.writeable = False

# hat3(w) = w @ _HAT, flattened: each entry of the skew matrix is +-one
# coordinate of w, so the product is exact
_HAT = np.zeros((3, 3, 3))
_HAT[2, 0, 1], _HAT[1, 0, 2], _HAT[0, 1, 2] = -1.0, 1.0, -1.0
_HAT[2, 1, 0], _HAT[1, 2, 0], _HAT[0, 2, 1] = 1.0, -1.0, 1.0
_HAT = _HAT.reshape(3, 9)


def hat3(w):
    """Skew-symmetric 3x3 matrix of w, i.e. hat3(w) @ x == cross(w, x)."""
    w = np.asarray(w, dtype=float)
    if w.shape[-1] != 3:
        raise DimensionMismatch("expected vectors of length 3")
    return (w @ _HAT).reshape(w.shape[:-1] + (3, 3))


# the flat indices of W[2, 1], W[0, 2] and W[1, 0] in a 3x3 matrix
_VEE = np.array([7, 2, 3])


def vee3(W):
    """(W[2, 1], W[0, 2], W[1, 0]) of each 3x3 matrix W, read in one take."""
    W = np.asarray(W, dtype=float)
    return W.reshape(W.shape[:-2] + (9,)).take(_VEE, axis=-1)


def mt(A):
    """Batched matrix transpose of an array (a view)."""
    return A.swapaxes(-1, -2)


def mv(A, x):
    """Batched matrix-vector product."""
    return (A @ x[..., None])[..., 0]


def _dot(a, b):
    """Batched dot product of the last axes; a scalar, not a 0-d array, for
    single vectors, so the scalar arithmetic downstream stays cheap."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0][()]


def _eye_like(shape_src, n):
    out = np.zeros(shape_src + (n, n))
    out[...] = np.eye(n)
    return out


# ---------------------------------------------------------------------------
# SO(3) closed forms
# ---------------------------------------------------------------------------

def _so3_exp(w):
    w = np.asarray(w, dtype=float)
    th2 = _dot(w, w)
    th = np.sqrt(th2)
    small = th < 1e-8
    th_safe = np.where(small, 1.0, th)
    a = np.where(small, 1.0 - th2 / 6.0, np.sin(th_safe) / th_safe)
    b = np.where(small, 0.5 - th2 / 24.0, (1.0 - np.cos(th_safe)) / th_safe**2)
    W = hat3(w)
    return _I3 + a[..., None, None] * W + b[..., None, None] * (W @ W)


def _so3_angle(R):
    tr = np.trace(R, axis1=-2, axis2=-1)
    return np.arccos(np.clip((tr - 1.0) / 2.0, -1.0, 1.0))


# the largest trace whose angle, as _so3_angle takes it, is beyond pi -
# _CHART_ANGLE_TOL: the angle falls as the trace grows, so the Cayley chart
# check reads the trace alone.  The next float up, -1 + 2^-52, has the angle
# pi - 1.5e-8
_CHART_TRACE = -1.0 + 2.0**-53


def _so3_log(R):
    R = np.asarray(R, dtype=float)
    th = _so3_angle(R)
    if (th > np.pi - _CHART_ANGLE_TOL).any():
        raise OutOfChart("rotation angle too close to pi for the exp chart")
    small = th < 1e-8
    th_safe = np.where(small, 1.0, th)
    f = np.where(small, 0.5 + th**2 / 12.0, th_safe / (2.0 * np.sin(th_safe)))
    return f[..., None] * vee3(R - mt(R))


def _so3_cay(w):
    w = np.asarray(w, dtype=float)
    return _cay_rotation(hat3(w), _dot(w, w))


def _cay_rotation(W, s):
    # cay(w) = (I - hat(w)/2)^-1 (I + hat(w)/2), rational closed form, from
    # W = hat(w) and s = |w|^2
    return _I3 + (4.0 / (4.0 + s))[..., None, None] * (W + 0.5 * (W @ W))


def _so3_cay_inv(R):
    R = np.asarray(R, dtype=float)
    tr = np.trace(R, axis1=-2, axis2=-1)
    if (tr <= _CHART_TRACE).any():
        raise OutOfChart("rotation angle too close to pi for the Cayley chart")
    # R = cay(w) has R - R^T = 8 hat(w) / (4 + |w|^2) and
    # 1 + tr R = 16 / (4 + |w|^2)
    return (2.0 / (1.0 + tr))[..., None] * vee3(R - mt(R))


def _inv_i_minus_half_hat(w):
    """(I - hat(w)/2)^-1 = (4 I + 2 hat(w) + w w^T) / (4 + |w|^2)."""
    w = np.asarray(w, dtype=float)
    s = _dot(w, w)
    W = hat3(w)
    num = 4.0 * _I3 + 2.0 * W + w[..., :, None] * w[..., None, :]
    return num / (4.0 + s)[..., None, None]


def _so3_dcay(w):
    """Right-trivialized tangent of the SO(3) Cayley map, on coordinates."""
    w = np.asarray(w, dtype=float)
    s = _dot(w, w)
    return (2.0 / (4.0 + s))[..., None, None] * (2.0 * _I3 + hat3(w))


def _so3_dcay_inv(w):
    w = np.asarray(w, dtype=float)
    return (
        _I3
        - 0.5 * hat3(w)
        + 0.25 * w[..., :, None] * w[..., None, :]
    )


# ---------------------------------------------------------------------------
# exp tangent maps
# ---------------------------------------------------------------------------
# With W = hat3(w) and th = |w| (Kobilarov & Marsden 2011):
#   dexp(w)    = J    = I + b W + c W^2,  b = (1 - cos th)/th^2,  c = (th - sin th)/th^3
#   dexp^-1(w) = J^-1 = I - W/2 + k W^2,  k = (1 - (th/2) cot(th/2))/th^2
# c, k and the derivatives b' and c' (in th) lose digits as th shrinks, so
# below _SMALL_ANGLE each is its Taylor polynomial in th^2 through th^12 to
# th^14, whose first omitted term is below 2e-17 of it there.  The closed forms
# of k'/th, (k'/th)'/th and ((k'/th)'/th)'/th cancel much more (they keep only
# 12, 10 and 8 digits at th = 0.5, and about 12 from th = 2 on for the last
# two), so below _SERIES_ANGLE each is its Taylor polynomial of 20 terms,
# through th^38, which holds to 3e-16 of it there.

_SMALL_ANGLE = 0.5
_SERIES_ANGLE = 2.0
_B = tuple((-1) ** n / factorial(2 * n + 2) for n in range(8))
_C = tuple((-1) ** n / factorial(2 * n + 3) for n in range(8))
_K = (1/12, 1/720, 1/30240, 1/1209600, 1/47900160, 691/1307674368000,
      1/74724249600, 3617/10670622842880000)
# b'/th and c'/th, as f'(th)/th = 2 df/d(th^2)
_DB, _DC = ([2 * n * f[n] for n in range(1, 8)] for f in (_B, _C))
# k'/th = 2 dk/d(th^2), (k'/th)'/th = 4 d^2k/d(th^2)^2 and ((k'/th)'/th)'/th
# = 8 d^3k/d(th^2)^3, from k's
# coefficients K_n = |B_{2n+2}| / (2n+2)! through n = 22, each Bernoulli number
# |B_{2n+2}| given as p / q
_K_MORE = _K + tuple(p / (q * factorial(2 * n + 2)) for n, (p, q) in enumerate((
    (43867, 798), (174611, 330), (854513, 138), (236364091, 2730), (8553103, 6),
    (23749461029, 870), (8615841276005, 14322), (7709321041217, 510),
    (2577687858367, 6), (26315271553053477373, 1919190), (2929993913841559, 6),
    (261082718496449122051, 13530), (1520097643918070802691, 1806),
    (27833269579301024235023, 690), (596451111593912163277961, 282)), start=8))
_DK = [2 * n * f for n, f in enumerate(_K_MORE[:21])][1:]
_DDK = [4 * n * (n - 1) * f for n, f in enumerate(_K_MORE[:22])][2:]
_DDDK = [8 * n * (n - 1) * (n - 2) * f for n, f in enumerate(_K_MORE)][3:]


def _angle(w):
    """th^2, the mask th < _SMALL_ANGLE, and th, replaced by 1 under the mask."""
    th2 = _dot(w, w)
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


def _dexp_inv_dk(th2, th, k):
    # k'/th = (1/(4 sin^2(th/2)) - 1/th^2 - k) / th^2
    return np.where(th2 < _SERIES_ANGLE**2, _taylor(th2, _DK),
                    (0.25 / np.sin(0.5 * th) ** 2 - 1.0 / th**2 - k) / th**2)


def _dexp_inv_ddk(th2, th, dk):
    # (k'/th)'/th = (r'/th - 3 dk) / th^2, r = 1/(4 sin^2(th/2)) - 1/th^2
    half = 0.5 * th
    return np.where(th2 < _SERIES_ANGLE**2, _taylor(th2, _DDK),
                    (2.0 / th**4 - np.cos(half) / (4.0 * th * np.sin(half) ** 3)
                     - 3.0 * dk) / th**2)


def _dexp_inv_dddk(th2, th, ddk):
    # ((k'/th)'/th)'/th = (q'/th - 5 ddk) / th^2, q = r'/th of _dexp_inv_ddk
    sn, cs = np.sin(0.5 * th), np.cos(0.5 * th)
    dq = (-8.0 / th**6 + cs / (4.0 * th**3 * sn**3)
          + (1.0 / sn**2 + 3.0 * cs**2 / sn**4) / (8.0 * th**2))
    return np.where(th2 < _SERIES_ANGLE**2, _taylor(th2, _DDDK), (dq - 5.0 * ddk) / th**2)


def _so3_dexp(w):
    w = np.asarray(w, dtype=float)
    b, c = _dexp_bc(*_angle(w))
    W = hat3(w)
    return _I3 + b[..., None, None] * W + c[..., None, None] * (W @ W)


def _so3_dexp_inv(w):
    return _so3_dexp_inv_parts(w)[0]


def _so3_dexp_inv_parts(w):
    """(J^-1, th^2, th, k, W, W^2): dexp^-1(w) and the factors its derivative
    reuses."""
    w = np.asarray(w, dtype=float)
    th2, small, th = _angle(w)
    k = _dexp_inv_k(th2, small, th)
    W = hat3(w)
    W2 = W @ W
    return _I3 - 0.5 * W + k[..., None, None] * W2, th2, th, k, W, W2


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
    return _se3_build(_I3 + hat3(w) @ J, mv(J, v))


def _se3_log(g):
    g = np.asarray(g, dtype=float)
    w = _so3_log(g[..., :3, :3])
    return np.concatenate([w, mv(_so3_dexp_inv(w), g[..., :3, 3])], axis=-1)


def _se3_cay(xi):
    # rotation cay(w), translation (I - hat(w)/2)^-1 v
    # = (4 v + 2 w x v + (w . v) w) / (4 + |w|^2), from one hat(w) and |w|^2
    xi = np.asarray(xi, dtype=float)
    w, v = xi[..., :3], xi[..., 3:]
    s = _dot(w, w)
    W = hat3(w)
    out = np.empty(xi.shape[:-1] + (4, 4))
    out[..., :3, :3] = _cay_rotation(W, s)
    wv = _dot(w, v)
    out[..., :3, 3] = (4.0 * v + 2.0 * (W @ v[..., None])[..., 0]
                       + wv[..., None] * w) / (4.0 + s)[..., None]
    out[..., 3, :3] = 0.0
    out[..., 3, 3] = 1.0
    return out


def _se3_cay_inv(g):
    g = np.asarray(g, dtype=float)
    w = _so3_cay_inv(g[..., :3, :3])
    t = g[..., :3, 3]
    v = t - 0.5 * mv(hat3(w), t)
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
    return _se3_dcay_inv_parts(xi)[0]


def _se3_dcay_inv_parts(xi):
    """(D, A, V): D = [[A + w w^T/4, 0], [-A V / 2, A]] with A = I - W/2 and
    V = hat3(v)."""
    xi = np.asarray(xi, dtype=float)
    w, v = xi[..., :3], xi[..., 3:]
    A = _I3 - 0.5 * hat3(w)
    V = hat3(v)
    D = _se3_blocks(A + 0.25 * w[..., :, None] * w[..., None, :], -0.5 * (A @ V), A)
    return D, A, V


def _se3_tangent(xi, alpha, beta, dalpha, dbeta):
    """[[F, 0], [L, F]], a power series in ad(xi) = [[W, 0], [V, W]], V = hat3(v),
    that is F = I + alpha W + beta W^2 on so(3).  L, the derivative of F along v,
    is alpha V + beta (W V + V W) + (w.v) (dalpha W + dbeta W^2) with dalpha =
    alpha'/th, dbeta = beta'/th: Q of Barfoot & Furgale (2014) for dexp, and
    -J^-1 Q J^-1 for dexp^-1."""
    w, v = xi[..., :3], xi[..., 3:]
    W = hat3(w)
    W2 = W @ W
    s = _dot(w, v)
    alpha, beta, dalpha, dbeta, s = (np.asarray(x)[..., None, None]
                                     for x in (alpha, beta, dalpha, dbeta, s))
    return _se3_blocks(_I3 + alpha * W + beta * W2,
                       _tangent_lower(W, W2, hat3(v), s, alpha, beta, dalpha, dbeta))


def _tangent_lower(W, W2, V, s, alpha, beta, dalpha, dbeta):
    """L of ``_se3_tangent``, with W2 = W @ W; every argument broadcasts
    against the trailing (3, 3)."""
    WV = W @ V
    return alpha * V + beta * (WV + mt(WV)) + s * (dalpha * W + dbeta * W2)


def _se3_dexp(xi):
    xi = np.asarray(xi, dtype=float)
    th2, small, th = _angle(xi[..., :3])
    b, c = _dexp_bc(th2, small, th)
    db = np.where(small, _taylor(th2, _DB), (np.sin(th) / th - 2.0 * b) / th**2)
    dc = np.where(small, _taylor(th2, _DC), (b - 3.0 * c) / th**2)
    return _se3_tangent(xi, b, c, db, dc)


def _se3_dexp_inv(xi):
    return _se3_dexp_inv_parts(xi)[0]


def _se3_dexp_inv_parts(xi):
    """(D, th^2, th, k, k'/th): dexp^-1(xi) and the coefficients its
    derivative reuses."""
    xi = np.asarray(xi, dtype=float)
    th2, small, th = _angle(xi[..., :3])
    k = _dexp_inv_k(th2, small, th)
    dk = _dexp_inv_dk(th2, th, k)
    return _se3_tangent(xi, -0.5, k, 0.0, dk), th2, th, k, dk


# ---------------------------------------------------------------------------
# derivatives of dtau^-1
# ---------------------------------------------------------------------------
# Each kernel returns (D, T) for D = dtau^-1(xi), computed as the matching
# dtau_inv_matrix kernel computes it, and T stacked along the derivative index
# first, T[..., l, i, j] = d D_ij / d xi_l, the layout GroupSpec hands out.
# _E[l] = hat3(e_l).

_E = hat3(_I3)


def _cay_inv_upper_deriv(w):
    # the derivative of I - W/2 + w w^T/4 along w_l
    ew = _I3[:, :, None] * w[..., None, None, :]
    return -0.5 * _E + 0.25 * (ew + mt(ew))


def _so3_dcay_inv_deriv(w):
    return _so3_dcay_inv(w), _cay_inv_upper_deriv(w)


def _se3_dcay_inv_deriv(xi):
    # along w_l the lower block -A V / 2 of D moves by E_l V / 4, along v_l by
    # -A E_l / 2; the blocks are written straight into T
    D, A, V = _se3_dcay_inv_parts(xi)
    T = np.zeros(xi.shape[:-1] + (6, 6, 6))
    T[..., :3, :3, :3] = _cay_inv_upper_deriv(xi[..., :3])
    T[..., :3, 3:, :3] = 0.25 * (_E @ V[..., None, :, :])
    T[..., :3, 3:, 3:] = -0.5 * _E
    T[..., 3:, 3:, :3] = -0.5 * (A[..., None, :, :] @ _E)
    return D, T


def _dexp_inv_upper_deriv(w, W, W2, k, dk):
    """F_l, the derivative of F = I - W/2 + k W^2 along w_l, axes (..., l, 3, 3):
    the L form of ``_se3_tangent`` along v = e_l."""
    k, dk = k[..., None, None, None], dk[..., None, None, None]
    return _tangent_lower(W[..., None, :, :], W2[..., None, :, :], _E,
                          w[..., :, None, None], -0.5, k, 0.0, dk)


def _so3_dexp_inv_deriv(w):
    D, th2, th, k, W, W2 = _so3_dexp_inv_parts(w)
    return D, _dexp_inv_upper_deriv(w, W, W2, k, _dexp_inv_dk(th2, th, k))


def _se3_dexp_inv_deriv(xi):
    # D = [[F, 0], [L, F]] with F = I - W/2 + k W^2 and L = -V/2 + k (W V + V W)
    # + s dk W^2, s = w.v.  Along v_l only L moves, by F's derivative along w_l;
    # along w_l, L moves by M_l = k (E_l V + V E_l) + s ddk w_l W^2
    # + dk (w_l (W V + V W) + v_l W^2 + s (E_l W + W E_l)), ddk = (k'/th)'/th
    D, th2, th, k, dk = _se3_dexp_inv_parts(xi)
    w, v = xi[..., :3], xi[..., 3:]
    W = hat3(w)
    W2 = W @ W
    F_l = _dexp_inv_upper_deriv(w, W, W2, k, dk)
    ddk = _dexp_inv_ddk(th2, th, dk)
    s = _dot(w, v)[..., None, None, None]
    k, dk, ddk = (c[..., None, None, None] for c in (k, dk, ddk))
    wl, vl = w[..., :, None, None], v[..., :, None, None]
    W, W2, V = W[..., None, :, :], W2[..., None, :, :], hat3(v)[..., None, :, :]
    WV, EV, EW = W @ V, _E @ V, _E @ W
    M_l = (k * (EV + mt(EV)) + s * ddk * wl * W2
           + dk * (wl * (WV + mt(WV)) + vl * W2 + s * (EW + mt(EW))))
    T = np.zeros(xi.shape[:-1] + (6, 6, 6))
    T[..., :3, :, :] = _se3_blocks(F_l, M_l)
    T[..., 3:, 3:, :3] = F_l
    return D, T


# ---------------------------------------------------------------------------
# derivatives of dtau^-1(xi)^T mu along xi
# ---------------------------------------------------------------------------
# Each kernel returns K[..., i, l] = d (dtau^-1(xi)^T mu)_i / d xi_l, that is
# mu_j T[..., l, j, i] with T of the dtau_inv_deriv kernels, in closed form
# and without forming T.  With W = hat3(w), W^T = -W and W^2 mu = w (w.mu) -
# th^2 mu.

def _outer(a, b):
    return a[..., :, None] * b[..., None, :]


def _scaled_eye(c):
    return np.asarray(c)[..., None, None] * _I3


def _cay_inv_upper_along(w, mu):
    # (I - W/2 + w w^T/4)^T mu = mu + w x mu / 2 + w (w.mu) / 4
    return -0.5 * hat3(mu) + 0.25 * (_scaled_eye(_dot(w, mu)) + _outer(w, mu))


def _se3_dcay_inv_along(xi, mu):
    # D^T mu = ((A + w w^T/4)^T mu_w + V A^T mu_v / 2, A^T mu_v), A = I - W/2,
    # A^T mu_v = mu_v + w x mu_v / 2
    w, v = xi[..., :3], xi[..., 3:]
    mu_w, mu_v = mu[..., :3], mu[..., 3:]
    M = hat3(mu_v)
    out = np.zeros(np.broadcast_shapes(xi.shape, mu.shape)[:-1] + (6, 6))
    out[..., :3, :3] = _cay_inv_upper_along(w, mu_w) - 0.25 * (hat3(v) @ M)
    out[..., :3, 3:] = -0.5 * hat3(mu_v + 0.5 * mv(M, -w))
    out[..., 3:, :3] = -0.5 * M
    return out


def _dexp_inv_upper_along(w, mu, k, dk):
    # F^T mu = mu + w x mu / 2 + k W^2 mu, F = I - W/2 + k W^2, with
    # dk = k'/th the derivative of k along w over w
    a = _dot(w, mu)
    W2mu = np.asarray(a)[..., None] * w - np.asarray(_dot(w, w))[..., None] * mu
    k, dk = np.asarray(k)[..., None, None], np.asarray(dk)[..., None, None]
    return (-0.5 * hat3(mu) + k * (_scaled_eye(a) + _outer(w, mu) - 2.0 * _outer(mu, w))
            + dk * _outer(W2mu, w)), W2mu


def _so3_dexp_inv_along(w, mu):
    th2, small, th = _angle(w)
    k = _dexp_inv_k(th2, small, th)
    return _dexp_inv_upper_along(w, mu, k, _dexp_inv_dk(th2, th, k))[0]


def _se3_dexp_inv_along(xi, mu):
    # D = [[F, 0], [L, F]], and L = v_l dF/dw_l is F's derivative along v, so
    # L^T mu_v = U v with U = d(F^T mu_v)/dw: d/dv of it is U, and d/dw of it
    # is U's derivative along v, M below, from F^T mu_v's terms with a =
    # w.mu_v, s = w.v, c = mu_v.v and ddk = (k'/th)'/th
    w, v = xi[..., :3], xi[..., 3:]
    mu_w, mu_v = mu[..., :3], mu[..., 3:]
    th2, small, th = _angle(w)
    k = _dexp_inv_k(th2, small, th)
    dk = _dexp_inv_dk(th2, th, k)
    ddk = _dexp_inv_ddk(th2, th, dk)
    upper = _dexp_inv_upper_along(w, mu_w, k, dk)[0]
    U, W2mu = _dexp_inv_upper_along(w, mu_v, k, dk)
    a, s, c = _dot(w, mu_v), _dot(w, v), _dot(mu_v, v)
    av, sv, cv = (np.asarray(x)[..., None] for x in (a, s, c))
    k, dk, ddk, sm = (np.asarray(x)[..., None, None] for x in (k, dk, ddk, s))
    M = (dk * (_outer(av * v + cv * w - 2.0 * sv * mu_v, w) + _outer(W2mu, v))
         + k * (_outer(v, mu_v) + _scaled_eye(c) - 2.0 * _outer(mu_v, v))
         + sm * (ddk * _outer(W2mu, w)
                 + dk * (_scaled_eye(a) + _outer(w, mu_v) - 2.0 * _outer(mu_v, w))))
    out = np.zeros(U.shape[:-2] + (6, 6))
    out[..., :3, :3] = upper + M
    out[..., :3, 3:] = U
    out[..., 3:, :3] = U
    return out


# ---------------------------------------------------------------------------
# second derivatives of dtau^-1
# ---------------------------------------------------------------------------
# Each kernel returns T stacked along both derivative indices first,
# T[..., l, m, i, j] = d^2 D_ij / d xi_l d xi_m, as GroupSpec hands it out.
# The SE(3) lower block L is linear in v, and for exp it is the derivative of
# the upper block F along v, so d^2 L / dw_l dv_m = d^2 F / dw_l dw_m.

_DELTA = _I3[:, :, None, None]
# d^2 (w w^T / 4) / dw_l dw_m = (e_l e_m^T + e_m e_l^T) / 4
_OUTER2 = 0.25 * (np.einsum("li,mj->lmij", _I3, _I3)
                  + np.einsum("mi,lj->lmij", _I3, _I3))
_EL, _EM = _E[:, None], _E[None, :]


def _sym(X):
    return X + mt(X)


def _so3_dcay_inv_deriv2(w):
    return np.broadcast_to(_OUTER2, w.shape[:-1] + _OUTER2.shape)


# the SE(3) Cayley second derivative, the same at every xi (read-only): the
# lower block -A V / 2 = -V / 2 + W V / 4 moves by E_l E_m / 4 along (w_l, v_m)
# and (v_m, w_l); A is linear
_SE3_DCAY_INV_DERIV2 = np.zeros((6, 6, 6, 6))
_SE3_DCAY_INV_DERIV2[:3, :3, :3, :3] = _OUTER2
_SE3_DCAY_INV_DERIV2[:3, 3:, 3:, :3] = 0.25 * (_EL @ _EM)
_SE3_DCAY_INV_DERIV2[3:, :3, 3:, :3] = 0.25 * (_EM @ _EL)
_SE3_DCAY_INV_DERIV2.flags.writeable = False


def _se3_dcay_inv_deriv2(xi):
    return np.broadcast_to(_SE3_DCAY_INV_DERIV2, xi.shape[:-1] + _SE3_DCAY_INV_DERIV2.shape)


def _dexp_inv_second(w):
    """(F2, parts): F2 = d^2 F / dw_l dw_m for F = I - W/2 + k W^2, the
    derivative along w_m of F_l in ``_so3_dexp_inv_deriv``, axes (..., l, m,
    3, 3), and the factors ``_se3_dexp_inv_deriv2`` reuses."""
    th2, small, th = _angle(w)
    k = _dexp_inv_k(th2, small, th)
    dk = _dexp_inv_dk(th2, th, k)
    ddk = _dexp_inv_ddk(th2, th, dk)
    dddk = _dexp_inv_dddk(th2, th, ddk)
    k, dk, ddk, dddk = (c[..., None, None, None, None] for c in (k, dk, ddk, dddk))
    W = hat3(w)[..., None, None, :, :]
    W2 = W @ W
    wl, wm = w[..., :, None, None, None], w[..., None, :, None, None]
    ElW, EmW = _sym(_EL @ W), _sym(_EM @ W)
    F2 = (k * _sym(_EL @ _EM) + dk * (wm * ElW + wl * EmW + _DELTA * W2)
          + ddk * wl * wm * W2)
    return F2, (dk, ddk, dddk, W, W2, wl, wm, ElW, EmW)


def _so3_dexp_inv_deriv2(w):
    return _dexp_inv_second(w)[0]


def _se3_dexp_inv_deriv2(xi):
    # D = [[F, 0], [L, F]], L = -V/2 + k (W V + V W) + s dk W^2: along (w_l, w_m)
    # L moves by N_lm, the derivative along w_m of M_l in _se3_dexp_inv_deriv,
    # with dddk = ((k'/th)'/th)'/th
    w, v = xi[..., :3], xi[..., 3:]
    F2, (dk, ddk, dddk, W, W2, wl, wm, ElW, EmW) = _dexp_inv_second(w)
    V = hat3(v)[..., None, None, :, :]
    s = _dot(w, v)[..., None, None, None, None]
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
            return mt(g)
        Rt = mt(g[..., :3, :3])
        return _se3_build(Rt, -mv(Rt, g[..., :3, 3]))

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
        if np.max(np.abs(mt(R) @ R - _I3)) > tol:
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
        """Dual of Ad: <coAd(g, mu), eta> == <mu, Ad(g, eta)>, the row vector
        mu times Ad(g); on SO(3), Ad(g) is g itself."""
        mu = np.asarray(mu, dtype=float)
        A = np.asarray(g, dtype=float) if self.name == "SO3" else self.Ad_matrix(g)
        return (mu[..., None, :] @ A)[..., 0, :]

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
        """(D, T): D = dtau_inv_matrix(xi), bitwise, and T with T[..., l, i, j]
        = d D[..., i, j] / d xi_l, the derivative index first, so
        T[..., l, :, :] is the derivative along e_l.  One kernel call forms
        both from the same coefficients."""
        xi = np.asarray(xi, dtype=float)
        if self.name == "Rn":
            return (_eye_like(xi.shape[:-1], self.dim),
                    np.zeros(xi.shape[:-1] + (self.dim,) * 3))
        if self.retraction == CAYLEY:
            kernel = _so3_dcay_inv_deriv if self.name == "SO3" else _se3_dcay_inv_deriv
        else:
            kernel = _so3_dexp_inv_deriv if self.name == "SO3" else _se3_dexp_inv_deriv
        return kernel(xi)

    def dtau_inv_deriv_along(self, xi, mu):
        """K with K[..., i, l] = d (dtau_inv_matrix(xi)^T mu)_i / d xi_l: the
        T of ``dtau_inv_deriv`` contracted with mu, mu_j T[..., l, j, i], in
        closed form, without forming T.  xi and mu broadcast against each
        other; zero on R^n."""
        xi = np.asarray(xi, dtype=float)
        mu = np.asarray(mu, dtype=float)
        if self.name == "Rn":
            return np.zeros(np.broadcast_shapes(xi.shape, mu.shape) + (self.dim,))
        if self.retraction == CAYLEY:
            kernel = _cay_inv_upper_along if self.name == "SO3" else _se3_dcay_inv_along
        else:
            kernel = _so3_dexp_inv_along if self.name == "SO3" else _se3_dexp_inv_along
        return kernel(xi, mu)

    def dtau_inv_deriv2(self, xi):
        """T with T[..., l, m, i, j] = d^2 dtau_inv_matrix(xi)[..., i, j]
        / d xi_l d xi_m, symmetric in (l, m): the derivative indices first,
        as in the T of ``dtau_inv_deriv``."""
        xi = np.asarray(xi, dtype=float)
        if self.name == "Rn":
            return np.zeros(xi.shape[:-1] + (self.dim,) * 4)
        if self.retraction == CAYLEY:
            kernel = _so3_dcay_inv_deriv2 if self.name == "SO3" else _se3_dcay_inv_deriv2
        else:
            kernel = _so3_dexp_inv_deriv2 if self.name == "SO3" else _se3_dexp_inv_deriv2
        return kernel(xi)


def real_n(n, retraction=CAYLEY):
    return GroupSpec("Rn", n, retraction)


def so3(retraction=CAYLEY):
    return GroupSpec("SO3", 3, retraction)


def se3(retraction=CAYLEY):
    return GroupSpec("SE3", 6, retraction)
