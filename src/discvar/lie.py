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

For both, ``GroupSpec.dtau_inv_deriv`` gives the first derivative of dtau^-1
in closed form, together with dtau^-1 itself from one call; the derivative
of dtau follows as -dtau (d dtau^-1) dtau.  ``GroupSpec.dtau_inv_deriv_along``
gives the first derivative of dtau^-1(xi)^T mu alone, the one contraction of
it a momentum needs, and ``GroupSpec.dtau_inv_deriv2_along`` the second
derivative of p^T dtau^-1(xi) e, the one contraction of it a Jacobian
needs, both in closed form without forming a derivative tensor.

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
# below _SMALL_ANGLE each is its Taylor polynomial in th^2, whose first
# omitted term is below 2e-17 of it there.  The closed forms of k'/th,
# (k'/th)'/th and ((k'/th)'/th)'/th cancel much more (they keep only 12, 10
# and 8 digits at th = 0.5, and about 12 from th = 2 on for the last two),
# so below _SERIES_ANGLE each is its Taylor polynomial of 20 terms, through
# th^38, which holds to 3e-16 of it there.

_SMALL_ANGLE = 0.5
_SERIES_ANGLE = 2.0
_B = tuple((-1) ** n / factorial(2 * n + 2) for n in range(8))
_C = tuple((-1) ** n / factorial(2 * n + 3) for n in range(8))
# k's coefficients K_n = |B_{2n+2}| / (2n+2)! through n = 22, each Bernoulli
# number |B_{2n+2}| given as p / q
_K = (1/12, 1/720, 1/30240, 1/1209600, 1/47900160, 691/1307674368000,
      1/74724249600, 3617/10670622842880000) + tuple(
    p / (q * factorial(2 * n + 2)) for n, (p, q) in enumerate((
        (43867, 798), (174611, 330), (854513, 138), (236364091, 2730), (8553103, 6),
        (23749461029, 870), (8615841276005, 14322), (7709321041217, 510),
        (2577687858367, 6), (26315271553053477373, 1919190), (2929993913841559, 6),
        (261082718496449122051, 13530), (1520097643918070802691, 1806),
        (27833269579301024235023, 690), (596451111593912163277961, 282)), start=8))

# the rows are the series of k, of (k'/th, (k'/th)'/th, ((k'/th)'/th)'/th)
# and of (c, b'/th, c'/th), zero padded: as f'/th = 2 df/d(th^2), the j-th
# derivative moves f's n-th coefficient to n - j, times 2^j n! / (n - j)!
_K_SERIES = np.array([_K[:8]])
_DK_SERIES = np.array([[2**j * factorial(n) / factorial(n - j) * _K[n]
                        for n in range(j, j + 20)] for j in (1, 2, 3)])
_DEXP_SERIES = np.array([_C] + [[2 * n * f[n] for n in range(1, 8)] + [0.0] for f in (_B, _C)])
_EXPONENTS = np.arange(20.0)


def _branches(out, x, edge, coeffs, closed):
    """Fill ``out`` (count, len(x)) at the 1-D th^2 = x: below th = edge, one
    product of the powers x^0..x^(terms-1) with the series ``coeffs`` (count,
    terms), above ``closed(th, far)`` at th = sqrt(x[far]).  Each element is
    evaluated in its branch alone and its terms summed by their own dot
    product, so its value does not depend on the rest of x."""
    series = x < edge * edge
    pick = slice(None) if series.all() else series
    out[:, pick] = np.einsum("ki,ji->jk", x[pick, None] ** _EXPONENTS[: coeffs.shape[1]], coeffs)
    if pick is series:
        far = ~series
        out[:, far] = closed(np.sqrt(x[far]), far)


def _dexp_coeffs(th2, count):
    """(b, c, b'/th, c'/th) of dexp at th^2 = th2, the first ``count`` (2 or
    4), each of th2's shape (a scalar for a scalar)."""
    th2 = np.asarray(th2, dtype=float)
    x = th2.reshape(-1)
    out = np.empty((count, x.size))
    # b = (sin(th/2) / (th/2))^2 / 2 keeps its digits at every th
    out[0] = b = 0.5 * np.sinc(np.sqrt(x) / (2.0 * np.pi)) ** 2

    def closed(th, far):
        c, bf = (th - np.sin(th)) / th**3, b[far]
        return (c, (np.sin(th) / th - 2.0 * bf) / th**2, (bf - 3.0 * c) / th**2)[: count - 1]

    _branches(out[1:], x, _SMALL_ANGLE, _DEXP_SERIES[: count - 1], closed)
    return tuple(out.reshape((count,) + th2.shape))


def _dexp_inv_coeffs(th2, count):
    """(k, k'/th, (k'/th)'/th, ((k'/th)'/th)'/th) of dexp^-1 at th^2 = th2,
    the first ``count``, each of th2's shape (a scalar for a scalar): k is
    its series below _SMALL_ANGLE, the others below _SERIES_ANGLE, and k's
    bits do not depend on ``count``."""
    th2 = np.asarray(th2, dtype=float)
    x = th2.reshape(-1)
    out = np.empty((count, x.size))

    def derivatives_closed(th, far):
        sn, cs = np.sin(0.5 * th), np.cos(0.5 * th)
        # k'/th = (r - k) / th^2 with r = 1/(4 sin^2(th/2)) - 1/th^2, then
        # (k'/th)'/th = (r'/th - 3 k'/th) / th^2 and ((k'/th)'/th)'/th =
        # (q'/th - 5 (k'/th)'/th) / th^2 with q = r'/th
        dk = (0.25 / sn**2 - 1.0 / th**2 - out[0, far]) / th**2
        ddk = (2.0 / th**4 - cs / (4.0 * th * sn**3) - 3.0 * dk) / th**2
        dq = (-8.0 / th**6 + cs / (4.0 * th**3 * sn**3)
              + (1.0 / sn**2 + 3.0 * cs**2 / sn**4) / (8.0 * th**2))
        return (dk, ddk, (dq - 5.0 * ddk) / th**2)[: count - 1]

    _branches(out[:1], x, _SMALL_ANGLE, _K_SERIES,
              lambda th, _: (1.0 - 0.5 * th * np.cos(0.5 * th) / np.sin(0.5 * th)) / th**2)
    if count > 1:
        _branches(out[1:], x, _SERIES_ANGLE, _DK_SERIES[: count - 1], derivatives_closed)
    return tuple(out.reshape((count,) + th2.shape))


def _so3_dexp(w):
    w = np.asarray(w, dtype=float)
    b, c = _dexp_coeffs(_dot(w, w), 2)
    W = hat3(w)
    return _I3 + b[..., None, None] * W + c[..., None, None] * (W @ W)


def _so3_dexp_inv_parts(w, count):
    """(J^-1, coefficients, W, W^2): dexp^-1(w), the first ``count`` of
    ``_dexp_inv_coeffs`` and the factors its derivative reuses."""
    w = np.asarray(w, dtype=float)
    coeffs = _dexp_inv_coeffs(_dot(w, w), count)
    W = hat3(w)
    W2 = W @ W
    return _I3 - 0.5 * W + coeffs[0][..., None, None] * W2, coeffs, W, W2


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
    return np.concatenate([w, mv(_so3_dexp_inv_parts(w, 1)[0], g[..., :3, 3])], axis=-1)


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
    w = xi[..., :3]
    return _se3_tangent(xi, *_dexp_coeffs(_dot(w, w), 4))


def _se3_dexp_inv_parts(xi, count):
    """(D, coefficients): dexp^-1(xi) and the first ``count`` (2 or more) of
    ``_dexp_inv_coeffs``, which its derivative reuses."""
    xi = np.asarray(xi, dtype=float)
    w = xi[..., :3]
    coeffs = _dexp_inv_coeffs(_dot(w, w), count)
    return _se3_tangent(xi, -0.5, coeffs[0], 0.0, coeffs[1]), coeffs


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
    D, (k, dk), W, W2 = _so3_dexp_inv_parts(w, 2)
    return D, _dexp_inv_upper_deriv(w, W, W2, k, dk)


def _se3_dexp_inv_deriv(xi):
    # D = [[F, 0], [L, F]] with F = I - W/2 + k W^2 and L = -V/2 + k (W V + V W)
    # + s dk W^2, s = w.v.  Along v_l only L moves, by F's derivative along w_l;
    # along w_l, L moves by M_l = k (E_l V + V E_l) + s ddk w_l W^2
    # + dk (w_l (W V + V W) + v_l W^2 + s (E_l W + W E_l)), ddk = (k'/th)'/th
    D, (k, dk, ddk) = _se3_dexp_inv_parts(xi, 3)
    w, v = xi[..., :3], xi[..., 3:]
    W = hat3(w)
    W2 = W @ W
    F_l = _dexp_inv_upper_deriv(w, W, W2, k, dk)
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
    return _dexp_inv_upper_along(w, mu, *_dexp_inv_coeffs(_dot(w, w), 2))[0]


def _se3_dexp_inv_along(xi, mu):
    # D = [[F, 0], [L, F]], and L = v_l dF/dw_l is F's derivative along v, so
    # L^T mu_v = U v with U = d(F^T mu_v)/dw: d/dv of it is U, and d/dw of it
    # is U's derivative along v, M below, from F^T mu_v's terms with a =
    # w.mu_v, s = w.v, c = mu_v.v and ddk = (k'/th)'/th
    w, v = xi[..., :3], xi[..., 3:]
    mu_w, mu_v = mu[..., :3], mu[..., 3:]
    k, dk, ddk = _dexp_inv_coeffs(_dot(w, w), 3)
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
# second derivatives of p^T dtau^-1(xi) e
# ---------------------------------------------------------------------------
# Each kernel returns H[..., l, m] = d^2 (p^T dtau^-1(xi) e) / d xi_l d xi_m,
# the second derivative of dtau^-1 contracted with the covectors p and e, in
# closed form.  With F = I - W/2 + k W^2, the upper block of dexp^-1,
# a^T F b = a.b - w.(b x a)/2 + k q with q = a^T W^2 b = (a.w)(w.b) - th^2
# (a.b); the gradient of k is dk w, that of dk is ddk w and that of ddk is
# dddk w (dk = k'/th, ddk = (k'/th)'/th, dddk = ((k'/th)'/th)'/th).

def _sym(X):
    return X + mt(X)


def _se3_dcay_inv_hess(xi, p, e):
    # D = [[A + w w^T/4, 0], [-A V/2, A]] with A = I - W/2 linear in w: besides
    # (p_w.w)(w.e_w)/4, p_v^T W V e_w / 4 = ((p_v.v)(w.e_w) - (p_v.e_w)(w.v))/4
    # couples w and v; on SO(3) p^T D e curves only through (p.w)(w.e)/4
    p_w, p_v, e_w = p[..., :3], p[..., 3:], e[..., :3]
    out = np.zeros(xi.shape + (6,))
    out[..., :3, :3] = 0.25 * _sym(_outer(p_w, e_w))
    out[..., :3, 3:] = 0.25 * (_outer(e_w, p_v) - _scaled_eye(_dot(p_v, e_w)))
    out[..., 3:, :3] = mt(out[..., :3, 3:])
    return out


def _dexp_inv_upper_hess(w, th2, k, dk, ddk, a, b):
    """(H, q, grad q, a.b) in w: H the Hessian of a^T F b, sym(k a b^T + dk w
    grad q^T + ddk q w w^T / 2) + (dk q - 2 k a.b) I with sym(X) = X + X^T
    and q = a^T W^2 b; th2 = |w|^2, the coefficients, q and a.b end in an
    axis of one."""
    aw, wb, ab = _dot(a, w)[..., None], _dot(w, b)[..., None], _dot(a, b)[..., None]
    q, g = aw * wb - th2 * ab, wb * a + aw * b - 2.0 * ab * w
    H = _sym(_outer(k * a, b) + _outer(w, dk * g + 0.5 * ddk * q * w))
    return H + _scaled_eye((dk * q - 2.0 * k * ab)[..., 0]), q, g, ab


def _so3_dexp_inv_hess(w, p, e):
    th2 = _dot(w, w)
    coeffs = (c[..., None] for c in _dexp_inv_coeffs(th2, 3))
    return _dexp_inv_upper_hess(w, th2[..., None], *coeffs, p, e)[0]


def _se3_dexp_inv_hess(xi, p, e):
    # D = [[F, 0], [L, F]] with L = v_l dF/dw_l: p^T D e = f(p_w, e_w) +
    # f(p_v, e_v) + v . grad f(p_v, e_w), f(a, b) = a^T F b, the pairs stacked.
    # The ww block holds the first two's Hessians and the third's derivative
    # along v, the wv and vw blocks its Hessian.  With (q, g) of (p_v, e_w),
    # s = w.v, v . grad f = const + dk q s + k r, r = v.g linear in w with
    # gradient rho, and q's Hessian is sym(p_v e_w^T) - 2 (p_v.e_w) I
    w, v = xi[..., :3], xi[..., 3:]
    p_w, p_v, e_w = p[..., :3], p[..., 3:], e[..., :3]
    th2 = _dot(w, w)
    k, dk, ddk, dddk = (c[..., None] for c in _dexp_inv_coeffs(th2, 4))
    S, q, g, ab = _dexp_inv_upper_hess(
        w[..., None, :], th2[..., None, None], k[..., None], dk[..., None], ddk[..., None],
        np.stack([p_w, p_v, p_v], axis=-2), np.stack([e_w, e[..., 3:], e_w], axis=-2))
    q, g, ab = q[..., 2, :], g[..., 2, :], ab[..., 2, :]
    s, r = _dot(w, v)[..., None], _dot(v, g)[..., None]
    rho = _dot(p_v, v)[..., None] * e_w + _dot(e_w, v)[..., None] * p_v - 2.0 * ab * v
    # the Hessians of k r and of dk u, u = q s with gradient s g + q v
    u = q * s
    third = _sym(_outer(w, dk * rho + ddk * (s * g + q * v + 0.5 * r * w) + 0.5 * dddk * u * w)
                 + dk[..., None] * (_outer(g, v) + s[..., None] * _outer(p_v, e_w)))
    out = np.zeros(xi.shape + (6,))
    out[..., :3, :3] = (S[..., 0, :, :] + S[..., 1, :, :] + third
                        + _scaled_eye((dk * (r - 2.0 * s * ab) + ddk * u)[..., 0]))
    out[..., :3, 3:] = out[..., 3:, :3] = S[..., 2, :, :]
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
        if self.name == "SO3":
            return _so3_dexp_inv_parts(xi, 1)[0]
        return _se3_dexp_inv_parts(xi, 2)[0]

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

    def dtau_inv_deriv2_along(self, xi, p, e):
        """H with H[..., l, m] = d^2 (p^T dtau_inv_matrix(xi) e) / d xi_l d xi_m:
        the second derivative of dtau^-1 contracted with the covectors p and
        e, symmetric in (l, m), in closed form, without forming the 4-index
        tensor.  xi, p and e broadcast against each other; zero on R^n."""
        xi, p, e = np.broadcast_arrays(*(np.asarray(x, dtype=float) for x in (xi, p, e)))
        if self.name == "Rn":
            return np.zeros(xi.shape + (self.dim,))
        if self.retraction == CAYLEY:
            return _se3_dcay_inv_hess(xi, p, e) if self.name == "SE3" else 0.25 * _sym(_outer(p, e))
        kernel = _so3_dexp_inv_hess if self.name == "SO3" else _se3_dexp_inv_hess
        return kernel(xi, p, e)


def real_n(n, retraction=CAYLEY):
    return GroupSpec("Rn", n, retraction)


def so3(retraction=CAYLEY):
    return GroupSpec("SO3", 3, retraction)


def se3(retraction=CAYLEY):
    return GroupSpec("SE3", 6, retraction)
