"""Primitives for the rotation group SO(3) and its Lie algebra so(3).

All maps are numerically exact to machine precision over the whole group,
including the 180-degree rotations where the principal matrix logarithm is
discontinuous.  The tie-break there is deterministic: the axis component of
largest magnitude is made nonnegative, so downstream consumers see a
reproducible branch choice.
"""

from __future__ import annotations

import math

import numpy as np

SMALL_ANGLE = 1e-8
# Width of the band around 180 degrees where the axis is recovered from the
# symmetric part of R instead of the (vanishing) antisymmetric part.  Outside
# the band the axis error grows like eps / sin(theta): at this width the
# round trip exp(log R) stays within 1e-12 of R (a 1e-4 band let it reach
# 2e-12 just outside).
NEAR_PI = 1e-3
# Below this, the antisymmetric part is too small to orient the axis and the
# tie-break stands.  Any flip this close to the cut perturbs the reconstructed
# rotation by at most ~3e-13, far inside round-trip tolerances.
_SIGN_FLOOR = 1e-13

# Below this angle the inverse right Jacobian takes the series of its
# coefficient, which the closed form loses to cancellation (its error there
# is about 1e-16 / theta^2).
_JACOBIAN_SERIES_ANGLE = 1e-2

_EYE3 = np.eye(3)


def hat(v) -> np.ndarray:
    """Map a 3-vector to the skew matrix satisfying ``hat(v) @ b == cross(v, b)``.

    A stack of vectors, shape (..., 3), maps to the stack of their skew
    matrices, each equal to ``hat`` of its row bit for bit.
    """
    v = np.asarray(v, dtype=float)
    out = np.zeros(v.shape + (3,))
    out[..., 0, 1] = -v[..., 2]
    out[..., 0, 2] = v[..., 1]
    out[..., 1, 0] = v[..., 2]
    out[..., 1, 2] = -v[..., 0]
    out[..., 2, 0] = -v[..., 1]
    out[..., 2, 1] = v[..., 0]
    return out


def exp_so3(v) -> np.ndarray:
    """Rodrigues form of the matrix exponential of ``hat(v)``.

    Switches to series coefficients below ``SMALL_ANGLE`` to avoid 0/0.
    """
    v = np.asarray(v, dtype=float).reshape(3)
    theta = float(np.linalg.norm(v))
    k = hat(v)
    k2 = k @ k
    if theta < SMALL_ANGLE:
        a = 1.0 - theta**2 / 6.0 + theta**4 / 120.0
        b = 0.5 - theta**2 / 24.0 + theta**4 / 720.0
    else:
        a = np.sin(theta) / theta
        b = (1.0 - np.cos(theta)) / theta**2
    return _EYE3 + a * k + b * k2


def exp_so3_rows(v) -> np.ndarray:
    """:func:`exp_so3` of every row of ``v``: shape (n, 3) to (n, 3, 3).

    Writes R = I + a hat(v) + b (v v^T - |v|^2 I) entry by entry from the
    components of v, with the diagonal of hat(v)^2 as -(v_j^2 + v_k^2), as
    the product gives it.  Agrees with ``exp_so3`` row by row to round-off,
    not bit for bit: the sums of products round differently from a matrix
    product, and the series takes |v|^2 where ``exp_so3`` takes Python's
    ``pow``.  ``exp_so3`` stays the reference and builds every closed
    loop's initial state.
    """
    v0, v1, v2 = np.asarray(v, dtype=float).T
    sq = v0 * v0 + v1 * v1 + v2 * v2
    theta = np.sqrt(sq)
    small = theta < SMALL_ANGLE
    # A nonzero stand-in keeps the closed form free of 0/0 on the rows that
    # then take the series.
    t = np.where(small, 1.0, theta)
    a = np.sin(t) / t
    b = (1.0 - np.cos(t)) / (t * t)
    if small.any():
        s = sq[small]
        a[small] = 1.0 - s / 6.0 + s * s / 120.0
        b[small] = 0.5 - s / 24.0 + s * s / 720.0
    a0, a1, a2 = a * v0, a * v1, a * v2
    b0, b1, b2 = b * v0, b * v1, b * v2
    out = np.empty((len(sq), 3, 3))
    out[:, 0, 0] = 1.0 - (b1 * v1 + b2 * v2)
    out[:, 1, 1] = 1.0 - (b0 * v0 + b2 * v2)
    out[:, 2, 2] = 1.0 - (b0 * v0 + b1 * v1)
    out[:, 0, 1] = b0 * v1 - a2
    out[:, 1, 0] = b0 * v1 + a2
    out[:, 0, 2] = b0 * v2 + a1
    out[:, 2, 0] = b0 * v2 - a1
    out[:, 1, 2] = b1 * v2 - a0
    out[:, 2, 1] = b1 * v2 + a0
    return out


def inverse_right_jacobian(v) -> np.ndarray:
    """Derivative of ``log_so3(exp_so3(v) @ exp_so3(e))`` in ``e`` at zero,
    I + hat(v) / 2 + c hat(v)^2 with c = (1 - (theta/2) cot(theta/2)) / theta^2
    at theta = |v|, and hat(v)^2 = v v^T - theta^2 I.  The cotangent form
    stays finite up to theta = pi, where c = 1 / pi^2; below
    ``_JACOBIAN_SERIES_ANGLE`` c is its series
    1/12 + theta^2/720 + theta^4/30240."""
    v0, v1, v2 = np.asarray(v, dtype=float).reshape(3).tolist()
    sq = v0 * v0 + v1 * v1 + v2 * v2
    theta = math.sqrt(sq)
    if theta < _JACOBIAN_SERIES_ANGLE:
        c = 1.0 / 12.0 + sq / 720.0 + sq * sq / 30240.0
    else:
        half = 0.5 * theta
        c = (1.0 - half * math.cos(half) / math.sin(half)) / sq
    d = 1.0 - c * sq
    return np.array([
        [d + c * v0 * v0, c * v0 * v1 - 0.5 * v2, c * v0 * v2 + 0.5 * v1],
        [c * v1 * v0 + 0.5 * v2, d + c * v1 * v1, c * v1 * v2 - 0.5 * v0],
        [c * v2 * v0 - 0.5 * v1, c * v2 * v1 + 0.5 * v0, d + c * v2 * v2],
    ])


def _log_terms(r):
    """The vector s of the antisymmetric part of R, |s|^2 and (tr R - 1) / 2,
    from the rows of entries of R: on SO(3), s = sin(theta) * axis and the
    last is cos(theta).

    Every entry is a Python float (one matrix) or an array with one element
    per matrix (a stack).  Only elementwise + - * / appear, which round alike
    on both, so a stack gives each matrix's values bit for bit.
    """
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = r
    s0 = 0.5 * (r21 - r12)
    s1 = 0.5 * (r02 - r20)
    s2 = 0.5 * (r10 - r01)
    return (s0, s1, s2), s0 * s0 + s1 * s1 + s2 * s2, (r00 + r11 + r22 - 1.0) / 2.0


def log_so3(r) -> np.ndarray:
    """Principal branch of the matrix logarithm, returned as a rotation vector.

    The result satisfies ``norm(log_so3(R)) <= pi`` up to the rounding of
    the norm (at the cut it can come out an ulp or two above).  At the
    branch cut (trace = -1) the axis sign is ambiguous; the representative
    whose largest-magnitude component is nonnegative is returned.

    Away from the cut the angle and the vector come from the entries of R
    in Python floats (:func:`_log_terms`); the angle is numpy's ``arctan2``,
    which :func:`log_so3_rows` applies to arrays, because ``math.atan2`` can
    differ from it in the last bit.

    Args:
        r: Rotation matrix, shape (3, 3).

    Returns:
        Rotation vector of length <= pi.
    """
    r = np.asarray(r, dtype=float)
    s, sin_sq, cos_theta = _log_terms(r.tolist())
    sin_theta = math.sqrt(sin_sq)
    cos_theta = min(max(cos_theta, -1.0), 1.0)
    theta = float(np.arctan2(sin_theta, cos_theta))

    if theta < SMALL_ANGLE:
        return np.array(s)

    if np.pi - theta < NEAR_PI:
        # Quadratic-term recovery: the symmetric part of R equals
        # cos(theta) I + (1 - cos(theta)) n n^T exactly, and 1 - cos(theta)
        # is ~2 here, so the outer product is well conditioned.
        sym = 0.5 * (r + r.T)
        outer = (sym - cos_theta * _EYE3) / (1.0 - cos_theta)
        idx = int(np.argmax(np.diag(outer)))
        col = outer[:, idx].copy()
        col[idx] = max(col[idx], 0.0)
        axis = col / np.linalg.norm(col)
        if sin_theta >= _SIGN_FLOOR and float(axis @ np.array(s)) < 0.0:
            axis = -axis
        return theta * axis

    return np.array(_log_regular(s, sin_theta, theta))


def _log_regular(s, sin_theta: float, theta: float) -> tuple:
    """The rotation vector theta / sin(theta) * s of :func:`log_so3` away
    from both ends of the angle range, as three floats."""
    scale = theta / sin_theta
    s0, s1, s2 = s
    return scale * s0, scale * s1, scale * s2


def _log_so3_pair(r1, r2) -> tuple:
    """``log_so3`` of two rotation matrices, given as rows of entries, as two
    sequences of three floats, equal to it bit for bit, in one pass: both
    :func:`_log_terms` and one ``arctan2`` over the two angles (which rounds
    as the single calls do).  An angle below ``SMALL_ANGLE`` or within
    ``NEAR_PI`` of the cut is passed to ``log_so3`` itself."""
    s1, sin_sq1, cos1 = _log_terms(r1)
    s2, sin_sq2, cos2 = _log_terms(r2)
    sin1, sin2 = math.sqrt(sin_sq1), math.sqrt(sin_sq2)
    theta1, theta2 = np.arctan2(
        (sin1, sin2), (min(max(cos1, -1.0), 1.0), min(max(cos2, -1.0), 1.0))
    ).tolist()
    if theta1 < SMALL_ANGLE or np.pi - theta1 < NEAR_PI:
        v1 = log_so3(np.array(r1)).tolist()
    else:
        v1 = _log_regular(s1, sin1, theta1)
    if theta2 < SMALL_ANGLE or np.pi - theta2 < NEAR_PI:
        v2 = log_so3(np.array(r2)).tolist()
    else:
        v2 = _log_regular(s2, sin2, theta2)
    return v1, v2


def log_so3_rows(r) -> np.ndarray:
    """:func:`log_so3` of every matrix of ``r``: shape (n, 3, 3) to (n, 3).

    Equal to ``log_so3`` row by row, bit for bit: the same
    :func:`_log_terms` on arrays of entries, and the same ``sqrt``, clip and
    ``arctan2``, which round alike on floats and arrays.  Rows within
    ``NEAR_PI`` of the branch cut are passed to ``log_so3`` itself, so the
    axis recovery and the tie-break at the cut have one implementation.
    """
    r = np.asarray(r, dtype=float)
    (s0, s1, s2), sin_sq, cos_theta = _log_terms(r.transpose(1, 2, 0))
    sin_theta = np.sqrt(sin_sq)
    theta = np.arctan2(sin_theta, np.clip(cos_theta, -1.0, 1.0))
    near_pi = np.pi - theta < NEAR_PI
    regular = ~near_pi & ~(theta < SMALL_ANGLE)
    # Small angles keep s itself: a scale of one.
    scale = np.divide(theta, sin_theta, out=np.ones_like(theta), where=regular)
    out = np.stack([scale * s0, scale * s1, scale * s2], axis=-1)
    for i in np.flatnonzero(near_pi):
        out[i] = log_so3(r[i])
    return out


def geodesic_distance(r1, r2) -> float:
    """Angular distance ``norm(log(R1^T R2))`` in [0, pi]; bi-invariant."""
    r1 = np.asarray(r1, dtype=float)
    r2 = np.asarray(r2, dtype=float)
    return float(np.linalg.norm(log_so3(r1.T @ r2)))

