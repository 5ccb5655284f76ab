"""Primitives for the rotation group SO(3) and its Lie algebra so(3).

All maps are numerically exact to machine precision over the whole group,
including the 180-degree rotations where the principal matrix logarithm is
discontinuous.  The tie-break there is deterministic: the axis component of
largest magnitude is made nonnegative (or nonpositive when ``cut_sign`` is
negative), so downstream consumers see a reproducible branch choice.
"""

from __future__ import annotations

import numpy as np

from .validation import check_skew

SMALL_ANGLE = 1e-8
# Width of the band around 180 degrees where the axis is recovered from the
# symmetric part of R instead of the (vanishing) antisymmetric part.  Outside
# the band the axis error grows like eps / sin(theta): at this width the
# round trip exp(log R) stays within 1e-12 of R (a 1e-4 band let it reach
# 2e-12 just outside).
NEAR_PI = 1e-3
# Below this, the antisymmetric part is too small to orient the axis and the
# sign convention takes over.  Any flip this close to the cut perturbs the
# reconstructed rotation by at most ~3e-13, far inside round-trip tolerances.
_SIGN_FLOOR = 1e-13

_EYE3 = np.eye(3)


def hat(v) -> np.ndarray:
    """Map a 3-vector to the skew matrix satisfying ``hat(v) @ b == cross(v, b)``.

    A stack of vectors, shape (..., 3), maps to the stack of their skew
    matrices, each equal to ``hat`` of its row bit for bit.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim > 1:
        out = np.zeros(v.shape + (3,))
        out[..., 0, 1] = -v[..., 2]
        out[..., 0, 2] = v[..., 1]
        out[..., 1, 0] = v[..., 2]
        out[..., 1, 2] = -v[..., 0]
        out[..., 2, 0] = -v[..., 1]
        out[..., 2, 1] = v[..., 0]
        return out
    v = v.reshape(3)
    return np.array(
        [
            [0.0, -v[2], v[1]],
            [v[2], 0.0, -v[0]],
            [-v[1], v[0], 0.0],
        ]
    )


def vee(s, atol: float = 1e-12) -> np.ndarray:
    """Inverse of :func:`hat`.

    Raises :class:`~so3mpc.errors.NotSkewSymmetric` if ``s`` is not
    skew-symmetric within ``atol``.
    """
    s = check_skew(s, "S", atol=atol)
    return np.array([s[2, 1], s[0, 2], s[1, 0]])


def _antisym_vector(r: np.ndarray) -> np.ndarray:
    """Vector of the antisymmetric part of ``r``; equals sin(theta) * axis on SO(3)."""
    return 0.5 * np.array(
        [r[2, 1] - r[1, 2], r[0, 2] - r[2, 0], r[1, 0] - r[0, 1]]
    )


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


def _dot(a: np.ndarray, b: np.ndarray):
    """Dot product along the last axis, one per row for stacks.

    Every row is a BLAS dot, as ``a @ b`` and ``np.linalg.norm`` take it for
    single vectors, so a row's result equals the single-vector one bit for
    bit.  Single vectors keep the plain ``a @ b`` and give a Python float,
    which is faster to compute with.
    """
    if a.ndim == 1:
        return float(a @ b)
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def exp_so3_rows(v) -> np.ndarray:
    """:func:`exp_so3` of every row of ``v``: shape (n, 3) to (n, 3, 3).

    Agrees with ``exp_so3`` row by row to round-off, not bit for bit: the
    squares here are products, not Python's ``pow``.  ``exp_so3`` stays the
    reference and builds every closed loop's initial state.
    """
    v = np.asarray(v, dtype=float)
    theta = np.linalg.norm(v, axis=-1)
    k = hat(v)
    small = theta < SMALL_ANGLE
    # A nonzero stand-in keeps the unused closed form free of 0/0.
    t = np.where(small, 1.0, theta)
    a = np.where(small, 1.0 - theta**2 / 6.0 + theta**4 / 120.0, np.sin(t) / t)
    b = np.where(small, 0.5 - theta**2 / 24.0 + theta**4 / 720.0, (1.0 - np.cos(t)) / t**2)
    return _EYE3 + a[:, None, None] * k + b[:, None, None] * (k @ k)


def log_so3(r, cut_sign: float = 1.0) -> np.ndarray:
    """Principal branch of the matrix logarithm, returned as a rotation vector.

    The result satisfies ``norm(log_so3(R)) <= pi`` up to the rounding of
    the norm (at the cut it can come out an ulp or two above).  At the
    branch cut (trace = -1) the axis sign is ambiguous; ``cut_sign=+1``
    selects the representative whose largest-magnitude component is
    nonnegative.

    Args:
        r: Rotation matrix, shape (3, 3).
        cut_sign: Orientation of the tie-break at the branch cut (+1 or -1).

    Returns:
        Rotation vector of length <= pi.
    """
    r = np.asarray(r, dtype=float)
    s = _antisym_vector(r)
    sin_theta = float(np.linalg.norm(s))
    cos_theta = float(np.clip((np.trace(r) - 1.0) / 2.0, -1.0, 1.0))
    theta = float(np.arctan2(sin_theta, cos_theta))

    if theta < SMALL_ANGLE:
        return s

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
        if sin_theta >= _SIGN_FLOOR:
            if float(axis @ s) < 0.0:
                axis = -axis
        elif cut_sign < 0.0:
            axis = -axis
        return theta * axis

    return (theta / sin_theta) * s


def log_so3_rows(r, cut_sign: float = 1.0) -> np.ndarray:
    """:func:`log_so3` of every matrix of ``r``: shape (n, 3, 3) to (n, 3).

    Equal to ``log_so3`` row by row, bit for bit.  Rows within ``NEAR_PI``
    of the branch cut are passed to ``log_so3`` itself, so the axis
    recovery and the tie-break at the cut have one implementation.
    """
    r = np.asarray(r, dtype=float)
    s = 0.5 * np.stack(
        [r[:, 2, 1] - r[:, 1, 2], r[:, 0, 2] - r[:, 2, 0], r[:, 1, 0] - r[:, 0, 1]], axis=-1
    )
    sin_theta = np.sqrt(_dot(s, s))
    cos_theta = np.clip((np.trace(r, axis1=1, axis2=2) - 1.0) / 2.0, -1.0, 1.0)
    theta = np.arctan2(sin_theta, cos_theta)
    out = s.copy()
    near_pi = np.pi - theta < NEAR_PI
    regular = ~near_pi & (theta >= SMALL_ANGLE)
    out[regular] = (theta[regular] / sin_theta[regular])[:, None] * s[regular]
    for i in np.flatnonzero(near_pi):
        out[i] = log_so3(r[i], cut_sign=cut_sign)
    return out


def geodesic_distance(r1, r2) -> float:
    """Angular distance ``norm(log(R1^T R2))`` in [0, pi]; bi-invariant."""
    r1 = np.asarray(r1, dtype=float)
    r2 = np.asarray(r2, dtype=float)
    return float(np.linalg.norm(log_so3(r1.T @ r2)))

