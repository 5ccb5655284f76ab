"""Input validation helpers used at the public API boundaries."""

from __future__ import annotations

import numbers

import numpy as np

from .errors import ConfigError, NotPositiveDefinite, NotRotation

ROTATION_ATOL = 1e-9
# Asymmetry allowed in a matrix that must be symmetric positive-definite
# (check_spd), relative to max(1, ||A||_F).
SPD_SYMMETRY_RTOL = 1e-12


def check_vector3(v, name: str = "v") -> np.ndarray:
    """Return ``v`` as a finite float vector of length 3."""
    arr = np.asarray(v, dtype=float)
    if arr.shape != (3,):
        raise ValueError(f"{name} must have shape (3,), got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    return arr


def check_matrix3(a, name: str = "A") -> np.ndarray:
    arr = np.asarray(a, dtype=float)
    if arr.shape != (3, 3):
        raise ValueError(f"{name} must have shape (3, 3), got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    return arr


def check_rotation(r, name: str = "R") -> np.ndarray:
    """Check membership in SO(3): orthogonal and det = +1, both within
    ``ROTATION_ATOL``."""
    arr = check_matrix3(r, name)
    ortho = np.linalg.norm(arr.T @ arr - np.eye(3))
    if ortho > ROTATION_ATOL:
        raise NotRotation(f"{name} is not orthogonal: ||R^T R - I||_F = {ortho:.3e}")
    det = np.linalg.det(arr)
    if abs(det - 1.0) > ROTATION_ATOL:
        raise NotRotation(f"{name} has det = {det:.12f}, expected 1")
    return arr


def check_spd(a, name: str = "A") -> np.ndarray:
    """Check symmetric positive-definiteness (any square size)."""
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"{name} must be square, got {arr.shape}")
    if np.linalg.norm(arr - arr.T) > SPD_SYMMETRY_RTOL * max(1.0, np.linalg.norm(arr)):
        raise NotPositiveDefinite(f"{name} is not symmetric")
    eigs = np.linalg.eigvalsh(arr)
    if eigs[0] <= 0.0:
        raise NotPositiveDefinite(f"{name} has non-positive eigenvalue {eigs[0]:.3e}")
    return arr


def is_number(value) -> bool:
    """Whether ``value`` is a real number other than a boolean: a JSON
    number, but not a string that spells one, nor ``true`` or ``false``."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def is_numeric_tree(value) -> bool:
    """Whether ``value`` is a number or a (nested) list of numbers, in the
    sense of :func:`is_number`."""
    if isinstance(value, (list, tuple)):
        return all(is_numeric_tree(item) for item in value)
    return is_number(value)


def as_matrix3(value, key: str) -> np.ndarray:
    """Parse a config entry into a symmetric positive-definite 3x3 matrix.

    Accepts a scalar (multiple of the identity), a length-3 sequence
    (diagonal), or a full 3x3 nested list, of numbers; anything else,
    strings and booleans included, raises
    :class:`~so3mpc.errors.ConfigError` naming ``key``.
    """
    message = f"must be a number or a list of numbers, got {value!r}"
    if not is_numeric_tree(value):
        raise ConfigError(key, message)
    try:
        arr = np.asarray(value, dtype=float)
    except ValueError:
        raise ConfigError(key, message) from None
    if arr.shape == ():
        arr = arr * np.eye(3)
    elif arr.shape == (3,):
        arr = np.diag(arr)
    if arr.shape != (3, 3):
        raise ConfigError(key, f"must be a scalar, length-3 list, or 3x3 matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ConfigError(key, "must be finite")
    try:
        return check_spd(arr, "matrix")
    except NotPositiveDefinite as err:
        raise ConfigError(key, str(err)) from None
