"""Input validation at the public API boundaries.

The ``check_*`` functions test the arrays a caller passes.  The ``as_*``
converters read one entry of a configuration or design file parsed from
JSON, or one scalar argument of a library call, and raise ``ValueError``
with the bare reason; each loader names the key in its own error type,
and :func:`as_parameter` the argument, or the field of ``SolverSettings``
and ``MpcConfig``.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .errors import NotPositiveDefinite, NotRotation

ROTATION_ATOL = 1e-9
# Asymmetry allowed in a matrix that must be symmetric positive-definite
# (check_spd), relative to max(1, ||A||_F).
SPD_SYMMETRY_RTOL = 1e-12


def _holds_bool(a) -> bool:
    """Whether ``a``, or an entry of a (nested) list or tuple of it, is a
    boolean or a boolean array."""
    if isinstance(a, (list, tuple)):
        return any(map(_holds_bool, a))
    return isinstance(a, (bool, np.bool_)) or isinstance(a, np.ndarray) and a.dtype.kind == "b"


def _float_array(a, name: str) -> np.ndarray:
    """``a`` as a float array.  An input that is not numbers (a word, also
    one that spells a number, a boolean, an object, a ragged nesting) or
    that overflows a float raises ``ValueError`` naming ``name``, where numpy
    would parse the string, read a boolean as 0 or 1, or raise its own error.
    An array is judged by its dtype alone, unless it holds objects."""
    try:
        arr = np.asarray(a)
        kind = arr.dtype.kind
        if (
            kind in "SUb"
            or kind == "O" and any(isinstance(v, (str, bytes, bool, np.bool_)) for v in arr.flat)
            or not isinstance(a, np.ndarray) and _holds_bool(a)
        ):
            raise TypeError
        return arr.astype(float, copy=False)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{name} must be an array of real numbers, got {type(a).__name__}") from None


def _check_finite(a, shape: tuple, name: str) -> np.ndarray:
    """Return ``a`` as a finite float array of ``shape``."""
    arr = _float_array(a, name)
    if arr.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    return arr


def check_vector3(v, name: str) -> np.ndarray:
    return _check_finite(v, (3,), name)


def check_rotation(r, name: str) -> np.ndarray:
    """Check membership in SO(3): orthogonal and det = +1, both within
    ``ROTATION_ATOL``."""
    arr = _check_finite(r, (3, 3), name)
    ortho = np.linalg.norm(arr.T @ arr - np.eye(3))
    if ortho > ROTATION_ATOL:
        raise NotRotation(f"{name} is not orthogonal: ||R^T R - I||_F = {ortho:.3e}")
    det = np.linalg.det(arr)
    if abs(det - 1.0) > ROTATION_ATOL:
        raise NotRotation(f"{name} has det = {det:.12f}, expected 1")
    return arr


def check_spd(a, name: str) -> np.ndarray:
    """Check symmetric positive-definiteness (any square size).  The
    symmetry check divides by the largest entry when it exceeds 1, so that
    the norms of a matrix with huge entries do not overflow."""
    arr = _float_array(a, name)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"{name} must be square, got {arr.shape}")
    scale = max(1.0, float(np.max(np.abs(arr), initial=0.0)))
    unit = arr / scale
    if np.linalg.norm(unit - unit.T) > SPD_SYMMETRY_RTOL * max(1.0 / scale, np.linalg.norm(unit)):
        raise NotPositiveDefinite(f"{name} is not symmetric")
    eigs = np.linalg.eigvalsh(arr)
    if eigs[0] <= 0.0:
        raise NotPositiveDefinite(f"{name} has non-positive eigenvalue {eigs[0]:.3e}")
    return arr


def check_controls(torques, control_dim: int, name: str) -> np.ndarray:
    """``torques`` as an (n, control_dim) float array, checked before any
    rollout: a wrong shape, or a NaN or infinity, raises ``ValueError``
    naming ``name`` and the first step with a non-finite entry, and so
    does an input that does not convert to numbers."""
    arr = _float_array(torques, name)
    if arr.size == 0:
        return arr.reshape(0, control_dim)
    if arr.ndim == 1 and arr.size % control_dim == 0:
        arr = arr.reshape(-1, control_dim)
    if arr.ndim != 2 or arr.shape[1] != control_dim:
        raise ValueError(f"{name} must have shape (n, {control_dim}), got {arr.shape}")
    finite = np.isfinite(arr).all(axis=1)
    if not finite.all():
        step = int(np.argmin(finite))
        raise ValueError(f"{name} must be finite; step {step} is {arr[step]}")
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


def _as_float(value) -> float:
    """A number in the sense of :func:`is_number` as a float, NaN and
    infinities included; an integer beyond the float range is infinite."""
    if not is_number(value):
        raise ValueError(f"must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def as_number(value) -> float:
    """``value`` as a finite float."""
    number = _as_float(value)
    if not math.isfinite(number):
        raise ValueError(f"must be finite, got {number}")
    return number


def as_positive(value, allow_inf: bool) -> float:
    """``value`` as a positive float, finite unless ``allow_inf``."""
    number = _as_float(value)
    if not (0.0 < number < math.inf or allow_inf and number == math.inf):
        raise ValueError(f"must be positive{'' if allow_inf else ' and finite'}, got {number}")
    return number


def as_fraction(value) -> float:
    """``value`` as a float in (0, 1]."""
    number = _as_float(value)
    if not 0.0 < number <= 1.0:
        raise ValueError(f"must lie in (0, 1], got {number}")
    return number


def as_integer(value, minimum: int) -> int:
    """``value`` as an int of at least ``minimum``: an integer, or a float
    with an integral value."""
    if not is_number(value) or not (isinstance(value, numbers.Integral) or float(value).is_integer()):
        raise ValueError(f"must be an integer, got {value!r}")
    number = int(value)
    if number < minimum:
        raise ValueError(f"must be at least {minimum}, got {number}")
    return number


def as_vector3(value) -> np.ndarray:
    """``value``, a list of three numbers, as a finite float vector."""
    if not is_numeric_tree(value):
        raise ValueError(f"must be a list of three numbers, got {value!r}")
    return check_vector3(value, "vector")


def as_matrix(value, shape: tuple, spd: bool) -> np.ndarray:
    """``value``, a number or nested list of numbers, as a float array of
    ``shape``; with ``spd``, a finite one that :func:`check_spd` passes."""
    message = f"must be a number or a list of numbers, got {value!r}"
    if not is_numeric_tree(value):
        raise ValueError(message)
    try:
        arr = np.asarray(value, dtype=float)
    except (ValueError, OverflowError):
        raise ValueError(message) from None
    if arr.shape != shape:
        raise ValueError(f"must have shape {shape}, got shape {arr.shape}")
    if spd:
        if not np.all(np.isfinite(arr)):
            raise ValueError("must be finite")
        try:
            check_spd(arr, "matrix")
        except NotPositiveDefinite as err:
            raise ValueError(f"must be symmetric positive definite: {err}") from None
    return arr


def as_parameter(name: str, value, convert, *args):
    """``convert(value, *args)`` of the library argument ``name``; a
    ``ValueError`` is raised again with the name in front."""
    try:
        return convert(value, *args)
    except ValueError as err:
        raise ValueError(f"{name} {err}") from None
