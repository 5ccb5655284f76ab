"""Exception types shared across the package."""

from __future__ import annotations


class So3MpcError(Exception):
    """Base class for all errors raised by this package."""


class NotRotation(So3MpcError):
    """A matrix that must lie in SO(3) violates orthogonality or orientation."""


class NotPositiveDefinite(So3MpcError):
    """A matrix that must be symmetric positive-definite is not."""


class NotStabilizable(So3MpcError):
    """The pair (A, B) fails the controllability/stabilizability requirement."""


class NoConvergence(So3MpcError):
    """An iterative solver exhausted its iteration budget."""


class NotSolvable(So3MpcError):
    """The implicit integrator step has no solution for the given momentum.

    ``step`` identifies the failing step index when raised from a rollout.
    """

    def __init__(self, message: str, step: int | None = None):
        super().__init__(message)
        self.step = step


class RolloutFailure(So3MpcError):
    """A predicted trajectory could not be evaluated."""


class OutOfChart(So3MpcError):
    """A state lies outside the coordinate chart of the local control law."""


class NoFeasibleLevel(So3MpcError):
    """No terminal-set level passes certification, down to the calibration's
    lowest level."""


class DesignFileError(So3MpcError):
    """A terminal design file is not valid JSON, lacks a key or holds a
    malformed entry."""


class ConfigError(So3MpcError):
    """A configuration file entry is missing or invalid; names the offending key."""

    def __init__(self, key: str, message: str):
        super().__init__(f"{key}: {message}")
        self.key = key
