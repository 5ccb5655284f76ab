"""Variational integrator for rigid-body attitude on SO(3).

The state is the pair (g, f): the attitude and the one-step attitude
increment, both rotation matrices.  The attitude update is explicit,
``g_next = g @ f``; the increment update is implicit and is resolved by
Newton iteration on the Cayley vector of the increment, a 3-vector, so the
new increment is a rotation by construction.  Both updates keep the state on
the group to round-off, which is what makes long prediction rollouts
trustworthy inside an optimizer.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from .errors import NoConvergence, NotSolvable
from .so3 import _dot, exp_so3, hat, log_so3
from .validation import check_rotation, check_spd

_EYE3 = np.eye(3)

# Newton on the Cayley vector of the increment: the step size at which it
# stops, and the iteration cap (quadratic convergence takes 2-5 iterations
# on the solvable set; the linear convergence at margin zero about 20).
_NEWTON_STEP_TOL = 1e-6
_NEWTON_MAX_ITERS = 50

DEFAULT_INERTIA = np.diag([1.0, 1.2, 1.5])
DEFAULT_STEP_SECONDS = 0.1


class SpacecraftState(NamedTuple):
    """Attitude ``g`` and one-step increment ``f``, both in SO(3)."""

    g: np.ndarray
    f: np.ndarray

    @classmethod
    def identity(cls) -> "SpacecraftState":
        return cls(np.eye(3), np.eye(3))


class Solvability(NamedTuple):
    """Result of the implicit-step solvability test."""

    ok: bool
    margin: float


def check_state(state: SpacecraftState, atol: float = 1e-9) -> SpacecraftState:
    """Validate both rotation components of a state."""
    g = check_rotation(state.g, "g", atol=atol)
    f = check_rotation(state.f, "f", atol=atol)
    return SpacecraftState(g, f)


def momentum_matrix(state: SpacecraftState, torque, h: float, inertia) -> np.ndarray:
    """Skew matrix J f - f^T J + h^2 hat(torque) driving the implicit update.

    Takes a stack of states and torques too: increments of shape
    (..., 3, 3) and torques of shape (..., 3).
    """
    torque = np.asarray(torque, dtype=float)
    inertia = np.asarray(inertia, dtype=float)
    f = state.f
    return inertia @ f - f.swapaxes(-1, -2) @ inertia + (h * h) * hat(torque)


def _step_margin(momentum, inertia: np.ndarray):
    """Smallest eigenvalue of J^2 + M^2/4, for one M or a stack of them:
    the implicit step is solvable iff it is nonnegative."""
    m_half = 0.5 * np.asarray(momentum, dtype=float)
    return np.linalg.eigvalsh(inertia @ inertia + m_half @ m_half)[..., 0]


def check_solvability(momentum, inertia) -> Solvability:
    """Return whether the implicit step is solvable, plus the eigenvalue margin.

    The step is solvable iff J^2 + M^2/4 is positive semi-definite; ``ok``
    holds exactly when :func:`step_with_margin` does not raise
    :class:`~so3mpc.errors.NotSolvable`.  There is no round-off allowance
    below zero.
    """
    margin = float(_step_margin(momentum, np.asarray(inertia, dtype=float)))
    return Solvability(margin >= 0.0, margin)


def _implicit_increment(momentum, inertia: np.ndarray) -> tuple[np.ndarray, float]:
    """The increment F in SO(3) with F J - J F^T = M, and the solvability margin.

    F is the Cayley map of a 3-vector x, I + 2 (hat(x) + hat(x)^2) / (1 + x^T x),
    so it stays on the group by construction.  With m = vee(M) the implicit
    update reads r(x) = (tr J I - J) x - x cross J x - (1 + x^T x) m / 2 = 0,
    solved by Newton from the linearized root (tr J I - J)^{-1} m / 2.  Since
    r is quadratic, the residual after a step dx is exactly
    -dx cross J dx - |dx|^2 m / 2, so stopping once |dx| <= _NEWTON_STEP_TOL
    leaves a residual of order 1e-12, and under quadratic convergence the
    last step is usually far smaller.  On the solvable set the iteration
    converges to the branch with sym(F J) positive semi-definite,
    quadratically for a positive margin and linearly at margin zero.
    """
    margin = float(_step_margin(momentum, inertia))
    if margin < 0.0:
        raise NotSolvable(f"implicit step unsolvable: min eig of J^2 + M^2/4 is {margin:.3e}")
    m = np.array([momentum[2, 1], momentum[0, 2], momentum[1, 0]])
    a = np.trace(inertia) * _EYE3 - inertia
    x = np.linalg.solve(a, 0.5 * m)
    for _ in range(_NEWTON_MAX_ITERS):
        # x cross J x = hat(x) J x; hat(x) J also enters the Jacobian.
        a_x = a - hat(x) @ inertia
        r = a_x @ x - 0.5 * (1.0 + x @ x) * m
        jac = a_x + hat(inertia @ x) - np.outer(m, x)
        dx = np.linalg.solve(jac, -r)
        x = x + dx
        if dx @ dx <= _NEWTON_STEP_TOL**2:
            xh = hat(x)
            return _EYE3 + (2.0 / (1.0 + x @ x)) * (xh + xh @ xh), margin
    raise NoConvergence(
        f"implicit step Newton iteration did not converge in {_NEWTON_MAX_ITERS} iterations"
    )


def _implicit_increments(momentum, inertia) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_implicit_increment` for a stack of momenta, shape (n, 3, 3),
    with one inertia, shape (3, 3), or one per row, shape (n, 3, 3).
    Returns the increments, shape (n, 3, 3), and the margins, shape (n,).

    Every row runs the scalar kernel's iteration from the same start and
    stops after the same test on its own step, so it takes the same number
    of iterations and agrees with the scalar kernel to round-off.  Raises
    :class:`~so3mpc.errors.NotSolvable` naming the first unsolvable row.
    """
    momentum = np.asarray(momentum, dtype=float)
    inertia = np.asarray(inertia, dtype=float)
    margins = _step_margin(momentum, inertia)
    unsolvable = np.flatnonzero(margins < 0.0)
    if unsolvable.size:
        row = int(unsolvable[0])
        raise NotSolvable(
            f"implicit step unsolvable in row {row}: min eig of J^2 + M^2/4 is {margins[row]:.3e}"
        )
    increments = np.empty_like(momentum)
    rows = np.arange(len(momentum))
    per_row = inertia.ndim == 3
    m = np.stack([momentum[:, 2, 1], momentum[:, 0, 2], momentum[:, 1, 0]], axis=-1)
    a = np.trace(inertia, axis1=-2, axis2=-1)[..., None, None] * _EYE3 - inertia
    x = np.linalg.solve(a, 0.5 * m[:, :, None])[:, :, 0]
    for _ in range(_NEWTON_MAX_ITERS):
        a_x = a - hat(x) @ inertia
        r = (a_x @ x[:, :, None])[:, :, 0] - 0.5 * (1.0 + _dot(x, x))[:, None] * m
        jx = (inertia @ x[:, :, None])[:, :, 0]
        jac = a_x + hat(jx) - m[:, :, None] * x[:, None, :]
        dx = np.linalg.solve(jac, -r[:, :, None])[:, :, 0]
        x = x + dx
        done = _dot(dx, dx) <= _NEWTON_STEP_TOL**2
        xh = hat(x[done])
        scale = 2.0 / (1.0 + _dot(x[done], x[done]))
        increments[rows[done]] = _EYE3 + scale[:, None, None] * (xh + xh @ xh)
        going = ~done
        rows, x, m = rows[going], x[going], m[going]
        if per_row:
            inertia, a = inertia[going], a[going]
        if not rows.size:
            return increments, margins
    raise NoConvergence(
        f"implicit step Newton iteration did not converge in {_NEWTON_MAX_ITERS} iterations"
    )


def lgvi_step(state: SpacecraftState, torque, h: float, inertia) -> SpacecraftState:
    """Advance one step: g_next = g f with the current increment, then the
    new increment from the implicit momentum balance."""
    return step_with_margin(state, torque, h, inertia)[0]


def step_with_margin(
    state: SpacecraftState, torque, h: float, inertia
) -> tuple[SpacecraftState, float]:
    """One integrator step plus the solvability margin it consumed.

    The margin is the smallest eigenvalue of J^2 + M^2/4, which the
    optimizer keeps above its floor inside predicted rollouts.
    """
    inertia = np.asarray(inertia, dtype=float)
    m = momentum_matrix(state, torque, h, inertia)
    f_next, margin = _implicit_increment(m, inertia)
    return SpacecraftState(state.g @ state.f, f_next), margin


def rollout(
    state0: SpacecraftState, torques: Sequence, h: float, inertia
) -> list[SpacecraftState]:
    """Roll the integrator over a torque sequence.

    Returns ``len(torques) + 1`` states, the first being ``state0``.
    Raises :class:`~so3mpc.errors.NotSolvable` with the failing step index
    if some step cannot be solved.
    """
    state0 = check_state(state0)
    inertia = check_spd(inertia, "inertia")
    torques = np.asarray(torques, dtype=float)
    if torques.size == 0:
        torques = torques.reshape(0, 3)
    if torques.ndim != 2 or torques.shape[1] != 3:
        raise ValueError(f"torques must have shape (n, 3), got {torques.shape}")
    states = [state0]
    for i, tau in enumerate(torques):
        try:
            states.append(lgvi_step(states[-1], tau, h, inertia))
        except NotSolvable as err:
            raise NotSolvable(f"rollout failed at step {i}: {err}", step=i) from err
    return states


def body_rate(state: SpacecraftState, h: float) -> np.ndarray:
    """Angular velocity vee(log f) / h implied by the increment."""
    return log_so3(state.f) / h


def spatial_momentum(state: SpacecraftState, inertia) -> np.ndarray:
    """Momentum g vee(f J - J f^T), constant along torque-free trajectories."""
    inertia = np.asarray(inertia, dtype=float)
    a = state.f @ inertia - inertia @ state.f.T
    vec = 0.5 * np.array(
        [a[2, 1] - a[1, 2], a[0, 2] - a[2, 0], a[1, 0] - a[0, 1]]
    )
    return state.g @ vec


def implicit_residual(next_state: SpacecraftState, momentum, inertia) -> float:
    """Norm of f_next J - J f_next^T - M; zero when the implicit update holds."""
    inertia = np.asarray(inertia, dtype=float)
    f = next_state.f
    return float(np.linalg.norm(f @ inertia - inertia @ f.T - momentum))


def random_spin_state(rng: np.random.Generator, rate_scale: float, h: float) -> SpacecraftState:
    """A random attitude with a random spin; used by conservation checks."""
    axis_angle = rng.uniform(-np.pi, np.pi) * _unit(rng.standard_normal(3))
    rate = rate_scale * rng.standard_normal(3)
    return SpacecraftState(exp_so3(axis_angle), exp_so3(h * rate))


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


def free_momentum_drift(states: Sequence[SpacecraftState], inertia) -> float:
    """Worst relative drift of the spatial momentum along a trajectory."""
    reference = spatial_momentum(states[0], inertia)
    scale = max(float(np.linalg.norm(reference)), 1e-12)
    worst = 0.0
    for state in states:
        gap = float(np.linalg.norm(spatial_momentum(state, inertia) - reference))
        worst = max(worst, gap / scale)
    return worst


def orthogonality_drift(states: Sequence[SpacecraftState]) -> float:
    """Worst Frobenius drift of g^T g and f^T f from the identity."""
    worst = 0.0
    for g, f in states:
        worst = max(
            worst,
            float(np.linalg.norm(g.T @ g - _EYE3)),
            float(np.linalg.norm(f.T @ f - _EYE3)),
        )
    return worst


__all__ = [
    "SpacecraftState",
    "Solvability",
    "DEFAULT_INERTIA",
    "DEFAULT_STEP_SECONDS",
    "check_state",
    "momentum_matrix",
    "check_solvability",
    "lgvi_step",
    "step_with_margin",
    "rollout",
    "body_rate",
    "spatial_momentum",
    "implicit_residual",
    "random_spin_state",
    "free_momentum_drift",
    "orthogonality_drift",
]
