"""Variational integrator for rigid-body attitude on SO(3).

The state is the pair (g, f): the attitude and the one-step attitude
increment, both rotation matrices.  The attitude update is explicit,
``g_next = g @ f``; the increment update is implicit and is resolved through
a small symmetric matrix Riccati equation solved by Newton iteration.  Both
updates keep the state on the group to round-off, which is what makes long
prediction rollouts trustworthy inside an optimizer.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from .errors import NoConvergence, NotSolvable
from .so3 import exp_so3, hat, log_so3, project_so3
from .validation import check_rotation, check_spd

_EYE3 = np.eye(3)

#: Re-orthonormalize the increment only when its drift exceeds this.
ORTHO_DRIFT_TOL = 1e-12

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
    """Skew matrix J f - f^T J + h^2 hat(torque) driving the implicit update."""
    torque = np.asarray(torque, dtype=float).reshape(3)
    inertia = np.asarray(inertia, dtype=float)
    f = state.f
    return inertia @ f - f.T @ inertia + (h * h) * hat(torque)


def check_solvability(momentum, inertia) -> Solvability:
    """Return whether the implicit step is solvable, plus the eigenvalue margin.

    ``ok`` holds exactly when :func:`solve_step_riccati` does not raise
    :class:`~so3mpc.errors.NotSolvable`.
    """
    return _step_spectrum(momentum, inertia)[-1]


def _step_spectrum(momentum, inertia):
    """M/2, the matrix J^2 + M^2/4 with its eigendecomposition, and the
    solvability verdict: the step is solvable iff J^2 + M^2/4 is positive
    semi-definite.

    There is no round-off allowance below zero: just below it the Newton
    start can make the Sylvester system singular, which fails untyped.
    """
    m_half = 0.5 * np.asarray(momentum, dtype=float)
    inertia = np.asarray(inertia, dtype=float)
    target = inertia @ inertia + m_half @ m_half
    evals, evecs = np.linalg.eigh(target)
    margin = float(evals[0])
    return m_half, target, evals, evecs, Solvability(margin >= 0.0, margin)


def _solve_increment(momentum, inertia, tol: float, max_iters: int):
    """Solution S of the step Riccati equation, M/2, and the solvability margin."""
    m_half, target, evals, evecs, solvability = _step_spectrum(momentum, inertia)
    if not solvability.ok:
        raise NotSolvable(
            f"implicit step unsolvable: min eig of J^2 + M^2/4 is {solvability.margin:.3e}"
        )
    s = _riccati_newton(m_half, target, evals, evecs, tol, max_iters)
    return s, m_half, solvability.margin


def riccati_residual(s, momentum, inertia) -> float:
    """Frobenius norm of (M/2) S - S (M/2) - S^2 + J^2 + M^2/4."""
    s = np.asarray(s, dtype=float)
    m_half, target = _step_spectrum(momentum, inertia)[:2]
    return float(np.linalg.norm(m_half @ s - s @ m_half - s @ s + target))


def solve_step_riccati(momentum, inertia, tol: float = 1e-12, max_iters: int = 100) -> np.ndarray:
    """Solve the quadratic matrix equation of the implicit increment update.

    Newton iteration on G(S) = S^2 + S(M/2) - (M/2)S - J^2 - M^2/4, started
    from the positive square root of J^2 + M^2/4.  Each step solves the 3x3
    Sylvester equation (S - M/2) D + D (S + M/2) = -G(S), assembled as a
    dense 9x9 linear system; the iteration preserves symmetry and converges
    quadratically.

    Returns the symmetric positive semi-definite solution S.

    Raises:
        NotSolvable: if J^2 + M^2/4 has a negative eigenvalue.
        NoConvergence: if the residual does not reach ``tol`` in ``max_iters``.
    """
    return _solve_increment(momentum, inertia, tol, max_iters)[0]


def _riccati_newton(
    m_half: np.ndarray,
    target: np.ndarray,
    evals: np.ndarray,
    evecs: np.ndarray,
    tol: float,
    max_iters: int,
) -> np.ndarray:
    s = (evecs * np.sqrt(np.clip(evals, 0.0, None))) @ evecs.T
    kmat = np.zeros((9, 9))
    blocks = kmat.reshape(3, 3, 3, 3)
    sqrt_tol = np.sqrt(tol)
    for _ in range(max_iters):
        gap = s @ s + s @ m_half - m_half @ s - target
        if np.sqrt((gap * gap).sum()) <= tol:
            return 0.5 * (s + s.T)
        a = s - m_half
        bt = (s + m_half).T
        # Row-major vec: vec(A X + X B) = (kron(A, I) + kron(I, B^T)) vec(X),
        # assembled in place instead of through np.kron.
        blocks[...] = 0.0
        for r in range(3):
            blocks[:, r, :, r] = a
        for r in range(3):
            blocks[r, :, r, :] += bt
        delta = np.linalg.solve(kmat, -gap.reshape(9)).reshape(3, 3)
        s = s + delta
        s = 0.5 * (s + s.T)
        # The Newton remainder is exactly delta @ delta, so once
        # ||delta||_F <= sqrt(tol) the updated residual is already <= tol.
        if np.sqrt((delta * delta).sum()) <= sqrt_tol:
            return s
    raise NoConvergence(
        f"step Riccati Newton iteration did not reach {tol:.1e} in {max_iters} iterations"
    )


def lgvi_step(state: SpacecraftState, torque, h: float, inertia) -> SpacecraftState:
    """Advance one step: g_next = g f with the current increment, then the
    new increment from the implicit momentum balance."""
    return step_with_margin(state, torque, h, inertia)[0]


def step_with_margin(
    state: SpacecraftState, torque, h: float, inertia
) -> tuple[SpacecraftState, float]:
    """One integrator step plus the solvability margin it consumed.

    The margin is the smallest eigenvalue of J^2 + M^2/4; sharing its
    eigendecomposition with the Riccati solve keeps the optimizer's rollout
    loop cheap.
    """
    inertia = np.asarray(inertia, dtype=float)
    m = momentum_matrix(state, torque, h, inertia)
    s, m_half, margin = _solve_increment(m, inertia, 1e-12, 100)
    # f_next = (M/2 + S) J^{-1}, via a solve since J is symmetric.
    f_next = np.linalg.solve(inertia, (m_half + s).T).T
    drift = np.linalg.norm(f_next.T @ f_next - _EYE3)
    if drift > ORTHO_DRIFT_TOL:
        f_next = project_so3(f_next)
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
    "riccati_residual",
    "solve_step_riccati",
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
