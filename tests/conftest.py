import math
from typing import NamedTuple

import numpy as np
import pytest

from so3mpc.attitude import SpacecraftAttitudeSystem, spinning_state
from so3mpc.errors import NotSolvable
from so3mpc.flat import DoubleIntegratorSystem
from so3mpc.lgvi import (
    SpacecraftState,
    _cayley,
    _implicit_increment,
    _inertia_constants,
    _momentum,
    _step_margin,
    step_with_margin,
)
from so3mpc.so3 import exp_so3, hat, log_so3
from so3mpc.terminal import default_weights, design_terminal

J_REF = np.diag([1.0, 1.2, 1.5])
H_REF = 0.1
TORQUE_BOUND_REF = 100.0


def regulate_start():
    """The benchmark's regulate start: 30 degrees about a fixed axis,
    spinning at 0.02 rad/s."""
    axis = np.array([0.6, -0.4, 0.69282032])
    spin = np.array([0.02, -0.01, 0.015])
    return spinning_state(
        math.radians(30.0) * axis / np.linalg.norm(axis), 0.02 * spin / np.linalg.norm(spin), H_REF
    )


def perturbed(state, delta, h):
    """``state`` moved by ``delta`` in the tangent coordinates of the
    solver's model: g exp(hat(delta[:3])), f exp(h hat(delta[3:]))."""
    return SpacecraftState(state.g @ exp_so3(delta[:3]), state.f @ exp_so3(h * delta[3:]))


def tangent_offset(state, other, h):
    """The tangent coordinates of ``other`` about ``state``, the inverse of
    :func:`perturbed` near it."""
    return np.concatenate([log_so3(state.g.T @ other.g), log_so3(state.f.T @ other.f) / h])


def momentum_vector(state, torque, h, inertia):
    """The vector of the skew momentum M = J f - f^T J + h^2 hat(torque) that
    drives the implicit update, by the step's own formula: for one state, or
    for increments of shape (..., 3, 3) and torques of shape (..., 3)."""
    f, torque = np.asarray(state.f, dtype=float), np.asarray(torque, dtype=float)
    j = np.asarray(inertia, dtype=float).tolist()
    if f.ndim == 2:
        return np.array(_momentum(f.tolist(), torque.tolist(), h * h, j))
    m = _momentum(np.moveaxis(f, (-2, -1), (0, 1)), np.moveaxis(torque, -1, 0), h * h, j)
    return np.stack(m, axis=-1)


def implicit_increment(m, inertia):
    """The scalar kernel's increment at momentum vector ``m``, as an array,
    and its margin: the Cayley map of the vector that
    ``lgvi._implicit_increment`` solves for."""
    x, margin = _implicit_increment(m, _inertia_constants(np.asarray(inertia, dtype=float)))
    return np.array(_cayley(x)), margin


def momentum_matrix(state, torque, h, inertia):
    """Skew matrix J f - f^T J + h^2 hat(torque) driving the implicit update,
    for one state or a stack."""
    return hat(momentum_vector(state, torque, h, inertia))


def implicit_residual(next_state, momentum, inertia):
    """Norm of f_next J - J f_next^T - M; zero when the implicit update holds."""
    inertia = np.asarray(inertia, dtype=float)
    f = next_state.f
    return float(np.linalg.norm(f @ inertia - inertia @ f.T - momentum))


class Solvability(NamedTuple):
    """Result of the implicit-step solvability test."""

    ok: bool
    margin: float


def check_solvability(momentum, inertia) -> Solvability:
    """Whether the implicit step is solvable, plus the eigenvalue margin: the
    LAPACK reference for the step's verdict.

    The step is solvable iff J^2 + M^2/4 is positive semi-definite; ``ok``
    holds exactly when ``step_with_margin`` does not raise
    :class:`~so3mpc.errors.NotSolvable`.  There is no round-off allowance
    below zero.  The margin is always LAPACK's eigenvalue, never the bound
    the step uses above ``MARGIN_CUTOFF``.
    """
    margin = float(_step_margin(momentum, np.asarray(inertia, dtype=float)))
    return Solvability(margin >= 0.0, margin)


def integrator_margins(system, x0, torques):
    """The margin of every step of ``torques`` from ``x0`` as the integrator
    reports it, below the attitude ``system``'s floor as well; ``None`` when
    a step is unsolvable at any floor."""
    x, margins = x0, []
    for u in torques:
        try:
            x, margin = step_with_margin(x, np.asarray(u, dtype=float).tolist(), system.h, system._constants)
        except NotSolvable:
            return None
        margins.append(margin)
    return margins


class BoundedStepIntegrator(DoubleIntegratorSystem):
    """Double integrator whose step is unsolvable for |u| > 1, the way the
    attitude step is unsolvable past the momentum bound."""

    def step(self, x, u):
        if np.max(np.abs(u)) > 1.0:
            raise NotSolvable(f"|u| = {np.max(np.abs(u)):.9f} exceeds 1")
        return super().step(x, u)


def assert_same_tail(a, b):
    """Two rollouts of the solver, or their ``None`` markers of an
    unsolvable step, equal bit for bit: the states they keep, their running
    sum and terminal value, and the sums before each step where they keep
    them."""
    assert (a is None) == (b is None)
    if a is None:
        return
    assert len(a.states) == len(b.states)
    assert all(np.array_equal(np.asarray(x), np.asarray(y)) for x, y in zip(a.states, b.states))
    assert repr(float(a.stage)) == repr(float(b.stage))
    assert repr(a.terminal) == repr(b.terminal)
    assert repr(a.prefixes) == repr(b.prefixes)


@pytest.fixture(scope="session")
def ref_weights():
    return default_weights(J_REF)


@pytest.fixture(scope="session")
def ref_design(ref_weights):
    """Terminal design for the reference configuration; computed once."""
    return design_terminal(
        J_REF, H_REF, ref_weights, torque_bound=TORQUE_BOUND_REF, seed=0
    )


@pytest.fixture(scope="session")
def ref_system(ref_design):
    return SpacecraftAttitudeSystem(ref_design, torque_bound=TORQUE_BOUND_REF)
