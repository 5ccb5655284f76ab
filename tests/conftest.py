from typing import NamedTuple

import numpy as np
import pytest

from so3mpc.attitude import SpacecraftAttitudeSystem
from so3mpc.errors import NotSolvable
from so3mpc.flat import DoubleIntegratorSystem
from so3mpc.lgvi import _momentum_vector, _step_margin
from so3mpc.so3 import hat
from so3mpc.terminal import default_weights, design_terminal

J_REF = np.diag([1.0, 1.2, 1.5])
H_REF = 0.1
TORQUE_BOUND_REF = 100.0


def momentum_matrix(state, torque, h, inertia):
    """Skew matrix J f - f^T J + h^2 hat(torque) driving the implicit update,
    for one state or a stack."""
    return hat(_momentum_vector(state, torque, h, inertia))


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


class BoundedStepIntegrator(DoubleIntegratorSystem):
    """Double integrator whose step is unsolvable for |u| > 1, the way the
    attitude step is unsolvable past the momentum bound."""

    def step(self, x, u):
        if np.max(np.abs(u)) > 1.0:
            raise NotSolvable(f"|u| = {np.max(np.abs(u)):.9f} exceeds 1")
        return super().step(x, u)


def assert_same_tail(a, b):
    """Two rollouts of the solver, or their ``None`` markers of an
    unsolvable step, equal bit for bit."""
    assert (a is None) == (b is None)
    if a is None:
        return
    assert len(a.states) == len(b.states)
    assert all(np.array_equal(np.asarray(x), np.asarray(y)) for x, y in zip(a.states, b.states))
    assert np.array_equal(a.stage, b.stage)
    assert (a.shortfalls is None) == (b.shortfalls is None)
    if a.shortfalls is not None:
        assert np.array_equal(a.shortfalls, b.shortfalls)
    assert repr(a.terminal) == repr(b.terminal)


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
