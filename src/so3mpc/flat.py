"""Flat-space double integrator used to validate the generic layer.

The system is linear-quadratic, so the receding-horizon solution with the
Riccati terminal cost has a known closed form: the optimal value equals
``x0 @ P @ x0`` and the first control equals ``-K @ x0`` whenever no
constraint is active.  Running it through the same shooting solver as the
attitude problem checks the generic layer against that classical answer.
"""

from __future__ import annotations

import numpy as np

from .mpc import ManifoldSystem, QuadraticModel
from .terminal import Linearization, QuadraticCostData, lqr_gain, solve_dare


class DoubleIntegratorSystem(ManifoldSystem):
    """Scalar position and velocity driven by a force input, stepped every
    0.1 s, with stage cost x^T diag(1, 0.5) x + 0.1 u^2."""

    control_dim = 1

    def __init__(self, terminal_level: float = 1e6, control_bound: float = np.inf):
        self.h = 0.1
        self.A = np.array([[1.0, self.h], [0.0, 1.0]])
        self.B = np.array([[0.0], [self.h]])
        self.Q = np.diag([1.0, 0.5])
        self.R = np.array([[0.1]])
        lin = Linearization(self.A, self.B)
        cost = QuadraticCostData(self.Q, self.R)
        self.P = solve_dare(lin, cost)
        self.K = lqr_gain(self.P, lin, cost)
        self._terminal_level = float(terminal_level)
        self.control_bound = float(control_bound)

    def step(self, x, u) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        u = np.asarray(u, dtype=float).reshape(1)
        return self.A @ x + self.B @ u

    def distance(self, x1, x2) -> float:
        return float(np.linalg.norm(np.asarray(x1, dtype=float) - np.asarray(x2, dtype=float)))

    @property
    def equilibrium_state(self) -> np.ndarray:
        return np.zeros(2)

    def stage_cost(self, x, u) -> float:
        x = np.asarray(x, dtype=float)
        u = np.asarray(u, dtype=float).reshape(1)
        return float(x @ self.Q @ x + u @ self.R @ u)

    def terminal_cost(self, x) -> float:
        x = np.asarray(x, dtype=float)
        return float(x @ self.P @ x)

    @property
    def terminal_level(self) -> float:
        return self._terminal_level

    def local_law(self, x) -> np.ndarray:
        return -(self.K @ np.asarray(x, dtype=float))

    def quadratic_model(self, states, torques) -> QuadraticModel:
        """The system itself at every step: (A, B), 2Q, 2R and 2P, with the
        gradients 2Q x_k, 2R u_k and 2P x_N."""
        n = len(torques)
        x = np.asarray(states, dtype=float)
        return QuadraticModel(
            np.broadcast_to(self.A, (n, 2, 2)),
            np.broadcast_to(self.B, (n, 2, 1)),
            np.broadcast_to(2.0 * self.Q, (n, 2, 2)),
            np.broadcast_to(2.0 * self.R, (n, 1, 1)),
            2.0 * self.P,
            2.0 * x[:-1] @ self.Q,
            2.0 * torques @ self.R,
            2.0 * self.P @ x[-1],
        )

    def steering_control(self, x) -> np.ndarray:
        return self.local_law(x)

    def project_control(self, u) -> np.ndarray:
        return np.clip(np.asarray(u, dtype=float), -self.control_bound, self.control_bound)
