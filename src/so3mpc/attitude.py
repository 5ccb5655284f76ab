"""Spacecraft attitude instantiation of the receding-horizon layer.

``SpacecraftAttitudeSystem`` wires the variational integrator, the
trace-form stage cost, and a calibrated terminal design into the generic
:class:`~so3mpc.mpc.ManifoldSystem` contract.  ``AttitudeMpc`` wraps the
whole pipeline: hyperparameters in the constructor, the expensive design
work in ``fit``, the control law at one state in ``predict``, and the closed
loop in ``simulate``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .errors import OutOfChart
from .lgvi import (
    DEFAULT_INERTIA,
    DEFAULT_STEP_SECONDS,
    MARGIN_CUTOFF,
    SpacecraftState,
    check_state,
    step_jacobians,
    step_with_margin,
)
from .mpc import (
    DEFAULT_DISTANCE_TOL,
    DEFAULT_HORIZON,
    ClosedLoopRun,
    ManifoldSystem,
    MpcConfig,
    OcpSolution,
    QuadraticModel,
    SolverSettings,
    closed_loop,
    solve_ocp,
)
from .so3 import exp_so3, geodesic_distance
from .terminal import (
    DEFAULT_TERMINAL_SAMPLES,
    DEFAULT_TERMINAL_SHRINK,
    DEFAULT_TORQUE_BOUND,
    StageWeights,
    TerminalDesign,
    coordinates,
    default_weights,
    design_terminal,
    feedback,
    stage_hessians,
    terminal_hessian,
    terminal_value,
)
from .validation import check_spd, check_vector3

DEFAULT_SOLVABILITY_FLOOR = 1e-6


def _check_constraints(torque_bound, solvability_floor) -> tuple[float, float]:
    """The torque bound and the solvability floor as floats, or ``ValueError``
    naming the bad one.  NaN fails both checks: a NaN bound would skip the
    clip and a NaN floor would never be met, switching either constraint off.
    The floor must stay below the step's ``MARGIN_CUTOFF``, above which the
    step reports a bound on the margin instead of LAPACK's value."""
    torque_bound = float(torque_bound)
    solvability_floor = float(solvability_floor)
    if not torque_bound > 0.0:
        raise ValueError(f"torque_bound must be positive or +inf, got {torque_bound}")
    if not 0.0 <= solvability_floor < MARGIN_CUTOFF:
        raise ValueError(
            f"solvability_floor must lie in [0, {MARGIN_CUTOFF}), got {solvability_floor}"
        )
    return torque_bound, solvability_floor


class SpacecraftAttitudeSystem(ManifoldSystem):
    """Attitude dynamics on SO(3) x SO(3) with a calibrated terminal design."""

    control_dim = 3

    def __init__(
        self,
        design: TerminalDesign,
        torque_bound: float = DEFAULT_TORQUE_BOUND,
        solvability_floor: float = DEFAULT_SOLVABILITY_FLOOR,
    ):
        self.design = design
        self.inertia = np.asarray(design.inertia, dtype=float)
        self.h = float(design.h)
        self.weights = design.weights
        self.torque_bound, self.solvability_floor = _check_constraints(
            torque_bound, solvability_floor
        )
        self._equilibrium = SpacecraftState.identity()

    def step(self, x: SpacecraftState, u) -> SpacecraftState:
        return step_with_margin(x, u, self.h, self.inertia)[0]

    def step_with_margin(self, x: SpacecraftState, u, near: Optional[SpacecraftState] = None):
        """:func:`~so3mpc.lgvi.step_with_margin`, its Newton solve started at
        the increment of ``near`` when one is given."""
        start = None if near is None else near.f
        return step_with_margin(x, u, self.h, self.inertia, start)

    def step_near(self, x: SpacecraftState, u, near: SpacecraftState):
        return self.step_with_margin(x, u, near)

    @property
    def step_margin_floor(self) -> float:
        return self.solvability_floor

    def distance(self, x1: SpacecraftState, x2: SpacecraftState) -> float:
        return max(
            geodesic_distance(x1.g, x2.g), geodesic_distance(x1.f, x2.f)
        )

    @property
    def equilibrium_state(self) -> SpacecraftState:
        return self._equilibrium

    def stage_cost(self, x: SpacecraftState, u) -> float:
        return self.weights.stage_cost(x, u, self.h)

    def terminal_cost(self, x: SpacecraftState) -> float:
        return terminal_value(self.design.P, coordinates(x, self.h))

    @property
    def terminal_level(self) -> float:
        return self.design.c

    def local_law(self, x: SpacecraftState) -> np.ndarray:
        xi = coordinates(x, self.h)
        if np.linalg.norm(xi[:3]) >= np.pi or self.h * np.linalg.norm(xi[3:]) >= np.pi:
            raise OutOfChart("state lies outside the coordinate chart of the local law")
        return feedback(self.design.K, xi)

    def quadratic_model(self, states, torques) -> QuadraticModel:
        """The step Jacobians of :func:`~so3mpc.lgvi.step_jacobians` between
        consecutive states, the stage Hessians of
        :func:`~so3mpc.terminal.stage_hessians` at every state but the last,
        and the terminal Hessian of :func:`~so3mpc.terminal.terminal_hessian`
        at the last, all in the tangent coordinates g exp(hat(zeta)),
        f exp(h hat(omega))."""
        f = np.array([x.f for x in states])
        g = np.array([x.g for x in states[:-1]])
        a, b = step_jacobians(f[:-1], f[1:], self.h, self.inertia)
        q, r = stage_hessians(self.weights, SpacecraftState(g, f[:-1]))
        p = terminal_hessian(self.design.P, states[-1], self.h)
        return QuadraticModel(a, b, q, np.broadcast_to(r, (len(torques), 3, 3)), p)

    def steering_control(self, x: SpacecraftState) -> np.ndarray:
        # Unlike local_law, no chart guard: the cold-start heuristic must
        # produce a deterministic direction even at the branch cut.
        return feedback(self.design.K, coordinates(x, self.h))

    def project_control(self, u) -> np.ndarray:
        return np.clip(np.asarray(u, dtype=float), -self.torque_bound, self.torque_bound)


def rest_state(axis_angle) -> SpacecraftState:
    """State at rest (identity increment) with the given attitude."""
    axis_angle = check_vector3(axis_angle, "axis_angle")
    return SpacecraftState(exp_so3(axis_angle), np.eye(3))


def spinning_state(axis_angle, rate, h: float) -> SpacecraftState:
    """State with the given attitude and body rate."""
    axis_angle = check_vector3(axis_angle, "axis_angle")
    rate = check_vector3(rate, "rate")
    return SpacecraftState(exp_so3(axis_angle), exp_so3(h * rate))


class AttitudeMpc:
    """Receding-horizon attitude controller with a fit/predict workflow.

    All hyperparameters are constructor arguments; ``inertia=None`` is the
    reference inertia and ``weights=None`` the :func:`default_weights` of the
    inertia.  ``fit`` runs the terminal design (Riccati solve, gain,
    terminal-set calibration) and freezes the fitted artifacts on
    trailing-underscore attributes; ``predict`` evaluates the control law at
    one state, and ``simulate`` runs the closed loop.
    """

    def __init__(
        self,
        inertia=None,
        step_seconds: float = DEFAULT_STEP_SECONDS,
        horizon: int = DEFAULT_HORIZON,
        weights: Optional[StageWeights] = None,
        torque_bound: float = DEFAULT_TORQUE_BOUND,
        solvability_floor: float = DEFAULT_SOLVABILITY_FLOOR,
        terminal_samples: int = DEFAULT_TERMINAL_SAMPLES,
        terminal_shrink: float = DEFAULT_TERMINAL_SHRINK,
        seed: int = 0,
        solver: Optional[SolverSettings] = None,
    ):
        self.inertia = inertia
        self.step_seconds = step_seconds
        self.horizon = horizon
        self.weights = weights
        self.torque_bound = torque_bound
        self.solvability_floor = solvability_floor
        self.terminal_samples = terminal_samples
        self.terminal_shrink = terminal_shrink
        self.seed = seed
        self.solver = solver

    def fit(self) -> "AttitudeMpc":
        """Compute the terminal design and assemble the controller."""
        _check_constraints(self.torque_bound, self.solvability_floor)
        if self.weights is not None and not isinstance(self.weights, StageWeights):
            raise ValueError(f"weights must be a StageWeights or None, got {self.weights!r}")
        config = MpcConfig(
            horizon=self.horizon,
            solver=self.solver if self.solver is not None else SolverSettings(),
        )
        inertia = DEFAULT_INERTIA if self.inertia is None else np.asarray(self.inertia, dtype=float)
        inertia = check_spd(inertia, "inertia")
        self.design_ = design_terminal(
            inertia,
            self.step_seconds,
            default_weights(inertia) if self.weights is None else self.weights,
            torque_bound=self.torque_bound,
            n_samples=self.terminal_samples,
            shrink=self.terminal_shrink,
            seed=self.seed,
        )
        self.system_ = SpacecraftAttitudeSystem(
            self.design_,
            torque_bound=self.torque_bound,
            solvability_floor=self.solvability_floor,
        )
        self.config_ = config
        return self

    def _check_fitted(self) -> None:
        if not hasattr(self, "system_"):
            raise RuntimeError("this AttitudeMpc instance is not fitted yet; call fit() first")

    def solve(self, state: SpacecraftState, warm_start=None) -> OcpSolution:
        """Full finite-horizon solution at one state, checked to lie in SO(3)^2."""
        self._check_fitted()
        return solve_ocp(self.system_, check_state(state), self.config_, warm_start=warm_start)

    def predict(self, state: SpacecraftState) -> np.ndarray:
        """Control law evaluation: the first control of the finite-horizon
        solution, solved cold so the result is a pure function of the state."""
        return self.solve(state).first_control

    def simulate(
        self, state0: SpacecraftState, n_steps: int, distance_tol: float = DEFAULT_DISTANCE_TOL
    ) -> ClosedLoopRun:
        """Closed-loop run from ``state0``, checked as in :meth:`solve`, with
        warm-started solves."""
        self._check_fitted()
        return closed_loop(self.system_, check_state(state0), self.config_, n_steps, distance_tol=distance_tol)
