"""Spacecraft attitude instantiation of the receding-horizon layer.

``SpacecraftAttitudeSystem`` wires the variational integrator, the
trace-form stage cost, and a calibrated terminal design into the generic
:class:`~so3mpc.mpc.ManifoldSystem` contract.  ``AttitudeMpc`` wraps the
whole pipeline behind an estimator-style interface: hyperparameters in the
constructor, the expensive design work in ``fit``, the control law in
``predict``, so the controller drops into tooling that expects
``get_params``/``set_params`` semantics.
"""

from __future__ import annotations

import inspect
from typing import Iterable, Optional, Union

import numpy as np

from .errors import OutOfChart
from .lgvi import (
    DEFAULT_INERTIA,
    DEFAULT_STEP_SECONDS,
    MARGIN_CUTOFF,
    SpacecraftState,
    check_state,
    step_with_margin,
)
from .mpc import (
    DEFAULT_DISTANCE_TOL,
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
    build_linearization,
    coordinates,
    default_weights,
    design_terminal,
    feedback,
    terminal_value,
    tilde_transform,
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
        cut_sign: float = 1.0,
    ):
        self.design = design
        self.inertia = np.asarray(design.inertia, dtype=float)
        self.h = float(design.h)
        self.weights = design.weights
        self.torque_bound, self.solvability_floor = _check_constraints(
            torque_bound, solvability_floor
        )
        self.cut_sign = float(cut_sign)
        self._equilibrium = SpacecraftState.identity()
        # The trace-form costs are quadratic in exponential coordinates to
        # second order, with the tilde transforms of their weights as
        # Hessians; the terminal cost is exactly quadratic there.
        lin = build_linearization(self.h, self.inertia)
        zeros = np.zeros((3, 3))
        state_hessian = np.block([
            [tilde_transform(self.weights.attitude), zeros],
            [zeros, tilde_transform(self.weights.rate)],
        ])
        self.quadratic_model = QuadraticModel(
            lin.A, lin.B, state_hessian, tilde_transform(self.weights.torque), 2.0 * design.P
        )

    def step(self, x: SpacecraftState, u) -> SpacecraftState:
        return step_with_margin(x, u, self.h, self.inertia)[0]

    def step_with_margin(self, x: SpacecraftState, u):
        return step_with_margin(x, u, self.h, self.inertia)

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
        return terminal_value(self.design.P, coordinates(x, self.h, self.cut_sign))

    @property
    def terminal_level(self) -> float:
        return self.design.c

    def local_law(self, x: SpacecraftState) -> np.ndarray:
        xi = coordinates(x, self.h, self.cut_sign)
        if np.linalg.norm(xi[:3]) >= np.pi or self.h * np.linalg.norm(xi[3:]) >= np.pi:
            raise OutOfChart("state lies outside the coordinate chart of the local law")
        return feedback(self.design.K, xi)

    def steering_control(self, x: SpacecraftState) -> np.ndarray:
        # Unlike local_law, no chart guard: the cold-start heuristic must
        # produce a deterministic direction even at the branch cut.
        return feedback(self.design.K, coordinates(x, self.h, self.cut_sign))

    def project_control(self, u) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        if not np.isfinite(self.torque_bound):
            return u
        return np.clip(u, -self.torque_bound, self.torque_bound)


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

    All hyperparameters are constructor arguments; ``fit`` runs the terminal
    design (Riccati solve, gain, terminal-set calibration) and freezes the
    fitted artifacts on trailing-underscore attributes; ``predict`` evaluates
    the control law at a state.  ``fit`` takes and ignores the standard
    ``(X, y)`` arguments so instances compose with pipeline tooling.
    """

    def __init__(
        self,
        inertia=None,
        step_seconds: float = DEFAULT_STEP_SECONDS,
        horizon: int = 10,
        attitude_weight=None,
        rate_weight=None,
        torque_weight=None,
        cost_decay: float = 0.1,
        torque_bound: float = DEFAULT_TORQUE_BOUND,
        solvability_floor: float = DEFAULT_SOLVABILITY_FLOOR,
        terminal_samples: int = DEFAULT_TERMINAL_SAMPLES,
        terminal_shrink: float = DEFAULT_TERMINAL_SHRINK,
        seed: int = 0,
        cut_sign: float = 1.0,
        solver: Optional[SolverSettings] = None,
    ):
        self.inertia = inertia
        self.step_seconds = step_seconds
        self.horizon = horizon
        self.attitude_weight = attitude_weight
        self.rate_weight = rate_weight
        self.torque_weight = torque_weight
        self.cost_decay = cost_decay
        self.torque_bound = torque_bound
        self.solvability_floor = solvability_floor
        self.terminal_samples = terminal_samples
        self.terminal_shrink = terminal_shrink
        self.seed = seed
        self.cut_sign = cut_sign
        self.solver = solver

    @classmethod
    def _param_names(cls) -> list[str]:
        signature = inspect.signature(cls.__init__)
        return [name for name in signature.parameters if name != "self"]

    def get_params(self, deep: bool = True) -> dict:
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params) -> "AttitudeMpc":
        valid = set(self._param_names())
        for name, value in params.items():
            if name not in valid:
                raise ValueError(f"unknown parameter {name!r} for AttitudeMpc")
            setattr(self, name, value)
        return self

    def _resolved_weights(self, inertia: np.ndarray) -> StageWeights:
        base = default_weights(inertia)

        def pick(value, default: np.ndarray) -> np.ndarray:
            return default if value is None else np.asarray(value, dtype=float)

        return StageWeights(
            pick(self.attitude_weight, base.attitude),
            pick(self.rate_weight, base.rate),
            pick(self.torque_weight, base.torque),
            self.cost_decay,
        )

    def fit(self, X=None, y=None) -> "AttitudeMpc":
        """Compute the terminal design and assemble the controller."""
        _check_constraints(self.torque_bound, self.solvability_floor)
        config = MpcConfig(
            horizon=self.horizon,
            solver=self.solver if self.solver is not None else SolverSettings(),
        )
        inertia = DEFAULT_INERTIA if self.inertia is None else np.asarray(self.inertia, dtype=float)
        inertia = check_spd(inertia, "inertia")
        weights = self._resolved_weights(inertia)
        self.design_ = design_terminal(
            inertia,
            self.step_seconds,
            weights,
            torque_bound=self.torque_bound,
            n_samples=self.terminal_samples,
            shrink=self.terminal_shrink,
            seed=self.seed,
        )
        self.system_ = SpacecraftAttitudeSystem(
            self.design_,
            torque_bound=self.torque_bound,
            solvability_floor=self.solvability_floor,
            cut_sign=self.cut_sign,
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

    def predict(
        self, X: Union[SpacecraftState, Iterable[SpacecraftState]]
    ) -> np.ndarray:
        """Control law evaluation: the first control of the finite-horizon
        solution, solved cold so the result is a pure function of the state.

        Accepts a single state or an iterable of states.
        """
        self._check_fitted()
        if isinstance(X, SpacecraftState):
            return self.solve(X).first_control
        return np.vstack([self.solve(state).first_control for state in X])

    def simulate(
        self, state0: SpacecraftState, n_steps: int, distance_tol: float = DEFAULT_DISTANCE_TOL
    ) -> ClosedLoopRun:
        """Closed-loop run from ``state0``, checked as in :meth:`solve`, with
        warm-started solves."""
        self._check_fitted()
        return closed_loop(self.system_, check_state(state0), self.config_, n_steps, distance_tol=distance_tol)
