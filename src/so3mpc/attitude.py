"""Spacecraft attitude instantiation of the receding-horizon layer.

``SpacecraftAttitudeSystem`` wires the variational integrator, the
trace-form stage cost, and a calibrated terminal design into the generic
:class:`~so3mpc.mpc.ManifoldSystem` contract.  Its predicted states are the
ones :func:`~so3mpc.lgvi.step_with_margin` builds from entries: the step, the
stage cost and the terminal cost read Python floats, and arrays are built
only where a caller reads them, in ``OcpSolution.states``,
``ClosedLoopRun.states`` and :meth:`~SpacecraftAttitudeSystem.quadratic_model`.
A predicted step whose solvability margin falls below the fixed
:data:`~so3mpc.lgvi.SOLVABILITY_FLOOR` counts as unsolvable, so every
prediction the solver values stays inside the floor.
``AttitudeMpc`` wraps the whole pipeline: hyperparameters in the
constructor, the expensive design work in ``fit``, the control law at one
state in ``predict``, and the closed loop in ``simulate``.
"""

from __future__ import annotations

import struct
from typing import Optional

import numpy as np

from .errors import NotSolvable, OutOfChart
from .lgvi import (
    DEFAULT_INERTIA,
    DEFAULT_STEP_SECONDS,
    SOLVABILITY_FLOOR,
    SpacecraftState,
    _inertia_constants,
    _same_row,
    _state_of,
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
    stage_derivatives,
    terminal_derivatives,
    terminal_value,
)
from .validation import as_parameter, as_positive, check_vector3

# The 18 entries of one state's g and f, in row order, as float64 bytes.
_pack_entries = struct.Struct("18d").pack


class SpacecraftAttitudeSystem(ManifoldSystem):
    """Attitude dynamics on SO(3) x SO(3) with a calibrated terminal design."""

    control_dim = 3

    def __init__(self, design: TerminalDesign, torque_bound: float = DEFAULT_TORQUE_BOUND):
        self.design = design
        # Every step takes the inertia's constants, looked up once here; the
        # model reads their read-only array, so both see the same inertia.
        self._constants = _inertia_constants(np.asarray(design.inertia, dtype=float))
        self.inertia = self._constants.inertia
        self.h = float(design.h)
        self.weights = design.weights
        # Read as the configuration reads it, so a string, a boolean or NaN
        # fails: a NaN bound would skip the clip in project_control.
        self.torque_bound = as_parameter("torque_bound", torque_bound, as_positive, True)
        self._equilibrium = SpacecraftState.identity()

    def step(self, x: SpacecraftState, u) -> SpacecraftState:
        return step_with_margin(x, u, self.h, self._constants)[0]

    def step_with_margin(self, x: SpacecraftState, u, near: Optional[SpacecraftState] = None):
        """:func:`~so3mpc.lgvi.step_with_margin`, its implicit solve started at
        the increment of ``near`` when one is given.  A margin below
        ``SOLVABILITY_FLOOR`` raises :class:`~so3mpc.errors.NotSolvable`: the
        floor bounds the domain of the predictions.  The floor lies in
        [0, ``MARGIN_CUTOFF``), so it is compared with LAPACK's margin, not
        with the bound the step reports above the cutoff."""
        successor, margin = step_with_margin(x, u, self.h, self._constants, near)
        if margin < SOLVABILITY_FLOOR:
            raise NotSolvable(
                f"implicit step outside the domain: min eig of J^2 + M^2/4 is {margin:.3e}, "
                f"below the floor {SOLVABILITY_FLOOR:.0e}"
            )
        return successor, margin

    def step_near(self, x: SpacecraftState, u, near: SpacecraftState):
        return self.step_with_margin(x, u, near)

    def distance(self, x1: SpacecraftState, x2: SpacecraftState) -> float:
        return max(
            geodesic_distance(x1.g, x2.g), geodesic_distance(x1.f, x2.f)
        )

    @property
    def equilibrium_state(self) -> SpacecraftState:
        return self._equilibrium

    def stage_cost(self, x: SpacecraftState, u) -> float:
        """:meth:`~so3mpc.terminal.StageWeights.stage_cost` of this system's
        weights at its h.  For a ``list`` row, as the solver's predictions
        and the closed loop's paid cost pass it, a state built from entries
        keeps the value with the weights object, h and a copy of the row,
        and a later call with the same three, the row equal bit for bit as
        the step compares it, returns the value unevaluated (see
        :class:`~so3mpc.lgvi.SpacecraftState`).  Since the key is a copy, a
        row moved in place afterwards, as the finite-difference gradient
        moves its own, misses."""
        weights, h = self.weights, self.h
        if type(u) is not list:
            return weights.stage_cost(x, u, h)
        kept = x._stage
        if kept is not None and kept[0] is weights and kept[1] == h and _same_row(kept[2], u):
            return kept[3]
        cost = weights.stage_cost(x, u, h)
        if x._rows is not None:
            x._stage = (weights, h, u.copy(), cost)
        return cost

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
        """The step Jacobians of :func:`~so3mpc.lgvi.step_jacobians` over the
        stack of the N + 1 increments, the stage gradients and Hessians of
        :func:`~so3mpc.terminal.stage_derivatives` at every state but the
        last, the torque Hessian tilde(R) of the weights and the gradients
        tilde(R) u, and the terminal gradient and Hessian of
        :func:`~so3mpc.terminal.terminal_derivatives` at the last, all in the
        tangent coordinates g exp(hat(zeta)), f exp(h hat(omega)).  The
        entries of all N + 1 states are read into one (N + 1, 2, 3, 3) array,
        a read-only view of one buffer that packs 18 float64 entries per
        state, and tilde(R) is repeated into an (N, 3, 3) array, which is
        cheaper than a broadcast view."""
        n = len(torques)
        packed = b"".join(
            [_pack_entries(*g[0], *g[1], *g[2], *f[0], *f[1], *f[2]) for g, f in (x.entries for x in states)]
        )
        entries = np.frombuffer(packed, float).reshape(n + 1, 2, 3, 3)
        a, b = step_jacobians(entries[:, 1], self.h, self.inertia)
        q_grad, q = stage_derivatives(self.weights, entries[:-1], self.h)
        p_grad, p = terminal_derivatives(self.design.P, states[-1], self.h)
        r = self.weights.torque_hessian
        return QuadraticModel(a, b, q, np.repeat(r[None], n, axis=0), p, q_grad, torques @ r, p_grad)

    def steering_control(self, x: SpacecraftState) -> np.ndarray:
        # Unlike local_law, no chart guard: the cold-start heuristic must
        # produce a deterministic direction even at the branch cut.
        return feedback(self.design.K, coordinates(x, self.h))

    def project_control(self, u) -> np.ndarray:
        # ndarray.clip is np.clip's kernel with less dispatch.
        return np.asarray(u, dtype=float).clip(-self.torque_bound, self.torque_bound)


def rest_state(axis_angle) -> SpacecraftState:
    """State at rest (identity increment) with the given attitude, built
    from entries, so that it keeps its steps (see
    :class:`~so3mpc.lgvi.SpacecraftState`)."""
    axis_angle = check_vector3(axis_angle, "axis_angle")
    return _state_of(exp_so3(axis_angle).tolist(), np.eye(3).tolist(), None)


def spinning_state(axis_angle, rate, h: float) -> SpacecraftState:
    """State with the given attitude and body rate, built from entries as
    :func:`rest_state` is."""
    axis_angle = check_vector3(axis_angle, "axis_angle")
    rate = check_vector3(rate, "rate")
    return _state_of(exp_so3(axis_angle).tolist(), exp_so3(h * rate).tolist(), None)


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
        self.terminal_samples = terminal_samples
        self.terminal_shrink = terminal_shrink
        self.seed = seed
        self.solver = solver

    def fit(self) -> "AttitudeMpc":
        """Compute the terminal design and assemble the controller.
        :func:`~so3mpc.terminal.design_terminal` checks the inertia and the
        design arguments, and :class:`SpacecraftAttitudeSystem` the torque
        bound."""
        if self.weights is not None and not isinstance(self.weights, StageWeights):
            raise ValueError(f"weights must be a StageWeights or None, got {self.weights!r}")
        config = MpcConfig(
            horizon=self.horizon,
            solver=self.solver if self.solver is not None else SolverSettings(),
        )
        inertia = DEFAULT_INERTIA if self.inertia is None else self.inertia
        self.design_ = design_terminal(
            inertia,
            self.step_seconds,
            default_weights(inertia) if self.weights is None else self.weights,
            torque_bound=self.torque_bound,
            n_samples=self.terminal_samples,
            shrink=self.terminal_shrink,
            seed=self.seed,
        )
        self.system_ = SpacecraftAttitudeSystem(self.design_, torque_bound=self.torque_bound)
        self.config_ = config
        return self

    def _check_fitted(self) -> None:
        if not hasattr(self, "system_"):
            raise RuntimeError("this AttitudeMpc instance is not fitted yet; call fit() first")

    def solve(self, state: SpacecraftState) -> OcpSolution:
        """Full finite-horizon solution at one state, checked to lie in SO(3)^2,
        solved cold from the steering guess."""
        self._check_fitted()
        return solve_ocp(self.system_, check_state(state), self.config_)

    def predict(self, state: SpacecraftState) -> np.ndarray:
        """Control law evaluation: the first control of the finite-horizon
        solution, solved cold so the result is a pure function of the state."""
        return self.solve(state).first_control

    def simulate(
        self, state0: SpacecraftState, n_steps: int, distance_tol: float = DEFAULT_DISTANCE_TOL
    ) -> ClosedLoopRun:
        """Closed-loop run from ``state0``, checked as in :meth:`solve`, with
        warm-started solves; :func:`~so3mpc.mpc.closed_loop` checks
        ``n_steps`` and ``distance_tol``."""
        self._check_fitted()
        return closed_loop(self.system_, check_state(state0), self.config_, n_steps, distance_tol=distance_tol)
