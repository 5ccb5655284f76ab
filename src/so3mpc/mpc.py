"""Receding-horizon control for systems whose state lives on a manifold.

The layer is generic: any :class:`ManifoldSystem` supplies the discrete
dynamics, a metric, stage and terminal costs, a terminal set level, a local
feedback law, and a linear-quadratic model about its equilibrium.  The
finite-horizon problem is transcribed by single shooting over the control
sequence, with box bounds handled by projection, the terminal-set and
step-solvability constraints by a growing quadratic penalty, and gradients
by central finite differences of the rollout cost.  Each penalty round
descends along a limited-memory BFGS direction with two-metric projection
onto the box (Bertsekas, 1982): the quasi-Newton step acts on the free
entries, and entries that the box holds against an outward gradient take
the projected-gradient step.  The recursion's initial inverse Hessian is the
inverse of the model's horizon Hessian on the free entries, scaled by the
newest curvature pair (Nocedal & Wright, *Numerical Optimization*, ch. 7).
A solve warm-started at the previous solution's predicted successor extends
the perturbed tails of that solution's last gradient by one step instead of
re-running them: the "shift" initialization of Diehl, Bock & Schlöder's
real-time iteration, applied to the gradient.
"""

from __future__ import annotations

import abc
import math
import numbers
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .errors import Infeasible, NotSolvable, RolloutFailure

# Distance to the equilibrium below which a closed loop counts as converged.
DEFAULT_DISTANCE_TOL = 1e-2

# Fixed numerics of the shooting solver; the choices are in SolverSettings.
# Central-difference step of the objective gradient.
FD_STEP = 1e-6
# Penalty weight of the first round, and its growth factor per round.
PENALTY_WEIGHT = 1e4
PENALTY_GROWTH = 10.0
# Sufficient-decrease constant and backtracking factor of the Armijo search.
ARMIJO_C1 = 1e-4
ARMIJO_SHRINK = 0.5
# Length of the first projected-gradient step of a round, divided by
# max(1, |grad|), and the bounds on every such step.
STEP_INIT = 1.0
STEP_MIN = 1e-14
STEP_MAX = 1e3
# Curvature pairs (step, gradient change) the quasi-Newton direction keeps.
LBFGS_MEMORY = 5


class QuadraticModel(NamedTuple):
    """Linear-quadratic model of a system about its equilibrium, in the
    coordinates of its terminal cost: the dynamics ``x+ = A x + B u`` and
    the Hessians of the stage cost in the state (``Q``) and the control
    (``R``) and of the terminal cost (``P``)."""

    A: np.ndarray
    B: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    P: np.ndarray


class ManifoldSystem(abc.ABC):
    """Contract between the receding-horizon layer and a concrete system.

    States are opaque to this layer; only the operations below touch them.
    Subclasses must set ``control_dim``, and ``quadratic_model`` in
    ``__init__``: the solver preconditions its descent with the horizon
    Hessian of that model.
    """

    control_dim: int = 0
    quadratic_model: QuadraticModel

    @abc.abstractmethod
    def step(self, x, u):
        """Discrete dynamics; must map the state set into itself."""

    @abc.abstractmethod
    def distance(self, x1, x2) -> float:
        """Metric used for convergence monitoring."""

    @property
    @abc.abstractmethod
    def equilibrium_state(self):
        """State fixed by the dynamics under the equilibrium control."""

    @property
    def equilibrium_control(self) -> np.ndarray:
        return np.zeros(self.control_dim)

    @abc.abstractmethod
    def stage_cost(self, x, u) -> float:
        """Running cost; zero exactly at the equilibrium pair."""

    @abc.abstractmethod
    def terminal_cost(self, x) -> float:
        """Terminal penalty; zero at the equilibrium state."""

    @property
    @abc.abstractmethod
    def terminal_level(self) -> float:
        """Level c of the terminal set {x: terminal_cost(x) <= c}."""

    @abc.abstractmethod
    def local_law(self, x) -> np.ndarray:
        """Feedback law valid on the terminal set."""

    def steering_control(self, x) -> np.ndarray:
        """Heuristic control used to build cold-start guesses; defaults to
        the equilibrium control."""
        return self.equilibrium_control

    def project_control(self, u) -> np.ndarray:
        """Exact projection onto the control set; identity by default."""
        return np.asarray(u, dtype=float)

    def step_with_margin(self, x, u):
        """Dynamics step plus the solvability margin it consumed.

        Systems without an implicit step report an infinite margin.
        """
        return self.step(x, u), np.inf

    @property
    def step_margin_floor(self) -> float:
        """Required solvability margin inside predicted rollouts."""
        return 0.0


@dataclass(frozen=True)
class SolverSettings:
    """Tuning knobs of the penalized quasi-Newton shooting solver.

    ``grad_tol`` bounds the projected-gradient norm at acceptance and
    ``ftol_rel`` stops the iteration once two accepted steps in a row improve
    the penalized objective by less than this relative amount; the defaults
    favor closed-loop throughput, where warm starts carry most of the
    optimality and the stability guarantees do not depend on solving to
    high precision.  ``max_iters`` caps the iterations of one penalty round,
    and ``outer_rounds`` the rounds; a round whose violation is within
    ``constraint_tol`` ends the solve.  The gradient step, penalty schedule
    and line search are the module constants above.

    The counts must be positive integers and the tolerances positive and
    finite; anything else raises ``ValueError`` naming the field.
    """

    max_iters: int = 200
    grad_tol: float = 1e-3
    ftol_rel: float = 1e-4
    outer_rounds: int = 6
    constraint_tol: float = 1e-8

    def __post_init__(self):
        for name in ("max_iters", "outer_rounds"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
                raise ValueError(f"{name} must be a positive integer, got {value!r}")
        for name in ("grad_tol", "ftol_rel", "constraint_tol"):
            value = getattr(self, name)
            if not _is_real(value) or not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value!r}")


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


@dataclass(frozen=True)
class MpcConfig:
    """Horizon length and solver settings of the receding-horizon law."""

    horizon: int = 10
    solver: SolverSettings = field(default_factory=SolverSettings)

    def __post_init__(self):
        if isinstance(self.horizon, bool) or not isinstance(self.horizon, numbers.Integral):
            raise ValueError(f"horizon must be an integer, got {self.horizon!r}")
        if self.horizon < 1:
            raise ValueError(f"horizon must be at least 1, got {self.horizon}")
        if not isinstance(self.solver, SolverSettings):
            raise ValueError(f"solver must be a SolverSettings, got {self.solver!r}")


@dataclass(frozen=True)
class OcpSolution:
    """Result of one finite-horizon solve.

    ``kkt_residual`` is the norm of u - proj(u - grad) at the returned
    torques under the last penalty round's objective.  It is ``None`` when
    that round stopped on ``ftol_rel`` (two small relative improvements in a
    row): the solver stops before the gradient at the accepted torques, which
    would serve only this report.  A stop on ``grad_tol``, on a failed line
    search or on ``max_iters`` reports it.

    ``_reuse`` is what a next solve on the same system and horizon may take
    over (see :func:`solve_ocp`): the horizon Hessian, and the perturbed
    tails of the last gradient whenever it was taken at the returned
    torques, i.e. on every stop that reports ``kkt_residual``.  It takes no
    part in comparisons.
    """

    torques: np.ndarray
    cost: float
    terminal_value: float
    feasible: bool
    iterations: int
    kkt_residual: Optional[float]
    violation: float
    states: tuple
    # Per predicted step: how far the solvability margin fell below its floor.
    shortfalls: np.ndarray
    _reuse: Optional[_Reuse] = field(default=None, compare=False, repr=False)

    @property
    def first_control(self) -> np.ndarray:
        return self.torques[0]


class _Reuse(NamedTuple):
    """What one solve hands to the next on the same system and horizon."""

    system: ManifoldSystem
    hessian: np.ndarray
    gradient: Optional[_GradientTails]


class _RolloutData(NamedTuple):
    states: list
    stage: np.ndarray
    shortfalls: np.ndarray
    terminal: float


def _rollout_data(system: ManifoldSystem, x0, torques) -> _RolloutData:
    """Roll out from ``x0``; :class:`~so3mpc.errors.NotSolvable` from a step
    is raised again naming the step."""
    floor = system.step_margin_floor
    states = [x0]
    stage = np.empty(len(torques))
    shortfalls = np.zeros(len(torques))
    x = x0
    for i, u in enumerate(torques):
        stage[i] = system.stage_cost(x, u)
        try:
            x, margin = system.step_with_margin(x, u)
        except NotSolvable as err:
            raise NotSolvable(f"rollout failed at step {i}: {err}", step=i) from err
        if margin < floor:
            shortfalls[i] = floor - margin
        states.append(x)
    return _RolloutData(states, stage, shortfalls, system.terminal_cost(x))


def horizon_cost(system: ManifoldSystem, x0, torques) -> float:
    """Cost of a candidate control sequence: summed stage costs plus the
    terminal penalty at the rolled-out endpoint."""
    torques = _as_control_array(torques, system.control_dim)
    try:
        data = _rollout_data(system, x0, torques)
    except NotSolvable as err:
        raise RolloutFailure(f"prediction rollout failed: {err}") from err
    return float(data.stage.sum() + data.terminal)


def _as_control_array(torques, control_dim: int) -> np.ndarray:
    arr = np.asarray(torques, dtype=float)
    if arr.size == 0:
        return arr.reshape(0, control_dim)
    if arr.ndim == 1:
        arr = arr.reshape(-1, control_dim)
    if arr.ndim != 2 or arr.shape[1] != control_dim:
        raise ValueError(f"controls must have shape (n, {control_dim}), got {arr.shape}")
    return arr


class _Tail(NamedTuple):
    """Raw rollout of a perturbed tail: its end state, stage costs,
    shortfalls (``None`` while every margin keeps its floor) and terminal
    value.  None of these depends on the penalty weight."""

    end: object
    stage: np.ndarray
    shortfalls: Optional[np.ndarray]
    terminal: float

    @classmethod
    def at(cls, x) -> _Tail:
        """The tail of no steps at ``x``, which a fresh tail runs on from;
        its terminal value is not evaluated."""
        return cls(x, _NO_STAGES, None, math.nan)


_NO_STAGES = np.empty(0)


class _GradientTails(NamedTuple):
    """The perturbed tails of one gradient at ``torques``: ``tails[i][2 j]``
    raises control entry (i, j) by ``FD_STEP`` and ``tails[i][2 j + 1]``
    lowers it, each ``None`` when a step is unsolvable.  ``successor`` is the
    rollout's state after one step."""

    torques: np.ndarray
    successor: object
    tails: list


class _Objective:
    """Penalized shooting objective with cheap tail re-evaluation for
    finite differences.

    ``carried`` holds the tails of the previous solve's last gradient.  The
    first gradient extends each of them by one step when it starts at their
    successor state under their torques shifted by one step (the warm start
    :func:`warm_start_shift` builds); otherwise it is ignored.  ``last``
    holds the tails of the latest gradient.
    """

    def __init__(
        self, system: ManifoldSystem, x0, weight: float, carried: Optional[_GradientTails] = None
    ):
        self.system = system
        self.x0 = x0
        self.weight = weight
        self.level = system.terminal_level
        self.carried = carried
        self.last: Optional[_GradientTails] = None

    def trial(self, torques: np.ndarray) -> tuple[float, Optional[_RolloutData]]:
        """Penalized value and rollout data, or ``(math.inf, None)`` when the
        rollout is unsolvable."""
        try:
            data = _rollout_data(self.system, self.x0, torques)
        except NotSolvable:
            return math.inf, None
        return self._data_value(data), data

    def _value(self, stage_sum: float, shortfall_sq: float, terminal: float) -> float:
        excess = max(0.0, terminal - self.level)
        return float(stage_sum + terminal + self.weight * (excess**2 + shortfall_sq))

    def _data_value(self, data: _RolloutData) -> float:
        return self._value(data.stage.sum(), (data.shortfalls**2).sum(), data.terminal)

    def details(self, torques: np.ndarray) -> tuple[float, _RolloutData, float]:
        """(penalized value, rollout data, violation)."""
        data = _rollout_data(self.system, self.x0, torques)
        value = self._data_value(data)
        violation = max(
            max(0.0, data.terminal - self.level),
            float(data.shortfalls.max(initial=0.0)),
        )
        return value, data, violation

    def gradient(
        self, torques: np.ndarray, base: Optional[_RolloutData] = None
    ) -> tuple[np.ndarray, float]:
        """Central-difference gradient with step ``FD_STEP``, re-simulating
        only the rollout tail affected by each perturbed control entry.

        ``base`` is the rollout of ``torques`` when the caller has it (the
        line search's accepted trial); otherwise it is rolled out here.
        When one perturbed tail is unsolvable, the entry falls back to the
        one-sided difference against the base value; when both are, the
        gradient is undefined and :class:`~so3mpc.errors.RolloutFailure`
        names the step and the entry.

        A carried tail of step i + 1 is this gradient's tail of step i
        without its last step, so extending it gives the tail that a fresh
        run would, bit for bit: the same steps, the same stage-cost array
        and the same numpy sum.
        """
        data = base
        if data is None:
            try:
                data = _rollout_data(self.system, self.x0, torques)
            except NotSolvable as err:
                raise RolloutFailure(f"prediction rollout failed: {err}") from err
        base_value = self._data_value(data)
        stage_prefix = np.concatenate([[0.0], np.cumsum(data.stage)])
        short_prefix = np.concatenate([[0.0], np.cumsum(data.shortfalls**2)])
        n, m = torques.shape
        carried, self.carried = self.carried, None
        if carried is not None and not (
            # States are opaque: compare whatever arrays they are made of.
            np.array_equal(np.asarray(self.x0), np.asarray(carried.successor))
            and np.array_equal(torques[:-1], carried.torques[1:])
        ):
            carried = None
        appended = torques[-1:]
        grad = np.zeros((n, m))
        tails = []
        for i in range(n):
            start = _Tail.at(data.states[i])
            tail = torques[i:].copy()
            first = tail[0]
            row = []
            for j in range(m):
                entry = first[j]
                for k, delta in enumerate((FD_STEP, -FD_STEP)):
                    if carried is not None and i + 1 < n:
                        shorter = carried.tails[i + 1][2 * j + k]
                        row.append(None if shorter is None else self._run_tail(shorter, appended))
                    else:
                        first[j] = entry + delta
                        row.append(self._run_tail(start, tail))
                first[j] = entry
                up, down = (
                    self._tail_value(raw, stage_prefix[i], short_prefix[i]) for raw in row[-2:]
                )
                if math.isfinite(up) and math.isfinite(down):
                    grad[i, j] = (up - down) / (2.0 * FD_STEP)
                elif math.isfinite(down):
                    grad[i, j] = (base_value - down) / FD_STEP
                elif math.isfinite(up):
                    grad[i, j] = (up - base_value) / FD_STEP
                else:
                    raise RolloutFailure(
                        f"finite-difference gradient undefined at step {i}, control "
                        f"entry {j}: both perturbed rollouts are unsolvable"
                    )
            tails.append(row)
        self.last = _GradientTails(torques, data.states[1], tails)
        return grad, base_value

    def _run_tail(self, start: _Tail, controls) -> Optional[_Tail]:
        """``start`` run on under ``controls``; ``None`` when a step is
        unsolvable.  A fresh tail starts from :meth:`_Tail.at`.

        The stage costs go through one array, and the shortfall array, all
        zeros unless some margin falls below the floor, is only built in
        that case, so the sums equal those of :func:`_rollout_data` on the
        whole tail bit for bit.
        """
        system = self.system
        floor = system.step_margin_floor
        done = len(start.stage)
        stage = np.empty(done + len(controls))
        shortfalls = None
        if done:
            stage[:done] = start.stage
            if start.shortfalls is not None:
                shortfalls = np.zeros(len(stage))
                shortfalls[:done] = start.shortfalls
        x = start.end
        try:
            for i, u in enumerate(controls, done):
                stage[i] = system.stage_cost(x, u)
                x, margin = system.step_with_margin(x, u)
                if margin < floor:
                    if shortfalls is None:
                        shortfalls = np.zeros(len(stage))
                    shortfalls[i] = floor - margin
        except NotSolvable:
            return None
        try:
            terminal = system.terminal_cost(x)
        except NotSolvable:
            terminal = math.inf
        return _Tail(x, stage, shortfalls, terminal)

    def _tail_value(self, tail: Optional[_Tail], stage_prefix: float, short_prefix: float) -> float:
        """Penalized value of the rollout whose first steps are summed in the
        prefixes and whose last ones are ``tail``; ``math.inf`` when the tail
        is unsolvable."""
        if tail is None:
            return math.inf
        if tail.shortfalls is not None:
            short_prefix = short_prefix + (tail.shortfalls**2).sum()
        return self._value(stage_prefix + tail.stage.sum(), short_prefix, tail.terminal)


def _project_rows(system: ManifoldSystem, torques: np.ndarray) -> np.ndarray:
    return np.vstack([system.project_control(u) for u in torques])


def _line_search(objective, system, torques, value, grad, direction, alpha):
    """Armijo backtracking along the projected path ``P(torques + alpha *
    direction)``, measuring the decrease by ``grad`` times the projected
    step.  Returns the accepted candidate, its value and rollout, or
    ``None`` once ``alpha`` falls below ``STEP_MIN``."""
    for _ in range(60):
        candidate = _project_rows(system, torques + alpha * direction)
        decrease_ref = float((grad * (candidate - torques)).sum())
        # A projected quasi-Newton step can turn uphill; it is not rolled out.
        if decrease_ref <= 0.0:
            cand_value, cand_data = objective.trial(candidate)
            if cand_value <= value + ARMIJO_C1 * decrease_ref:
                return candidate, cand_value, cand_data
        alpha *= ARMIJO_SHRINK
        if alpha < STEP_MIN:
            break
    return None


def _horizon_hessian(model: QuadraticModel, horizon: int) -> np.ndarray:
    """Hessian of the horizon cost of ``model`` in the stacked controls,
    H = sum_k G_k^T Q G_k + blockdiag(R) + G_N^T P G_N, where G_k maps the
    controls to the state after k steps; an (N m) x (N m) matrix."""
    a, b, q, r, p = model
    n, m = b.shape
    # Column block j of G_k is A^(k-1-j) B.
    powers = [b]
    for _ in range(horizon - 1):
        powers.append(a @ powers[-1])
    g = np.zeros((horizon * n, horizon * m))
    for k in range(1, horizon + 1):
        for j in range(k):
            g[(k - 1) * n:k * n, j * m:(j + 1) * m] = powers[k - 1 - j]
    weights = [q] * (horizon - 1) + [p]
    weighted = np.vstack([w @ g[k * n:(k + 1) * n] for k, w in enumerate(weights)])
    return g.T @ weighted + np.kron(np.eye(horizon), r)


def _quasi_newton_direction(grad, free, pairs, scale, hessian):
    """Two-metric direction: the limited-memory BFGS step on the ``free``
    entries, from the curvature pairs restricted to them, and the gradient
    step ``-scale * grad`` on the entries the box holds.

    The two-loop recursion starts from gamma H_ff^-1 q, with H_ff the
    ``hessian`` on the free entries and gamma = s.y / (y H_ff^-1 y) from the
    newest pair kept, or 1 when there is none."""
    q = np.where(free, grad, 0.0)
    history = []
    for s, y in reversed(pairs):
        s, y = np.where(free, s, 0.0), np.where(free, y, 0.0)
        sy = float((s * y).sum())
        if sy <= 0.0:
            continue
        a = float((s * q).sum()) / sy
        q -= a * y
        history.append((s, y, sy, a))
    index = free.ravel()
    hessian_free = hessian[np.ix_(index, index)]
    r = np.zeros(grad.size)
    r[index] = np.linalg.solve(hessian_free, q.ravel()[index])
    if history:
        _, y, sy, _ = history[0]
        y_free = y.ravel()[index]
        r *= sy / float(y_free @ np.linalg.solve(hessian_free, y_free))
    r = r.reshape(grad.shape)
    for s, y, sy, a in reversed(history):
        r += (a - float((y * r).sum()) / sy) * s
    return np.where(free, -r, -scale * grad)


def _quasi_newton_descent(
    objective: _Objective,
    system: ManifoldSystem,
    torques: np.ndarray,
    settings: SolverSettings,
    hessian: np.ndarray,
) -> tuple[np.ndarray, int, Optional[float]]:
    """Limited-memory BFGS descent with two-metric projection onto the box
    and an Armijo search along the projected path.

    An entry counts as held when the projected-gradient step would clip it,
    i.e. it lies on or near the bound and the gradient points outward; it
    takes that gradient step, and the curvature pairs act on the other
    entries only.  ``hessian`` (:func:`_horizon_hessian`) is the initial
    metric of the recursion, so every iteration, the first included, tries
    a quasi-Newton direction at full length; one that is not a descent
    direction or finds no Armijo point falls back to the scaled
    projected-gradient step, and the descent stops when that finds no
    Armijo point either.

    Returns the final torques, the iteration count and the KKT residual at
    the final torques, or ``None`` when the relative improvement test
    stopped the descent: that stop skips the last gradient, so no residual
    is known."""
    grad, value = objective.gradient(torques)
    # First gradient step scaled by the gradient so penalty-dominated starts
    # do not waste dozens of backtracks; later ones by the latest curvature.
    scale = STEP_INIT / max(1.0, float(np.linalg.norm(grad)))
    pairs = []
    iterations = 0
    small_improvements = 0
    kkt = _kkt_residual(system, torques, grad)
    for _ in range(settings.max_iters):
        if kkt <= settings.grad_tol:
            break
        iterations += 1
        step = float(np.clip(scale, STEP_MIN, STEP_MAX))
        trial = torques - step * grad
        free = _project_rows(system, trial) == trial
        direction = _quasi_newton_direction(grad, free, pairs, step, hessian)
        result = None
        if float((grad * direction).sum()) < 0.0:
            result = _line_search(objective, system, torques, value, grad, direction, 1.0)
        if result is None:
            result = _line_search(objective, system, torques, value, grad, -grad, step)
        if result is None:
            break
        candidate, cand_value, cand_data = result
        # One tiny improvement can be an artifact of a backtracked step that
        # the next one recovers from; require two in a row.  The second one
        # stops before the candidate's gradient, which nothing after this
        # point would read.
        if value - cand_value <= settings.ftol_rel * max(1.0, abs(cand_value)):
            small_improvements += 1
            if small_improvements >= 2:
                return candidate, iterations, None
        else:
            small_improvements = 0
        new_grad, _ = objective.gradient(candidate, base=cand_data)
        s, y = candidate - torques, new_grad - grad
        curvature = float((s * y).sum())
        if curvature > 0.0:
            pairs = (pairs + [(s, y)])[-LBFGS_MEMORY:]
            scale = curvature / float((y * y).sum())
        torques, grad, value = candidate, new_grad, cand_value
        kkt = _kkt_residual(system, torques, grad)
    return torques, iterations, kkt


def _kkt_residual(system: ManifoldSystem, torques: np.ndarray, grad: np.ndarray) -> float:
    projected = _project_rows(system, torques - grad)
    return float(np.linalg.norm(torques - projected))


def steering_rollout(system: ManifoldSystem, x0, horizon: int) -> np.ndarray:
    """Cold-start guess: roll the projected steering control forward.

    Deterministic, and inherits the branch choice of the system's chart at
    states where several descent directions tie.
    """
    x = x0
    controls = np.zeros((horizon, system.control_dim))
    for i in range(horizon):
        u = system.project_control(system.steering_control(x))
        try:
            x_next, _ = system.step_with_margin(x, u)
        except NotSolvable:
            break
        controls[i] = u
        x = x_next
    return controls


def solve_ocp(
    system: ManifoldSystem,
    x0,
    config: MpcConfig,
    warm_start: Optional[np.ndarray] = None,
    previous: Optional[OcpSolution] = None,
) -> OcpSolution:
    """Solve the finite-horizon problem at ``x0`` by penalized shooting.

    The reported ``feasible`` flag certifies that the terminal value is
    within ``constraint_tol`` of the terminal level and that every predicted
    step kept its solvability margin; an infeasible result signals that the
    solver could not steer ``x0`` into the terminal set, i.e. that ``x0``
    is numerically outside the horizon's domain of attraction.

    ``previous`` is the last solution on the same ``system`` object and
    horizon, if any; it changes the work done, never the result.  Its
    horizon Hessian is reused.  When ``x0`` equals its predicted successor
    ``states[1]`` entry for entry and the warm start is its shift (all but
    the appended control), the first gradient extends the perturbed tails
    of its last gradient by one step each instead of re-running them.
    """
    settings = config.solver
    if warm_start is None:
        torques = steering_rollout(system, x0, config.horizon)
    else:
        torques = _as_control_array(np.array(warm_start, dtype=float, copy=True), system.control_dim)
        if torques.shape[0] != config.horizon:
            raise ValueError(
                f"warm start has {torques.shape[0]} steps, expected {config.horizon}"
            )
    torques = _project_rows(system, torques)

    reuse = None if previous is None else previous._reuse
    if reuse is not None and reuse.system is system and len(previous.torques) == config.horizon:
        hessian, carried = reuse.hessian, reuse.gradient
    else:
        hessian, carried = _horizon_hessian(system.quadratic_model, config.horizon), None
    weight = PENALTY_WEIGHT
    total_iterations = 0
    for round_index in range(settings.outer_rounds):
        objective = _Objective(system, x0, weight, carried)
        carried = None
        torques, iterations, kkt = _quasi_newton_descent(
            objective, system, torques, settings, hessian
        )
        total_iterations += iterations
        try:
            _, data, violation = objective.details(torques)
        except NotSolvable as err:
            raise RolloutFailure(f"prediction rollout failed: {err}") from err
        if violation <= settings.constraint_tol:
            break
        weight *= PENALTY_GROWTH

    # An ftol_rel stop returns torques that no gradient was taken at.
    last = objective.last
    if last is not None and not np.array_equal(last.torques, torques):
        last = None
    cost = float(data.stage.sum() + data.terminal)
    return OcpSolution(
        torques=torques,
        cost=cost,
        terminal_value=float(data.terminal),
        feasible=bool(violation <= settings.constraint_tol),
        iterations=total_iterations,
        kkt_residual=None if kkt is None else float(kkt),
        violation=float(violation),
        states=tuple(data.states),
        shortfalls=data.shortfalls,
        _reuse=_Reuse(system, hessian, last),
    )


def warm_start_shift(previous: OcpSolution, system: ManifoldSystem) -> np.ndarray:
    """Shift the previous solution one step and append the local law applied
    at its predicted terminal state.

    By construction the result is feasible at the successor state whenever
    the previous solution was feasible, which is what makes the closed loop
    recursively feasible.
    """
    terminal_state = previous.states[-1]
    tail = system.project_control(system.local_law(terminal_state))
    return np.vstack([previous.torques[1:], tail[None, :]])


class MpcController:
    """Stateful receding-horizon driver: carries the shifted warm start
    from one solve to the next.  Use one instance per closed-loop run."""

    def __init__(self, system: ManifoldSystem, config: MpcConfig):
        self.system = system
        self.config = config
        self._previous: Optional[OcpSolution] = None

    def candidate_sequence(self) -> Optional[np.ndarray]:
        """Shifted candidate from the previous solve, if one exists."""
        if self._previous is None or not self._previous.feasible:
            return None
        return warm_start_shift(self._previous, self.system)

    def step(self, x) -> tuple[np.ndarray, OcpSolution]:
        """Solve at ``x`` and return the first control of the solution.

        The solve starts from the previous solution's shift and is handed
        that solution, whose finite-difference tails it reuses when ``x`` is
        the predicted successor (the nominal closed loop); the result is the
        same as without it, bit for bit.

        Raises :class:`~so3mpc.errors.Infeasible` when the solver cannot
        reach feasibility at ``x``; the controller then forgets the previous
        solution, whose shifted candidate belongs to an earlier state, and
        the next step starts cold.
        """
        warm = self.candidate_sequence()
        solution = solve_ocp(self.system, x, self.config, warm_start=warm, previous=self._previous)
        if not solution.feasible:
            self._previous = None
            raise Infeasible(
                "finite-horizon problem infeasible: "
                + _violated_constraints(solution, self.system.terminal_level, self.config.solver.constraint_tol)
            )
        self._previous = solution
        return solution.first_control, solution


def _violated_constraints(solution: OcpSolution, level: float, tol: float) -> str:
    """Each constraint the solution violates beyond ``tol``, and by how much."""
    failed = []
    excess = solution.terminal_value - level
    if excess > tol:
        failed.append(
            f"terminal value {solution.terminal_value:.6g} exceeds the level {level:.6g} by {excess:.3e}"
        )
    if solution.shortfalls.max(initial=0.0) > tol:
        step = int(np.argmax(solution.shortfalls))
        failed.append(
            f"solvability margin below its floor by {solution.shortfalls[step]:.3e} "
            f"at predicted step {step}"
        )
    return "; ".join(failed)


@dataclass
class ClosedLoopRun:
    """Trajectory and per-step diagnostics of a closed-loop simulation."""

    states: list
    controls: np.ndarray
    optimal_costs: np.ndarray
    candidate_costs: np.ndarray
    stage_costs: np.ndarray
    terminal_values: np.ndarray
    violations: np.ndarray
    feasible: np.ndarray
    iterations: np.ndarray
    distances: np.ndarray
    converged: bool
    converged_step: Optional[int]

    @property
    def n_steps(self) -> int:
        return len(self.controls)


def closed_loop(
    system: ManifoldSystem,
    x0,
    config: MpcConfig,
    n_steps: int,
    distance_tol: float = DEFAULT_DISTANCE_TOL,
) -> ClosedLoopRun:
    """Run the receding-horizon law for ``n_steps`` steps from ``x0``.

    Each record holds, per step, the optimal cost, the cost of the shifted
    candidate evaluated at the current state (the recursive-feasibility
    witness; NaN at the first step where no candidate exists yet), the stage
    cost actually paid, and solver diagnostics.

    Raises :class:`~so3mpc.errors.Infeasible` with the failing step index
    if any solve fails.
    """
    controller = MpcController(system, config)
    x = x0
    states = [x0]
    controls = []
    optimal_costs = []
    candidate_costs = []
    stage_costs = []
    terminal_values = []
    violations = []
    feasible = []
    iterations = []
    distances = [system.distance(x0, system.equilibrium_state)]
    converged_step = None

    for k in range(n_steps):
        candidate = controller.candidate_sequence()
        if candidate is None:
            candidate_costs.append(np.nan)
        else:
            candidate_costs.append(horizon_cost(system, x, candidate))
        try:
            u, solution = controller.step(x)
        except Infeasible as err:
            raise Infeasible(f"closed loop infeasible at step {k}: {err}", step=k) from err
        stage_costs.append(system.stage_cost(x, u))
        x = system.step(x, u)
        states.append(x)
        controls.append(u)
        optimal_costs.append(solution.cost)
        terminal_values.append(solution.terminal_value)
        violations.append(solution.violation)
        feasible.append(solution.feasible)
        iterations.append(solution.iterations)
        distance = system.distance(x, system.equilibrium_state)
        distances.append(distance)
        if converged_step is None and distance < distance_tol:
            converged_step = k + 1

    return ClosedLoopRun(
        states=states,
        controls=np.asarray(controls, dtype=float),
        optimal_costs=np.asarray(optimal_costs, dtype=float),
        candidate_costs=np.asarray(candidate_costs, dtype=float),
        stage_costs=np.asarray(stage_costs, dtype=float),
        terminal_values=np.asarray(terminal_values, dtype=float),
        violations=np.asarray(violations, dtype=float),
        feasible=np.asarray(feasible, dtype=bool),
        iterations=np.asarray(iterations, dtype=int),
        distances=np.asarray(distances, dtype=float),
        converged=converged_step is not None,
        converged_step=converged_step,
    )
