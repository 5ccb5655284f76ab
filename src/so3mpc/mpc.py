"""Receding-horizon control for systems whose state lives on a manifold.

The layer is generic: any :class:`ManifoldSystem` supplies the discrete
dynamics, a metric, stage and terminal costs, a terminal set level, a local
feedback law, and a linear-quadratic model along a predicted rollout.  The
finite-horizon problem is transcribed by single shooting over the control
sequence, with box bounds handled by projection, the terminal-set and
step-solvability constraints by a growing quadratic penalty, and gradients
by central finite differences of the rollout cost.  Each penalty round
descends along a limited-memory BFGS direction with two-metric projection
onto the box (Bertsekas, 1982): the quasi-Newton step acts on the free
entries, and entries that the box holds against an outward gradient take
the projected-gradient step.  The recursion's initial inverse Hessian is the
inverse of the Gauss-Newton Hessian of the horizon cost along the rollout of
the current iterate (Bock & Plitt, 1984), time-varying as in discrete
optimal control on Lie groups (Kobilarov & Marsden, 2011), on the free
entries and scaled by the newest curvature pair (Nocedal & Wright,
*Numerical Optimization*, ch. 7).  The curvature pairs carry what that model
leaves out, above all the penalty's curvature.  An Armijo search along the
projected path tries each direction from full length, and a round ends where
that search fails.
Every prediction, whether the base rollout of a gradient, a line-search
trial, the final check or a perturbed finite-difference tail, is one
:class:`_Rollout` record built by one runner, :func:`_roll_on`, and valued
by one formula, :meth:`_Objective.value`.  The runner continues any record,
so a solve warm-started at the previous solution's predicted successor runs
the perturbed tails of that solution's last gradient on by one step instead
of re-running them: the "shift" initialization of Diehl, Bock & Schlöder's
real-time iteration, applied to the gradient.  Each step of a perturbed tail
is handed the base rollout's state after the same step
(:meth:`ManifoldSystem.step_near`), a start for an implicit step's solve that
lies about one finite-difference step away; every other prediction steps
as a pure function of state and control.
"""

from __future__ import annotations

import abc
import math
import numbers
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .errors import Infeasible, NotSolvable, RolloutFailure
from .validation import is_number

# Distance to the equilibrium below which a closed loop counts as converged.
DEFAULT_DISTANCE_TOL = 1e-2
# Steps of the prediction horizon of the reference design.
DEFAULT_HORIZON = 10

# Fixed numerics of the shooting solver; the choices are in SolverSettings.
# Central-difference step of the objective gradient.
FD_STEP = 1e-6
# Penalty weight of the first round, and its growth factor per round.
PENALTY_WEIGHT = 1e4
PENALTY_GROWTH = 10.0
# Sufficient-decrease constant and backtracking factor of the Armijo search.
ARMIJO_C1 = 1e-4
ARMIJO_SHRINK = 0.5
# Length of the first gradient step of a round, divided by max(1, |grad|),
# and the bounds on every such step; the step picks the entries the box
# holds and moves them.  STEP_MIN also ends the Armijo search.
STEP_INIT = 1.0
STEP_MIN = 1e-14
STEP_MAX = 1e3
# Curvature pairs (step, gradient change) the quasi-Newton direction keeps.
LBFGS_MEMORY = 5


class QuadraticModel(NamedTuple):
    """Linear-quadratic model of a system along a predicted trajectory of N
    steps, in tangent coordinates of its states: per step k, the Jacobians
    ``A[k]`` and ``B[k]`` of the step (x_{k+1} = A[k] x_k + B[k] u_k to
    first order) and the Hessians of the stage cost in the state (``Q[k]``)
    and the control (``R[k]``), positive semidefinite; and the Hessian of the
    terminal cost at the last state (``P``)."""

    A: np.ndarray
    B: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    P: np.ndarray


class ManifoldSystem(abc.ABC):
    """Contract between the receding-horizon layer and a concrete system.

    States are opaque to this layer; only the operations below touch them.
    Subclasses must set ``control_dim``.
    """

    control_dim: int = 0

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

    @abc.abstractmethod
    def stage_cost(self, x, u) -> float:
        """Running cost; zero exactly at the equilibrium pair."""

    @abc.abstractmethod
    def terminal_cost(self, x) -> float:
        """Terminal penalty; zero at the equilibrium state.  It must be
        defined at every state that a solvable step reaches: the solver
        takes a :class:`~so3mpc.errors.NotSolvable` from it for an
        unsolvable rollout."""

    @property
    @abc.abstractmethod
    def terminal_level(self) -> float:
        """Level c of the terminal set {x: terminal_cost(x) <= c}."""

    @abc.abstractmethod
    def local_law(self, x) -> np.ndarray:
        """Feedback law valid on the terminal set."""

    @abc.abstractmethod
    def quadratic_model(self, states, torques) -> QuadraticModel:
        """Linear-quadratic model along a predicted rollout: ``states`` are
        the N + 1 states that ``torques``, shape (N, control_dim), visit from
        the first one.  The solver preconditions its descent with the
        horizon Hessian of this model (:func:`_gauss_newton_hessian`); it
        reads nothing of ``A[0]`` and ``Q[0]``, which act on the fixed
        initial state."""

    def steering_control(self, x) -> np.ndarray:
        """Heuristic control used to build cold-start guesses; defaults to
        zero, the equilibrium control."""
        return np.zeros(self.control_dim)

    def project_control(self, u) -> np.ndarray:
        """Exact projection onto the control set; identity by default."""
        return np.asarray(u, dtype=float)

    def step_with_margin(self, x, u):
        """Dynamics step plus the solvability margin it consumed.

        Systems without an implicit step report an infinite margin.
        """
        return self.step(x, u), np.inf

    def step_near(self, x, u, near):
        """:meth:`step_with_margin` of ``x`` and ``u``, given a state
        ``near`` close to the successor; the solver hands each step of a
        finite-difference tail the base rollout's successor at the same step.
        A system with an implicit step may start its solve there; the result
        may differ from :meth:`step_with_margin` at round-off only.  By
        default ``near`` is ignored."""
        return self.step_with_margin(x, u)

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
            if not is_number(value) or not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value!r}")


@dataclass(frozen=True)
class MpcConfig:
    """Horizon length and solver settings of the receding-horizon law."""

    horizon: int = DEFAULT_HORIZON
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
    over (see :func:`solve_ocp`) and takes no part in comparisons.
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
    """The perturbed tails of the last gradient (:meth:`_Objective.gradient`)
    when it was taken at the returned torques, i.e. on every stop that
    reports ``kkt_residual``."""

    system: ManifoldSystem
    tails: Optional[list]


class _Rollout(NamedTuple):
    """A prediction rollout: the states it visits (only the last one for a
    finite-difference tail), its stage costs, shortfalls (``None`` while
    every margin keeps its floor) and terminal value.  None of these depends
    on the penalty weight."""

    states: list
    stage: np.ndarray
    shortfalls: Optional[np.ndarray]
    terminal: float

    @classmethod
    def at(cls, x) -> _Rollout:
        """The rollout of no steps at ``x``; its terminal value is unset."""
        return cls([x], np.empty(0), None, math.nan)

    @property
    def cost(self) -> float:
        """Summed stage costs plus the terminal value."""
        return float(self.stage.sum() + self.terminal)

    @property
    def shortfall_array(self) -> np.ndarray:
        return np.zeros(len(self.stage)) if self.shortfalls is None else self.shortfalls


def _roll_on(
    system: ManifoldSystem, start: _Rollout, controls, end_only: bool = False, near=None
) -> _Rollout:
    """``start`` run on under ``controls``, and the terminal value at its
    end; :class:`~so3mpc.errors.NotSolvable` from a step is raised again
    naming the step, counted from the start of ``start``.  With ``end_only``
    the record keeps only the end state, all that a finite-difference tail
    needs: holding every state of a gradient's tails alive wakes the
    garbage collector and measured about 1 % slower closed loops.  With
    ``near``, one state per control, each step goes through
    :meth:`ManifoldSystem.step_near` with its state.

    The stage costs go through one array, and the shortfall array is built
    only once some margin falls below the floor, so a rollout run on in
    pieces equals the same rollout run at once bit for bit.
    """
    floor = system.step_margin_floor
    done = len(start.stage)
    states = None if end_only else start.states.copy()
    stage = np.empty(done + len(controls))
    shortfalls = None
    if done:
        stage[:done] = start.stage
        if start.shortfalls is not None:
            shortfalls = np.zeros(len(stage))
            shortfalls[:done] = start.shortfalls
    x = start.states[-1]
    for i, u in enumerate(controls, done):
        stage[i] = system.stage_cost(x, u)
        try:
            if near is None:
                x, margin = system.step_with_margin(x, u)
            else:
                x, margin = system.step_near(x, u, near[i - done])
        except NotSolvable as err:
            raise NotSolvable(f"rollout failed at step {i}: {err}", step=i) from err
        if margin < floor:
            if shortfalls is None:
                shortfalls = np.zeros(len(stage))
            shortfalls[i] = floor - margin
        if states is not None:
            states.append(x)
    return _Rollout([x] if end_only else states, stage, shortfalls, system.terminal_cost(x))


def _predict(system: ManifoldSystem, x0, torques) -> _Rollout:
    """The rollout of ``torques`` from ``x0``; an unsolvable step raises
    :class:`~so3mpc.errors.RolloutFailure` naming it."""
    try:
        return _roll_on(system, _Rollout.at(x0), torques)
    except NotSolvable as err:
        raise RolloutFailure(f"prediction rollout failed: {err}") from err


def horizon_cost(system: ManifoldSystem, x0, torques) -> float:
    """Cost of a candidate control sequence: summed stage costs plus the
    terminal penalty at the rolled-out endpoint.  Controls of the wrong shape
    or with a non-finite entry raise ``ValueError``."""
    return _predict(system, x0, _as_control_array(torques, system.control_dim, "torques")).cost


def _as_control_array(torques, control_dim: int, name: str) -> np.ndarray:
    """``torques`` as an (n, control_dim) float array, checked before any
    rollout: a wrong shape, or a NaN or infinity, raises ``ValueError``
    naming ``name`` and the first step with a non-finite entry."""
    arr = np.asarray(torques, dtype=float)
    if arr.size == 0:
        return arr.reshape(0, control_dim)
    if arr.ndim == 1:
        arr = arr.reshape(-1, control_dim)
    if arr.ndim != 2 or arr.shape[1] != control_dim:
        raise ValueError(f"{name} must have shape (n, {control_dim}), got {arr.shape}")
    finite = np.isfinite(arr).all(axis=1)
    if not finite.all():
        step = int(np.argmin(finite))
        raise ValueError(f"{name} must be finite; step {step} is {arr[step]}")
    return arr


class _Objective:
    """Penalized shooting objective with cheap tail re-evaluation for
    finite differences.  The first gradient runs on ``carried``, the tails
    of the previous solve's last gradient, when :func:`solve_ocp` hands them
    over; ``last`` holds the tails of the latest gradient.
    """

    def __init__(self, system: ManifoldSystem, x0, weight: float, carried: Optional[list] = None):
        self.system = system
        self.x0 = x0
        self.weight = weight
        self.level = system.terminal_level
        self.carried = carried
        self.last: Optional[list] = None

    def trial(self, torques: np.ndarray) -> tuple[float, Optional[_Rollout]]:
        """Penalized value and rollout, or ``(math.inf, None)`` when the
        rollout is unsolvable."""
        try:
            rollout = _roll_on(self.system, _Rollout.at(self.x0), torques)
        except NotSolvable:
            return math.inf, None
        return self.value(rollout), rollout

    def value(self, rollout, stage_prefix=0.0, short_prefix=0.0) -> float:
        """Penalized value of the rollout whose first steps are summed in the
        prefixes (stage costs and squared shortfalls) and whose last ones are
        ``rollout``; ``math.inf`` when that is ``None``, i.e. unsolvable."""
        if rollout is None:
            return math.inf
        if rollout.shortfalls is not None:
            short_prefix = short_prefix + (rollout.shortfalls**2).sum()
        excess = max(0.0, rollout.terminal - self.level)
        penalty = self.weight * (excess**2 + short_prefix)
        return float(stage_prefix + rollout.stage.sum() + rollout.terminal + penalty)

    def violation(self, rollout: _Rollout) -> float:
        """The larger of the terminal value's excess over the level and the
        largest shortfall."""
        excess = max(0.0, rollout.terminal - self.level)
        return max(excess, float(rollout.shortfall_array.max(initial=0.0)))

    def gradient(
        self, torques: np.ndarray, base: Optional[_Rollout] = None
    ) -> tuple[np.ndarray, float]:
        """Central-difference gradient with step ``FD_STEP``, re-simulating
        only the rollout tail affected by each perturbed control entry.

        ``base`` is the rollout of ``torques`` when the caller has it (the
        line search's accepted trial); otherwise it is rolled out here.
        When one perturbed tail is unsolvable, the entry falls back to the
        one-sided difference against the base value; when both are, the
        gradient is undefined and :class:`~so3mpc.errors.RolloutFailure`
        names the step and the entry.

        Step k of every tail is handed ``base.states[k + 1]`` through
        :meth:`ManifoldSystem.step_near`, which a carried tail's appended
        step k = N - 1 gets as well.

        The tails are kept in ``last``: ``last[i][2 j]`` raises control
        entry (i, j) by ``FD_STEP`` and ``last[i][2 j + 1]`` lowers it, each
        ``None`` when a step is unsolvable.  A carried tail of step i + 1 is
        this gradient's tail of step i without its last step, and its steps
        were handed the same states (the base rollouts agree on them), so
        running it on gives the tail that a fresh run would, bit for bit.
        """
        system = self.system
        if base is None:
            base = _predict(system, self.x0, torques)
        base_value = self.value(base)
        stage_prefix = np.concatenate([[0.0], np.cumsum(base.stage)])
        short_prefix = np.concatenate([[0.0], np.cumsum(base.shortfall_array**2)])
        n, m = torques.shape
        carried, self.carried = self.carried, None
        appended = torques[-1:]
        grad = np.zeros((n, m))
        tails = []
        for i in range(n):
            start = _Rollout.at(base.states[i])
            tail = torques[i:].copy()
            first = tail[0]
            row = []
            for j in range(m):
                entry = first[j]
                for k, delta in enumerate((FD_STEP, -FD_STEP)):
                    if carried is not None and i + 1 < n:
                        begin, controls, hints = carried[i + 1][2 * j + k], appended, base.states[n:]
                    else:
                        first[j] = entry + delta
                        begin, controls, hints = start, tail, base.states[i + 1:]
                    try:
                        row.append(
                            None if begin is None
                            else _roll_on(system, begin, controls, end_only=True, near=hints)
                        )
                    except NotSolvable:
                        row.append(None)
                first[j] = entry
                up, down = (self.value(r, stage_prefix[i], short_prefix[i]) for r in row[-2:])
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
        self.last = tails
        return grad, base_value


def _project_rows(system: ManifoldSystem, torques: np.ndarray) -> np.ndarray:
    return np.vstack([system.project_control(u) for u in torques])


def _line_search(objective, torques, value, grad, direction):
    """Armijo backtracking from the full step along the projected path
    ``P(torques + alpha * direction)``, measuring the decrease by ``grad``
    times the projected step.  Returns the accepted candidate, its value and
    rollout, or ``None`` once ``alpha`` falls below ``STEP_MIN``."""
    alpha = 1.0
    while alpha >= STEP_MIN:
        candidate = _project_rows(objective.system, torques + alpha * direction)
        decrease_ref = float((grad * (candidate - torques)).sum())
        # A projected quasi-Newton step can turn uphill; it is not rolled out.
        if decrease_ref <= 0.0:
            cand_value, cand_rollout = objective.trial(candidate)
            if cand_value <= value + ARMIJO_C1 * decrease_ref:
                return candidate, cand_value, cand_rollout
        alpha *= ARMIJO_SHRINK
    return None


def _gauss_newton_hessian(model: QuadraticModel) -> np.ndarray:
    """Gauss-Newton Hessian of the horizon cost in the stacked controls,
    H = sum_k G_k^T Q[k] G_k + blockdiag(R[k]) + G_N^T P G_N over
    k = 1 .. N - 1, where G_k maps the controls to the state after k steps;
    an (N m) x (N m) matrix.  Column block j of G_k is
    A[k-1] ... A[j+1] B[j] (Bock & Plitt, 1984)."""
    a, b, q, r, p = model
    horizon, n, m = b.shape
    # Row block k of g is G_{k+1}; its columns past the first k + 1 blocks
    # stay zero.
    g = np.zeros((horizon, n, horizon * m))
    for k in range(horizon):
        if k:
            g[k, :, :k * m] = a[k] @ g[k - 1, :, :k * m]
        g[k, :, k * m:(k + 1) * m] = b[k]
    weights = np.concatenate([q[1:], p[None]])
    hessian = g.reshape(-1, horizon * m).T @ (weights @ g).reshape(-1, horizon * m)
    steps = np.arange(horizon)
    hessian.reshape(horizon, m, horizon, m)[steps, :, steps, :] += r
    return hessian


def _quasi_newton_direction(grad, free, pairs, scale, hessian):
    """Two-metric direction: the limited-memory BFGS step on the ``free``
    entries, from the curvature pairs restricted to them, and the gradient
    step ``-scale * grad`` on the entries the box holds.

    The two-loop recursion starts from gamma H_ff^-1 q, with H_ff the
    ``hessian`` on the free entries, the Gauss-Newton Hessian at the current
    torques (:func:`_gauss_newton_hessian`), and gamma = s.y / (y H_ff^-1 y)
    from the newest pair kept, or 1 when there is none.  The pairs were
    taken at earlier iterates, so they correct this iterate's metric with
    the curvature it lacks."""
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
    torques: np.ndarray,
    settings: SolverSettings,
) -> tuple[np.ndarray, int, Optional[float]]:
    """Limited-memory BFGS descent with two-metric projection onto the box
    and an Armijo search along the projected path.

    An entry counts as held when the projected-gradient step would clip it,
    i.e. it lies on or near the bound and the gradient points outward; it
    takes that gradient step, and the curvature pairs act on the other
    entries only.  The initial metric of the recursion is the Gauss-Newton
    Hessian (:func:`_gauss_newton_hessian`) of the system's
    :meth:`~ManifoldSystem.quadratic_model` along the rollout of the current
    torques, the one their gradient holds; it is built once per iteration,
    after the KKT test, so a descent that stops at its first gradient builds
    none.  Every iteration, the first included, searches along a
    quasi-Newton direction from full length; the descent stops when that
    direction is not a descent direction or its search finds no Armijo
    point.  The curvature pairs carry what the model lacks, above all the
    penalty's curvature.

    Returns the final torques, the iteration count and the KKT residual at
    the final torques, or ``None`` when the relative improvement test
    stopped the descent: that stop skips the last gradient, so no residual
    is known."""
    system = objective.system
    rollout = _predict(system, objective.x0, torques)
    grad, value = objective.gradient(torques, base=rollout)
    # Length of the gradient step that picks and moves the held entries:
    # scaled by the gradient at first, by the latest curvature after that.
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
        hessian = _gauss_newton_hessian(system.quadratic_model(rollout.states, torques))
        direction = _quasi_newton_direction(grad, free, pairs, step, hessian)
        if float((grad * direction).sum()) >= 0.0:
            break
        result = _line_search(objective, torques, value, grad, direction)
        if result is None:
            break
        candidate, cand_value, cand_rollout = result
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
        new_grad, _ = objective.gradient(candidate, base=cand_rollout)
        s, y = candidate - torques, new_grad - grad
        curvature = float((s * y).sum())
        if curvature > 0.0:
            pairs = (pairs + [(s, y)])[-LBFGS_MEMORY:]
            scale = curvature / float((y * y).sum())
        torques, grad, value, rollout = candidate, new_grad, cand_value, cand_rollout
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
    is numerically outside the horizon's domain of attraction.  A warm start
    of the wrong length or with a non-finite entry raises ``ValueError``.

    ``previous`` is the last solution on the same ``system`` object and
    horizon, if any; it changes the work done, never the result.  When
    ``x0`` equals its predicted successor ``states[1]`` entry for entry and
    the warm start is its shift (all but the appended control), the first
    gradient extends the perturbed tails of its last gradient by one step
    each instead of re-running them.
    """
    settings = config.solver
    if warm_start is None:
        torques = steering_rollout(system, x0, config.horizon)
    else:
        torques = _as_control_array(np.array(warm_start, dtype=float, copy=True), system.control_dim, "warm_start")
        if torques.shape[0] != config.horizon:
            raise ValueError(f"warm_start has {torques.shape[0]} steps, expected {config.horizon}")
    torques = _project_rows(system, torques)

    reuse = None if previous is None else previous._reuse
    carried = None
    if (
        reuse is not None
        and reuse.system is system
        # States are opaque: compare whatever arrays they are made of.
        and np.array_equal(np.asarray(x0), np.asarray(previous.states[1]))
        and np.array_equal(torques[:-1], previous.torques[1:])
    ):
        carried = reuse.tails
    weight = PENALTY_WEIGHT
    total_iterations = 0
    for round_index in range(settings.outer_rounds):
        objective = _Objective(system, x0, weight, carried)
        carried = None
        torques, iterations, kkt = _quasi_newton_descent(objective, torques, settings)
        total_iterations += iterations
        rollout = _predict(system, x0, torques)
        violation = objective.violation(rollout)
        if violation <= settings.constraint_tol:
            break
        weight *= PENALTY_GROWTH

    return OcpSolution(
        torques=torques,
        cost=rollout.cost,
        terminal_value=float(rollout.terminal),
        feasible=bool(violation <= settings.constraint_tol),
        iterations=total_iterations,
        kkt_residual=None if kkt is None else float(kkt),
        violation=float(violation),
        states=tuple(rollout.states),
        shortfalls=rollout.shortfall_array,
        # An ftol_rel stop returns torques that no gradient was taken at.
        _reuse=_Reuse(system, None if kkt is None else objective.last),
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
        # The last feasible solution, and its shift once asked for.
        self._previous: Optional[OcpSolution] = None
        self._candidate: Optional[np.ndarray] = None

    def candidate_sequence(self) -> Optional[np.ndarray]:
        """Shifted candidate from the previous solve, if one exists; it is
        computed once per solve, however often it is asked for."""
        if self._candidate is None and self._previous is not None:
            self._candidate = warm_start_shift(self._previous, self.system)
        return self._candidate

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
        self._candidate = None
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
