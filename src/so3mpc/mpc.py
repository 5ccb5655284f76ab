"""Receding-horizon control for systems whose state lives on a manifold.

The layer is generic: any :class:`ManifoldSystem` supplies the discrete
dynamics, a metric, stage and terminal costs, a terminal set level, a local
feedback law, and a linear-quadratic model along a predicted rollout.  The
finite-horizon problem is transcribed by single shooting over the control
sequence, with box bounds handled by projection, the terminal-set constraint
by a growing quadratic penalty, and gradients from one of two sources.  A
solve not marked as a warm start from a shifted candidate takes central
finite differences of the rollout cost once, at its starting point.  Every
other gradient (at each accepted iterate, at the start of each penalty
round after the first, and the one gradient of a warm solve from a
feasible shifted candidate) comes from the linear-quadratic model along
the rollout of its point, by one backward sweep of the adjoint of the
linearized rollout over its step Jacobians and its cost gradients
(:meth:`_Objective.model_gradient`; Lee, Leok & McClamroch, 2006, derive
that adjoint for this integrator).  As in the real-time iteration (Diehl,
Bock & Schlöder, *A real-time iteration scheme for nonlinear optimization
in optimal feedback control*, 2005), the step is taken on the
linearization itself, and the model built for a gradient also gives the
next iteration its metric.  The predictions are
defined where every step is: a step that the system reports unsolvable
(:class:`~so3mpc.errors.NotSolvable`) lies outside the objective's domain,
so the line search backs off from a trial that takes one and a
finite-difference tail that takes one gives way to the one-sided
difference (Nocedal & Wright, *Numerical Optimization*, ch. 3).  Each
penalty round descends along a limited-memory BFGS direction with two-metric
projection onto the box (Bertsekas, 1982): the quasi-Newton step acts on the
free entries, and entries that the box holds against an outward gradient
take the projected-gradient step, of length 1 / max(1, |grad|) at the round's
first gradient for the whole round.  The recursion's initial inverse Hessian
is the inverse of the Gauss-Newton Hessian of the horizon cost along the
rollout of the current iterate (Bock & Plitt, 1984), time-varying as in
discrete optimal control on Lie groups (Kobilarov & Marsden, 2011), on the
free entries and scaled by the newest curvature pair (Nocedal & Wright,
*Numerical Optimization*, ch. 7).  The curvature pairs carry what that model
leaves out, above all the penalty's curvature.  An Armijo search along the
projected path tries each direction from full length, and a round ends where
that search fails.
Every prediction, whether the base rollout of a gradient, a line-search
trial, the final check or a perturbed finite-difference tail, is one
:class:`_Rollout` record built by one runner, :func:`_roll_on`, and valued
by one formula, :meth:`_Objective.value`.  Each step of a perturbed tail
is handed the base rollout's state after the same step
(:meth:`ManifoldSystem.step_near`), a start for an implicit step's solve that
lies about one finite-difference step away; every other prediction steps
as a pure function of state and control.  A record sums its stage costs as
it goes, in Python floats and in step order; only the predictions that a
caller reads per step keep per-step values, so a tail builds no array.
A solve warm-started at the shifted candidate of the previous solution
(:func:`warm_start_shift`) takes one descent step from it: one model
gradient at the candidate and, when its KKT residual exceeds ``grad_tol``,
one direction and one Armijo search; it keeps the accepted point if that is
feasible and the candidate otherwise.  The candidate is feasible and its
cost falls by at least the stage cost paid, a feasible descent step keeps
both, and that is all recursive feasibility and the cost-decrease chain
need: feasibility implies stability (Scokaert, Mayne & Rawlings, *Suboptimal
model predictive control (feasibility implies stability)*, 1999).  One
Newton-type step per sample is the real-time iteration cited above.  Cold
solves descend until a stop rule of :class:`SolverSettings` holds.
States are opaque here: the solver stores what the system's step returns
and hands it back to the system.  The attitude system's states carry their
entries as Python floats and build arrays only when read, so the states of
an :class:`OcpSolution` or a :class:`ClosedLoopRun` are arrays to a caller
while no predicted step builds one.  Controls are arrays at the solver's
boundary and between its iterations, where the projection, the line search
and the quasi-Newton direction act on the whole (N, control_dim) sequence;
a prediction receives them as rows of Python floats, converted once per
rollout and once per gradient, and never per step.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple, Optional

import numpy as np

from .errors import Infeasible, NotSolvable, RolloutFailure
from .validation import as_integer, as_parameter, as_positive, check_controls

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
# Step length below which the Armijo search gives up.
STEP_MIN = 1e-14
# Curvature pairs (step, gradient change) the quasi-Newton direction keeps.
LBFGS_MEMORY = 5


class QuadraticModel(NamedTuple):
    """Linear-quadratic model of a system along a predicted trajectory of N
    steps, in tangent coordinates of its states: per step k, the Jacobians
    ``A[k]`` and ``B[k]`` of the step (x_{k+1} = A[k] x_k + B[k] u_k to
    first order), the Hessians of the stage cost in the state (``Q[k]``)
    and the control (``R[k]``), positive semidefinite, and its gradients in
    the state (``q[k]``, shape (n,)) and the control (``r[k]``, shape (m,));
    and the Hessian (``P``) and gradient (``p``) of the terminal cost at the
    last state.  The solver builds one at every point whose gradient it
    takes after a solve's first, and takes that gradient and the next
    iteration's metric from it.  It reads nothing of ``A[0]``, ``Q[0]`` and
    ``q[0]``, which act on the fixed initial state."""

    A: np.ndarray
    B: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    P: np.ndarray
    q: np.ndarray
    r: np.ndarray
    p: np.ndarray


class ManifoldSystem(abc.ABC):
    """Contract between the receding-horizon layer and a concrete system.

    States are opaque to this layer; only the operations below touch them.
    Subclasses must set ``control_dim``.

    Inside a prediction, :meth:`stage_cost`, :meth:`step_with_margin` and
    :meth:`step_near` receive the control ``u`` as a list of
    ``control_dim`` Python floats, a row of the solver's controls converted
    once per rollout or per gradient.  :meth:`step` and the calls outside a
    prediction (the closed loop's plant step and stage cost, the cold-start
    guess) receive the float array the solver returns.

    The predictions step through :meth:`step_with_margin` and
    :meth:`step_near`, and their domain is where these return: a step that
    raises :class:`~so3mpc.errors.NotSolvable` is one that the solver never
    values.  A system narrows that domain by raising there, as the attitude
    system does below its solvability floor.
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
        """Running cost; zero exactly at the equilibrium pair.  ``u`` is a
        list of floats inside a prediction and an array outside one."""

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
        horizon Hessian of this model (:func:`_gauss_newton_hessian`), and
        takes every gradient but the first of an unmarked solve from the
        first-order terms by one backward sweep
        (:meth:`_Objective.model_gradient`).  Neither reads ``A[0]``,
        ``Q[0]`` or ``q[0]``, which act on the fixed initial state."""

    def steering_control(self, x) -> np.ndarray:
        """Heuristic control used to build cold-start guesses; defaults to
        zero, the equilibrium control."""
        return np.zeros(self.control_dim)

    def project_control(self, u) -> np.ndarray:
        """Exact projection onto the control set, as a float array; identity
        by default.  ``u`` is one control, shape (control_dim,), or a stack
        of them, shape (N, control_dim), which is projected row by row: the
        solver projects a whole control sequence in one call."""
        return np.asarray(u, dtype=float)

    def step_with_margin(self, x, u):
        """Dynamics step plus the solvability margin it consumed; raises
        :class:`~so3mpc.errors.NotSolvable` outside the predictions' domain.

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


@dataclass(frozen=True)
class SolverSettings:
    """Tuning knobs of the penalized quasi-Newton shooting solver.

    ``grad_tol`` bounds the projected-gradient norm at acceptance and
    ``ftol_rel`` stops the iteration once two accepted steps in a row improve
    the penalized objective by less than this relative amount; the defaults
    favor closed-loop throughput, since the stability guarantees do not
    depend on solving to high precision.  ``max_iters`` caps the iterations
    of one penalty round, and ``outer_rounds`` the rounds; a round whose
    terminal value exceeds the terminal level by at most ``constraint_tol``
    ends the solve.  The penalty schedule and line search are the module
    constants above.  A warm solve from a feasible shifted candidate takes
    one iteration of one round whatever these caps say (see
    :func:`solve_ocp`).

    The counts must be positive integers, where a float with an integral
    value counts, and the tolerances positive and finite numbers; anything
    else raises ``ValueError`` naming the field.
    """

    max_iters: int = 200
    grad_tol: float = 1e-3
    ftol_rel: float = 1e-4
    outer_rounds: int = 6
    constraint_tol: float = 1e-8

    def __post_init__(self):
        for name in ("max_iters", "outer_rounds"):
            object.__setattr__(self, name, as_parameter(name, getattr(self, name), as_integer, 1))
        for name in ("grad_tol", "ftol_rel", "constraint_tol"):
            object.__setattr__(self, name, as_parameter(name, getattr(self, name), as_positive, False))


@dataclass(frozen=True)
class MpcConfig:
    """Horizon length and solver settings of the receding-horizon law."""

    horizon: int = DEFAULT_HORIZON
    solver: SolverSettings = field(default_factory=SolverSettings)

    def __post_init__(self):
        object.__setattr__(self, "horizon", as_parameter("horizon", self.horizon, as_integer, 1))
        if not isinstance(self.solver, SolverSettings):
            raise ValueError(f"solver must be a SolverSettings, got {self.solver!r}")


@dataclass(frozen=True)
class OcpSolution:
    """Result of one finite-horizon solve.

    ``kkt_residual`` is the norm of u - proj(u - grad) at the returned
    torques under the last penalty round's objective.  It is ``None`` when
    that round stopped after a line search, on ``ftol_rel`` (two small
    relative improvements in a row) or on ``max_iters``: the solver stops
    before the gradient at the accepted torques, which would serve only this
    report.  Every warm solve from a shifted candidate that takes its step
    stops so, on its cap of one iteration.  A stop on ``grad_tol`` or on a
    failed line search reports it, from the gradient at the returned
    torques: central differences where an unmarked solve returns its
    starting point at its first gradient, and the model's backward sweep
    everywhere else (see :func:`solve_ocp`).

    ``violation`` is how far the terminal value exceeds the terminal level,
    zero when it does not.  Every predicted step in ``states`` lies inside
    the system's domain: the solver values no other rollout.
    """

    torques: np.ndarray
    cost: float
    terminal_value: float
    feasible: bool
    iterations: int
    kkt_residual: Optional[float]
    violation: float
    states: tuple

    @property
    def first_control(self) -> np.ndarray:
        return self.torques[0]


class _Rollout:
    """A prediction rollout: the states it visits, its stage costs as a
    running sum of Python floats, added in step order, and its terminal
    value.  A rollout run without start states (see :func:`_roll_on`) keeps
    every state and, per step, the sum before it (``prefixes``); a
    finite-difference tail keeps its end state only and ``None`` for the
    prefixes.  None of these depends on the penalty weight.
    A gradient builds 60 of them at N = 10, so this is a slotted class: a
    ``NamedTuple``'s generated constructor takes about half as long again.
    """

    __slots__ = ("states", "stage", "terminal", "prefixes")

    def __init__(self, states, stage, terminal, prefixes):
        self.states, self.stage, self.terminal, self.prefixes = states, stage, terminal, prefixes

    @property
    def cost(self) -> float:
        """Summed stage costs plus the terminal value."""
        return float(self.stage + self.terminal)


def _roll_on(system: ManifoldSystem, x0, controls, near=None) -> _Rollout:
    """The rollout of ``controls`` from ``x0``, and the terminal value at its
    end; :class:`~so3mpc.errors.NotSolvable` from a step is raised again
    naming the step, counted from the first of ``controls``.

    ``controls`` is a list of rows of Python floats, or an (n, control_dim)
    float array, which is turned into one here, once: every step and stage
    cost receives its control as a list of floats.  A row holds the same
    numbers either way, so both give the same rollout bit for bit.

    Without ``near`` the record keeps every state and, per step, the sum
    before it.  With ``near``, one state per control, the run is a
    finite-difference tail: each step goes through
    :meth:`ManifoldSystem.step_near` with its state, and the record keeps the
    end state and the sum only, all that a tail's value reads.  Holding the
    states of a gradient's tails alive wakes the garbage collector.
    """
    if type(controls) is np.ndarray:
        controls = controls.tolist()
    x, stage = x0, 0.0
    keep = near is None
    if keep:
        states, prefixes = [x0], []
    for i, u in enumerate(controls):
        if keep:
            prefixes.append(stage)
        stage += system.stage_cost(x, u)
        try:
            x, _ = system.step_with_margin(x, u) if keep else system.step_near(x, u, near[i])
        except NotSolvable as err:
            raise NotSolvable(f"rollout failed at step {i}: {err}", step=i) from err
        if keep:
            states.append(x)
    if keep:
        return _Rollout(states, stage, system.terminal_cost(x), prefixes)
    return _Rollout([x], stage, system.terminal_cost(x), None)


def _predict(system: ManifoldSystem, x0, torques) -> _Rollout:
    """The rollout of ``torques`` from ``x0``; an unsolvable step raises
    :class:`~so3mpc.errors.RolloutFailure` naming it."""
    try:
        return _roll_on(system, x0, torques)
    except NotSolvable as err:
        raise RolloutFailure(f"prediction rollout failed: {err}") from err


def horizon_cost(system: ManifoldSystem, x0, torques) -> float:
    """Cost of a candidate control sequence: summed stage costs plus the
    terminal penalty at the rolled-out endpoint.  Controls of the wrong shape
    or with a non-finite entry raise ``ValueError``."""
    return _predict(system, x0, check_controls(torques, system.control_dim, "torques")).cost


class _Objective:
    """Penalized shooting objective, with its gradient by central differences
    over cheap tail re-evaluations or by a backward sweep over the system's
    linear-quadratic model."""

    def __init__(self, system: ManifoldSystem, x0, weight: float):
        self.system = system
        self.x0 = x0
        self.weight = weight
        self.level = system.terminal_level

    def trial(self, torques: np.ndarray) -> tuple[float, Optional[_Rollout]]:
        """Penalized value and rollout, or ``(math.inf, None)`` when the
        rollout is unsolvable."""
        try:
            rollout = _roll_on(self.system, self.x0, torques)
        except NotSolvable:
            return math.inf, None
        return self.value(rollout), rollout

    def value(self, rollout, stage_prefix=0.0) -> float:
        """Penalized value of the rollout whose first steps' stage costs sum
        to ``stage_prefix`` and whose last ones are ``rollout``.  The prefix
        and the rollout's sum are added once, so a tail that a base rollout's
        prefix continues takes no per-step work here."""
        excess = max(0.0, rollout.terminal - self.level)
        return float(stage_prefix + rollout.stage + rollout.terminal + self.weight * excess**2)

    def gradient(self, torques: np.ndarray, base: _Rollout) -> tuple[np.ndarray, float]:
        """Central-difference gradient with step ``FD_STEP``, re-simulating
        only the rollout tail affected by each perturbed control entry.

        ``base`` is the rollout of ``torques``.  The solver takes this
        gradient once per unmarked solve, at its starting point.
        When one perturbed tail is unsolvable, the entry falls back to the
        one-sided difference against the base value; when both are, the
        gradient is undefined and :class:`~so3mpc.errors.RolloutFailure`
        names the step and the entry.

        Step k of every tail is handed ``base.states[k + 1]`` through
        :meth:`ManifoldSystem.step_near`.  A tail of step i keeps its end
        state and the sum of its own stage costs, from zero; its value adds
        it to the base rollout's sum before step i, ``base.prefixes[i]``.

        The tails run on ``torques`` as rows of Python floats, converted once
        here: a tail of step i is the list copy of row i with one entry
        moved, then the rows after it.  Python's float add rounds as numpy's
        does, so every perturbed control equals the array entry plus
        ``FD_STEP`` bit for bit.
        """
        system = self.system
        base_value = self.value(base)
        n, m = torques.shape
        rows = torques.tolist()
        grad = np.zeros((n, m))
        for i in range(n):
            start = base.states[i]
            first = rows[i].copy()
            tail = [first] + rows[i + 1:]
            hints = base.states[i + 1:]
            prefix = base.prefixes[i]
            for j in range(m):
                entry = first[j]
                values = []
                for delta in (FD_STEP, -FD_STEP):
                    first[j] = entry + delta
                    try:
                        values.append(self.value(_roll_on(system, start, tail, hints), prefix))
                    except NotSolvable:
                        values.append(math.inf)
                first[j] = entry
                up, down = values
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
        return grad, base_value

    def model_gradient(self, model: QuadraticModel, base: _Rollout) -> tuple[np.ndarray, float]:
        """Gradient of the penalized value of ``base`` in its controls, from
        ``model``, the system's model along ``base``, and that value.

        One backward sweep of the adjoint of the linearized rollout (Lee,
        Leok & McClamroch, *Optimal attitude control of a rigid body using
        geometrically exact computations on SO(3)*, 2006), with F the
        terminal value, c the level and w the weight:
        lam_N = (1 + 2 w max(0, F - c)) p, g_k = B[k]^T lam_{k+1} + r[k] and
        lam_k = A[k]^T lam_{k+1} + q[k].  It stops at g_0, so ``A[0]`` and
        ``q[0]`` go unread.
        """
        a, b, r, q = model.A, model.B, model.r, model.q
        lam = (1.0 + 2.0 * self.weight * max(0.0, base.terminal - self.level)) * model.p
        grad = np.empty(r.shape)
        for k in range(len(grad) - 1, -1, -1):
            grad[k] = lam @ b[k] + r[k]
            if k:
                lam = lam @ a[k] + q[k]
        return grad, self.value(base)


def _line_search(objective, torques, value, grad, direction):
    """Armijo backtracking from the full step along the projected path
    ``P(torques + alpha * direction)``, measuring the decrease by ``grad``
    times the projected step.  Returns the accepted candidate, its value and
    rollout, or ``None`` once ``alpha`` falls below ``STEP_MIN``."""
    alpha = 1.0
    while alpha >= STEP_MIN:
        candidate = objective.system.project_control(torques + alpha * direction)
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
    a, b, q, r, p = model.A, model.B, model.Q, model.R, model.P
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


def _quasi_newton_direction(grad, free, pairs, step, hessian):
    """Two-metric direction: the limited-memory BFGS step on the ``free``
    entries, from the curvature pairs restricted to them, and the gradient
    step ``-step * grad`` on the entries the box holds.

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
    return np.where(free, -r, -step * grad)


def _quasi_newton_descent(
    objective: _Objective,
    torques: np.ndarray,
    rollout: _Rollout,
    model: Optional[QuadraticModel],
    settings: SolverSettings,
) -> tuple[np.ndarray, int, Optional[float]]:
    """Limited-memory BFGS descent with two-metric projection onto the box
    and an Armijo search along the projected path.

    An entry counts as held when the projected-gradient step would clip it,
    i.e. it lies on or near the bound and the gradient points outward; it
    takes that gradient step, and the curvature pairs act on the other
    entries only.  The step's length is 1 / max(1, |grad|) at the round's
    first gradient, fixed for the whole round.  The initial metric of the
    recursion is the Gauss-Newton Hessian (:func:`_gauss_newton_hessian`) of
    the system's :meth:`~ManifoldSystem.quadratic_model` along the rollout
    of the current torques, the one their gradient holds.  The model is
    built once per point: at each accepted point, where its backward sweep
    (:meth:`_Objective.model_gradient`) gives that point's gradient and its
    Hessian the next iteration's metric, so one build serves both.  Every
    iteration, the first included, searches along a quasi-Newton direction
    from full length; the descent stops when that direction is not a
    descent direction or its search finds no Armijo point.  The curvature
    pairs carry what the model lacks, above all the penalty's curvature.

    ``rollout`` is the rollout of ``torques``, and ``model`` the system's
    model along it or ``None``.  Given a model, the first gradient is its
    sweep and the first metric its Hessian.  Without one, the first
    gradient is central differences (:meth:`_Objective.gradient`), and the
    model for the first metric is built after the KKT test, so a descent
    that stops at that gradient builds none.  Returns the final torques,
    the iteration count and the KKT residual at the final torques, or
    ``None`` when the descent stopped after a line search, on the relative
    improvement test or on ``max_iters``: such a stop returns the accepted
    torques before their gradient, which only a next iteration would read,
    so no residual is known."""
    system = objective.system
    if model is None:
        grad, value = objective.gradient(torques, base=rollout)
    else:
        grad, value = objective.model_gradient(model, rollout)
    # Length of the gradient step that picks and moves the held entries,
    # fixed for the round by its first gradient.
    step = 1.0 / max(1.0, float(np.linalg.norm(grad)))
    pairs = []
    iterations = 0
    small_improvements = 0
    kkt = _kkt_residual(system, torques, grad)
    while kkt > settings.grad_tol:
        iterations += 1
        trial = torques - step * grad
        free = system.project_control(trial) == trial
        if model is None:
            model = system.quadratic_model(rollout.states, torques)
        hessian = _gauss_newton_hessian(model)
        direction = _quasi_newton_direction(grad, free, pairs, step, hessian)
        if float((grad * direction).sum()) >= 0.0:
            break
        result = _line_search(objective, torques, value, grad, direction)
        if result is None:
            break
        candidate, cand_value, cand_rollout = result
        # One tiny improvement can be an artifact of a backtracked step that
        # the next one recovers from; require two in a row.
        if value - cand_value <= settings.ftol_rel * max(1.0, abs(cand_value)):
            small_improvements += 1
        else:
            small_improvements = 0
        if small_improvements >= 2 or iterations == settings.max_iters:
            return candidate, iterations, None
        model = system.quadratic_model(cand_rollout.states, candidate)
        new_grad, _ = objective.model_gradient(model, cand_rollout)
        s, y = candidate - torques, new_grad - grad
        if float((s * y).sum()) > 0.0:
            pairs = (pairs + [(s, y)])[-LBFGS_MEMORY:]
        torques, grad, value = candidate, new_grad, cand_value
        kkt = _kkt_residual(system, torques, grad)
    return torques, iterations, kkt


def _kkt_residual(system: ManifoldSystem, torques: np.ndarray, grad: np.ndarray) -> float:
    projected = system.project_control(torques - grad)
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
    shifted: bool = False,
) -> OcpSolution:
    """Solve the finite-horizon problem at ``x0`` by penalized shooting.

    The reported ``feasible`` flag certifies that the terminal value is
    within ``constraint_tol`` of the terminal level; an infeasible result
    signals that the solver could not steer ``x0`` into the terminal set,
    i.e. that ``x0`` is numerically outside the horizon's domain of
    attraction.  Every predicted step lies inside the system's domain (see
    :class:`ManifoldSystem`), since the descent starts inside it and accepts
    no trial outside it.  A warm start of the wrong length or with a
    non-finite entry raises ``ValueError``, and one whose own rollout leaves
    the domain raises :class:`~so3mpc.errors.RolloutFailure` naming the
    predicted step; the cold guess (:func:`steering_rollout`) stops steering
    at the last step inside it.

    ``shifted`` marks the warm start as the shifted candidate of the previous
    solution (:func:`warm_start_shift`); without a warm start it raises
    ``ValueError``.  When the candidate's own rollout is feasible at ``x0``,
    the solve takes one descent step from it: one penalty round at
    ``PENALTY_WEIGHT`` capped at one iteration, whose gradient at the
    candidate is the backward sweep over the system's model along it
    (:meth:`_Objective.model_gradient`), and whose metric is the same
    model's.  It returns the accepted point if that point is feasible and
    the candidate otherwise.  The result
    is then feasible, and its cost exceeds the candidate's by at most the
    penalty on the candidate's terminal excess, zero inside the terminal
    set.  A candidate that is not feasible at ``x0`` gets every penalty
    round, as any warm start does.

    Any other solve takes central differences once, at its starting point:
    every gradient after that is the backward sweep over the model along
    its point's rollout, and each penalty round after the first starts with
    the model along the rollout of the torques the round before returned.
    """
    settings = config.solver
    if warm_start is None:
        if shifted:
            raise ValueError("shifted marks a warm start, but none was given")
        torques = steering_rollout(system, x0, config.horizon)
    else:
        torques = check_controls(warm_start, system.control_dim, "warm_start").copy()
        if torques.shape[0] != config.horizon:
            raise ValueError(f"warm_start has {torques.shape[0]} steps, expected {config.horizon}")
    torques = system.project_control(torques)
    rollout = _predict(system, x0, torques)

    candidate = model = None
    if shifted and rollout.terminal - system.terminal_level <= settings.constraint_tol:
        candidate = torques, rollout
        model = system.quadratic_model(rollout.states, torques)
        settings = replace(settings, max_iters=1, outer_rounds=1)
    weight = PENALTY_WEIGHT
    total_iterations = 0
    for round_index in range(settings.outer_rounds):
        if round_index:
            model = system.quadratic_model(rollout.states, torques)
        objective = _Objective(system, x0, weight)
        torques, iterations, kkt = _quasi_newton_descent(objective, torques, rollout, model, settings)
        total_iterations += iterations
        rollout = _predict(system, x0, torques)
        violation = max(0.0, rollout.terminal - objective.level)
        if violation <= settings.constraint_tol:
            break
        weight *= PENALTY_GROWTH
    if candidate is not None and violation > settings.constraint_tol:
        # The step left the terminal set that the candidate ends in.
        torques, rollout = candidate
        violation = max(0.0, rollout.terminal - objective.level)

    return OcpSolution(
        torques=torques,
        cost=rollout.cost,
        terminal_value=float(rollout.terminal),
        feasible=bool(violation <= settings.constraint_tol),
        iterations=total_iterations,
        kkt_residual=None if kkt is None else float(kkt),
        violation=float(violation),
        states=tuple(rollout.states),
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

        The first solve, and the one after an infeasible step, start cold.
        Every other solve starts from the previous solution's shift, marked
        ``shifted``, so that it takes one descent step from that candidate
        when the candidate is feasible at ``x`` (see :func:`solve_ocp`).

        Raises :class:`~so3mpc.errors.Infeasible` when the solver cannot
        reach feasibility at ``x``; the controller then forgets the previous
        solution, whose shifted candidate belongs to an earlier state, and
        the next step starts cold.
        """
        warm = self.candidate_sequence()
        solution = solve_ocp(self.system, x, self.config, warm_start=warm, shifted=warm is not None)
        self._candidate = None
        if not solution.feasible:
            self._previous = None
            level = self.system.terminal_level
            raise Infeasible(
                f"finite-horizon problem infeasible: terminal value {solution.terminal_value:.6g} "
                f"exceeds the level {level:.6g} by {solution.violation:.3e}"
            )
        self._previous = solution
        return solution.first_control, solution


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

    Each record holds, per step, the cost of the returned solution
    (``optimal_costs``: the optimum of a cold solve as far as the stop rules
    reach, and at a warm step the result of one descent step from the
    candidate), the cost of the shifted candidate evaluated at the current
    state (the recursive-feasibility witness; NaN at the first step where no
    candidate exists yet), the stage cost actually paid, and solver
    diagnostics.

    ``n_steps`` must be an integer of at least 1 and ``distance_tol`` a
    positive finite number, read as the configuration's
    ``experiment.n_steps`` and ``experiment.distance_tol`` are; anything else
    raises ``ValueError`` naming the argument.  Raises
    :class:`~so3mpc.errors.Infeasible` with the failing step index if any
    solve fails.
    """
    n_steps = as_parameter("n_steps", n_steps, as_integer, 1)
    distance_tol = as_parameter("distance_tol", distance_tol, as_positive, False)
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
