"""Receding-horizon control for systems whose state lives on a manifold.

The layer is generic: any :class:`ManifoldSystem` supplies the discrete
dynamics, a metric, stage and terminal costs, a terminal set level, a local
feedback law, and a linear-quadratic model along a predicted rollout.  The
finite-horizon problem is transcribed by single shooting over the control
sequence, with box bounds handled by projection, and a solve minimizes the
stage costs plus the terminal cost in one descent.  The terminal set
{F <= c} is not imposed: with the terminal cost and the local law certified
on that set, the predicted terminal state enters it on a region of starts
that grows with the horizon (Limon, Alamo, Salas & Camacho, *On the
stability of constrained MPC without terminal constraint*, 2006).  Each
solve reports whether it does, and nothing raises when it does not; a
closed loop is certified after the fact by the decrease of its optimal
cost, V(x+) <= V(x) - l(x, u) (Grüne & Rantzer, *On the infinite horizon
performance of receding horizon controllers*, 2008), which
:func:`~so3mpc.experiments.audit_lyapunov` checks.

Gradients come from one of two sources.  A solve not marked as a warm start
from a shifted candidate takes central finite differences of the rollout
cost once, at its starting point.  Every other gradient (at each accepted
iterate, and the one gradient of a warm solve from a shifted candidate)
comes from the linear-quadratic model along the rollout of its point.  Each
model is condensed once: one forward recursion over its step Jacobians
gives the sensitivity matrix G of the states to the controls
(:func:`_sensitivities`; Bock & Plitt, 1984), the gradient is the one
product G^T w + r with the cost gradients (:meth:`_Objective.model_gradient`,
the adjoint of the linearized rollout that Lee, Leok & McClamroch, 2006,
derive for this integrator, in condensed form), and the Gauss-Newton metric
is G^T W G + blockdiag(R) from the same G (:func:`_gauss_newton_hessian`).
As in the real-time iteration (Diehl, Bock & Schlöder, *A real-time
iteration scheme for nonlinear optimization in optimal feedback control*,
2005), the step is taken on the linearization itself, and the model
condensed for a gradient also gives the next iteration its metric.  The
predictions are defined where every step is: a step that the system reports
unsolvable (:class:`~so3mpc.errors.NotSolvable`) lies outside the
objective's domain, so the line search backs off from a trial that takes one
and a finite-difference tail that takes one gives way to the one-sided
difference (Nocedal & Wright, *Numerical Optimization*, ch. 3).  The descent
is projected Newton with two metrics (Bertsekas, *Projected Newton methods
for optimization problems with simple constraints*, 1982): the free entries
take the Gauss-Newton step, with the Gauss-Newton Hessian of the horizon
cost along the rollout of the current iterate (Bock & Plitt, 1984),
time-varying as in discrete optimal control on Lie groups (Kobilarov &
Marsden, 2011), as their metric, and entries that the box holds against an
outward gradient take the projected-gradient step, of length
1 / max(1, |grad|) at the descent's first gradient throughout.  An Armijo
search along the projected path tries each direction from full length.  The
descent ends where its projected KKT residual falls to ``grad_tol``, where a
search fails, where an accepted step leaves the value unchanged, or at
``max_iters``.
Every prediction, whether the base rollout of a gradient, a line-search
trial, the check of a descent that kept no step or a perturbed
finite-difference tail, is one :class:`_Rollout` record built by one
runner, :func:`_roll_on`, and valued by one formula,
:meth:`_Objective.value`.  Each step of a perturbed tail
is handed the base rollout's state after the same step
(:meth:`ManifoldSystem.step_near`), a start for an implicit step's solve that
lies about one finite-difference step away; every other prediction steps
as a pure function of state and control.  The attitude system's step keeps
each predicted state's last such step (:class:`~so3mpc.lgvi.SpacecraftState`),
so the predictions that repeat an earlier one from the same states take no
implicit solve: a cold solve's rollout of its steering guess from a start
built from entries, as ``lgvi.check_state``, ``rest_state`` and
``spinning_state`` build theirs (a state built from arrays keeps no step),
the closed loop's plant step and the first N - 1 steps of the shifted
candidate, which repeat the previous solution's rollout, and
``solve_ocp``'s rollout of the candidate after the closed loop's
:func:`horizon_cost` of it.  A descent that keeps a step hands back the
rollout its line search accepted, so the returned torques are not rolled
out again.  The same states keep their stage costs and chart coordinates, so
these repeats evaluate no stage cost and take no chart logarithm; only the
terminal value is taken again.  A record sums its stage costs as it goes,
in Python floats and in step order; only the predictions that a caller
reads per step keep per-step values, so a tail builds no array.
A solve warm-started at the shifted candidate of the previous solution
(:func:`warm_start_shift`) takes one descent step from it: one model
gradient at the candidate and, when its KKT residual exceeds ``grad_tol``,
one direction and one Armijo search.  It keeps the accepted point unless
the candidate ends inside the terminal set and that point does not.  A
candidate that ends inside the set costs at most the previous optimum less
the stage cost paid, a descent step keeps that, and the cost-decrease chain
follows: feasibility implies stability (Scokaert, Mayne & Rawlings,
*Suboptimal model predictive control (feasibility implies stability)*,
1999).  One Newton-type step per sample is the real-time iteration cited
above.  A cold solve reports its KKT residual where it stops, ``None`` on
``max_iters``.
States are opaque here: the solver stores what the system's step returns
and hands it back to the system.  The attitude system's states carry their
entries as Python floats and build arrays only when read, so the states of
an :class:`OcpSolution` or a :class:`ClosedLoopRun` are arrays to a caller
while no predicted step builds one.  Controls are arrays at the solver's
boundary and between its iterations, where the projection, the line search
and the Gauss-Newton direction act on the whole (N, control_dim) sequence;
a prediction receives them as rows of Python floats, converted once per
rollout and once per gradient, and never per step.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .errors import NotSolvable, RolloutFailure
from .validation import as_integer, as_parameter, as_positive, check_controls

# Distance to the equilibrium below which a closed loop counts as converged.
DEFAULT_DISTANCE_TOL = 1e-2
# Steps of the prediction horizon of the reference design.
DEFAULT_HORIZON = 10

# Fixed numerics of the shooting solver; the choices are in SolverSettings.
# Central-difference step of the objective gradient.
FD_STEP = 1e-6
# Sufficient-decrease constant and backtracking factor of the Armijo search.
ARMIJO_C1 = 1e-4
ARMIJO_SHRINK = 0.5
# Step length below which the Armijo search gives up.
STEP_MIN = 1e-14


class QuadraticModel(NamedTuple):
    """Linear-quadratic model of a system along a predicted trajectory of N
    steps, in tangent coordinates of its states: per step k, the Jacobians
    ``A[k]`` and ``B[k]`` of the step (x_{k+1} = A[k] x_k + B[k] u_k to
    first order), the Hessians of the stage cost in the state (``Q[k]``)
    and the control (``R[k]``), positive semidefinite, and its gradients in
    the state (``q[k]``, shape (n,)) and the control (``r[k]``, shape (m,));
    and the Hessian (``P``) and gradient (``p``) of the terminal cost at the
    last state.  The solver builds one at every point whose gradient it
    takes after a solve's first and condenses it once, into the sensitivity
    matrix of :func:`_sensitivities`, which gives that gradient and the next
    iteration's metric.  It reads nothing of ``A[0]``, ``Q[0]`` and
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
        list of floats inside a prediction and for the closed loop's paid
        cost, and may be an array for other callers."""

    @abc.abstractmethod
    def terminal_cost(self, x) -> float:
        """Terminal cost; zero at the equilibrium state.  It must be
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
        the first one.  The solver condenses it once into the sensitivity
        matrix G of the states to the controls (:func:`_sensitivities`),
        steps its descent on the horizon Hessian G^T W G +
        blockdiag(R) (:func:`_gauss_newton_hessian`), and takes every
        gradient but the first of an unmarked solve from the first-order
        terms as G^T w + r (:meth:`_Objective.model_gradient`).  None of
        them reads ``A[0]``, ``Q[0]`` or ``q[0]``, which act on the fixed
        initial state."""

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
    """Tuning knobs of the Gauss-Newton shooting solver.

    ``grad_tol`` bounds the projected KKT residual, the norm of u -
    proj(u - grad), at which the descent stops; the default favors
    closed-loop throughput, since the stability guarantees do not depend on
    solving to high precision.  ``max_iters`` caps its iterations.  A
    solve reports its predicted terminal state inside the terminal set when
    the terminal value exceeds the level by at most ``constraint_tol``.  The
    line search is the module constants above.  A warm solve from a shifted
    candidate takes one iteration whatever ``max_iters`` says (see
    :func:`solve_ocp`).

    The counts must be positive integers, where a float with an integral
    value counts, and the tolerances positive and finite numbers; anything
    else raises ``ValueError`` naming the field.
    """

    max_iters: int = 200
    grad_tol: float = 1e-3
    constraint_tol: float = 1e-8

    def __post_init__(self):
        object.__setattr__(self, "max_iters", as_parameter("max_iters", self.max_iters, as_integer, 1))
        for name in ("grad_tol", "constraint_tol"):
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
    torques, from the gradient there (see :func:`solve_ocp`).  It is
    ``None`` when the descent stopped on ``max_iters``, before the gradient
    at the accepted torques, which would serve only this report: every warm
    solve from a shifted candidate that takes its step stops so, on its cap
    of one iteration.

    ``feasible`` says that the predicted terminal state lies in the terminal
    set, its value above the level by at most ``constraint_tol``, and
    ``violation`` is how far the terminal value exceeds the level, zero when
    it does not.  They report; the solve does not impose the set.  Every
    predicted step in ``states`` lies inside the system's domain: the solver
    values no other rollout.
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
    prefixes.
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

    Stepping is a pure function of state and control, so a run without
    ``near`` may repeat an earlier one from the same states: the attitude
    system's step then returns the successors its states kept and solves
    nothing, and its stage costs and chart coordinates return the values
    the states kept (see the module docstring).  A tail's steps keep
    nothing; its stage costs replace the values their states kept, as any
    later stage cost at a state does.
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
    terminal cost at the rolled-out endpoint.  Controls of the wrong shape
    or with a non-finite entry raise ``ValueError``."""
    return _predict(system, x0, check_controls(torques, system.control_dim, "torques")).cost


class _Objective:
    """Shooting objective from ``x0``, the stage costs plus the terminal
    cost, with its gradient by central differences over cheap tail
    re-evaluations or from the system's linear-quadratic model through its
    sensitivity matrix."""

    def __init__(self, system: ManifoldSystem, x0):
        self.system = system
        self.x0 = x0

    def trial(self, torques: np.ndarray) -> tuple[float, Optional[_Rollout]]:
        """Value and rollout, or ``(math.inf, None)`` when the rollout is
        unsolvable."""
        try:
            rollout = _roll_on(self.system, self.x0, torques)
        except NotSolvable:
            return math.inf, None
        return self.value(rollout), rollout

    def value(self, rollout, stage_prefix=0.0) -> float:
        """Value of the rollout whose first steps' stage costs sum to
        ``stage_prefix`` and whose last ones are ``rollout``.  The prefix and
        the rollout's sum are added once, so a tail that a base rollout's
        prefix continues takes no per-step work here."""
        return float(stage_prefix + rollout.stage + rollout.terminal)

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

    def model_gradient(
        self, model: QuadraticModel, sensitivity: np.ndarray, base: _Rollout
    ) -> tuple[np.ndarray, float]:
        """Gradient of the value of ``base`` in its controls, from ``model``,
        the system's model along ``base``, and its ``sensitivity`` matrix G
        (:func:`_sensitivities`); and that value.

        It is the one product G^T (q[1], ..., q[N-1], p) + r, the adjoint of
        the linearized rollout (Lee, Leok & McClamroch, *Optimal attitude
        control of a rigid body using geometrically exact computations on
        SO(3)*, 2006) in condensed form.  It reads nothing of ``q[0]``, which
        acts on the fixed initial state.
        """
        weights = np.concatenate([model.q[1:].ravel(), model.p])
        return (weights @ sensitivity).reshape(model.r.shape) + model.r, self.value(base)


def _line_search(objective, torques, value, grad, direction):
    """Armijo backtracking from the full step, alpha = 1, along the projected
    path ``P(torques + alpha * direction)``, measuring the decrease by
    ``grad`` times the projected step.  Returns the accepted candidate, its
    value and rollout, or ``None`` once ``alpha`` falls below ``STEP_MIN``."""
    alpha = 1.0
    while alpha >= STEP_MIN:
        candidate = objective.system.project_control(torques + alpha * direction)
        decrease_ref = float((grad * (candidate - torques)).sum())
        # Where the box clips a free entry's Gauss-Newton step, the projected
        # step can turn uphill; it is not rolled out.
        if decrease_ref <= 0.0:
            cand_value, cand_rollout = objective.trial(candidate)
            if cand_value <= value + ARMIJO_C1 * decrease_ref:
                return candidate, cand_value, cand_rollout
        alpha *= ARMIJO_SHRINK
    return None


def _sensitivities(model: QuadraticModel) -> np.ndarray:
    """Sensitivity matrix G of the model's rollout, (N n) x (N m): row block
    k maps the stacked controls to the state after k + 1 steps, and its
    column block j is A[k] ... A[j+1] B[j] for j <= k and zero after
    (Bock & Plitt, 1984).  This is the one forward recursion over the model;
    the gradient (:meth:`_Objective.model_gradient`) and the Gauss-Newton
    Hessian (:func:`_gauss_newton_hessian`) both read G.  ``A[0]`` goes
    unread."""
    a, b = model.A, model.B
    horizon, n, m = b.shape
    g = np.zeros((horizon, n, horizon * m))
    g[0, :, :m] = b[0]
    for k in range(1, horizon):
        np.matmul(a[k], g[k - 1, :, :k * m], out=g[k, :, :k * m])
        g[k, :, k * m:(k + 1) * m] = b[k]
    return g.reshape(horizon * n, horizon * m)


def _gauss_newton_hessian(model: QuadraticModel, sensitivity: np.ndarray) -> np.ndarray:
    """Gauss-Newton Hessian of the horizon cost in the stacked controls,
    H = G^T W G + blockdiag(R[k]) with W = blockdiag(Q[1], ..., Q[N-1], P)
    and G the model's ``sensitivity`` matrix (:func:`_sensitivities`); an
    (N m) x (N m) matrix."""
    horizon, n, m = model.B.shape
    weights = np.concatenate([model.Q[1:], model.P[None]])
    weighted = (weights @ sensitivity.reshape(horizon, n, horizon * m)).reshape(horizon * n, horizon * m)
    hessian = sensitivity.T @ weighted
    steps = np.arange(horizon)
    hessian.reshape(horizon, m, horizon, m)[steps, :, steps, :] += model.R
    return hessian


def _gauss_newton_direction(grad, free, step, hessian):
    """Two-metric direction (Bertsekas, 1982): the Gauss-Newton step on the
    ``free`` entries, d_f = -H_ff^-1 g_f with H_ff the ``hessian`` on them,
    the Gauss-Newton Hessian at the current torques
    (:func:`_gauss_newton_hessian`), and the gradient step ``-step * grad``
    on the entries the box holds.  With no entry held, the step solves on
    the whole ``hessian``, which equals the gathered formula bit for bit."""
    flat = grad.ravel()
    if free.all():
        return -np.linalg.solve(hessian, flat).reshape(grad.shape)
    index = np.flatnonzero(free)
    direction = -step * flat
    direction[index] = -np.linalg.solve(hessian.take(index, 0).take(index, 1), flat.take(index))
    return direction.reshape(grad.shape)


def _gauss_newton_descent(
    objective: _Objective,
    torques: np.ndarray,
    rollout: _Rollout,
    model: Optional[QuadraticModel],
    grad_tol: float,
    max_iters: int,
) -> tuple[np.ndarray, Optional[_Rollout], int, Optional[float]]:
    """Projected Gauss-Newton descent: the two-metric direction of
    :func:`_gauss_newton_direction` and an Armijo search along the projected
    path.

    An entry counts as held when the projected-gradient step would clip it,
    i.e. it lies on or near the bound and the gradient points outward; it
    takes that gradient step, and the Gauss-Newton step acts on the other
    entries only.  The step's length is 1 / max(1, |grad|) at the descent's
    first gradient, fixed throughout.  The metric is the Gauss-Newton
    Hessian (:func:`_gauss_newton_hessian`) of the system's
    :meth:`~ManifoldSystem.quadratic_model` along the rollout of the current
    torques, the one their gradient holds.  The model is built and condensed
    once per point: at each accepted point, its sensitivity matrix
    (:func:`_sensitivities`) gives that point's gradient
    (:meth:`_Objective.model_gradient`) and the next iteration's metric, so
    one build and one forward recursion serve both.  Every iteration, the
    first included, searches along its direction from full length.

    ``rollout`` is the rollout of ``torques``, and ``model`` the system's model
    along it or ``None``.  Given a model, the first gradient and the first
    metric are its own.  Without one, the first gradient is central differences
    (:meth:`_Objective.gradient`), and the model for the first metric is built
    and condensed after the KKT test, so a descent that stops at that gradient
    builds none.  Returns the final torques, their rollout, the iteration
    count and the KKT residual at the final torques.  The rollout is the one
    the line search accepted for the final torques, or ``None`` when the
    descent kept no step and returns the given ``torques``, whose rollout is
    ``rollout``.  The descent stops where that residual is at most
    ``grad_tol``, where a search fails, where an accepted step leaves the
    value unchanged (returning the torques before it and their rollout), or
    at the cap ``max_iters``, which returns the accepted torques before their
    gradient and ``None`` for the residual, since only a next iteration would
    read that gradient.  :func:`solve_ocp` passes its settings' ``grad_tol``
    and ``max_iters``, and a cap of one for a warm solve marked ``shifted``."""
    system = objective.system
    if model is None:
        grad, value = objective.gradient(torques, base=rollout)
    else:
        sensitivity = _sensitivities(model)
        grad, value = objective.model_gradient(model, sensitivity, rollout)
    # Length of the gradient step that picks and moves the held entries,
    # fixed for the descent by its first gradient.
    flat = grad.ravel()
    step = 1.0 / max(1.0, math.sqrt(flat.dot(flat)))
    iterations = 0
    kept = None
    kkt = _kkt_residual(system, torques, grad)
    while kkt > grad_tol:
        iterations += 1
        trial = torques - step * grad
        free = system.project_control(trial) == trial
        if model is None:
            model = system.quadratic_model(rollout.states, torques)
            sensitivity = _sensitivities(model)
        direction = _gauss_newton_direction(grad, free, step, _gauss_newton_hessian(model, sensitivity))
        result = _line_search(objective, torques, value, grad, direction)
        if result is None:
            break
        candidate, cand_value, cand_rollout = result
        if iterations == max_iters:
            return candidate, cand_rollout, iterations, None
        if not cand_value < value:
            # An accepted step that gains nothing ends the descent where it
            # stands, with the residual already known there.
            break
        model = system.quadratic_model(cand_rollout.states, candidate)
        sensitivity = _sensitivities(model)
        grad, _ = objective.model_gradient(model, sensitivity, cand_rollout)
        torques, value, kept = candidate, cand_value, cand_rollout
        kkt = _kkt_residual(system, torques, grad)
    return torques, kept, iterations, kkt


def _kkt_residual(system: ManifoldSystem, torques: np.ndarray, grad: np.ndarray) -> float:
    # The 2-norm as np.linalg.norm takes it of a real vector, bit for bit.
    residual = (torques - system.project_control(torques - grad)).ravel()
    return math.sqrt(residual.dot(residual))


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
    """Solve the finite-horizon problem at ``x0`` by shooting: one descent on
    the stage costs plus the terminal cost.

    The terminal set is not imposed.  The reported ``feasible`` flag says
    that the predicted terminal state lies in it, its value within
    ``constraint_tol`` of the level; where the optimum ends outside, as from
    a start too far for the horizon, the solve returns it all the same.
    Every predicted step lies inside the system's domain (see
    :class:`ManifoldSystem`), since the descent starts inside it and accepts
    no trial outside it.  A warm start of the wrong length or with a
    non-finite entry raises ``ValueError``, and one whose own rollout leaves
    the domain raises :class:`~so3mpc.errors.RolloutFailure` naming the
    predicted step; the cold guess (:func:`steering_rollout`) stops steering
    at the last step inside it.

    ``shifted`` marks the warm start as the shifted candidate of the previous
    solution (:func:`warm_start_shift`); without a warm start it raises
    ``ValueError``.  The solve then takes one descent step from the
    candidate, capped at one iteration, whose gradient at the candidate
    comes from the system's model along it (:meth:`_Objective.model_gradient`),
    and whose metric is the same model's, through the same sensitivity matrix.
    It returns the candidate only when the candidate ends inside the terminal
    set and the accepted point does not; otherwise the accepted point, whose
    cost is at most the candidate's.

    Any other solve takes central differences once, at its starting point,
    and every gradient after that from the model along its point's rollout.

    The returned states and values are those of the returned torques'
    rollout that the solve already holds: the one the descent's line search
    accepted, or the candidate's.  Only a descent that kept no step, whose
    torques are the start, rolls them out once more, as a check.
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
    max_iters = settings.max_iters
    if shifted:
        candidate = torques, rollout
        model = system.quadratic_model(rollout.states, torques)
        max_iters = 1
    torques, kept, iterations, kkt = _gauss_newton_descent(
        _Objective(system, x0), torques, rollout, model, settings.grad_tol, max_iters
    )
    # A descent that kept no step returns the start, rolled out once more;
    # otherwise its line search rolled out the returned torques.
    rollout = _predict(system, x0, torques) if kept is None else kept
    level, tol = system.terminal_level, settings.constraint_tol
    if candidate is not None and rollout.terminal - level > tol >= candidate[1].terminal - level:
        # The step left the terminal set that the candidate ends in.
        torques, rollout = candidate
    violation = max(0.0, rollout.terminal - level)

    return OcpSolution(
        torques=torques,
        cost=rollout.cost,
        terminal_value=float(rollout.terminal),
        feasible=bool(violation <= tol),
        iterations=iterations,
        kkt_residual=None if kkt is None else float(kkt),
        violation=float(violation),
        states=tuple(rollout.states),
    )


def warm_start_shift(previous: OcpSolution, system: ManifoldSystem) -> np.ndarray:
    """Shift the previous solution one step and append the local law applied
    at its predicted terminal state.

    When the previous solution ended inside the terminal set, the result ends
    inside it too at the successor state, and costs at most the previous
    optimum less the stage cost paid: the cost-decrease chain.
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
        # The last solution, and its shift once asked for.
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

        The first solve starts cold.  Every other solve starts from the
        previous solution's shift, marked ``shifted``, so that it takes one
        descent step from that candidate (see :func:`solve_ocp`).
        """
        warm = self.candidate_sequence()
        solution = solve_ocp(self.system, x, self.config, warm_start=warm, shifted=warm is not None)
        self._candidate = None
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
    diagnostics: ``feasible`` and ``violations`` say whether each solve's
    predicted terminal state lies in the terminal set.  ``converged_step`` is the first step after which the
    distance to the equilibrium stays below ``distance_tol`` to the end of
    the run, and ``None`` when the last step's distance is not below it;
    ``converged`` says whether there is one.  A run that comes within the
    tolerance and leaves it again has not converged there.

    ``n_steps`` must be an integer of at least 1 and ``distance_tol`` a
    positive finite number, read as the configuration's
    ``experiment.n_steps`` and ``experiment.distance_tol`` are; anything else
    raises ``ValueError`` naming the argument.
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
        u, solution = controller.step(x)
        # As a row, the value the solve's own rollout kept for it.
        stage_costs.append(system.stage_cost(x, u.tolist()))
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
        if not distance < distance_tol:
            converged_step = None
        elif converged_step is None:
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
