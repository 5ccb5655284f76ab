import math
from typing import Callable, NamedTuple

import numpy as np
import pytest

import so3mpc.attitude as attitude
import so3mpc.lgvi as lgvi
import so3mpc.mpc as mpc
import so3mpc.terminal as terminal
from so3mpc.attitude import AttitudeMpc, SpacecraftAttitudeSystem, rest_state, spinning_state
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
from so3mpc.terminal import StageWeights, default_weights, design_terminal

J_REF = np.diag([1.0, 1.2, 1.5])
H_REF = 0.1
TORQUE_BOUND_REF = 100.0


def regulate_start():
    """The regulate benchmark's seed-0 start, by its own expressions: 30
    degrees about a fixed axis, spinning at 0.02 rad/s."""
    axis = np.array([0.6, -0.4, 0.69282032])
    spin = np.array([0.02, -0.01, 0.015])
    return spinning_state(
        math.radians(30.0) * (axis / np.linalg.norm(axis)), 0.02 * (spin / np.linalg.norm(spin)), H_REF
    )


def slew_start():
    """The default simulate's start: rest at pi about z."""
    return rest_state([0.0, 0.0, math.pi])


def count_calls(patch, **targets):
    """Count calls for as long as ``patch``, a ``pytest.MonkeyPatch``,
    holds.  Each keyword names a count and gives the function as
    ``(owner, name)`` or ``(owner, name, tally)``: a call adds 1, or
    ``tally`` of its arguments.  Returns the counts, a dict the wrappers
    update.  Wrappers of one function stack, the last one set outermost."""
    counts = {}
    for key, (owner, name, *tally) in targets.items():
        counts[key] = 0
        patch.setattr(owner, name, _counted(counts, key, getattr(owner, name), *tally))
    return counts


def _counted(counts, key, function, tally=None):
    def counted(*args, **kwargs):
        counts[key] += 1 if tally is None else tally(*args, **kwargs)
        return function(*args, **kwargs)

    return counted


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


class ReferenceLoop(NamedTuple):
    """A reference closed loop: the ``AttitudeMpc`` arguments, the start
    and the number of steps.  ``tests/test_reference_runs.py`` pins what
    each one gives."""

    params: dict
    start: Callable
    n_steps: int


REFERENCE_LOOPS = {
    # The default simulate: N = 10, 100 N m, from rest at pi about z.
    "default simulate": ReferenceLoop({}, slew_start, 120),
    # The regulate benchmark's seed-0 start, 30 steps: still settling.
    "regulate": ReferenceLoop({}, regulate_start, 30),
    # The slew where the torque box binds: 1 N m, N = 40, 30 steps.
    "1 N m, N = 40": ReferenceLoop(dict(horizon=40, torque_bound=1.0), slew_start, 30),
}


class CountedRun(NamedTuple):
    """A closed loop run under :func:`count_calls`: the run, the counts over
    the whole loop, and per solve the solution, the counts it took and
    whether it was marked ``shifted``."""

    run: object
    counts: dict
    solves: list


@pytest.fixture(scope="session")
def fitted():
    """One fitted ``AttitudeMpc`` per distinct set of arguments."""
    models = {}

    def fit(params):
        key = tuple(sorted(params.items()))
        if key not in models:
            models[key] = AttitudeMpc(**params).fit()
        return models[key]

    return fit


@pytest.fixture(scope="session")
def reference_run(fitted):
    """The counted run of each reference loop, run once per session."""
    runs = {}

    def run(name):
        if name not in runs:
            loop = REFERENCE_LOOPS[name]
            runs[name] = counted_run(fitted(loop.params), loop.start(), loop.n_steps)
        return runs[name]

    return run


def counted_run(model, x0, n_steps):
    """``model.simulate(x0, n_steps)`` as a :class:`CountedRun`.  It counts
    kernel calls, those that receive an array torque, implicit solves, the
    solves handed a start value and the chord and Newton updates those
    take, central-difference gradients, model builds, their condensings and
    model gradients, evaluations of the stage-cost formula, chart
    logarithm passes (one ``_log_so3_pair`` per single state's
    coordinates) and the Newton updates of the solves handed no start
    value."""
    started = [False]

    def starts(m, constants, near=None):
        # Every update runs inside an implicit solve, so the flag set at a
        # solve's entry is that solve's while its updates run.
        started[0] = near is not None
        return started[0]

    def in_started(*args):
        return started[0]

    def in_unstarted(*args):
        return not started[0]

    def array_torque(state, torque, *args):
        return isinstance(torque, np.ndarray)

    solves = []
    with pytest.MonkeyPatch.context() as patch:
        counts = count_calls(
            patch,
            # The system calls the kernel through its own module's name.
            kernel_calls=(attitude, "step_with_margin"),
            array_torques=(attitude, "step_with_margin", array_torque),
            implicit_solves=(lgvi, "_implicit_increment"),
            started_steps=(lgvi, "_implicit_increment", starts),
            started_chord_updates=(lgvi, "_chord_update", in_started),
            started_newton_updates=(lgvi, "_newton_update", in_started),
            gradients=(mpc._Objective, "gradient"),
            models=(SpacecraftAttitudeSystem, "quadratic_model"),
            condensings=(mpc, "_sensitivities"),
            sweeps=(mpc._Objective, "model_gradient"),
            stage_costs=(StageWeights, "stage_cost"),
            chart_logs=(terminal, "_log_so3_pair"),
            unstarted_updates=(lgvi, "_newton_update", in_unstarted),
        )
        solve = mpc.solve_ocp

        def recorded_solve(*args, **kwargs):
            before = dict(counts)
            solution = solve(*args, **kwargs)
            taken = {key: counts[key] - before[key] for key in counts}
            solves.append((solution, taken, kwargs.get("shifted", False)))
            return solution

        patch.setattr(mpc, "solve_ocp", recorded_solve)
        run = model.simulate(x0, n_steps)
    return CountedRun(run, counts, solves)
