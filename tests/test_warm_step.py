"""One descent step per warm solve.

Every closed-loop solve after the first starts from the shifted candidate
of the previous solution, marked ``shifted``.  When that candidate is
feasible, the solve builds the linear-quadratic model along it once, takes
the gradient there from the model's backward sweep and at most one
direction, preconditioned by the same model, and line search, and returns
the accepted point if it is feasible and the candidate otherwise.  Cold
solves descend to the stop rules, with central differences at their
starting point only and the model's sweep at every later point.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

import so3mpc.mpc as mpc
from so3mpc.attitude import AttitudeMpc, SpacecraftAttitudeSystem, rest_state
from so3mpc.errors import Infeasible
from so3mpc.flat import DoubleIntegratorSystem
from so3mpc.mpc import (
    MpcConfig,
    MpcController,
    closed_loop,
    horizon_cost,
    solve_ocp,
    warm_start_shift,
)

from conftest import regulate_start


def assert_same_solution(a, b):
    """Two solutions equal bit for bit, by their arrays and the repr of
    their numbers."""
    assert np.array_equal(a.torques, b.torques)
    assert repr((a.cost, a.terminal_value, a.feasible, a.iterations, a.kkt_residual, a.violation)) == repr(
        (b.cost, b.terminal_value, b.feasible, b.iterations, b.kkt_residual, b.violation)
    )
    assert len(a.states) == len(b.states)
    assert all(np.array_equal(np.asarray(x), np.asarray(y)) for x, y in zip(a.states, b.states))


def counted_loop(monkeypatch, system, x0, config, n_steps):
    """The closed loop, and per solve the solution, the numbers of
    central-difference gradients, of model builds and of model sweeps it
    took, and whether it was marked ``shifted``."""
    solves = []
    counts = {"gradients": 0, "models": 0, "sweeps": 0}
    gradient, model, solve = mpc._Objective.gradient, type(system).quadratic_model, mpc.solve_ocp

    def counted(name, method):
        def counted_method(*args, **kwargs):
            counts[name] += 1
            return method(*args, **kwargs)

        return counted_method

    def recorded_solve(*args, **kwargs):
        before = dict(counts)
        solution = solve(*args, **kwargs)
        taken = {name: counts[name] - before[name] for name in counts}
        solves.append((solution, taken, kwargs.get("shifted", False)))
        return solution

    monkeypatch.setattr(mpc._Objective, "gradient", counted("gradients", gradient))
    monkeypatch.setattr(type(system), "quadratic_model", counted("models", model))
    monkeypatch.setattr(mpc._Objective, "model_gradient", counted("sweeps", mpc._Objective.model_gradient))
    monkeypatch.setattr(mpc, "solve_ocp", recorded_solve)
    run = closed_loop(system, x0, config, n_steps)
    monkeypatch.undo()
    return run, solves


@pytest.fixture(scope="module")
def reference_model():
    return AttitudeMpc().fit()


@pytest.fixture(scope="module")
def binding_model():
    """The 1 N m design, where the torque box binds, at N = 40, where the
    slew from rest at pi is feasible."""
    return AttitudeMpc(horizon=40, torque_bound=1.0).fit()


LOOPS = {
    # The benchmark's regulate start, 30 steps.
    "regulate": ("reference_model", regulate_start, 30),
    # The default simulate: from rest at pi about z, 120 steps.
    "default slew": ("reference_model", lambda: rest_state([0.0, 0.0, math.pi]), 120),
    "1 N m, N = 40": ("binding_model", lambda: rest_state([0.0, 0.0, math.pi]), 30),
}


@pytest.mark.parametrize("name", list(LOOPS))
def test_warm_solves_take_one_step(name, request, monkeypatch):
    model_name, start, n_steps = LOOPS[name]
    model = request.getfixturevalue(model_name)
    x0 = start()
    run, solves = counted_loop(monkeypatch, model.system_, x0, model.config_, n_steps)
    assert run.feasible.all()
    assert len(solves) == n_steps
    assert [shifted for _, _, shifted in solves] == [False] + [True] * (n_steps - 1)
    for solution, taken, _ in solves[1:]:
        assert solution.iterations <= 1
        # No central differences: one model serves the gradient and the
        # metric.
        assert taken == {"gradients": 0, "models": 1, "sweeps": 1}
    assert np.all(run.optimal_costs[1:] <= run.candidate_costs[1:])
    # The first solve is cold, and cold solves descend as before.
    assert_same_solution(solves[0][0], solve_ocp(model.system_, x0, model.config_))


def gradient_log(monkeypatch, system):
    """The log, in call order, of a solve's central-difference gradients
    (``("differences", weight)``), model builds (``("build", model)``) and
    model sweeps (``("sweep", model, weight)``)."""
    log = []
    gradient, build, sweep = mpc._Objective.gradient, type(system).quadratic_model, mpc._Objective.model_gradient

    def logged_gradient(objective, *args, **kwargs):
        log.append(("differences", objective.weight))
        return gradient(objective, *args, **kwargs)

    def logged_build(*args):
        model = build(*args)
        log.append(("build", model))
        return model

    def logged_sweep(objective, model, base):
        log.append(("sweep", model, objective.weight))
        return sweep(objective, model, base)

    monkeypatch.setattr(mpc._Objective, "gradient", logged_gradient)
    monkeypatch.setattr(type(system), "quadratic_model", logged_build)
    monkeypatch.setattr(mpc._Objective, "model_gradient", logged_sweep)
    return log


COLD_SOLVES = {
    # The first solves of the loops above, and their iteration counts.
    "regulate": 3,
    "default slew": 5,
    "1 N m, N = 40": 7,
    # Three steps from 2.9 rad at rest: the first round stops just outside
    # the terminal set after 11 iterations, and a second, heavier round
    # moves inside it in 7.
    "second penalty round": 18,
}


@pytest.mark.parametrize("name", list(COLD_SOLVES))
def test_unmarked_solve_takes_one_central_difference_gradient(name, request, monkeypatch):
    # Central differences run once, at the solve's starting point.  Every
    # later gradient, in the first round and at the start of the next, is
    # the sweep over a model built along its point's rollout just before it,
    # and that build is the next iteration's metric; the first iteration's
    # metric is one more build.
    if name in LOOPS:
        model_name, start, _ = LOOPS[name]
        model = request.getfixturevalue(model_name)
        system, x0, config = model.system_, start(), model.config_
    else:
        system = request.getfixturevalue("reference_model").system_
        x0, config = rest_state([0.0, 0.6 * 2.9, 0.8 * 2.9]), MpcConfig(horizon=3)
    log = gradient_log(monkeypatch, system)
    solution = solve_ocp(system, x0, config)
    monkeypatch.undo()
    assert solution.feasible
    assert solution.iterations == COLD_SOLVES[name]
    gradients = [event for event in log if event[0] != "build"]
    assert gradients[0] == ("differences", mpc.PENALTY_WEIGHT)
    sweeps = gradients[1:]
    assert all(event[0] == "sweep" for event in sweeps)
    assert len(sweeps) >= solution.iterations - 1
    for index, event in enumerate(log):
        if event[0] == "sweep":
            assert log[index - 1][0] == "build" and log[index - 1][1] is event[1]
    assert len(log) - len(gradients) == len(sweeps) + 1
    weights = {event[-1] for event in gradients}
    if name in LOOPS:
        assert weights == {mpc.PENALTY_WEIGHT}
    else:
        assert weights == {mpc.PENALTY_WEIGHT, mpc.PENALTY_WEIGHT * mpc.PENALTY_GROWTH}


def test_infeasible_candidate_gets_every_penalty_round(reference_model):
    # Zero torques from rest at 3 rad end at a terminal value of 5052.8,
    # above the level 2456.6: the marked start is solved as any warm start.
    system, config = reference_model.system_, reference_model.config_
    x0 = rest_state([0.0, 0.0, 3.0])
    start = np.zeros((config.horizon, 3))
    assert mpc._predict(system, x0, start).terminal > system.terminal_level
    marked = solve_ocp(system, x0, config, warm_start=start, shifted=True)
    assert_same_solution(marked, solve_ocp(system, x0, config, warm_start=start))
    assert marked.feasible
    assert marked.iterations > 1


def test_step_out_of_the_terminal_set_keeps_the_candidate(monkeypatch):
    # A cold solve with a tight terminal set ends on its boundary.  From
    # there, one step at PENALTY_WEIGHT moves toward the optimum of that
    # weight's penalized objective, which lies outside the set: the line
    # search accepts a point 2.7e-3 above the level, and the solve returns
    # its candidate unchanged.
    system = DoubleIntegratorSystem(terminal_level=1.0)
    x0, config = np.array([1.0, 0.0]), MpcConfig(horizon=4)
    candidate = solve_ocp(system, x0, config)
    assert candidate.feasible
    accepted = []
    line_search = mpc._line_search

    def recorded_line_search(*args):
        result = line_search(*args)
        accepted.append(result)
        return result

    monkeypatch.setattr(mpc, "_line_search", recorded_line_search)
    solution = solve_ocp(system, x0, config, warm_start=candidate.torques, shifted=True)
    [(_, _, rollout)] = accepted
    assert rollout.terminal > system.terminal_level + config.solver.constraint_tol
    assert np.array_equal(solution.torques, candidate.torques)
    assert repr((solution.cost, solution.terminal_value, solution.violation)) == repr(
        (candidate.cost, candidate.terminal_value, candidate.violation)
    )
    assert solution.feasible
    assert solution.iterations == 1
    assert solution.kkt_residual is None


def test_shifted_needs_a_warm_start():
    with pytest.raises(ValueError, match="shifted"):
        solve_ocp(DoubleIntegratorSystem(), np.array([1.0, 0.0]), MpcConfig(horizon=4), shifted=True)


def second_solve(model, start):
    """The state after the first closed-loop step from ``start`` and the
    shifted candidate of the first solve there."""
    system, config = model.system_, model.config_
    first = solve_ocp(system, start, config)
    return first.states[1], warm_start_shift(first, system)


@pytest.mark.parametrize("name", list(LOOPS))
def test_marked_solve_is_one_capped_round(name, request):
    # When the step stays in the terminal set, the marked solve is one round
    # of the descent at PENALTY_WEIGHT, capped at one iteration and started
    # with the model along the candidate, and the rollout of its result.
    model_name, start, _ = LOOPS[name]
    model = request.getfixturevalue(model_name)
    system, config = model.system_, model.config_
    x1, warm = second_solve(model, start())
    capped = replace(config.solver, max_iters=1, outer_rounds=1)
    rollout = mpc._predict(system, x1, warm)
    torques, iterations, kkt = mpc._quasi_newton_descent(
        mpc._Objective(system, x1, mpc.PENALTY_WEIGHT),
        warm,
        rollout,
        system.quadratic_model(rollout.states, warm),
        capped,
    )
    final = mpc._predict(system, x1, torques)
    violation = max(0.0, final.terminal - system.terminal_level)
    assert violation <= capped.constraint_tol
    reference = mpc.OcpSolution(
        torques, final.cost, float(final.terminal), True, iterations, kkt, float(violation), tuple(final.states)
    )
    assert_same_solution(solve_ocp(system, x1, config, warm_start=warm, shifted=True), reference)


def test_unmarked_candidate_descends_to_the_stop_rules(reference_model):
    # The same candidate without the marker is solved as any warm start:
    # here to grad_tol, at its second iteration.
    system, config = reference_model.system_, reference_model.config_
    x1, warm = second_solve(reference_model, regulate_start())
    marked = solve_ocp(system, x1, config, warm_start=warm, shifted=True)
    unmarked = solve_ocp(system, x1, config, warm_start=warm)
    assert marked.iterations == 1
    assert marked.kkt_residual is None
    assert unmarked.iterations > 1
    assert unmarked.kkt_residual <= config.solver.grad_tol


def test_converged_candidate_takes_no_step(reference_model):
    # A candidate whose KKT residual is within grad_tol is returned after
    # its gradient, with that residual.
    system = reference_model.system_
    config = MpcConfig(horizon=10, solver=mpc.SolverSettings(grad_tol=1e9))
    x1, warm = second_solve(reference_model, regulate_start())
    solution = solve_ocp(system, x1, config, warm_start=warm, shifted=True)
    assert np.array_equal(solution.torques, warm)
    assert solution.iterations == 0
    assert 0.0 < solution.kkt_residual <= config.solver.grad_tol
    assert repr(solution.cost) == repr(horizon_cost(system, x1, warm))


class CountingAttitude(SpacecraftAttitudeSystem):
    """Counts its own integrator steps and terminal-cost calls."""

    steps = 0
    terminal_calls = 0

    def step_with_margin(self, x, u, near=None):
        self.steps += 1
        return super().step_with_margin(x, u, near)

    def terminal_cost(self, x):
        self.terminal_calls += 1
        return super().terminal_cost(x)


def test_warm_solve_integrator_steps(reference_model, monkeypatch):
    # The start rollout, one rollout per line-search trial and the rollout
    # of the returned torques: the model's gradient steps nothing and values
    # no terminal cost, and no gradient is taken at the returned torques.
    system = CountingAttitude(reference_model.design_)
    config = reference_model.config_
    x1, warm = second_solve(reference_model, regulate_start())
    trials = []
    trial = mpc._Objective.trial
    monkeypatch.setattr(
        mpc._Objective, "trial", lambda objective, torques: trials.append(1) or trial(objective, torques)
    )
    solution = solve_ocp(system, x1, config, warm_start=warm, shifted=True)
    assert solution.iterations == 1
    n = len(warm)
    assert len(trials) >= 1
    assert system.steps == n * (2 + len(trials))
    assert system.terminal_calls == 2 + len(trials)


@pytest.mark.parametrize("stop", ["ftol_rel stop", "iteration cap"])
def test_stop_after_a_line_search_takes_no_gradient_at_the_accepted_point(stop, ref_system, monkeypatch):
    # Both stops return the accepted torques before their gradient: one
    # gradient per iteration, central differences or the model's sweep,
    # none at the returned torques, no residual.
    if stop == "ftol_rel stop":
        # Stops on ftol_rel at its third iteration.
        x0, config = rest_state([0.8, 0.2, -0.4]), MpcConfig(horizon=6)
    else:
        x0, config = regulate_start(), MpcConfig(horizon=10, solver=mpc.SolverSettings(max_iters=2))
    ends = []
    gradient, model_gradient = mpc._Objective.gradient, mpc._Objective.model_gradient

    def recorded(method):
        # Both sources take the rollout of the point as ``base``.
        def recorded_method(objective, first, base):
            ends.append(np.asarray(base.states[-1]))
            return method(objective, first, base)

        return recorded_method

    monkeypatch.setattr(mpc._Objective, "gradient", recorded(gradient))
    monkeypatch.setattr(mpc._Objective, "model_gradient", recorded(model_gradient))
    solution = solve_ocp(ref_system, x0, config)
    assert solution.feasible
    assert solution.kkt_residual is None
    if stop == "iteration cap":
        assert solution.iterations == config.solver.max_iters
    assert len(ends) == solution.iterations
    assert all(not np.array_equal(end, np.asarray(solution.states[-1])) for end in ends)


def marked_loop(system, x0, config, n_steps):
    """The records of :func:`closed_loop` from a loop of explicit solves,
    each after the first marked ``shifted``."""
    x, previous = x0, None
    controls, optimal, candidates, iterations, terminal = [], [], [], [], []
    for _ in range(n_steps):
        warm = None if previous is None else warm_start_shift(previous, system)
        candidates.append(math.nan if warm is None else horizon_cost(system, x, warm))
        previous = solve_ocp(system, x, config, warm_start=warm, shifted=warm is not None)
        assert previous.feasible
        controls.append(previous.first_control)
        optimal.append(previous.cost)
        iterations.append(previous.iterations)
        terminal.append(previous.terminal_value)
        x = system.step(x, previous.first_control)
    return controls, optimal, candidates, iterations, terminal


@pytest.mark.parametrize("axis", [(0.0, 0.0, 1.0), (0.3, 0.2, 1.0)], ids=["default", "tilted"])
def test_closed_loop_equals_loop_of_marked_solves(axis, reference_model):
    # 40 steps of a slew from rest at 180 degrees, the default about z.
    system, config = reference_model.system_, reference_model.config_
    x0 = rest_state(np.pi * np.asarray(axis) / np.linalg.norm(axis))
    run = closed_loop(system, x0, config, 40)
    controls, optimal, candidates, iterations, terminal = marked_loop(system, x0, config, 40)
    assert np.array_equal(run.controls, np.array(controls))
    assert np.array_equal(run.optimal_costs, np.array(optimal))
    assert np.array_equal(run.candidate_costs, np.array(candidates), equal_nan=True)
    assert np.array_equal(run.iterations, np.array(iterations))
    assert np.array_equal(run.terminal_values, np.array(terminal))


def test_controller_marks_only_its_carried_candidate(monkeypatch):
    # A cold first solve, a marked second, and after an infeasible step a
    # cold solve again.
    flat = DoubleIntegratorSystem(terminal_level=1e-6, control_bound=1e-4)
    controller = MpcController(flat, MpcConfig(horizon=3))
    marks = []
    solve = mpc.solve_ocp

    def recorded_solve(*args, **kwargs):
        marks.append((kwargs["warm_start"] is not None, kwargs["shifted"]))
        return solve(*args, **kwargs)

    monkeypatch.setattr(mpc, "solve_ocp", recorded_solve)
    controller.step(np.zeros(2))
    controller.step(np.zeros(2))
    with pytest.raises(Infeasible):
        controller.step(np.array([5.0, 0.0]))
    controller.step(np.zeros(2))
    assert marks == [(False, False), (True, True), (True, True), (False, False)]
