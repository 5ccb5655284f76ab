"""One descent step per warm solve.

Every closed-loop solve after the first starts from the shifted candidate
of the previous solution, marked ``shifted``.  The solve builds the
linear-quadratic model along it once, takes the gradient there from the
model and at most one direction, preconditioned by the same model, and line
search, and returns the accepted point unless the candidate ends inside the
terminal set and that point does not.  Cold
solves descend to the stop rules, with central differences at their
starting point only and the model's gradient at every later point.  Each
model is condensed once, into the sensitivity matrix that gives both its
gradient and its metric.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

import so3mpc.attitude as attitude
import so3mpc.lgvi as lgvi
import so3mpc.mpc as mpc
import so3mpc.terminal as terminal
from so3mpc.attitude import SpacecraftAttitudeSystem, rest_state
from so3mpc.flat import DoubleIntegratorSystem
from so3mpc.mpc import (
    MpcConfig,
    MpcController,
    closed_loop,
    horizon_cost,
    solve_ocp,
    warm_start_shift,
)

from conftest import REFERENCE_LOOPS, count_calls, counted_run, regulate_start


def assert_same_solution(a, b):
    """Two solutions equal bit for bit, by their arrays and the repr of
    their numbers."""
    assert np.array_equal(a.torques, b.torques)
    assert repr((a.cost, a.terminal_value, a.feasible, a.iterations, a.kkt_residual, a.violation)) == repr(
        (b.cost, b.terminal_value, b.feasible, b.iterations, b.kkt_residual, b.violation)
    )
    assert len(a.states) == len(b.states)
    assert all(np.array_equal(np.asarray(x), np.asarray(y)) for x, y in zip(a.states, b.states))


@pytest.fixture(scope="module")
def reference_model(fitted):
    return fitted({})


@pytest.mark.parametrize("name", list(REFERENCE_LOOPS))
def test_warm_solves_take_one_step(name, reference_run, fitted):
    loop = REFERENCE_LOOPS[name]
    model = fitted(loop.params)
    run, solves = reference_run(name).run, reference_run(name).solves
    assert run.feasible.all()
    assert len(solves) == loop.n_steps
    assert [shifted for _, _, shifted in solves] == [False] + [True] * (loop.n_steps - 1)
    for solution, taken, _ in solves[1:]:
        assert solution.iterations <= 1
        # No central differences: one model, condensed once, serves the
        # gradient and the metric.
        assert (taken["gradients"], taken["models"], taken["condensings"], taken["sweeps"]) == (0, 1, 1, 1)
    assert np.all(run.optimal_costs[1:] <= run.candidate_costs[1:])
    # The first solve is cold, and cold solves descend as before.
    assert_same_solution(solves[0][0], solve_ocp(model.system_, loop.start(), model.config_))


def run_record(run):
    """repr of every column of a closed-loop run, its states' entries
    included."""
    columns = (
        run.controls, run.optimal_costs, run.candidate_costs, run.stage_costs, run.terminal_values,
        run.violations, run.feasible, run.iterations, run.distances,
    )
    states = [np.asarray(x).tolist() for x in run.states]
    return repr(([column.tolist() for column in columns], states, run.converged, run.converged_step))


# A repeated step takes no solve.  The cold solve's first rollout repeats
# its steering guess; the plant step repeats the solution's first step, and
# the shifted candidate's first N - 1 steps the rest of the solution's
# rollout; solve_ocp's rollout of the candidate repeats the candidate's
# horizon_cost.  tests/test_reference_runs.py pins the kernel calls and
# implicit solves of each loop.
@pytest.mark.parametrize("name", list(REFERENCE_LOOPS))
def test_kept_steps_leave_the_closed_loop_unchanged(name, reference_run, fitted, monkeypatch):
    # Every step of the fresh run is handed a copy of its state, so that no
    # step finds one the state has kept: each one solves.
    loop, kept = REFERENCE_LOOPS[name], reference_run(name)
    step = attitude.step_with_margin

    def fresh_step(state, *args):
        if state._rows is not None:
            state = lgvi._state_of(*state.entries, state._cayley)
        return step(state, *args)

    monkeypatch.setattr(attitude, "step_with_margin", fresh_step)
    fresh = counted_run(fitted(loop.params), loop.start(), loop.n_steps)
    assert run_record(kept.run) == run_record(fresh.run)
    assert fresh.counts["implicit_solves"] == fresh.counts["kernel_calls"] == kept.counts["kernel_calls"]
    assert kept.counts["implicit_solves"] < kept.counts["kernel_calls"]


# The same repeats read the stage costs and chart coordinates their states
# kept, and so does the model along a valued rollout and the local law at
# the terminal state of a solution.
@pytest.mark.parametrize("name", list(REFERENCE_LOOPS))
def test_kept_values_leave_the_closed_loop_unchanged(name, reference_run, fitted, monkeypatch):
    # Every stage cost and chart coordinate of the fresh run is taken on a
    # copy of its state, so that none finds a value the state has kept.
    loop, kept = REFERENCE_LOOPS[name], reference_run(name)
    stage_cost, coordinates = SpacecraftAttitudeSystem.stage_cost, terminal.coordinates

    def copy(state):
        return lgvi._state_of(*state.entries, state._cayley) if state._rows is not None else state

    def fresh_coordinates(state, h):
        return coordinates(copy(state), h)

    monkeypatch.setattr(SpacecraftAttitudeSystem, "stage_cost", lambda system, x, u: stage_cost(system, copy(x), u))
    monkeypatch.setattr(attitude, "coordinates", fresh_coordinates)
    monkeypatch.setattr(terminal, "coordinates", fresh_coordinates)
    fresh = counted_run(fitted(loop.params), loop.start(), loop.n_steps)
    assert run_record(kept.run) == run_record(fresh.run)
    for key in ("stage_costs", "chart_logs"):
        assert fresh.counts[key] > kept.counts[key]


def gradient_log(monkeypatch, system):
    """The log, in call order, of a solve's central-difference gradients
    (``("differences",)``), model builds (``("build", model)``) and model
    sweeps (``("sweep", model)``)."""
    log = []
    gradient, build, sweep = mpc._Objective.gradient, type(system).quadratic_model, mpc._Objective.model_gradient

    def logged_gradient(objective, *args, **kwargs):
        log.append(("differences",))
        return gradient(objective, *args, **kwargs)

    def logged_build(*args):
        model = build(*args)
        log.append(("build", model))
        return model

    def logged_sweep(objective, model, sensitivity, base):
        log.append(("sweep", model))
        return sweep(objective, model, sensitivity, base)

    monkeypatch.setattr(mpc._Objective, "gradient", logged_gradient)
    monkeypatch.setattr(type(system), "quadratic_model", logged_build)
    monkeypatch.setattr(mpc._Objective, "model_gradient", logged_sweep)
    return log


@pytest.mark.parametrize("name", list(REFERENCE_LOOPS))
def test_unmarked_solve_takes_one_central_difference_gradient(name, reference_run, fitted, monkeypatch):
    # Central differences run once, at the solve's starting point.  Every
    # later gradient is the sweep over a model built along its point's
    # rollout just before it, and that build is the next iteration's metric;
    # the first iteration's metric is one more build.  The first solve of
    # each loop, whose iterations the reference-run table pins.
    loop = REFERENCE_LOOPS[name]
    model = fitted(loop.params)
    system, x0, config = model.system_, loop.start(), model.config_
    iterations = reference_run(name).run.iterations[0]
    log = gradient_log(monkeypatch, system)
    condensed, sensitivities = [], mpc._sensitivities

    def recorded_sensitivities(model):
        condensed.append(model)
        return sensitivities(model)

    monkeypatch.setattr(mpc, "_sensitivities", recorded_sensitivities)
    solution = solve_ocp(system, x0, config)
    monkeypatch.undo()
    assert solution.feasible
    assert solution.iterations == iterations
    # Each model built is condensed once, and nothing else is.
    built = [event[1] for event in log if event[0] == "build"]
    assert len(condensed) == len(built) and all(a is b for a, b in zip(condensed, built))
    gradients = [event for event in log if event[0] != "build"]
    assert gradients[0] == ("differences",)
    sweeps = gradients[1:]
    assert all(event[0] == "sweep" for event in sweeps)
    assert len(sweeps) >= solution.iterations
    for index, event in enumerate(log):
        if event[0] == "sweep":
            assert log[index - 1][0] == "build" and log[index - 1][1] is event[1]
    assert len(log) - len(gradients) == len(sweeps) + 1


def test_candidate_outside_the_set_takes_one_step(reference_model):
    # Zero torques from rest at 3 rad end at a terminal value of 5052.8,
    # above the level 2456.6: the marked start takes its one step all the
    # same, and keeps it.
    system, config = reference_model.system_, reference_model.config_
    x0 = rest_state([0.0, 0.0, 3.0])
    start = np.zeros((config.horizon, 3))
    candidate = mpc._predict(system, x0, start)
    assert candidate.terminal > system.terminal_level
    marked = solve_ocp(system, x0, config, warm_start=start, shifted=True)
    assert marked.iterations == 1
    assert marked.kkt_residual is None
    assert marked.cost < candidate.cost
    assert not np.array_equal(marked.torques, start)


def test_step_out_of_the_terminal_set_keeps_the_candidate(monkeypatch):
    # Four steps from (1, 0) that bring the double integrator to rest at the
    # origin end inside the terminal set of level 1.  The problem is
    # linear-quadratic, so one step under the Gauss-Newton metric lands on
    # its optimum, which ends outside the set: the solve returns its
    # candidate unchanged.
    system = DoubleIntegratorSystem(terminal_level=1.0)
    x0, config = np.array([1.0, 0.0]), MpcConfig(horizon=4)
    steps = [np.linalg.matrix_power(system.A, 3 - k) @ system.B for k in range(4)]
    controls = np.linalg.lstsq(np.hstack(steps), -np.linalg.matrix_power(system.A, 4) @ x0, rcond=None)[0]
    unsolved = replace(config, solver=mpc.SolverSettings(grad_tol=1e9))
    candidate = solve_ocp(system, x0, unsolved, warm_start=controls[:, None])
    assert candidate.feasible and candidate.iterations == 0
    assert solve_ocp(system, x0, config).terminal_value > system.terminal_level
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


@pytest.mark.parametrize("name", list(REFERENCE_LOOPS))
def test_marked_solve_is_one_capped_descent(name, fitted):
    # When the step stays in the terminal set, the marked solve is the
    # descent capped at one iteration and started with the model along the
    # candidate, and the rollout of its result that the descent hands back.
    loop = REFERENCE_LOOPS[name]
    model = fitted(loop.params)
    system, config = model.system_, model.config_
    x1, warm = second_solve(model, loop.start())
    rollout = mpc._predict(system, x1, warm)
    torques, final, iterations, kkt = mpc._gauss_newton_descent(
        mpc._Objective(system, x1),
        warm,
        rollout,
        system.quadratic_model(rollout.states, warm),
        config.solver.grad_tol,
        1,
    )
    assert iterations == 1 and final is not None
    violation = max(0.0, final.terminal - system.terminal_level)
    assert violation <= config.solver.constraint_tol
    reference = mpc.OcpSolution(
        torques, final.cost, float(final.terminal), True, iterations, kkt, float(violation), tuple(final.states)
    )
    assert_same_solution(solve_ocp(system, x1, config, warm_start=warm, shifted=True), reference)


def predicted_solution(system, x0, config, solution):
    """``solution`` with every field its rollout gives taken from a fresh
    prediction of its torques, from a copy of ``x0`` that has kept nothing."""
    rollout = mpc._predict(system, lgvi.check_state(x0), solution.torques)
    violation = max(0.0, rollout.terminal - system.terminal_level)
    return mpc.OcpSolution(
        solution.torques.copy(),
        rollout.cost,
        float(rollout.terminal),
        bool(violation <= config.solver.constraint_tol),
        solution.iterations,
        solution.kkt_residual,
        float(violation),
        tuple(rollout.states),
    )


def counted_predicts(patch):
    """The rollouts that ``mpc._predict`` runs while ``patch`` holds."""
    predicted, predict = [], mpc._predict

    def counted_predict(*args):
        predicted.append(predict(*args))
        return predicted[-1]

    patch.setattr(mpc, "_predict", counted_predict)
    return predicted


@pytest.mark.parametrize("name", list(REFERENCE_LOOPS))
def test_marked_solution_equals_a_fresh_prediction_of_its_torques(name, fitted, monkeypatch):
    # The marked solve reports the rollout that its line search accepted,
    # rolled out once, in place of a rollout of its result after the
    # descent: every field equals one built from a fresh prediction.
    loop = REFERENCE_LOOPS[name]
    model = fitted(loop.params)
    system, config = model.system_, model.config_
    x1, warm = second_solve(model, loop.start())
    predicted = counted_predicts(monkeypatch)
    solution = solve_ocp(system, x1, config, warm_start=warm, shifted=True)
    monkeypatch.undo()
    assert solution.iterations == 1 and solution.kkt_residual is None
    assert len(predicted) == 1
    assert_same_solution(solution, predicted_solution(system, x1, config, solution))


@pytest.mark.parametrize("stop", ["failed search", "no gain"])
def test_cold_stop_after_a_kept_step_reports_its_rollout(stop, reference_model, monkeypatch):
    # A cold solve whose second search fails, or accepts a step that gains
    # nothing, returns its first accepted point and that step's rollout.
    system, config = reference_model.system_, reference_model.config_
    x0 = regulate_start()
    searches, line_search = [], mpc._line_search

    def second_search_stops(objective, torques, value, grad, direction):
        result = line_search(objective, torques, value, grad, direction)
        searches.append(result)
        if len(searches) < 2:
            return result
        return None if stop == "failed search" else (result[0], value, result[2])

    monkeypatch.setattr(mpc, "_line_search", second_search_stops)
    predicted = counted_predicts(monkeypatch)
    solution = solve_ocp(system, x0, config)
    monkeypatch.undo()
    assert len(searches) == 2 and solution.iterations == 2
    assert np.array_equal(solution.torques, searches[0][0])
    assert repr(solution.cost) == repr(searches[0][1])
    assert len(predicted) == 1
    assert_same_solution(solution, predicted_solution(system, x0, config, solution))


def test_unmarked_stop_at_the_first_gradient_rolls_out_once_more(reference_model, monkeypatch):
    # A solve that stops at its first gradient keeps no step: its result is
    # its start, rolled out once more after the descent, 2 N + 3 N (N + 1)
    # steps with the central differences' tails.
    system = CountingAttitude(reference_model.design_)
    config = MpcConfig(horizon=10, solver=mpc.SolverSettings(grad_tol=1e9))
    x0, start = regulate_start(), np.zeros((10, 3))
    predicted = counted_predicts(monkeypatch)
    solution = solve_ocp(system, x0, config, warm_start=start)
    monkeypatch.undo()
    assert solution.iterations == 0 and np.array_equal(solution.torques, start)
    assert len(predicted) == 2
    assert predicted[1] is not predicted[0]
    assert system.steps == 350 and system.terminal_calls == 62
    assert_same_solution(solution, predicted_solution(system, x0, config, solution))


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
    # The start rollout and one rollout per line-search trial: the model's
    # gradient steps nothing and values no terminal cost, no gradient is
    # taken at the returned torques, and their rollout is the accepted
    # trial's, not rolled out again.
    system = CountingAttitude(reference_model.design_)
    config = reference_model.config_
    x1, warm = second_solve(reference_model, regulate_start())
    counts = count_calls(monkeypatch, trials=(mpc._Objective, "trial"), solves=(lgvi, "_implicit_increment"))
    solution = solve_ocp(system, x1, config, warm_start=warm, shifted=True)
    assert solution.iterations == 1
    n = len(warm)
    trials = counts["trials"]
    assert trials >= 1
    assert system.steps == n * (1 + trials)
    assert system.terminal_calls == 1 + trials
    # Kernel solves: the candidate's first n - 1 steps repeat the first
    # solution's rollout from x1, which its states keep; only the
    # candidate's appended step and the trials solve.
    assert counts["solves"] == 1 + n * trials


def test_iteration_cap_takes_no_gradient_at_the_accepted_point(ref_system, monkeypatch):
    # The stop on max_iters returns the accepted torques before their
    # gradient: one gradient per iteration, central differences or the
    # model's sweep, none at the returned torques, no residual.
    x0, config = regulate_start(), MpcConfig(horizon=10, solver=mpc.SolverSettings(max_iters=2))
    ends = []
    gradient, model_gradient = mpc._Objective.gradient, mpc._Objective.model_gradient

    def recorded(method):
        # Both sources take the rollout of the point as ``base``, last.
        def recorded_method(objective, *args, **kwargs):
            base = kwargs.get("base", args[-1])
            ends.append(np.asarray(base.states[-1]))
            return method(objective, *args, **kwargs)

        return recorded_method

    monkeypatch.setattr(mpc._Objective, "gradient", recorded(gradient))
    monkeypatch.setattr(mpc._Objective, "model_gradient", recorded(model_gradient))
    solution = solve_ocp(ref_system, x0, config)
    assert solution.feasible
    assert solution.kkt_residual is None
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
    # A cold first solve, and every later one marked, after a solve that
    # ends outside the terminal set too.
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
    _, solution = controller.step(np.array([5.0, 0.0]))
    assert not solution.feasible
    controller.step(np.zeros(2))
    assert marks == [(False, False), (True, True), (True, True), (True, True)]
