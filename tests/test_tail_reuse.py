"""Reuse of the previous solve's finite-difference tails.

A warm-started solve at the previous solution's predicted successor, under
that solution's shift, extends each perturbed tail of the previous solve's
last gradient by one step.  Everything the solver computes must equal a
fresh solve's bit for bit; only the number of integrator steps may differ.
"""

import math

import numpy as np
import pytest

from so3mpc.attitude import SpacecraftAttitudeSystem, rest_state
from so3mpc.lgvi import SOLVABILITY_FLOOR, SpacecraftState
from so3mpc.mpc import (
    FD_STEP,
    PENALTY_WEIGHT,
    MpcConfig,
    SolverSettings,
    _Objective,
    _predict,
    closed_loop,
    horizon_cost,
    solve_ocp,
    warm_start_shift,
)

from conftest import BoundedStepIntegrator, assert_same_tail, integrator_margins, regulate_start

# Stops every solve after its first gradient, which it reports.
FIRST_GRADIENT = MpcConfig(horizon=10, solver=SolverSettings(grad_tol=1e9))
# A rest attitude whose solve at N = 6 stops on ftol_rel, at its third
# iteration.
FTOL_START = [0.8, 0.2, -0.4]
# From rest, a torque tau about z leaves a margin of 1 - (h^2 tau)^2 / 4,
# zero at 200 N m.  Here every margin after it lies about 5e-9 above
# SOLVABILITY_FLOOR, and raising that torque, or moving any other about z
# by FD_STEP in the direction that adds to the spin, takes a margin below it.
FLOOR_TORQUES = np.zeros((6, 3))
FLOOR_TORQUES[1, 2] = 200.0 - 1.005e-4


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


def counted(system, solve):
    """``solve()`` and the steps and terminal-cost calls it made."""
    steps, terminal_calls = system.steps, system.terminal_calls
    result = solve()
    return result, system.steps - steps, system.terminal_calls - terminal_calls


def assert_same_solution(a, b):
    assert np.array_equal(a.torques, b.torques)
    assert repr((a.cost, a.terminal_value, a.violation, a.kkt_residual)) == repr(
        (b.cost, b.terminal_value, b.violation, b.kkt_residual)
    )
    assert (a.feasible, a.iterations) == (b.feasible, b.iterations)
    assert all(np.array_equal(np.asarray(x), np.asarray(y)) for x, y in zip(a.states, b.states))


class TestCarriedGradient:
    """The first gradient at the successor, with and without the previous
    gradient's tails."""

    @pytest.fixture(params=["regulate", "saturated", "floor", "double integrator"])
    def case(self, request, ref_design, ref_system):
        """(system, start, torques, the torques shifted one step)."""
        if request.param == "regulate":
            x0 = regulate_start()
            solution = solve_ocp(ref_system, x0, MpcConfig(horizon=10))
            return ref_system, x0, solution.torques, warm_start_shift(solution, ref_system)
        if request.param == "saturated":
            weak = SpacecraftAttitudeSystem(ref_design, torque_bound=1.0)
            axis = np.array([0.8, 0.5, -0.3])
            x0 = rest_state(1.2 * axis / np.linalg.norm(axis))
            torques = solve_ocp(weak, x0, MpcConfig(horizon=10)).torques
            assert (np.abs(torques) == weak.torque_bound).sum() >= 10
            return weak, x0, torques, np.vstack([torques[1:], [[1.0, -1.0, 1.0]]])
        if request.param == "floor":
            shifted = np.vstack([FLOOR_TORQUES[1:], np.zeros((1, 3))])
            return ref_system, SpacecraftState.identity(), FLOOR_TORQUES, shifted
        # A double integrator whose step is unsolvable for |u| > 1, with one
        # control 5e-7 below that bound.
        torques = np.random.default_rng(3).uniform(-0.9, 0.9, (8, 1))
        torques[2, 0] = 1.0 - 5e-7
        shifted = np.vstack([torques[1:], [[0.1]]])
        return BoundedStepIntegrator(), np.array([1.0, -0.5]), torques, shifted

    def test_equals_fresh_gradient(self, case, monkeypatch):
        system, x0, torques, shifted = case
        previous = _Objective(system, x0, PENALTY_WEIGHT)
        previous.gradient(torques, _predict(system, x0, torques))
        carried_tails = previous.last
        successor = _predict(system, x0, torques).states[1]
        # The raw tails do not depend on the weight, so they carry from one
        # penalty round to another.
        carried = _Objective(system, successor, 10.0 * PENALTY_WEIGHT, carried_tails)
        fresh = _Objective(system, successor, 10.0 * PENALTY_WEIGHT)
        step = system.step_with_margin
        calls = []
        monkeypatch.setattr(
            system, "step_with_margin", lambda x, u, *near: calls.append(1) or step(x, u, *near)
        )
        grad, value = carried.gradient(shifted, _predict(system, successor, shifted))
        carried_steps = len(calls)
        fresh_grad, fresh_value = fresh.gradient(shifted, _predict(system, successor, shifted))
        assert np.array_equal(grad, fresh_grad)
        assert repr(value) == repr(fresh_value)
        for row, fresh_row in zip(carried.last, fresh.last):
            for tail, fresh_tail in zip(row, fresh_row):
                assert_same_tail(tail, fresh_tail)
        # The base rollout, one step per solvable carried tail, and one per
        # tail of the appended control.
        n, m = shifted.shape
        solvable = sum(tail is not None for row in carried_tails[1:] for tail in row)
        assert carried_steps == n + solvable + 2 * m
        assert carried.carried is None

    def test_floor_case_has_tails_below_the_floor(self, ref_system):
        # Every tail the gradient drops is solvable: it is outside the domain
        # only because a margin falls below SOLVABILITY_FLOOR.
        x0, torques = SpacecraftState.identity(), FLOOR_TORQUES
        objective = _Objective(ref_system, x0, PENALTY_WEIGHT)
        objective.gradient(torques, _predict(ref_system, x0, torques))
        dropped = 0
        for i, row in enumerate(objective.last):
            for index, tail in enumerate(row):
                if tail is None:
                    j, k = divmod(index, 2)
                    perturbed = torques.copy()
                    perturbed[i, j] += (FD_STEP, -FD_STEP)[k]
                    margins = integrator_margins(ref_system, x0, perturbed)
                    assert margins is not None and min(margins) < SOLVABILITY_FLOOR
                    dropped += 1
        assert dropped >= 5


class TestCarriedSolve:
    @pytest.fixture
    def counting(self, ref_design):
        return CountingAttitude(ref_design)

    def test_first_gradient_counts(self, counting):
        first = solve_ocp(counting, regulate_start(), FIRST_GRADIENT)
        x1, warm = first.states[1], warm_start_shift(first, counting)
        carried, steps, terminal_calls = counted(
            counting,
            lambda: solve_ocp(counting, x1, FIRST_GRADIENT, warm_start=warm, previous=first),
        )
        fresh, fresh_steps, fresh_terminal_calls = counted(
            counting, lambda: solve_ocp(counting, x1, FIRST_GRADIENT, warm_start=warm)
        )
        assert_same_solution(carried, fresh)
        # N (2 m + 1) = 70 steps and 2 m N + 1 = 61 terminal-cost calls in
        # the gradient, where a fresh one takes 340 and 61; then the check
        # rollout's 10 steps and one call.
        assert (steps, terminal_calls) == (80, 62)
        assert (fresh_steps, fresh_terminal_calls) == (350, 62)

    @pytest.mark.parametrize(
        "change", ["one ulp off", "other system", "other horizon", "ftol_rel stop"]
    )
    def test_other_starts_take_the_full_path(self, change, counting, ref_design):
        system, config = counting, FIRST_GRADIENT
        if change == "ftol_rel stop":
            previous = solve_ocp(system, rest_state(FTOL_START), MpcConfig(horizon=6))
            assert previous.kkt_residual is None
            config = MpcConfig(horizon=6)
        else:
            previous = solve_ocp(system, regulate_start(), config)
        x, warm = previous.states[1], warm_start_shift(previous, system)
        if change == "one ulp off":
            g = x.g.copy()
            g[0, 1] = np.nextafter(g[0, 1], math.inf)
            x = SpacecraftState(g, x.f)
        elif change == "other system":
            system = CountingAttitude(ref_design)
        elif change == "other horizon":
            config, warm = MpcConfig(horizon=9, solver=config.solver), warm[:9]
        given, steps, terminal_calls = counted(
            system, lambda: solve_ocp(system, x, config, warm_start=warm, previous=previous)
        )
        fresh, fresh_steps, fresh_terminal_calls = counted(
            system, lambda: solve_ocp(system, x, config, warm_start=warm)
        )
        assert_same_solution(given, fresh)
        assert (steps, terminal_calls) == (fresh_steps, fresh_terminal_calls)

    def test_ftol_rel_stop_keeps_no_tails(self, ref_system):
        solution = solve_ocp(ref_system, rest_state(FTOL_START), MpcConfig(horizon=6))
        assert solution.kkt_residual is None
        assert solution._reuse.system is ref_system
        assert solution._reuse.tails is None


def fresh_loop(system, x0, config, n_steps):
    """The records of :func:`closed_loop` from solves that are handed no
    previous solution, and the solves' ``kkt_residual`` values."""
    x, previous = x0, None
    controls, optimal, candidates, iterations, residuals = [], [], [], [], []
    for _ in range(n_steps):
        warm = None if previous is None else warm_start_shift(previous, system)
        candidates.append(math.nan if warm is None else horizon_cost(system, x, warm))
        previous = solve_ocp(system, x, config, warm_start=warm)
        assert previous.feasible
        controls.append(previous.first_control)
        optimal.append(previous.cost)
        iterations.append(previous.iterations)
        residuals.append(previous.kkt_residual)
        x = system.step(x, previous.first_control)
    return (
        np.array(controls), np.array(optimal), np.array(candidates), np.array(iterations), residuals
    )


class TestClosedLoop:
    @pytest.mark.parametrize("axis", [(0.0, 0.0, 1.0), (0.3, 0.2, 1.0)], ids=["default", "tilted"])
    def test_matches_loop_of_fresh_solves(self, axis, ref_design):
        # 40 steps of a slew from rest at 180 degrees, the default about z.
        # A solve that stops on ftol_rel keeps no tails: the first 13 of the
        # tilted slew's solves, and the cold first solve of the default.
        system = CountingAttitude(ref_design)
        x0 = rest_state(np.pi * np.asarray(axis) / np.linalg.norm(axis))
        config = MpcConfig(horizon=10)
        run, steps, _ = counted(system, lambda: closed_loop(system, x0, config, 40))
        fresh, fresh_steps, _ = counted(system, lambda: fresh_loop(system, x0, config, 40))
        controls, optimal, candidates, iterations, residuals = fresh
        assert np.array_equal(run.controls, controls)
        assert np.array_equal(run.optimal_costs, optimal)
        assert np.array_equal(run.candidate_costs, candidates, equal_nan=True)
        assert np.array_equal(run.iterations, iterations)
        # Each solve after one with tails saves 270 steps.
        ftol_stops = sum(kkt is None for kkt in residuals[:-1])
        assert 40 - 1 - ftol_stops >= 26
        assert fresh_steps - steps == 270 * (40 - 1 - ftol_stops)
