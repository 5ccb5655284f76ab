"""The shooting solver against a reference descent.

``oracle_projected_gradient`` is the projected-gradient descent with
Barzilai-Borwein steps that the package used before its limited-memory
quasi-Newton descents, and ``OracleObjective`` the central-difference
gradient rolling every perturbed tail out in full through
``rollout_data``, with its states list and per-step arrays, and
valuing it through ``reference_value``, which sums those arrays in step
order as the package's running sums do.  The two descents stop at different
points, so they are compared by what a solve must deliver, not bit for bit:
the package's solve is feasible whenever the reference's is, ends no higher
on the penalized objective than ``ftol_rel`` allows and evaluates no more
gradients.
"""

import contextlib
import functools
import math
import operator
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import so3mpc.mpc as mpc
from so3mpc.attitude import SpacecraftAttitudeSystem, rest_state, spinning_state
from so3mpc.errors import NotSolvable, RolloutFailure
from so3mpc.flat import DoubleIntegratorSystem
from so3mpc.lgvi import SpacecraftState
from so3mpc.mpc import (
    MpcConfig,
    SolverSettings,
    _kkt_residual,
    _Objective,
    _roll_on,
    _Rollout,
    solve_ocp,
    warm_start_shift,
)

from conftest import H_REF, BoundedStepIntegrator, assert_same_tail, integrator_margins


class RolloutData(NamedTuple):
    states: list
    stage: np.ndarray
    terminal: float


def rollout_data(system, x0, torques) -> RolloutData:
    """Roll out from ``x0`` in one piece, building the array of stage costs;
    :class:`~so3mpc.errors.NotSolvable` from a step, which puts it outside
    the objective's domain, is raised again naming the step."""
    states = [x0]
    stage = np.empty(len(torques))
    x = x0
    for i, u in enumerate(torques):
        stage[i] = system.stage_cost(x, u)
        try:
            x, _ = system.step_with_margin(x, u)
        except NotSolvable as err:
            raise NotSolvable(f"rollout failed at step {i}: {err}", step=i) from err
        states.append(x)
    return RolloutData(states, stage, system.terminal_cost(x))


def in_step_order(values) -> float:
    """The sum of ``values`` added one at a time from zero, the order of the
    package's running sums; numpy's ``sum`` adds eight or more values
    pairwise."""
    return functools.reduce(operator.add, np.asarray(values, dtype=float).tolist(), 0.0)


def reference_value(objective, data, stage_prefix=0.0):
    """Penalized value of a rollout whose first steps' stage costs sum to
    ``stage_prefix`` and whose last ones are the reference rollout
    ``data``."""
    excess = max(0.0, data.terminal - objective.level)
    return float(stage_prefix + in_step_order(data.stage) + data.terminal + objective.weight * excess**2)


def reference_record(data) -> _Rollout:
    """The package's record of the reference rollout ``data``: its stage
    costs summed in step order, and the sum before each step."""
    stage = np.concatenate([[0.0], np.cumsum(data.stage)]).tolist()
    return _Rollout(data.states, stage[-1], data.terminal, stage[:-1])


def reference_violation(objective, data):
    return max(0.0, data.terminal - objective.level)


def oracle_tail_value(objective, x_start, tail, stage_prefix):
    """The tail value through a full :func:`rollout_data`."""
    try:
        data = rollout_data(objective.system, x_start, tail)
    except NotSolvable:
        return math.inf
    return reference_value(objective, data, stage_prefix)


class OracleObjective(_Objective):
    """:class:`_Objective` with the reference gradient and tail value.  It
    rolls its base out itself: a handed-over rollout is the package's."""

    def gradient(self, torques, base=None):
        try:
            data = rollout_data(self.system, self.x0, torques)
        except NotSolvable as err:
            raise RolloutFailure(f"prediction rollout failed: {err}") from err
        base_value = reference_value(self, data)
        stage_prefix = np.concatenate([[0.0], np.cumsum(data.stage)])
        n, m = torques.shape
        grad = np.zeros((n, m))
        for i in range(n):
            x_i = data.states[i]
            tail = torques[i:].copy()
            base_entry = tail[0].copy()
            for j in range(m):
                values = []
                for sign in (1.0, -1.0):
                    tail[0] = base_entry
                    tail[0, j] = base_entry[j] + sign * mpc.FD_STEP
                    values.append(oracle_tail_value(self, x_i, tail, stage_prefix[i]))
                tail[0] = base_entry
                up, down = values
                if math.isfinite(up) and math.isfinite(down):
                    grad[i, j] = (up - down) / (2.0 * mpc.FD_STEP)
                elif math.isfinite(down):
                    grad[i, j] = (base_value - down) / mpc.FD_STEP
                elif math.isfinite(up):
                    grad[i, j] = (up - base_value) / mpc.FD_STEP
                else:
                    raise RolloutFailure(
                        f"finite-difference gradient undefined at step {i}, control "
                        f"entry {j}: both perturbed rollouts are unsolvable"
                    )
        return grad, base_value


# The reference's first Barzilai-Borwein step, divided by max(1, |grad|), and
# the upper bound on every step; the lower bound is the package's STEP_MIN.
STEP_INIT = 1.0
STEP_MAX = 1e3


def oracle_projected_gradient(objective, torques, rollout, model, settings):
    """Reference descent: projected gradient with Barzilai-Borwein steps and
    an Armijo line search, evaluating the gradient at every accepted
    candidate, also the one its relative-improvement stop then returns.  It
    takes the package descent's arguments and returns what it returns; it
    reads neither the rollout nor the model, and takes every gradient by
    central differences."""
    system = objective.system
    grad, value = objective.gradient(torques)
    bb_step = STEP_INIT / max(1.0, float(np.linalg.norm(grad)))
    iterations = 0
    small_improvements = 0
    kkt = _kkt_residual(system, torques, grad)
    for _ in range(settings.max_iters):
        if kkt <= settings.grad_tol:
            break
        iterations += 1
        alpha = float(np.clip(bb_step, mpc.STEP_MIN, STEP_MAX))
        accepted = False
        for _ in range(60):
            candidate = system.project_control(torques - alpha * grad)
            cand_value, cand_data = objective.trial(candidate)
            decrease_ref = float((grad * (candidate - torques)).sum())
            if cand_value <= value + mpc.ARMIJO_C1 * decrease_ref:
                accepted = True
                break
            alpha *= mpc.ARMIJO_SHRINK
            if alpha < mpc.STEP_MIN:
                break
        if not accepted:
            break
        improvement = value - cand_value
        new_grad, _ = objective.gradient(candidate, base=cand_data)
        step_vec = candidate - torques
        grad_vec = new_grad - grad
        curvature = float((step_vec * grad_vec).sum())
        if curvature > 0.0:
            bb_step = float((step_vec * step_vec).sum()) / curvature
        else:
            bb_step = STEP_INIT
        torques, grad, value = candidate, new_grad, cand_value
        kkt = _kkt_residual(system, torques, grad)
        if improvement <= settings.ftol_rel * max(1.0, abs(value)):
            small_improvements += 1
            if small_improvements >= 2:
                break
        else:
            small_improvements = 0
    return torques, iterations, kkt


class Counted(NamedTuple):
    solution: object
    # Torques at which each central-difference gradient was evaluated.
    gradient_points: list
    # The rollout handed to each model sweep.
    sweep_bases: list
    # (penalty weight, reported KKT residual) per penalty round.
    rounds: list

    @property
    def gradients(self):
        return len(self.gradient_points) + len(self.sweep_bases)

    @property
    def residuals(self):
        return [kkt for _, kkt in self.rounds]


@contextlib.contextmanager
def counting(oracle=False):
    """Route solves through the package's descent or the reference's and
    record the torques of every central-difference gradient, the rollout of
    every model sweep and, per penalty round, the weight and the reported
    KKT residual."""
    points = []
    sweeps = []
    rounds = []
    base = OracleObjective if oracle else _Objective
    descent = oracle_projected_gradient if oracle else mpc._quasi_newton_descent

    class Counting(base):
        def gradient(self, torques, *args, **kwargs):
            points.append(torques.copy())
            return super().gradient(torques, *args, **kwargs)

        def model_gradient(self, model, base):
            sweeps.append(base)
            return super().model_gradient(model, base)

    def counted_descent(objective, *args):
        result = descent(objective, *args)
        rounds.append((objective.weight, result[2]))
        return result

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mpc, "_Objective", Counting)
        patch.setattr(mpc, "_quasi_newton_descent", counted_descent)
        yield points, sweeps, rounds


def counted_solve(system, x0, config, warm_start=None, oracle=False):
    with counting(oracle) as (points, sweeps, rounds):
        solution = solve_ocp(system, x0, config, warm_start=warm_start)
    return Counted(solution, points, sweeps, rounds)


def penalized_value(system, x0, torques, weight):
    objective = _Objective(system, x0, weight)
    return reference_value(objective, rollout_data(system, x0, torques))


def check_against_oracle(system, x0, config, warm_start=None, strict=True):
    """Solve through the package and the reference and assert that the
    package's solve

    - is feasible whenever the reference's is;
    - ends, under the reference's last penalty weight, at a penalized
      objective no higher than the reference's by more than ``ftol_rel``
      relative, or, when neither reaches feasibility, at a violation no
      higher by more than ``ftol_rel`` relative;
    - evaluates no more gradients than the reference.

    With ``strict=False`` the objective and violation may exceed the
    reference's by ten times ``ftol_rel`` and the gradient count is not
    compared: see ``test_relations_over_attitude_starts``.  Returns the
    package's record."""
    new = counted_solve(system, x0, config, warm_start)
    old = counted_solve(system, x0, config, warm_start, oracle=True)
    settings = config.solver
    slack = settings.ftol_rel * (1.0 if strict else 10.0)
    assert new.solution.feasible or not old.solution.feasible
    if new.solution.feasible or old.solution.feasible:
        weight = old.rounds[-1][0]
        reference = penalized_value(system, x0, old.solution.torques, weight)
        value = penalized_value(system, x0, new.solution.torques, weight)
        assert value <= reference + slack * max(1.0, abs(reference))
    else:
        assert new.solution.violation <= old.solution.violation * (1.0 + slack)
    if strict:
        assert new.gradients <= old.gradients
    assert new.solution.kkt_residual == new.residuals[-1]
    # The package's report describes its own final torques.
    data = rollout_data(system, x0, new.solution.torques)
    violation = reference_violation(_Objective(system, x0, new.rounds[-1][0]), data)
    assert repr(new.solution.violation) == repr(violation)
    assert repr(new.solution.cost) == repr(float(in_step_order(data.stage) + data.terminal))
    return new


class TestSolveMatchesOracle:
    def test_warm_attitude_solve(self, ref_system):
        x0 = spinning_state([0.3, -0.2, 0.4], [0.02, -0.01, 0.015], H_REF)
        config = MpcConfig(horizon=10)
        first = solve_ocp(ref_system, x0, config)
        successor = ref_system.step(x0, first.first_control)
        warm = warm_start_shift(first, ref_system)
        check_against_oracle(ref_system, successor, config, warm)

    def test_cold_saturated_solve_at_1nm(self, ref_design):
        weak = SpacecraftAttitudeSystem(ref_design, torque_bound=1.0)
        x0 = rest_state(1.2 * np.array([0.8, 0.5, -0.3]) / np.linalg.norm([0.8, 0.5, -0.3]))
        new = check_against_oracle(weak, x0, MpcConfig(horizon=10))
        assert np.abs(new.solution.torques).max() == weak.torque_bound

    def test_second_penalty_round(self, ref_system):
        # Three steps from 2.9 rad at rest: the first round, at the default
        # weight, stops on ftol_rel just outside the terminal set, and a
        # second, heavier round moves the torques inside it.
        new = check_against_oracle(
            ref_system, rest_state([0.0, 0.6 * 2.9, 0.8 * 2.9]), MpcConfig(horizon=3)
        )
        assert len(new.rounds) == 2
        assert new.solution.feasible

    def test_infeasible_start_runs_every_round(self, ref_design):
        # At 1 N m four steps cannot reach the terminal set from 2.8 rad: all
        # six rounds run.  The first stops on ftol_rel and reports no
        # residual; once the saturated torques minimize the violation, the
        # heavier rounds find no Armijo point and report theirs.
        system = SpacecraftAttitudeSystem(ref_design, torque_bound=1.0)
        new = check_against_oracle(system, rest_state([0.0, 0.6 * 2.8, 0.8 * 2.8]), MpcConfig(horizon=4))
        assert len(new.rounds) == 6
        assert new.residuals[0] is None
        assert new.solution.kkt_residual is not None
        assert not new.solution.feasible

    @pytest.mark.parametrize("tight", [False, True])
    def test_double_integrator(self, tight):
        system = DoubleIntegratorSystem(terminal_level=5.0, control_bound=0.5)
        solver = SolverSettings(max_iters=500, grad_tol=1e-9, ftol_rel=1e-12) if tight else SolverSettings()
        new = check_against_oracle(
            system, np.array([1.0, 0.0]), MpcConfig(horizon=8, solver=solver)
        )
        if tight:
            # Stopped on grad_tol: the residual is reported and small.
            assert None not in new.residuals
            assert new.solution.kkt_residual <= 1e-9

    def test_ftol_stop_skips_one_gradient(self, ref_system):
        # Twice the angle of the rest starts that now stop on grad_tol at
        # their second iteration (0.4, 0.1, -0.2 with N = 6 did so once the
        # metric followed the rollout): this one stops on ftol_rel at its
        # third.
        new = counted_solve(ref_system, rest_state([0.8, 0.2, -0.4]), MpcConfig(horizon=6))
        assert new.residuals == [None]
        assert new.solution.kkt_residual is None
        returned = new.solution.torques.tobytes()
        assert all(point.tobytes() != returned for point in new.gradient_points)
        end = np.asarray(new.solution.states[-1])
        assert all(not np.array_equal(np.asarray(base.states[-1]), end) for base in new.sweep_bases)

    @settings(deadline=None, max_examples=10)
    @given(
        st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=3, max_size=3).filter(
            lambda v: np.linalg.norm(v) > 0.1
        ),
        st.floats(min_value=0.1, max_value=3.0),
        st.lists(st.floats(min_value=-0.2, max_value=0.2), min_size=3, max_size=3),
        st.booleans(),
    )
    def test_relations_over_attitude_starts(self, ref_system, axis, angle, rate, warm):
        # Both descents stop on the same loose ftol_rel rule, which bounds
        # neither one's distance from the optimum, so per start the relations
        # of the fixed cases above are no invariant.  Among about 2,000 draws
        # from this strategy a Barzilai-Borwein step once ended 1.6e-4
        # relative lower (0.5 rad about (1, 0, 1) spinning at (-0.125, 0,
        # -0.1875) rad/s, warm), and some met the stop a few gradients
        # sooner (0.1 rad about x spinning at 0.14 rad/s about z, cold: 7
        # gradients against 10).  Here the objective may exceed the
        # reference's by 10 ftol_rel, and the gradient counts are not
        # compared.
        x0 = spinning_state(angle * np.asarray(axis) / np.linalg.norm(axis), rate, H_REF)
        config = MpcConfig(horizon=10)
        warm_start = None
        if warm:
            first = solve_ocp(ref_system, x0, config)
            assume(first.feasible)
            x0 = ref_system.step(x0, first.first_control)
            warm_start = warm_start_shift(first, ref_system)
        check_against_oracle(ref_system, x0, config, warm_start, strict=False)


def no_hints(tail):
    """The ``near`` states of a finite-difference tail that is handed no
    start for its steps; both systems here step as without one."""
    return [None] * len(tail)


def lean_tail(objective, x_start, tail):
    """A tail as the package's gradient runs it, without start states: its
    end state and sums only, and ``None`` when unsolvable."""
    try:
        return _roll_on(objective.system, x_start, tail, no_hints(tail))
    except NotSolvable:
        return None


def lean_tail_value(objective, x_start, tail, stage_prefix):
    """The tail value as the package's gradient computes it: ``math.inf``
    for an unsolvable tail, which lies outside the domain."""
    rollout = lean_tail(objective, x_start, tail)
    return math.inf if rollout is None else objective.value(rollout, stage_prefix)


class HighFloorAttitude(SpacecraftAttitudeSystem):
    """The attitude system with a solvability floor of 9e-3, which puts the
    margins of a first torque near 200 N m about z on both sides of it: a
    step whose margin falls below it is outside the domain, as one below
    ``SOLVABILITY_FLOOR`` is for the attitude system."""

    floor = 9e-3

    def step_with_margin(self, x, u, near=None):
        successor, margin = super().step_with_margin(x, u, near)
        if margin < self.floor:
            raise NotSolvable(f"margin {margin:.3e} below the test floor {self.floor:.0e}")
        return successor, margin


def near_floor_tail(rng):
    """A start at rest and six controls whose first is 198.2-199.9 N m about
    z.  From rest that torque leaves a margin of 1 - (h^2 tau)^2 / 4, about
    0.001-0.018: on either side of the 9e-3 floor, and later steps fall on
    either side too."""
    x = rest_state(rng.uniform(-0.3, 0.3, 3))
    tail = rng.uniform(-0.3, 0.3, (6, 3))
    tail[0, 2] = rng.uniform(198.2, 199.9) * rng.choice([-1.0, 1.0])
    return x, tail


class TestLeanTailValue:
    """The value of a tail from the package's rollout runner against the
    value of a full :func:`rollout_data` of the same tail."""

    def test_matches_rollout_data_on_both_sides_of_the_floor(self, ref_design):
        # A tail whose step falls below the floor is infinite on both sides;
        # one that stays above it has the same value bit for bit.
        system = HighFloorAttitude(ref_design)
        objective = _Objective(system, SpacecraftState.identity(), 1e4)
        rng = np.random.default_rng(11)
        seen = {"inside": 0, "below floor": 0}
        for _ in range(30):
            x, tail = near_floor_tail(rng)
            stage_prefix = rng.uniform(0.0, 10.0)
            value = lean_tail_value(objective, x, tail, stage_prefix)
            assert repr(value) == repr(oracle_tail_value(objective, x, tail, stage_prefix))
            if math.isfinite(value):
                seen["inside"] += 1
            else:
                seen["below floor"] += integrator_margins(system, x, tail) is not None
        assert seen["inside"] >= 5 and seen["below floor"] >= 5

    def test_matches_rollout_data_inside_the_domain(self, ref_system):
        objective = _Objective(ref_system, SpacecraftState.identity(), 1e4)
        x = spinning_state([0.5, -0.3, 0.8], [0.2, 0.1, -0.3], H_REF)
        tail = np.random.default_rng(7).uniform(-20.0, 20.0, (10, 3))
        for stage_prefix in [0.0, 3.25, 1.5]:
            value = lean_tail_value(objective, x, tail, stage_prefix)
            assert repr(value) == repr(oracle_tail_value(objective, x, tail, stage_prefix))
        full = _roll_on(ref_system, x, tail)
        assert_same_tail(full, reference_record(rollout_data(ref_system, x, tail)))
        lean = _Rollout(full.states[-1:], full.stage, full.terminal, None)
        assert_same_tail(lean_tail(objective, x, tail), lean)

    def test_unsolvable_tail_is_infinite(self, ref_system):
        bounded = _Objective(BoundedStepIntegrator(), np.zeros(2), 1e4)
        tail = np.array([[0.2], [1.5], [0.1]])
        assert lean_tail_value(bounded, np.array([0.5, -0.3]), tail, 1.0) == math.inf
        attitude = _Objective(ref_system, SpacecraftState.identity(), 1e4)
        torques = np.zeros((3, 3))
        torques[1] = [0.0, 0.0, 5e3]
        assert lean_tail_value(attitude, SpacecraftState.identity(), torques, 0.0) == math.inf
        with pytest.raises(NotSolvable, match="rollout failed at step 1") as excinfo:
            _roll_on(ref_system, SpacecraftState.identity(), torques)
        assert excinfo.value.step == 1


class TestFloorBoundsTheSearch:
    def test_line_search_backs_off_from_the_floor(self, ref_design, monkeypatch):
        # A cold solve from a 4 rad/s spin about z: its line searches reject
        # trials whose steps are solvable but fall below the 9e-3 floor, and
        # every iterate they accept, like the solution, keeps every predicted
        # margin at or above it.
        system = HighFloorAttitude(ref_design)
        x0 = spinning_state([0.0, 0.0, 0.5], [0.0, 0.0, 4.0], H_REF)
        rejected = []
        trial = _Objective.trial

        def recorded_trial(objective, torques):
            value, rollout = trial(objective, torques)
            if rollout is None:
                rejected.append(torques.copy())
            return value, rollout

        accepted = []
        line_search = mpc._line_search

        def recorded_line_search(*args):
            result = line_search(*args)
            if result is not None:
                accepted.append(result[0])
            return result

        monkeypatch.setattr(_Objective, "trial", recorded_trial)
        monkeypatch.setattr(mpc, "_line_search", recorded_line_search)
        new = counted_solve(system, x0, MpcConfig(horizon=10))
        assert new.solution.feasible
        assert sum(integrator_margins(system, x0, torques) is not None for torques in rejected) >= 1
        assert accepted
        for torques in new.gradient_points + accepted + [new.solution.torques]:
            assert min(integrator_margins(system, x0, torques)) >= system.floor
