"""The shooting solver against a reference descent.

``oracle_projected_gradient`` is the projected-gradient descent with
Barzilai-Borwein steps that the package used before its limited-memory
quasi-Newton descents, and ``OracleObjective`` the central-difference
gradient rolling every perturbed tail out in full through
``rollout_data``, with its states list and shortfall array, and
valuing it through ``reference_value``.  The two descents stop at different
points, so they are compared by what a solve must deliver, not bit for bit:
the package's solve is feasible whenever the reference's is, ends no higher
on the penalized objective than ``ftol_rel`` allows and evaluates no more
gradients.  Over a warm-started closed loop it needs at most a third of the
reference's gradients.
"""

import contextlib
import math
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
    _project_rows,
    _roll_on,
    _Rollout,
    closed_loop,
    solve_ocp,
    warm_start_shift,
)

from conftest import H_REF, BoundedStepIntegrator, assert_same_tail


class RolloutData(NamedTuple):
    states: list
    stage: np.ndarray
    shortfalls: np.ndarray
    terminal: float


def rollout_data(system, x0, torques) -> RolloutData:
    """Roll out from ``x0`` in one piece, building the shortfall array even
    when it stays zero; :class:`~so3mpc.errors.NotSolvable` from a step is
    raised again naming the step."""
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
    return RolloutData(states, stage, shortfalls, system.terminal_cost(x))


def reference_value(objective, data, stage_prefix=0.0, short_prefix=0.0):
    """Penalized value of a rollout whose first steps are summed in the
    prefixes and whose last ones are the reference rollout ``data``."""
    excess = max(0.0, data.terminal - objective.level)
    penalty = excess**2 + (short_prefix + (data.shortfalls**2).sum())
    return float(stage_prefix + data.stage.sum() + data.terminal + objective.weight * penalty)


def reference_violation(objective, data):
    return max(max(0.0, data.terminal - objective.level), float(data.shortfalls.max(initial=0.0)))


def oracle_tail_value(objective, x_start, tail, stage_prefix, short_prefix):
    """The tail value through a full :func:`rollout_data`."""
    try:
        data = rollout_data(objective.system, x_start, tail)
    except NotSolvable:
        return math.inf
    return reference_value(objective, data, stage_prefix, short_prefix)


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
        short_prefix = np.concatenate([[0.0], np.cumsum(data.shortfalls**2)])
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
                    values.append(
                        oracle_tail_value(self, x_i, tail, stage_prefix[i], short_prefix[i])
                    )
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


def oracle_projected_gradient(objective, torques, settings, _hessian=None):
    """Reference descent: projected gradient with Barzilai-Borwein steps and
    an Armijo line search, evaluating the gradient at every accepted
    candidate, also the one its relative-improvement stop then returns.  It
    takes the package descent's arguments and ignores its Hessian."""
    system = objective.system
    grad, value = objective.gradient(torques)
    bb_step = mpc.STEP_INIT / max(1.0, float(np.linalg.norm(grad)))
    iterations = 0
    small_improvements = 0
    kkt = _kkt_residual(system, torques, grad)
    for _ in range(settings.max_iters):
        if kkt <= settings.grad_tol:
            break
        iterations += 1
        alpha = float(np.clip(bb_step, mpc.STEP_MIN, mpc.STEP_MAX))
        accepted = False
        for _ in range(60):
            candidate = _project_rows(system, torques - alpha * grad)
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
            bb_step = mpc.STEP_INIT
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
    # Torques at which each gradient was evaluated.
    gradient_points: list
    # (penalty weight, reported KKT residual) per penalty round.
    rounds: list

    @property
    def gradients(self):
        return len(self.gradient_points)

    @property
    def residuals(self):
        return [kkt for _, kkt in self.rounds]


@contextlib.contextmanager
def counting(oracle=False):
    """Route solves through the package's descent or the reference's and
    record the torques of every gradient and, per penalty round, the weight
    and the reported KKT residual."""
    points = []
    rounds = []
    base = OracleObjective if oracle else _Objective
    descent = oracle_projected_gradient if oracle else mpc._quasi_newton_descent

    class Counting(base):
        def gradient(self, torques, *args, **kwargs):
            points.append(torques.copy())
            return super().gradient(torques, *args, **kwargs)

    def counted_descent(objective, *args):
        result = descent(objective, *args)
        rounds.append((objective.weight, result[2]))
        return result

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mpc, "_Objective", Counting)
        patch.setattr(mpc, "_quasi_newton_descent", counted_descent)
        yield points, rounds


def counted_solve(system, x0, config, warm_start=None, oracle=False):
    with counting(oracle) as (points, rounds):
        solution = solve_ocp(system, x0, config, warm_start=warm_start)
    return Counted(solution, points, rounds)


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
    assert repr(new.solution.cost) == repr(float(data.stage.sum() + data.terminal))
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
        new = counted_solve(ref_system, rest_state([0.4, 0.1, -0.2]), MpcConfig(horizon=6))
        assert new.residuals == [None]
        assert new.solution.kkt_residual is None
        returned = new.solution.torques.tobytes()
        assert all(point.tobytes() != returned for point in new.gradient_points)

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
        # reference's by 10 ftol_rel; TestGradientCount bounds the gradients
        # over a closed loop.
        x0 = spinning_state(angle * np.asarray(axis) / np.linalg.norm(axis), rate, H_REF)
        config = MpcConfig(horizon=10)
        warm_start = None
        if warm:
            first = solve_ocp(ref_system, x0, config)
            assume(first.feasible)
            x0 = ref_system.step(x0, first.first_control)
            warm_start = warm_start_shift(first, ref_system)
        check_against_oracle(ref_system, x0, config, warm_start, strict=False)


class TestGradientCount:
    def test_regulate_loop_at_most_a_third_of_reference_gradients(self, ref_system):
        # The benchmark's regulate start: 30 degrees about a fixed axis,
        # spinning at 0.02 rad/s, then 30 warm-started steps.
        axis = np.array([0.6, -0.4, 0.69282032])
        spin = np.array([0.02, -0.01, 0.015])
        x0 = spinning_state(
            math.radians(30.0) * axis / np.linalg.norm(axis),
            0.02 * spin / np.linalg.norm(spin),
            H_REF,
        )
        gradients = []
        for oracle in (False, True):
            with counting(oracle) as (points, _):
                run = closed_loop(ref_system, x0, MpcConfig(horizon=10), 30)
            assert run.feasible.all()
            gradients.append(len(points))
        new, old = gradients
        assert new <= 0.33 * old


def lean_tail(objective, x_start, tail):
    """A tail as the package's gradient runs it: its end state only, and
    ``None`` when unsolvable."""
    try:
        return _roll_on(objective.system, _Rollout.at(x_start), tail, end_only=True)
    except NotSolvable:
        return None


def lean_tail_value(objective, x_start, tail, stage_prefix, short_prefix):
    """The tail value as the package's gradient computes it."""
    return objective.value(lean_tail(objective, x_start, tail), stage_prefix, short_prefix)


class TestLeanTailValue:
    """The value of a tail from the package's rollout runner against the
    value of a full :func:`rollout_data` of the same tail, and a tail
    run in two pieces against the same tail run in one."""

    def test_matches_rollout_data_where_margins_fall_short(self, ref_design):
        # From rest, a first torque of 199.1-199.9 N m about z leaves a margin
        # of 1 - (h^2 tau)^2 / 4, about 0.002-0.018: mostly below the 0.009
        # floor, and later steps fall short or become unsolvable.
        system = SpacecraftAttitudeSystem(ref_design, solvability_floor=9e-3)
        objective = _Objective(system, SpacecraftState.identity(), 1e4)
        rng = np.random.default_rng(11)
        short_tails = 0
        for _ in range(30):
            x = rest_state(rng.uniform(-0.3, 0.3, 3))
            tail = rng.uniform(-1.0, 1.0, (6, 3))
            tail[0, 2] = rng.uniform(199.1, 199.9) * rng.choice([-1.0, 1.0])
            stage_prefix, short_prefix = rng.uniform(0.0, 10.0, 2)
            value = lean_tail_value(objective, x, tail, stage_prefix, short_prefix)
            expected = oracle_tail_value(objective, x, tail, stage_prefix, short_prefix)
            assert repr(value) == repr(expected)
            if math.isfinite(value):
                short_tails += bool(rollout_data(system, x, tail).shortfalls.any())
        assert short_tails >= 10

    def test_matches_rollout_data_without_shortfall(self, ref_system):
        objective = _Objective(ref_system, SpacecraftState.identity(), 1e4)
        x = spinning_state([0.5, -0.3, 0.8], [0.2, 0.1, -0.3], H_REF)
        tail = np.random.default_rng(7).uniform(-20.0, 20.0, (10, 3))
        for prefixes in [(0.0, 0.0), (3.25, 0.0), (1.5, 2e-7)]:
            value = lean_tail_value(objective, x, tail, *prefixes)
            assert repr(value) == repr(oracle_tail_value(objective, x, tail, *prefixes))
        full = _roll_on(ref_system, _Rollout.at(x), tail)
        reference = rollout_data(ref_system, x, tail)
        assert not reference.shortfalls.any()
        assert_same_tail(full, reference._replace(shortfalls=None))
        assert_same_tail(lean_tail(objective, x, tail), full._replace(states=full.states[-1:]))

    def test_unsolvable_tail_is_infinite(self, ref_system):
        bounded = _Objective(BoundedStepIntegrator(), np.zeros(2), 1e4)
        tail = np.array([[0.2], [1.5], [0.1]])
        assert lean_tail_value(bounded, np.array([0.5, -0.3]), tail, 1.0, 0.0) == math.inf
        attitude = _Objective(ref_system, SpacecraftState.identity(), 1e4)
        torques = np.zeros((3, 3))
        torques[1] = [0.0, 0.0, 5e3]
        assert lean_tail_value(attitude, SpacecraftState.identity(), torques, 0.0, 0.0) == math.inf
        with pytest.raises(NotSolvable, match="rollout failed at step 1") as excinfo:
            _roll_on(ref_system, _Rollout.at(SpacecraftState.identity()), torques)
        assert excinfo.value.step == 1

    def test_tail_run_on_equals_tail_run_at_once(self, ref_design):
        # The same near-floor tails as above, split after each step: the
        # carried-tail gradient depends on this equality.
        system = SpacecraftAttitudeSystem(ref_design, solvability_floor=9e-3)
        objective = _Objective(system, SpacecraftState.identity(), 1e4)
        rng = np.random.default_rng(12)
        seen = {"short": 0, "unsolvable": 0}
        for _ in range(20):
            x = rest_state(rng.uniform(-0.3, 0.3, 3))
            tail = rng.uniform(-1.0, 1.0, (6, 3))
            tail[0, 2] = rng.uniform(199.1, 199.9) * rng.choice([-1.0, 1.0])
            whole = lean_tail(objective, x, tail)
            seen["unsolvable"] += whole is None
            seen["short"] += whole is not None and whole.shortfalls is not None
            for k in range(1, len(tail)):
                head = lean_tail(objective, x, tail[:k])
                try:
                    run_on = None if head is None else _roll_on(system, head, tail[k:], end_only=True)
                except NotSolvable:
                    run_on = None
                assert_same_tail(run_on, whole)
        assert seen["short"] >= 5 and seen["unsolvable"] >= 1
