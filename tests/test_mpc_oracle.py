"""The shooting solver against a reference copy of its earlier form.

``oracle_projected_gradient`` and ``OracleObjective`` are the descent loop
and the central-difference gradient without two savings the package makes:
the oracle evaluates the gradient at every accepted candidate, also the one
that the relative-improvement stop then returns, and rolls every perturbed
tail out through ``_rollout_data`` with its states list and shortfall
array.  Solves through the oracle and through the package must agree bit
for bit; only the gradient count and the reported KKT residual of an
``ftol_rel`` stop differ.
"""

import math

import numpy as np
import pytest

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
    _rollout_data,
    solve_ocp,
    warm_start_shift,
)

from conftest import H_REF, BoundedStepIntegrator


def oracle_tail_value(objective, x_start, tail, stage_prefix, short_prefix):
    """The tail value through a full :func:`_rollout_data`."""
    try:
        data = _rollout_data(objective.system, x_start, tail)
    except NotSolvable:
        return math.inf
    return objective._value(
        stage_prefix + data.stage.sum(),
        short_prefix + (data.shortfalls**2).sum(),
        data.terminal,
    )


class OracleObjective(_Objective):
    """:class:`_Objective` with the reference gradient and tail value."""

    def gradient(self, torques, fd_step, base=None):
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
        grad = np.zeros((n, m))
        for i in range(n):
            x_i = data.states[i]
            tail = torques[i:].copy()
            base_entry = tail[0].copy()
            for j in range(m):
                values = []
                for sign in (1.0, -1.0):
                    tail[0] = base_entry
                    tail[0, j] = base_entry[j] + sign * fd_step
                    values.append(
                        oracle_tail_value(self, x_i, tail, stage_prefix[i], short_prefix[i])
                    )
                tail[0] = base_entry
                up, down = values
                if math.isfinite(up) and math.isfinite(down):
                    grad[i, j] = (up - down) / (2.0 * fd_step)
                elif math.isfinite(down):
                    grad[i, j] = (base_value - down) / fd_step
                elif math.isfinite(up):
                    grad[i, j] = (up - base_value) / fd_step
                else:
                    raise RolloutFailure(
                        f"finite-difference gradient undefined at step {i}, control "
                        f"entry {j}: both perturbed rollouts are unsolvable"
                    )
        return grad, base_value


def oracle_projected_gradient(objective, system, torques, settings):
    """The descent loop that evaluates the gradient at every accepted
    candidate, also the one its relative-improvement stop then returns."""
    grad, value = objective.gradient(torques, settings.fd_step)
    bb_step = settings.step_init / max(1.0, float(np.linalg.norm(grad)))
    iterations = 0
    small_improvements = 0
    kkt = _kkt_residual(system, torques, grad)
    for _ in range(settings.max_iters):
        if kkt <= settings.grad_tol:
            break
        iterations += 1
        alpha = float(np.clip(bb_step, settings.step_min, settings.step_max))
        accepted = False
        for _ in range(60):
            candidate = _project_rows(system, torques - alpha * grad)
            cand_value, cand_data = objective.trial(candidate)
            decrease_ref = float((grad * (candidate - torques)).sum())
            if cand_value <= value + settings.armijo_c1 * decrease_ref:
                accepted = True
                break
            alpha *= settings.armijo_shrink
            if alpha < settings.step_min:
                break
        if not accepted:
            break
        improvement = value - cand_value
        new_grad, _ = objective.gradient(candidate, settings.fd_step, base=cand_data)
        step_vec = candidate - torques
        grad_vec = new_grad - grad
        curvature = float((step_vec * grad_vec).sum())
        if curvature > 0.0:
            bb_step = float((step_vec * step_vec).sum()) / curvature
        else:
            bb_step = settings.step_init
        torques, grad, value = candidate, new_grad, cand_value
        kkt = _kkt_residual(system, torques, grad)
        if improvement <= settings.ftol_rel * max(1.0, abs(value)):
            small_improvements += 1
            if small_improvements >= 2:
                break
        else:
            small_improvements = 0
    return torques, iterations, kkt


def counted_solve(monkeypatch, system, x0, config, warm_start=None, oracle=False):
    """Solve through the package or the oracle; return the solution, the
    number of gradients evaluated and each penalty round's KKT residual."""
    gradients = []
    rounds = []
    base = OracleObjective if oracle else _Objective
    descent = oracle_projected_gradient if oracle else mpc._projected_gradient

    class Counted(base):
        def gradient(self, *args, **kwargs):
            gradients.append(None)
            return super().gradient(*args, **kwargs)

    def counted_descent(*args):
        result = descent(*args)
        rounds.append(result[2])
        return result

    with monkeypatch.context() as patch:
        patch.setattr(mpc, "_Objective", Counted)
        patch.setattr(mpc, "_projected_gradient", counted_descent)
        solution = solve_ocp(system, x0, config, warm_start=warm_start)
    return solution, len(gradients), rounds


def compare_with_oracle(monkeypatch, system, x0, config, warm_start=None):
    """Assert the package's solve equals the oracle's bit for bit, with one
    gradient fewer per round stopped on ``ftol_rel``; return the package's
    solution and its per-round residuals."""
    new, new_grads, new_rounds = counted_solve(monkeypatch, system, x0, config, warm_start)
    old, old_grads, old_rounds = counted_solve(
        monkeypatch, system, x0, config, warm_start, oracle=True
    )
    assert new.torques.tobytes() == old.torques.tobytes()
    assert new.shortfalls.tobytes() == old.shortfalls.tobytes()
    assert repr(new.cost) == repr(old.cost)
    assert repr(new.terminal_value) == repr(old.terminal_value)
    assert repr(new.violation) == repr(old.violation)
    assert new.iterations == old.iterations
    assert new.feasible == old.feasible
    assert len(new.states) == len(old.states)
    for a, b in zip(new.states, old.states):
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes()
    assert len(new_rounds) == len(old_rounds)
    assert None not in old_rounds
    for mine, theirs in zip(new_rounds, old_rounds):
        assert mine is None or mine == theirs
    assert old_grads - new_grads == new_rounds.count(None)
    assert new.kkt_residual == (None if new_rounds[-1] is None else old.kkt_residual)
    return new, new_rounds


class TestSolveMatchesOracle:
    def test_warm_attitude_solve(self, monkeypatch, ref_system):
        x0 = spinning_state([0.3, -0.2, 0.4], [0.02, -0.01, 0.015], H_REF)
        config = MpcConfig(horizon=10)
        first = solve_ocp(ref_system, x0, config)
        successor = ref_system.step(x0, first.first_control)
        warm = warm_start_shift(first, ref_system)
        compare_with_oracle(monkeypatch, ref_system, successor, config, warm)

    def test_cold_saturated_solve_at_1nm(self, monkeypatch, ref_design):
        weak = SpacecraftAttitudeSystem(ref_design, torque_bound=1.0)
        x0 = rest_state(1.2 * np.array([0.8, 0.5, -0.3]) / np.linalg.norm([0.8, 0.5, -0.3]))
        solution, _ = compare_with_oracle(monkeypatch, weak, x0, MpcConfig(horizon=10))
        assert np.abs(solution.torques).max() == weak.torque_bound

    def test_second_penalty_round(self, monkeypatch, ref_design):
        # At 5 N m, three steps from 2.8 rad need a second, heavier round to
        # meet the terminal constraint.
        system = SpacecraftAttitudeSystem(ref_design, torque_bound=5.0)
        config = MpcConfig(horizon=3, solver=SolverSettings(penalty_weight=1e2))
        solution, rounds = compare_with_oracle(
            monkeypatch, system, rest_state([0.0, 0.6 * 2.8, 0.8 * 2.8]), config
        )
        assert len(rounds) == 2
        assert solution.feasible

    def test_residual_of_last_round_after_ftol_rounds(self, monkeypatch, ref_design):
        # At 1 N m four steps cannot reach the terminal set from 2.8 rad: all
        # six rounds run, the first five stop on ftol_rel and the last one
        # on its line search, so its residual is reported.
        system = SpacecraftAttitudeSystem(ref_design, torque_bound=1.0)
        solution, rounds = compare_with_oracle(
            monkeypatch, system, rest_state([0.0, 0.6 * 2.8, 0.8 * 2.8]), MpcConfig(horizon=4)
        )
        assert rounds[:-1] == [None] * 5 and rounds[-1] is not None
        assert not solution.feasible

    @pytest.mark.parametrize("tight", [False, True])
    def test_double_integrator(self, monkeypatch, tight):
        system = DoubleIntegratorSystem(terminal_level=5.0, control_bound=0.5)
        solver = SolverSettings(max_iters=500, grad_tol=1e-9, ftol_rel=1e-12) if tight else SolverSettings()
        solution, rounds = compare_with_oracle(
            monkeypatch, system, np.array([1.0, 0.0]), MpcConfig(horizon=8, solver=solver)
        )
        if tight:
            # Stopped on grad_tol: the residual is reported and small.
            assert None not in rounds
            assert solution.kkt_residual <= 1e-9

    def test_ftol_stop_skips_one_gradient(self, monkeypatch, ref_system):
        x0 = rest_state([0.4, 0.1, -0.2])
        config = MpcConfig(horizon=6)
        new, new_grads, rounds = counted_solve(monkeypatch, ref_system, x0, config)
        _, old_grads, _ = counted_solve(monkeypatch, ref_system, x0, config, oracle=True)
        assert rounds == [None]
        assert old_grads - new_grads == 1
        assert new.kkt_residual is None


class TestLeanTailValue:
    """``_Objective._tail_value`` against the value built from a full
    :func:`_rollout_data` of the same tail."""

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
            value = objective._tail_value(x, tail, stage_prefix, short_prefix)
            expected = oracle_tail_value(objective, x, tail, stage_prefix, short_prefix)
            assert repr(value) == repr(expected)
            if math.isfinite(value):
                short_tails += bool(_rollout_data(system, x, tail).shortfalls.any())
        assert short_tails >= 10

    def test_matches_rollout_data_without_shortfall(self, ref_system):
        objective = _Objective(ref_system, SpacecraftState.identity(), 1e4)
        x = spinning_state([0.5, -0.3, 0.8], [0.2, 0.1, -0.3], H_REF)
        tail = np.random.default_rng(7).uniform(-20.0, 20.0, (10, 3))
        for prefixes in [(0.0, 0.0), (3.25, 0.0), (1.5, 2e-7)]:
            value = objective._tail_value(x, tail, *prefixes)
            assert repr(value) == repr(oracle_tail_value(objective, x, tail, *prefixes))

    def test_unsolvable_tail_is_infinite(self, ref_system):
        bounded = _Objective(BoundedStepIntegrator(), np.zeros(2), 1e4)
        tail = np.array([[0.2], [1.5], [0.1]])
        assert bounded._tail_value(np.array([0.5, -0.3]), tail, 1.0, 0.0) == math.inf
        attitude = _Objective(ref_system, SpacecraftState.identity(), 1e4)
        torques = np.zeros((3, 3))
        torques[1] = [0.0, 0.0, 5e3]
        assert attitude._tail_value(SpacecraftState.identity(), torques, 0.0, 0.0) == math.inf
