"""One step kernel for array states and for the solver's predictions.

The solver carries each predicted state as the entries that the step built:
the rows of g and f as Python floats and the Cayley vector of f.  The public
functions take states built from arrays.  Both run
``lgvi.step_with_margin``, so every successor, margin, stage cost and
terminal value agrees bit for bit, and the solver hands back arrays.
"""

import math

import numpy as np
import pytest

from so3mpc.attitude import SpacecraftAttitudeSystem, rest_state, spinning_state
from so3mpc.lgvi import (
    MARGIN_CUTOFF,
    SpacecraftState,
    _state_of,
    lgvi_step,
    rollout,
    step_with_margin,
)
from so3mpc.mpc import FD_STEP, MpcConfig, _predict, _roll_on, closed_loop, solve_ocp, warm_start_shift
from so3mpc.so3 import NEAR_PI, exp_so3, log_so3

from conftest import H_REF, J_REF, TORQUE_BOUND_REF, regulate_start


def as_arrays(state):
    """The state rebuilt from writable copies of its arrays."""
    return SpacecraftState(np.array(state.g), np.array(state.f))


def as_entries(state):
    """The state rebuilt from the entries of its arrays, as the step builds
    its successors, without the Cayley vector."""
    return _state_of(state.g.tolist(), state.f.tolist(), None)


def case_start(name):
    """The start and the torques of each case."""
    rng = np.random.default_rng({"random": 51, "below cutoff": 52, "saturated": 53, "near the cut": 54}[name])
    if name == "random":
        x0 = SpacecraftState(exp_so3(rng.uniform(-np.pi, np.pi, 3)), exp_so3(H_REF * rng.uniform(-2.0, 2.0, 3)))
        return x0, rng.uniform(-30.0, 30.0, (12, 3))
    if name == "below cutoff":
        # From rest a torque tau about z leaves a margin of
        # 1 - (h^2 tau)^2 / 4: 1e-3 here, inside the band where the margin
        # is LAPACK's eigenvalue.
        # The torques after it slow the spin down again.
        torques = np.zeros((12, 3))
        torques[0, 2] = 2.0 * math.sqrt(1.0 - 1e-3) / H_REF**2
        torques[1:, 2] = -rng.uniform(0.0, 10.0, 11)
        return rest_state(rng.uniform(-np.pi, np.pi, 3)), torques
    if name == "saturated":
        # Every entry at the 100 N m bound, its sign alternating from step
        # to step so that the momentum stays solvable.
        x0 = spinning_state(rng.uniform(-np.pi, np.pi, 3), rng.uniform(-1.0, 1.0, 3), H_REF)
        return x0, 100.0 * rng.choice([-1.0, 1.0], 3) * np.array([[(-1.0) ** k] for k in range(12)])
    # Half a NEAR_PI band short of the cut about z, turning slowly across
    # it: the attitude's logarithm takes the near-cut recovery.
    x0 = spinning_state([0.0, 0.0, np.pi - 0.5 * NEAR_PI], [0.0, 0.0, 1e-3], H_REF)
    return x0, np.zeros((12, 3))


CASES = ["random", "below cutoff", "saturated", "near the cut"]


@pytest.mark.parametrize("name", CASES)
def test_array_adapters_equal_the_prediction_kernel(name, ref_design):
    system = SpacecraftAttitudeSystem(ref_design, torque_bound=np.inf)
    x0, torques = case_start(name)
    predicted = _predict(system, x0, torques).states
    rolled = rollout(x0, torques, H_REF, J_REF)
    margins = []
    for k, u in enumerate(torques):
        x, successor = predicted[k], predicted[k + 1]
        nxt, margin = step_with_margin(as_arrays(x), u, H_REF, J_REF)
        margins.append(margin)
        for other in (nxt, lgvi_step(as_arrays(x), u, H_REF, J_REF), rolled[k + 1]):
            assert np.array_equal(other.g, successor.g) and np.array_equal(other.f, successor.f)
        assert margin == system.step_with_margin(x, u)[1]
        assert repr(system.stage_cost(as_arrays(x), u)) == repr(system.stage_cost(x, u))
        assert repr(system.terminal_cost(as_arrays(successor))) == repr(system.terminal_cost(successor))
    if name == "below cutoff":
        assert min(margins) < MARGIN_CUTOFF
    if name == "near the cut":
        assert max(np.linalg.norm(log_so3(x.g)) for x in predicted) > np.pi - NEAR_PI


def test_started_step_takes_the_carried_cayley_vector(ref_system):
    # A state the step built starts a later step's Newton solve at the
    # Cayley vector it carries; rebuilt from its entries it recomputes that
    # vector from f, which differs at round-off only.
    x0 = regulate_start()
    torques = np.random.default_rng(55).uniform(-5.0, 5.0, (2, 3))
    near = ref_system.step(ref_system.step(x0, torques[0]), torques[1])
    x1 = ref_system.step(x0, torques[0])
    carried, _ = ref_system.step_with_margin(x1, torques[1] + 1e-6, near)
    rebuilt, _ = ref_system.step_with_margin(x1, torques[1] + 1e-6, as_entries(near))
    assert np.array_equal(carried.g, rebuilt.g)
    assert np.abs(carried.f - rebuilt.f).max() <= 1e-14


def assert_array_states(states):
    for state in states:
        assert isinstance(state, SpacecraftState)
        for part in state:
            assert type(part) is np.ndarray and part.dtype == np.float64 and part.shape == (3, 3)


def test_solution_and_closed_loop_states_are_arrays(ref_system):
    solution = solve_ocp(ref_system, regulate_start(), MpcConfig(horizon=10))
    assert len(solution.states) == 11
    assert_array_states(solution.states)
    run = closed_loop(ref_system, regulate_start(), MpcConfig(horizon=5), 3)
    assert len(run.states) == 4
    assert_array_states(run.states)


def test_states_the_step_built_keep_read_only_arrays(ref_system):
    # The dynamics read a predicted state's entries, so its arrays must not
    # change under them.
    state = ref_system.step(regulate_start(), np.zeros(3))
    with pytest.raises(ValueError):
        state.g[0, 0] = 1.0
    assert state.g is state.g


@pytest.mark.parametrize("rebuild", [as_arrays, as_entries], ids=["from arrays", "from entries"])
def test_solves_from_arrays_and_from_entries_agree(rebuild, ref_system):
    config = MpcConfig(horizon=10)
    first = solve_ocp(ref_system, regulate_start(), config)
    x1 = first.states[1]
    warm = warm_start_shift(first, ref_system)
    given = solve_ocp(ref_system, x1, config, warm_start=warm)
    rebuilt = solve_ocp(ref_system, rebuild(x1), config, warm_start=warm)
    assert np.array_equal(given.torques, rebuilt.torques)
    assert repr((given.cost, given.terminal_value)) == repr((rebuilt.cost, rebuilt.terminal_value))
    cold = solve_ocp(ref_system, regulate_start(), config)
    cold_rebuilt = solve_ocp(ref_system, rebuild(regulate_start()), config)
    assert np.array_equal(cold.torques, cold_rebuilt.torques)


# Inside a prediction every control is a list of Python floats, converted
# once per rollout or per gradient; a list and the equal float64 row must
# give the same results bit for bit, compared by repr.


def row_pairs():
    """(state, torque, float64 row, list row): random states under random
    and under saturated torques, each torque as it is and with one entry
    moved by +FD_STEP or -FD_STEP, on the array as numpy adds and on the
    list as the gradient adds.  Every step here is solvable."""
    rng = np.random.default_rng(58)
    for _ in range(12):
        x = SpacecraftState(exp_so3(rng.uniform(-np.pi, np.pi, 3)), exp_so3(H_REF * rng.uniform(-1.0, 1.0, 3)))
        for u in (rng.uniform(-30.0, 30.0, 3), TORQUE_BOUND_REF * rng.choice([-1.0, 1.0], 3)):
            yield x, u, u, u.tolist()
            for j in range(3):
                for delta in (FD_STEP, -FD_STEP):
                    array, row = u.copy(), u.tolist()
                    array[j] = u[j] + delta
                    row[j] = row[j] + delta
                    yield x, u, array, row


def outcome(successor, margin):
    """repr of a step's successor entries, Cayley vector and margin."""
    return repr((successor.entries, successor._cayley, margin))


@pytest.mark.parametrize("started", [False, True], ids=["unstarted", "started near the successor"])
def test_step_takes_a_list_row_as_the_equal_array(started):
    for x, u, array, row in row_pairs():
        # A tail step is handed the unperturbed successor.
        near = step_with_margin(x, u, H_REF, J_REF)[0] if started else None
        assert outcome(*step_with_margin(x, row, H_REF, J_REF, near)) == outcome(
            *step_with_margin(x, array, H_REF, J_REF, near)
        )


def test_stage_cost_takes_a_list_row_as_the_equal_array(ref_design):
    weights = ref_design.weights
    for x, _, array, row in row_pairs():
        assert repr(weights.stage_cost(x, row, H_REF)) == repr(weights.stage_cost(x, array, H_REF))


def rollout_record(rollout):
    """repr of everything a rollout record holds."""
    states = [state.entries for state in rollout.states]
    return repr((states, rollout.stage, rollout.terminal, rollout.prefixes))


@pytest.mark.parametrize("name", CASES)
def test_rollout_takes_list_rows_as_the_equal_array(name, ref_design):
    system = SpacecraftAttitudeSystem(ref_design, torque_bound=np.inf)
    x0, torques = case_start(name)
    base = _roll_on(system, x0, torques)
    assert rollout_record(_roll_on(system, x0, torques.tolist())) == rollout_record(base)
    # A finite-difference tail of step 1, each entry of its first control
    # moved, its steps started at the base rollout's states.
    start, near = base.states[1], base.states[2:]
    for j in range(3):
        for delta in (FD_STEP, -FD_STEP):
            array, rows = torques[1:].copy(), torques[1:].tolist()
            array[0, j] = torques[1, j] + delta
            rows[0][j] = rows[0][j] + delta
            assert rollout_record(_roll_on(system, start, rows, near)) == rollout_record(
                _roll_on(system, start, array, near)
            )
