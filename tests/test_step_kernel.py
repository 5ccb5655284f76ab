"""One step kernel for array states and for the solver's predictions.

The solver carries each predicted state as the entries that the step built:
the rows of g and f as Python floats and the Cayley vector of f.  The public
functions take states built from arrays.  Both run
``lgvi.step_with_margin``, so every successor, margin, stage cost and
terminal value agrees bit for bit, and the solver hands back arrays.
"""

import dataclasses
import math

import numpy as np
import pytest

from so3mpc import lgvi, mpc, terminal
from so3mpc.attitude import SpacecraftAttitudeSystem, rest_state, spinning_state
from so3mpc.errors import NotSolvable
from so3mpc.lgvi import (
    MARGIN_CUTOFF,
    SpacecraftState,
    _state_of,
    lgvi_step,
    rollout,
    step_with_margin,
)
from so3mpc.mpc import (
    FD_STEP,
    MpcConfig,
    _Objective,
    _predict,
    _roll_on,
    closed_loop,
    solve_ocp,
    steering_rollout,
    warm_start_shift,
)
from so3mpc.so3 import NEAR_PI, exp_so3, log_so3
from so3mpc.terminal import StageWeights

from conftest import H_REF, J_REF, TORQUE_BOUND_REF, count_calls, regulate_start


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


# The kernel keeps each state's last unstarted step: a repeat from the same
# state object, with an equal torque row, the same h and the same inertia
# constants, returns the successor and margin it kept without solving.


ROW = [3.0, -1.5, 2.25]


def built_state():
    """A state the kernel built, spinning away from the regulate start."""
    return step_with_margin(regulate_start(), [1.0, -2.0, 0.5], H_REF, J_REF)[0]


def copy_of(state):
    """A fresh state object holding the same entries and Cayley vector."""
    return _state_of(*state.entries, state._cayley)


@pytest.mark.parametrize("row", [ROW, [0.0, -0.0, 2.25]], ids=["nonzero", "signed zeros"])
def test_repeated_step_returns_the_kept_successor(row, monkeypatch):
    x = built_state()
    successor, margin = step_with_margin(x, row, H_REF, J_REF)
    counts = count_calls(monkeypatch, solves=(lgvi, "_implicit_increment"))
    for torque in (row, list(row), np.array(row)):
        repeat, repeat_margin = step_with_margin(x, torque, H_REF, J_REF)
        assert repeat is successor and repeat_margin == margin
    assert counts["solves"] == 0
    fresh = step_with_margin(copy_of(x), row, H_REF, J_REF)
    assert counts["solves"] == 1
    assert outcome(successor, margin) == outcome(*fresh)


def test_row_mutated_after_the_step_misses(monkeypatch):
    # The finite-difference gradient moves an entry of its first row in
    # place, so the kernel keeps a copy of the row, not the row.
    x, row = built_state(), list(ROW)
    successor, _ = step_with_margin(x, row, H_REF, J_REF)
    counts = count_calls(monkeypatch, solves=(lgvi, "_implicit_increment"))
    row[1] = row[1] + FD_STEP
    moved = step_with_margin(x, row, H_REF, J_REF)
    assert counts["solves"] == 1 and moved[0] is not successor
    assert outcome(*moved) == outcome(*step_with_margin(copy_of(x), [ROW[0], ROW[1] + FD_STEP, ROW[2]], H_REF, J_REF))


@pytest.mark.parametrize(
    "h, inertia, torque",
    [(0.05, J_REF, ROW), (H_REF, np.diag([1.0, 1.2, 1.6]), ROW), (H_REF, J_REF, np.array([3.0, -1.5, 2.5]))],
    ids=["another h", "another inertia", "array torque of other values"],
)
def test_other_step_misses(h, inertia, torque, monkeypatch):
    x = built_state()
    successor, _ = step_with_margin(x, ROW, H_REF, J_REF)
    counts = count_calls(monkeypatch, solves=(lgvi, "_implicit_increment"))
    other = step_with_margin(x, torque, h, inertia)
    assert counts["solves"] == 1 and other[0] is not successor
    assert outcome(*other) == outcome(*step_with_margin(copy_of(x), torque, h, inertia))


def test_zero_of_the_other_sign_misses(monkeypatch):
    # -0.0 == 0.0 in Python, but with -0.0 products of the inertia's zeros
    # the momentum entry is -0.0 under a torque of -0.0 and 0.0 under 0.0.
    # Started at the linearized root, Newton carried that sign into the
    # Cayley vector; from the second-order start no signed-zero search has
    # found fresh steps that differ.  The kept successor still stands for a
    # new solve from the momentum, so a row hits only if it is equal bit
    # for bit: the other sign solves again.
    inertia = np.array([[1.0, -0.0, -0.0], [-0.0, 1.2, -0.0], [-0.0, -0.0, 1.5]])
    rest = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
    x = _state_of(rest, ((1.0, 0.0, -0.0), (-0.0, 1.0, 0.0), (0.0, -0.0, 1.0)), None)
    kept, torque = [0.0, -0.0, -0.0], [-0.0, -0.0, -0.0]
    fresh = step_with_margin(copy_of(x), torque, H_REF, inertia)
    successor = step_with_margin(x, kept, H_REF, inertia)[0]
    counts = count_calls(monkeypatch, solves=(lgvi, "_implicit_increment"))
    other = step_with_margin(x, torque, H_REF, inertia)
    assert counts["solves"] == 1 and other[0] is not successor
    assert outcome(*other) == outcome(*fresh)


def test_started_step_neither_reads_nor_keeps(monkeypatch):
    # A finite-difference tail step is handed a start value: it solves even
    # where the state has kept that very step, and keeps nothing, so the
    # tails run as they would without the kept steps and hold no states.
    x = built_state()
    near = step_with_margin(built_state(), ROW, H_REF, J_REF)[0]
    counts = count_calls(monkeypatch, solves=(lgvi, "_implicit_increment"))
    started = step_with_margin(x, ROW, H_REF, J_REF, near)
    assert counts["solves"] == 1 and x._next is None
    successor, _ = step_with_margin(x, ROW, H_REF, J_REF)
    again = step_with_margin(x, ROW, H_REF, J_REF, near)
    assert counts["solves"] == 3 and x._next[3] is successor
    assert outcome(*again) == outcome(*started)


def test_gradient_tails_keep_nothing(ref_system):
    # After a central-difference gradient each base state still keeps its
    # step in the base rollout, though every tail stepped from it.
    x0 = regulate_start()
    torques = steering_rollout(ref_system, x0, 10)
    base = _predict(ref_system, x0, torques)
    _Objective(ref_system, x0).gradient(torques, base)
    for state, successor in zip(base.states[1:-1], base.states[2:]):
        assert state._next[3] is successor
    assert base.states[-1]._next is None


def test_array_state_keeps_nothing(monkeypatch):
    # A caller's arrays may be writable, so a step from them is solved anew.
    x = as_arrays(built_state())
    counts = count_calls(monkeypatch, solves=(lgvi, "_implicit_increment"))
    first = step_with_margin(x, ROW, H_REF, J_REF)
    again = step_with_margin(x, ROW, H_REF, J_REF)
    assert counts["solves"] == 2 and x._next is None and again[0] is not first[0]


@pytest.mark.parametrize(
    "build",
    [
        lambda: lgvi.check_state(SpacecraftState(exp_so3([0.3, -0.2, 0.1]), exp_so3([0.01, 0.0, -0.02]))),
        lambda: rest_state([0.3, -0.2, 0.1]),
        lambda: spinning_state([0.3, -0.2, 0.1], [0.1, 0.0, -0.2], H_REF),
    ],
    ids=["check_state", "rest_state", "spinning_state"],
)
def test_built_start_keeps_its_step(build, monkeypatch):
    # The three builders of start states build from entries, so a repeated
    # step from the start returns the kept successor.
    x = build()
    successor, _ = step_with_margin(x, ROW, H_REF, J_REF)
    counts = count_calls(monkeypatch, solves=(lgvi, "_implicit_increment"))
    assert step_with_margin(x, ROW, H_REF, J_REF)[0] is successor
    assert counts["solves"] == 0


def test_checked_state_holds_no_array_of_the_caller():
    # Writing to the arrays handed to check_state leaves the checked state,
    # and the step it keeps, as they were.
    g, f = exp_so3([0.3, -0.2, 0.1]), exp_so3([0.01, 0.0, -0.02])
    g_before, f_before = g.copy(), f.copy()
    checked = lgvi.check_state(SpacecraftState(g, f))
    successor, margin = step_with_margin(checked, ROW, H_REF, J_REF)
    g[...] = f[...] = np.eye(3)
    assert np.array_equal(checked.g, g_before) and np.array_equal(checked.f, f_before)
    fresh = step_with_margin(SpacecraftState(g_before, f_before), ROW, H_REF, J_REF)
    assert outcome(successor, margin) == outcome(*fresh)


def test_cold_solve_repeats_its_steering_rollout(fitted, monkeypatch):
    # AttitudeMpc.solve checks a start from spinning_state, and the checked
    # state keeps its steps: the base rollout of the steering guess repeats
    # the steering rollout from it and runs no implicit solve.  The solve
    # accepts a step, so the returned torques are not rolled out again: the
    # descent hands back the accepted trial's rollout.
    model = fitted({})
    counts = count_calls(monkeypatch, solves=(lgvi, "_implicit_increment"))
    predicted, predict = [], mpc._predict

    def counted_predict(*args):
        before = counts["solves"]
        rollout = predict(*args)
        predicted.append(counts["solves"] - before)
        return rollout

    monkeypatch.setattr(mpc, "_predict", counted_predict)
    solution = model.solve(regulate_start())
    assert solution.iterations >= 1
    assert predicted == [0]


def test_unsolvable_step_keeps_nothing():
    # From rest, 300 N m about z gives a momentum of 3 and a negative margin.
    x = copy_of(rest_state([0.0, 0.0, 1.0]))
    with pytest.raises(NotSolvable):
        step_with_margin(x, [0.0, 0.0, 300.0], H_REF, J_REF)
    assert x._next is None
    kept = step_with_margin(x, ROW, H_REF, J_REF)[0]
    with pytest.raises(NotSolvable):
        step_with_margin(x, [0.0, 0.0, 300.0], H_REF, J_REF)
    assert x._next[3] is kept


def test_every_slot_is_set_by_each_constructor():
    # A slot left unset raises AttributeError only on the path that reads
    # it, so each way of building a state must set all of them.
    built = [
        SpacecraftState(exp_so3([0.3, -0.2, 0.1]), exp_so3([0.01, 0.0, -0.02])),
        SpacecraftState.identity(),
        _state_of(*built_state().entries, None),
    ]
    for state in built:
        for slot in SpacecraftState.__slots__:
            getattr(state, slot)


# A state built from entries also keeps its chart coordinates, keyed by h,
# and its last stage cost of a list row, keyed by the weights object, h and
# the row bit for bit: a prediction that repeats another from the same
# states evaluates no stage-cost formula and takes no chart logarithm.


def value_counts(monkeypatch):
    """Counts of stage-cost formula evaluations and chart logarithm passes:
    ``terminal.coordinates`` takes one ``_log_so3_pair`` per single state."""
    return count_calls(
        monkeypatch,
        stage_costs=(StageWeights, "stage_cost"),
        chart_logs=(terminal, "_log_so3_pair"),
    )


@pytest.mark.parametrize("name", CASES)
def test_repeated_rollout_evaluates_no_value(name, ref_design, monkeypatch):
    system = SpacecraftAttitudeSystem(ref_design, torque_bound=np.inf)
    x0, torques = case_start(name)
    x0 = as_entries(x0)
    first = _roll_on(system, x0, torques)
    counts = value_counts(monkeypatch)
    for controls in (torques, torques.tolist()):
        assert rollout_record(_roll_on(system, x0, controls)) == rollout_record(first)
    assert counts == {"stage_costs": 0, "chart_logs": 0}
    # The same rollout from a fresh copy of the start evaluates every value
    # anew, and gives the same record.
    fresh = _roll_on(system, copy_of(x0), torques)
    assert counts == {"stage_costs": len(torques), "chart_logs": 1}
    assert rollout_record(fresh) == rollout_record(first)


def test_model_along_a_valued_rollout_takes_no_chart_logarithm(ref_system, monkeypatch):
    # The terminal gradient and Hessian read the coordinates that the
    # rollout's terminal cost kept on its last state.
    x0 = regulate_start()
    torques = steering_rollout(ref_system, x0, 10)
    base = _roll_on(ref_system, x0, torques)
    counts = value_counts(monkeypatch)
    model = ref_system.quadratic_model(base.states, torques)
    assert counts["chart_logs"] == 0
    fresh = ref_system.quadratic_model(base.states[:-1] + [copy_of(base.states[-1])], torques)
    assert counts["chart_logs"] == 1
    assert np.array_equal(model.p, fresh.p) and np.array_equal(model.P, fresh.P)


def test_warm_solve_repeats_read_kept_values(fitted, monkeypatch):
    # The marked solve's rollout of the candidate repeats the candidate's
    # horizon_cost, and evaluates no stage cost and takes no chart
    # logarithm; the returned torques are the accepted trial's, which is
    # not rolled out again, and the local law of the next candidate takes
    # no chart logarithm either.
    model = fitted({})
    system, config = model.system_, model.config_
    first = solve_ocp(system, regulate_start(), config)
    x1, warm = first.states[1], warm_start_shift(first, system)
    mpc.horizon_cost(system, x1, warm)
    counts = value_counts(monkeypatch)
    predicted, predict = [], mpc._predict

    def counted_predict(*args):
        before = dict(counts)
        rollout = predict(*args)
        predicted.append({key: counts[key] - before[key] for key in counts})
        return rollout

    monkeypatch.setattr(mpc, "_predict", counted_predict)
    solution = solve_ocp(system, x1, config, warm_start=warm, shifted=True)
    assert predicted == [{"stage_costs": 0, "chart_logs": 0}]
    before = counts["chart_logs"]
    warm_start_shift(solution, system)
    assert counts["chart_logs"] == before


def other_systems(design):
    """Attitude systems that must not be served the reference system's
    values on its states: one at another h, and one with another rate
    weight."""
    weights = design.weights
    twin = StageWeights(weights.attitude.copy(), 2.0 * weights.rate, weights.torque.copy(), weights.decay)
    return {
        "another h": SpacecraftAttitudeSystem(dataclasses.replace(design, h=0.05)),
        "other weights": SpacecraftAttitudeSystem(dataclasses.replace(design, weights=twin)),
    }


@pytest.mark.parametrize("other", ["another h", "other weights"])
def test_other_system_is_served_no_value(other, ref_system, ref_design, monkeypatch):
    x = built_state()
    ref_system.stage_cost(x, ROW)
    ref_system.terminal_cost(x)
    system = other_systems(ref_design)[other]
    counts = value_counts(monkeypatch)
    stage, terminal_value = system.stage_cost(x, ROW), system.terminal_cost(x)
    assert counts == {"stage_costs": 1, "chart_logs": int(other == "another h")}
    fresh = copy_of(x)
    assert repr((stage, terminal_value)) == repr((system.stage_cost(fresh, ROW), system.terminal_cost(fresh)))


def test_zero_of_the_other_sign_is_served_no_stage_cost(ref_system, monkeypatch):
    # The stage cost keys its row as the step does (lgvi._same_row): equal
    # under == is not enough.
    x = built_state()
    ref_system.stage_cost(x, [0.0, -0.0, 2.25])
    counts = value_counts(monkeypatch)
    ref_system.stage_cost(x, [0.0, -0.0, 2.25])
    assert counts["stage_costs"] == 0
    ref_system.stage_cost(x, [0.0, 0.0, 2.25])
    assert counts["stage_costs"] == 1


def test_row_moved_in_place_is_served_no_stage_cost(ref_system, monkeypatch):
    # A finite-difference gradient moves an entry of its first row in place
    # between two tails from one state, so the kept key is a copy.
    x, row = built_state(), list(ROW)
    ref_system.stage_cost(x, row)
    counts = value_counts(monkeypatch)
    row[1] = row[1] + FD_STEP
    moved = ref_system.stage_cost(x, row)
    assert counts["stage_costs"] == 1
    assert repr(moved) == repr(ref_system.stage_cost(copy_of(x), [ROW[0], ROW[1] + FD_STEP, ROW[2]]))


def test_array_state_is_served_no_value(ref_system, monkeypatch):
    # The caller may still write to the arrays: the values follow them.
    x = as_arrays(built_state())
    values = [ref_system.stage_cost(x, ROW), ref_system.terminal_cost(x)]
    x.g[...] = exp_so3([0.2, 0.1, -0.3])
    counts = value_counts(monkeypatch)
    moved = [ref_system.stage_cost(x, ROW), ref_system.terminal_cost(x)]
    assert counts == {"stage_costs": 1, "chart_logs": 1}
    assert x._stage is None and x._coordinates is None
    assert moved != values
    assert repr(moved) == repr([ref_system.stage_cost(as_entries(x), ROW), ref_system.terminal_cost(as_entries(x))])


@pytest.mark.parametrize("rebuild", [as_arrays, as_entries], ids=["from arrays", "from entries"])
def test_coordinates_of_one_state_are_read_only(rebuild):
    x = rebuild(built_state())
    for xi in (terminal.coordinates(x, H_REF), terminal.coordinates(x, H_REF)):
        with pytest.raises(ValueError):
            xi[0] = 1.0
    assert np.array_equal(xi, np.concatenate([log_so3(x.g), log_so3(x.f) / H_REF]))
