"""The reference closed loops, pinned.

One table holds, per reference run, its total stage cost, its solver
iteration total and its converged step.  A change that moves one of them
fails here and edits the table, so the move shows in its diff.  The totals
are stable to round-off: a start rate perturbed by 1e-15 rad/s moves them
by at most 2e-13 relative, with the same iteration totals, so the cost is
held at 1e-9 relative and the counts exactly.  The values were measured on
one platform (Python 3.11, numpy 2.4, x86-64); the tolerance leaves room
for another BLAS or numpy build.
"""

import math
from typing import NamedTuple

import numpy as np
import pytest

from so3mpc.attitude import AttitudeMpc, rest_state

from conftest import regulate_start

COST_RTOL = 1e-9


class Reference(NamedTuple):
    # AttitudeMpc arguments, the start and the number of steps.
    params: dict
    start: object
    n_steps: int
    # The pinned results.
    total_stage_cost: float
    iterations: int
    converged_step: object


def _slew_start():
    return rest_state([0.0, 0.0, math.pi])


REFERENCE_RUNS = {
    # The default simulate: N = 10, 100 N m, from rest at pi about z.
    "default simulate": Reference({}, _slew_start, 120, 571.3955647637102, 121, 66),
    # The regulate benchmark's seed-0 start, 30 steps: still settling.
    "regulate": Reference({}, regulate_start, 30, 19.36316711349569, 32, None),
    # The slew where the torque box binds: 1 N m, N = 40, 30 steps.
    "1 N m, N = 40": Reference(dict(horizon=40, torque_bound=1.0), _slew_start, 30, 149.30158327271647, 36, None),
}


@pytest.fixture(scope="module")
def fitted():
    """One fitted controller per distinct set of arguments."""
    models = {}

    def fit(params):
        key = tuple(sorted(params.items()))
        if key not in models:
            models[key] = AttitudeMpc(**params).fit()
        return models[key]

    return fit


@pytest.fixture(scope="module")
def reference_run(fitted):
    """The closed loop of each reference row, run once."""
    runs = {}

    def run(name):
        if name not in runs:
            row = REFERENCE_RUNS[name]
            runs[name] = fitted(row.params).simulate(row.start(), row.n_steps)
        return runs[name]

    return run


@pytest.mark.parametrize("name", list(REFERENCE_RUNS))
def test_reference_run(name, reference_run):
    row = REFERENCE_RUNS[name]
    run = reference_run(name)
    assert run.feasible.all()
    total = float(run.stage_costs.sum())
    assert abs(total - row.total_stage_cost) <= COST_RTOL * row.total_stage_cost, (total, row.total_stage_cost)
    assert int(run.iterations.sum()) == row.iterations
    assert run.converged_step == row.converged_step
    assert run.converged == (row.converged_step is not None)


def test_default_simulate_stays_converged(reference_run):
    # From step 66 on, every distance is below the tolerance.
    run = reference_run("default simulate")
    step = REFERENCE_RUNS["default simulate"].converged_step
    assert run.converged
    assert np.all(run.distances[step:] < 1e-2)
    assert run.distances[step - 1] >= 1e-2


def test_binding_slew_that_leaves_the_tolerance_is_not_converged(fitted):
    # 1 N m, N = 40, 120 steps from rest at pi: the distance first falls
    # below the tolerance at step 72, climbs back to about four times it and
    # ends above it.  A flag latched at the first crossing said converged.
    run = fitted(REFERENCE_RUNS["1 N m, N = 40"].params).simulate(_slew_start(), 120)
    below = np.flatnonzero(run.distances < 1e-2)
    assert below[0] == 72
    assert run.distances[72:].max() > 3.0 * 1e-2
    assert run.distances[-1] >= 1e-2
    assert not run.converged
    assert run.converged_step is None
