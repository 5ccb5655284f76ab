"""The reference closed loops, pinned.

One table holds every count of the reference loops of ``conftest.py``:
per loop, its total stage cost, its solver iteration total, its converged
step, and the counts of its one counted run.  A change that moves one of
them fails here and edits the table, so the move shows in its diff; other
tests, the README and the docstrings cite this table rather than copy its
counts.  The totals are stable to round-off: a start rate perturbed by
1e-15 rad/s moves them by at most 2e-13 relative, with the same iteration
totals, so the cost is held at 1e-9 relative and the counts exactly.  The
values were measured on one platform (Python 3.11, numpy 2.4, x86-64); the
tolerance leaves room for another BLAS or numpy build, and a failing row
prints the whole measured row beside the pinned one.
"""

from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from conftest import REFERENCE_LOOPS, regulate_start, slew_start

COST_RTOL = 1e-9


class Reference(NamedTuple):
    total_stage_cost: float
    iterations: int
    converged_step: object
    # Calls of the kernel, lgvi.step_with_margin, through the system; the
    # implicit solves they run, which a repeat of a step its state kept
    # skips; and the calls handed a numpy torque, where every prediction
    # hands a list of floats.
    kernel_calls: int
    implicit_solves: int
    array_torques: int
    # The finite-difference tail steps handed a start value, and the chord
    # and Newton updates they take.
    started_steps: int
    started_updates: int
    # Iterations of the cold first solve; every warm solve takes at most
    # one (tests/test_warm_step.py).
    cold_iterations: int
    # Evaluations of the stage-cost formula, StageWeights.stage_cost, and
    # chart logarithm passes, so3._log_so3_pair: a prediction that repeats
    # another from the same states reads the values they kept.
    stage_costs: int
    chart_logs: int
    # Newton updates of the implicit solves handed no start value, each
    # started at the second fixed-point iterate (lgvi._start).
    unstarted_updates: int


REFERENCE_RUNS = {
    "default simulate": Reference(571.3955446510921, 119, 66, 4070, 1649, 130, 330, 330, 3, 1649, 309, 1428),
    "regulate": Reference(19.36316613465384, 32, None, 1280, 689, 40, 330, 330, 3, 689, 132, 359),
    "1 N m, N = 40": Reference(149.30158327281129, 34, None, 9590, 6789, 70, 4920, 4920, 5, 6801, 366, 1869),
}


def measured_row(counted):
    run, counts = counted.run, counted.counts
    return Reference(
        float(run.stage_costs.sum()),
        int(run.iterations.sum()),
        run.converged_step,
        counts["kernel_calls"],
        counts["implicit_solves"],
        counts["array_torques"],
        counts["started_steps"],
        counts["started_chord_updates"] + counts["started_newton_updates"],
        int(run.iterations[0]),
        counts["stage_costs"],
        counts["chart_logs"],
        counts["unstarted_updates"],
    )


def test_table_covers_the_reference_loops():
    assert list(REFERENCE_RUNS) == list(REFERENCE_LOOPS)


@pytest.mark.parametrize("name", list(REFERENCE_RUNS))
def test_reference_run(name, reference_run):
    pinned, counted = REFERENCE_RUNS[name], reference_run(name)
    run, measured = counted.run, measured_row(counted)
    assert run.feasible.all()
    assert run.converged == (run.converged_step is not None)
    cost_holds = abs(measured.total_stage_cost - pinned.total_stage_cost) <= COST_RTOL * pinned.total_stage_cost
    counts_hold = measured._replace(total_stage_cost=pinned.total_stage_cost) == pinned
    assert cost_holds and counts_hold, f"\nmeasured {measured}\npinned   {pinned}"


def test_regulate_start_is_the_benchmark_seed_0_start(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import workloads

    ours, benchmark = regulate_start(), workloads.regulate_start(0)
    assert np.array_equal(ours.g, benchmark.g)
    assert np.array_equal(ours.f, benchmark.f)


def test_default_simulate_stays_converged(reference_run):
    # From its converged step on, every distance is below the tolerance.
    run = reference_run("default simulate").run
    step = REFERENCE_RUNS["default simulate"].converged_step
    assert run.converged
    assert np.all(run.distances[step:] < 1e-2)
    assert run.distances[step - 1] >= 1e-2


def test_binding_slew_that_leaves_the_tolerance_is_not_converged(fitted):
    # 1 N m, N = 40, 120 steps from rest at pi: the distance first falls
    # below the tolerance at step 72, climbs back to about four times it and
    # ends above it.  A flag latched at the first crossing said converged.
    run = fitted(REFERENCE_LOOPS["1 N m, N = 40"].params).simulate(slew_start(), 120)
    below = np.flatnonzero(run.distances < 1e-2)
    assert below[0] == 72
    assert run.distances[72:].max() > 3.0 * 1e-2
    assert run.distances[-1] >= 1e-2
    assert not run.converged
    assert run.converged_step is None
