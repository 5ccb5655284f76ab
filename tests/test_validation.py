"""The input checks at the edges of their fixed tolerances, and the
converters that the configuration and the design file share."""

import math

import numpy as np
import pytest

from so3mpc.attitude import rest_state, spinning_state
from so3mpc.cli import parse_config
from so3mpc.errors import ConfigError, DesignFileError, NotPositiveDefinite, NotRotation
from so3mpc.so3 import exp_so3
from so3mpc.validation import (
    ROTATION_ATOL,
    SPD_SYMMETRY_RTOL,
    check_rotation,
    check_spd,
)
from so3mpc.lgvi import SpacecraftState, lgvi_step, rollout
from so3mpc.mpc import MpcConfig, horizon_cost, solve_ocp
from so3mpc.terminal import TerminalDesign, default_weights, design_terminal

from conftest import H_REF, J_REF


@pytest.mark.parametrize("factor, rejected", [(0.1, False), (10.0, True)])
def test_rotation_tolerance(factor, rejected):
    # (1 + e) R has ||R^T R - I||_F = sqrt(3) (2e + e^2) and det (1 + e)^3.
    scaled = (1.0 + factor * ROTATION_ATOL) * exp_so3([0.3, -0.2, 0.5])
    if rejected:
        with pytest.raises(NotRotation, match="not orthogonal"):
            check_rotation(scaled, "R")
    else:
        check_rotation(scaled, "R")


@pytest.mark.parametrize("factor, rejected", [(1.0, False), (2.0, True)])
def test_spd_symmetry_tolerance_is_relative(factor, rejected):
    # An off-diagonal gap d gives ||A - A^T||_F = sqrt(2) d, against the
    # tolerance times ||A||_F = 1e3 ||J_REF||_F, about 2.2e3; the accepted
    # gap is 1e3 times the tolerance itself.
    a = 1e3 * J_REF
    a[0, 1] = factor * 1e3 * SPD_SYMMETRY_RTOL
    if rejected:
        with pytest.raises(NotPositiveDefinite, match="not symmetric"):
            check_spd(a, "A")
    else:
        check_spd(a, "A")


# One bad value of each sort, by name.
BAD_VALUES = {
    "string": "0.1",
    "boolean": True,
    "nan": math.nan,
    "inf": math.inf,
    "fraction": 2.7,
    "zero": 0,
    "negative": -1,
}
# Each kind of number: its keys in the configuration and in a design file,
# and the bad values it rejects.
KINDS = {
    "positive": (
        ["physical.h_seconds", "weights.lambda", "experiment.distance_tol",
         "output.snapshot_seconds", "mpc.solver.grad_tol", "mpc.solver.constraint_tol"],
        ["h", "c", "lambda"],
        ["string", "boolean", "nan", "inf", "zero", "negative"],
    ),
    "count": (
        ["mpc.N", "terminal.n_samples", "experiment.n_steps", "output.csv_cadence_steps",
         "mpc.solver.max_iters"],
        ["certification.n_samples"],
        list(BAD_VALUES),
    ),
    "number": ([], ["certification.max_violation"], ["string", "boolean", "nan", "inf"]),
    "fraction": (["terminal.shrink"], [], ["string", "boolean", "nan", "inf", "fraction", "zero", "negative"]),
}


def _with_entry(data: dict, key: str, value) -> dict:
    """``data`` with the entry at the dotted ``key`` set to ``value``."""
    *path, name = key.split(".")
    entry = data
    for part in path:
        entry = entry.setdefault(part, {})
    entry[name] = value
    return data


@pytest.mark.parametrize(
    "kind, label", [(kind, label) for kind, (_, _, labels) in KINDS.items() for label in labels]
)
def test_configuration_and_design_file_reject_alike(ref_design, kind, label):
    # The design file used to read "h": "0.1" as 0.1, "c": true as 1.0 and
    # n_samples 2.7 as 2, all of which the configuration rejects.
    config_keys, design_keys, _ = KINDS[kind]
    value = BAD_VALUES[label]
    reasons = set()
    for key in config_keys:
        with pytest.raises(ConfigError) as err:
            parse_config(_with_entry({}, key, value))
        assert err.value.key == key
        # A solver setting's reason starts with the field's name.
        reasons.add(str(err.value).removeprefix(f"{key}: ").removeprefix(f"{key.split('.')[-1]} "))
    for key in design_keys:
        with pytest.raises(DesignFileError) as err:
            TerminalDesign.from_json_dict(_with_entry(ref_design.to_json_dict(), key, value))
        assert str(err.value).startswith(f"key '{key}': ")
        reasons.add(str(err.value).removeprefix(f"key '{key}': "))
    assert len(reasons) == 1, reasons


# Inputs that are not arrays of real numbers: a word, an object, a dict, a
# ragged nesting and a word among numbers, which np.asarray(..., dtype=float)
# cannot convert; words that spell numbers, which it parses; an integer
# beyond the float range, on which it raises OverflowError; and booleans,
# alone or among numbers, which it reads as 0 and 1.  (None converts,
# to NaN, and fails the shape or finiteness check, which names the argument.)
NON_NUMERIC = {
    "word": "abc",
    "object": object(),
    "dict": {"x": 1.0},
    "ragged": [[0.0, 0.0, 0.0], [0.0, 0.0]],
    "word entry": [0.0, "a", 0.0],
    "numeric words": ["1", "2", "3"],
    "overflow": [10**400, 0.0, 0.0],
    "booleans": [True, False, True],
    "boolean entry": [True, 0.0, 1.0],
}

# (public entry, the argument it names, the call with the bad value and the
# reference system).
NON_NUMERIC_ENTRIES = {
    "lgvi_step": ("torque", lambda bad, _: lgvi_step(SpacecraftState.identity(), bad, H_REF, J_REF)),
    "rollout": ("torques", lambda bad, _: rollout(SpacecraftState.identity(), bad, H_REF, J_REF)),
    "rest_state": ("axis_angle", lambda bad, _: rest_state(bad)),
    "spinning_state axis": ("axis_angle", lambda bad, _: spinning_state(bad, [0.0, 0.0, 0.0], H_REF)),
    "spinning_state rate": ("rate", lambda bad, _: spinning_state([0.0, 0.0, 0.0], bad, H_REF)),
    "horizon_cost": ("torques", lambda bad, system: horizon_cost(system, SpacecraftState.identity(), bad)),
    "solve_ocp": (
        "warm_start",
        lambda bad, system: solve_ocp(system, SpacecraftState.identity(), MpcConfig(), warm_start=bad),
    ),
    "design_terminal": ("inertia", lambda bad, _: design_terminal(bad, H_REF, default_weights(J_REF))),
}


@pytest.mark.parametrize("entry", NON_NUMERIC_ENTRIES)
@pytest.mark.parametrize("label", NON_NUMERIC)
def test_non_numeric_input_raises_value_error_naming_the_argument(ref_system, entry, label):
    # Before, a word reached numpy's own message ("could not convert string
    # to float: 'abc'"), which names no argument, an object a bare
    # TypeError, numeric words converted to their numbers and an overflowing
    # integer raised a bare OverflowError.
    name, call = NON_NUMERIC_ENTRIES[entry]
    with pytest.raises(ValueError, match=f"^{name} must be an array of real numbers, got "):
        call(NON_NUMERIC[label], ref_system)


@pytest.mark.parametrize(
    "torque",
    [
        np.array([True, False, True]),
        np.array([True, 0.0, 1.0], dtype=object),
        [np.bool_(True), 0.0, 1.0],
        [0.0, np.array(True), 1.0],
    ],
    ids=["boolean dtype", "object array", "numpy boolean entry", "boolean array entry"],
)
def test_boolean_arrays_and_entries_rejected(torque):
    # numpy reads each as the torque (1, 0, 1).
    with pytest.raises(ValueError, match="^torque must be an array of real numbers, got "):
        lgvi_step(SpacecraftState.identity(), torque, H_REF, J_REF)
