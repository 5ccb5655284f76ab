"""The three benchmark workloads, their seeded inputs and output checks.

Each workload does its set-up several times, then repeats one unit of work
until the measuring time is used up.  Repeated units get identical inputs,
so their outputs must be identical too; timings are pooled over them.
Every set-up and every operation is timed through ``speed.Calibrated``.

- ``slew180``: ``so3mpc design`` and ``so3mpc simulate`` through
  ``so3mpc.cli.main`` on the reference configuration cut to 80 steps, from
  rest at 180 degrees about a seeded axis, plus one cold solve just off the
  branch cut.
- ``regulate``: ``AttitudeMpc.fit`` then 30 steps of ``simulate`` from a
  seeded 30 degree attitude with a small body rate; the CSV traces are
  written.
- ``certify``: ``design_terminal`` at a 1 Nm torque bound, then
  ``certify_local_law`` on fresh samples at the design's sample count.
  The receding-horizon solver does not run.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

import so3mpc
from speed import Calibrated
# Functions are looked up on their modules at call time, so that the
# tracer's wrappers see these calls too.
from so3mpc import cli, experiments, mpc, terminal

H = 0.1
INERTIA_DIAG = [1.0, 1.2, 1.5]
HORIZON = 10
SETUP_REPEATS = 3

SLEW_TORQUE = 100.0
SLEW_STEPS = 80
# Seeded axes lie within this angle of a workload's reference axis, so that
# seeds replicate one problem instead of spanning the inertia ellipsoid.
SEED_TILT = math.radians(1.0)
OFF_CUT = -0.99

# The attitude axis and spin direction of the 200-step acceptance loop;
# seeds tilt each within ``SEED_TILT`` of it.
REGULATE_AXIS = (0.6, -0.4, 0.69282032)
REGULATE_SPIN_AXIS = (0.02, -0.01, 0.015)
REGULATE_ANGLE = math.radians(30.0)
REGULATE_RATE = 0.02
REGULATE_STEPS = 30

CERTIFY_TORQUE = 1.0
CERTIFY_SEED_OFFSET = 20_000

DECREASE_SLACK = 1e-8
DARE_TOL = 1e-8
DISTANCE_TOL = 1e-2


@dataclass
class Ledger:
    """Operations attempted and failed, with a note for every failure."""

    attempted: int = 0
    failed: int = 0
    notes: list = field(default_factory=list)

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)
        return ok


@dataclass
class Result:
    """Everything one workload run measured."""

    ledger: Ledger
    setup_s: list  # scaled to the nominal speed, as ``op_s``
    op_s: list
    op_raw_s: list  # as measured
    work: float  # units of work done in ``work_s``
    work_s: float  # measured
    level_c: float
    extra: dict = field(default_factory=dict)


class StepTimer:
    """Times every ``MpcController.step`` while installed."""

    def __init__(self, cal: Calibrated):
        self.cal = cal
        self.times: list[float] = []
        self.raw_times: list[float] = []

    def __enter__(self):
        self._original = mpc.MpcController.__dict__["step"]
        original = self._original

        def timed_step(controller, x):
            value, raw, scaled = self.cal.timed(original, controller, x)
            self.raw_times.append(raw)
            self.times.append(scaled)
            return value

        mpc.MpcController.step = timed_step
        return self

    def __exit__(self, *exc):
        mpc.MpcController.step = self._original
        return False


class LoopCapture:
    """Keeps every ``ClosedLoopRun`` that ``so3mpc.cli`` computes while
    installed, so that the run can be audited beyond what the CLI writes."""

    def __init__(self):
        self.runs: list = []

    def __enter__(self):
        self._original = cli.closed_loop
        original = self._original
        runs = self.runs

        def capturing_closed_loop(*args, **kwargs):
            run = original(*args, **kwargs)
            runs.append(run)
            return run

        cli.closed_loop = capturing_closed_loop
        return self

    def __exit__(self, *exc):
        cli.closed_loop = self._original
        return False


def repeat(unit, seconds: float, once: bool) -> int:
    """Run ``unit()`` until ``seconds`` of wall time have passed; at least once."""
    t0 = time.perf_counter()
    count = 0
    while True:
        unit()
        count += 1
        if once or time.perf_counter() - t0 >= seconds:
            return count


def unit_vector(v) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def tilted(axis, rng: np.random.Generator) -> np.ndarray:
    """A uniform draw from the cone of half-angle ``SEED_TILT`` about ``axis``."""
    axis = unit_vector(axis)
    cos_tilt = rng.uniform(math.cos(SEED_TILT), 1.0)
    sin_tilt = math.sqrt(1.0 - cos_tilt**2)
    phi = rng.uniform(0.0, 2.0 * math.pi)
    first = unit_vector(np.cross(axis, [1.0, 0.0, 0.0] if abs(axis[0]) < 0.9 else [0.0, 1.0, 0.0]))
    second = np.cross(axis, first)
    return cos_tilt * axis + sin_tilt * (math.cos(phi) * first + math.sin(phi) * second)


def slew_axis(seed: int) -> np.ndarray:
    """Seed 0 gives z, other seeds an axis tilted from z.  The sign makes
    the largest component positive, the side the logarithm's branch-cut
    convention picks."""
    axis = np.array([0.0, 0.0, 1.0])
    if seed != 0:
        axis = tilted(axis, np.random.default_rng(seed))
    if axis[np.argmax(np.abs(axis))] < 0.0:
        axis = -axis
    return axis


def quiet(fn, *args):
    """Call ``fn`` with its standard output captured."""
    with contextlib.redirect_stdout(io.StringIO()):
        return fn(*args)


def _read_csv(path) -> list[dict]:
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def check_decrease_chain(ledger: Ledger, feasible, v_star, v_cand, stage, label: str) -> None:
    """One operation per closed-loop step: the step was feasible and the
    candidate decrease V_cand(k+1) - V*(k) + L(k) stayed below the slack."""
    for k in range(len(v_star)):
        ok = bool(feasible[k])
        if k >= 1:
            ok = ok and v_cand[k] - v_star[k - 1] + stage[k - 1] <= DECREASE_SLACK
        ledger.record(ok, f"{label}: step {k} infeasible or breaks the decrease chain")


def first_along(torques: np.ndarray, axis: np.ndarray) -> float:
    along = torques @ axis
    nonzero = along[np.abs(along) > 1e-9]
    return float(nonzero[0]) if len(nonzero) else 0.0


def run_slew180(seed: int, seconds: float, out_dir: str, once: bool, setup_repeats: int, cal: Calibrated) -> Result:
    ledger = Ledger()
    axis = slew_axis(seed)
    config = {
        "physical": {"J_kgm2": INERTIA_DIAG, "h_seconds": H},
        "mpc": {"N": HORIZON, "tau_max_Nm": SLEW_TORQUE},
        "experiment": {
            "initial_attitude_axis_angle_rad": (math.pi * axis).tolist(),
            "initial_rate_rad_s": [0.0, 0.0, 0.0],
            "n_steps": SLEW_STEPS,
            "seed": 0,
            "distance_tol": DISTANCE_TOL,
        },
        "output": {"directory": out_dir},
    }
    config_path = os.path.join(out_dir, "config.json")
    with open(config_path, "w") as handle:
        json.dump(config, handle)
    args = ["--config", config_path, "--out", out_dir]

    setup_s = []
    for _ in range(setup_repeats):
        code, _, elapsed = cal.timed(quiet, cli.main, ["design", *args])
        ledger.record(code == 0, f"design command exited with {code}")
        setup_s.append(elapsed)
    with open(os.path.join(out_dir, "design.json")) as handle:
        level_c = float(json.load(handle)["c"])

    loop_s = []
    extra = {}

    def unit() -> None:
        with LoopCapture() as loops:
            code, elapsed, _ = cal.timed(quiet, cli.main, ["simulate", *args])
        loop_s.append(elapsed)
        if not ledger.record(code == 0, f"simulate command exited with {code}"):
            return
        audit = so3mpc.audit_lyapunov(loops.runs[-1])
        ledger.record(
            audit.passed,
            "audit_lyapunov failed: "
            + "; ".join(f"{v.invariant} ({v.margin:.3e})" for v in audit.verdicts if not v.passed),
        )
        with open(os.path.join(out_dir, "summary.json")) as handle:
            summary = json.load(handle)
        ledger.record(bool(summary["converged"]), "simulate did not converge")
        rows = _read_csv(os.path.join(out_dir, "diagnostics.csv"))
        check_decrease_chain(
            ledger,
            [row["feasible"] == "1" for row in rows],
            [float(row["V_star"]) for row in rows],
            [float(row["V_candidate"]) for row in rows],
            [float(row["L"]) for row in rows],
            "slew180",
        )
        trajectory = _read_csv(os.path.join(out_dir, "trajectory.csv"))
        torques = np.array([[float(row[f"tau_{c}"]) for c in "xyz"] for row in trajectory])
        extra.update(
            closed_loop_cost=float(summary["total_stage_cost"]),
            settle_steps=summary["converged_step"],
            on_cut_torque=first_along(torques[:SLEW_STEPS], axis),
        )

    with StepTimer(cal) as steps:
        units = repeat(unit, seconds, once)

    design = so3mpc.TerminalDesign.load(os.path.join(out_dir, "design.json"))
    system = so3mpc.SpacecraftAttitudeSystem(design, torque_bound=SLEW_TORQUE)
    start = so3mpc.rest_state(OFF_CUT * math.pi * axis)
    solution, _, cold_s = cal.timed(so3mpc.solve_ocp, system, start, so3mpc.MpcConfig(horizon=HORIZON))
    off_cut = first_along(solution.torques, axis)
    on_cut = extra.get("on_cut_torque", 0.0)
    ledger.record(
        solution.feasible and on_cut * off_cut < 0.0,
        f"off-cut cold solve: feasible={solution.feasible}, first torques along the axis "
        f"{on_cut:.3e} (on cut) and {off_cut:.3e} (off cut) do not have opposite signs",
    )
    extra.update(loop_s=float(np.median(loop_s)), cold_solve_s=cold_s, units=units, axis=axis.tolist())
    return Result(ledger, setup_s, steps.times, steps.raw_times, SLEW_STEPS * units, sum(loop_s), level_c, extra)


def regulate_start(seed: int):
    """30 degrees about the reference axis with a 0.02 rad/s spin; other
    seeds tilt both axes."""
    axis = unit_vector(REGULATE_AXIS)
    spin = unit_vector(REGULATE_SPIN_AXIS)
    if seed != 0:
        rng = np.random.default_rng(seed)
        axis, spin = tilted(axis, rng), tilted(spin, rng)
    return so3mpc.spinning_state(REGULATE_ANGLE * axis, REGULATE_RATE * spin, H)


def run_regulate(seed: int, seconds: float, out_dir: str, once: bool, setup_repeats: int, cal: Calibrated) -> Result:
    ledger = Ledger()
    state0 = regulate_start(seed)
    setup_s = []
    for _ in range(setup_repeats):
        controller, _, elapsed = cal.timed(so3mpc.AttitudeMpc(horizon=HORIZON).fit)
        setup_s.append(elapsed)
    design = controller.design_
    tol = controller.config_.solver.constraint_tol
    loop_s = []
    extra = {}
    costs = []

    def loop():
        run = controller.simulate(state0, REGULATE_STEPS, distance_tol=DISTANCE_TOL)
        experiments.write_trajectory_csv(os.path.join(out_dir, "trajectory.csv"), run.states, run.controls, design.h)
        experiments.write_diagnostics_csv(os.path.join(out_dir, "diagnostics.csv"), run, design.h)
        experiments.write_snapshot_csv(os.path.join(out_dir, "snapshots.csv"), run.states, design.h)
        return run

    def unit() -> None:
        try:
            run, elapsed, _ = cal.timed(loop)
        except so3mpc.So3MpcError as err:
            ledger.record(False, f"regulate closed loop raised {err!r}")
            return
        loop_s.append(elapsed)
        check_decrease_chain(
            ledger, run.violations <= tol, run.optimal_costs, run.candidate_costs,
            run.stage_costs, "regulate",
        )
        audit = so3mpc.audit_lyapunov(run)
        ledger.record(
            audit.passed,
            "audit_lyapunov failed: "
            + "; ".join(f"{v.invariant} ({v.margin:.3e})" for v in audit.verdicts if not v.passed),
        )
        costs.append(float(run.stage_costs.sum()))
        extra.update(closed_loop_cost=costs[0], settle_steps=run.converged_step)

    with StepTimer(cal) as steps:
        units = repeat(unit, seconds, once)
    ledger.record(len(set(costs)) <= 1, f"repeated identical closed loops paid different costs {costs}")
    extra.update(loop_s=float(np.median(loop_s)) if loop_s else 0.0, units=units)
    return Result(ledger, setup_s, steps.times, steps.raw_times, REGULATE_STEPS * units, sum(loop_s), design.c, extra)


def run_certify(seed: int, seconds: float, out_dir: str, once: bool, setup_repeats: int, cal: Calibrated) -> Result:
    ledger = Ledger()
    inertia = np.diag(INERTIA_DIAG)
    weights = so3mpc.default_weights(inertia)
    lin = so3mpc.build_linearization(H, inertia)
    cost = so3mpc.build_cost_data(weights)
    setup_s = []
    for _ in range(setup_repeats):
        # The calibration keeps its default seed, as ``fit()`` and
        # ``so3mpc design`` do: the certified level depends on the calibration
        # samples (see README), and as a metric it must not move with --seed.
        design, _, elapsed = cal.timed(so3mpc.design_terminal, inertia, H, weights, torque_bound=CERTIFY_TORQUE)
        setup_s.append(elapsed)
        residual = terminal.dare_residual(design.P, lin, cost)
        ledger.record(residual <= DARE_TOL, f"DARE residual {residual:.3e} exceeds {DARE_TOL:g}")
    design.save(os.path.join(out_dir, "design.json"))
    n_samples = design.certification.n_samples
    pass_s = []
    pass_raw_s = []

    def unit() -> None:
        report, raw, elapsed = cal.timed(
            so3mpc.certify_local_law, design, CERTIFY_TORQUE,
            n_samples=n_samples, seed=CERTIFY_SEED_OFFSET + seed,
        )
        pass_s.append(elapsed)
        pass_raw_s.append(raw)
        report.save(os.path.join(out_dir, "local_law.json"))
        ledger.record(
            report.passed,
            "fresh-sample certificate failed: "
            + "; ".join(f"{v.invariant} ({v.margin:.3e})" for v in report.verdicts if not v.passed),
        )

    units = repeat(unit, seconds, once)
    extra = {"certify_s": float(np.median(pass_s)), "n_samples": n_samples, "units": units}
    return Result(ledger, setup_s, pass_s, pass_raw_s, n_samples * units, sum(pass_raw_s), design.c, extra)


WORKLOADS = {
    "slew180": run_slew180,
    "regulate": run_regulate,
    "certify": run_certify,
}
