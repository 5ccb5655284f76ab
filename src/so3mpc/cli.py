"""Command-line interface: terminal design, closed-loop simulation, and
verification suites, all driven by a JSON configuration file.

Exit codes: 0 success, 1 verification failure, 2 usage or configuration
error, 3 runtime infeasibility.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from .attitude import SpacecraftAttitudeSystem, spinning_state
from .errors import ConfigError, Infeasible, NoConvergence, NoFeasibleLevel, So3MpcError
from .experiments import (
    audit_lyapunov,
    certify_local_law,
    probe_discontinuity,
    verify_conservation,
    write_diagnostics_csv,
    write_snapshot_csv,
    write_trajectory_csv,
)
from .lgvi import DEFAULT_INERTIA, DEFAULT_STEP_SECONDS
from .mpc import DEFAULT_DISTANCE_TOL, DEFAULT_HORIZON, MpcConfig, SolverSettings, closed_loop
from .terminal import (
    DEFAULT_ATTITUDE_WEIGHT,
    DEFAULT_DECAY,
    DEFAULT_TERMINAL_SAMPLES,
    DEFAULT_TERMINAL_SHRINK,
    DEFAULT_TORQUE_BOUND,
    DEFAULT_TORQUE_WEIGHT,
    StageWeights,
    TerminalDesign,
    build_cost_data,
    build_linearization,
    dare_residual,
    design_terminal,
)
from .validation import as_matrix3, check_vector3, is_number, is_numeric_tree

VERIFY_SUITES = ("conservation", "local-law", "lyapunov", "discontinuity", "all")


@dataclass
class RunConfig:
    """Parsed configuration; every field has a working default."""

    inertia: np.ndarray
    h: float
    weights: StageWeights
    horizon: int
    torque_bound: float
    solver: SolverSettings
    terminal_samples: int
    terminal_shrink: float
    initial_attitude: np.ndarray
    initial_rate: np.ndarray
    n_steps: int
    seed: int
    distance_tol: float
    out_dir: str
    csv_cadence: int
    snapshot_seconds: float
    raw: dict = field(default_factory=dict)


def default_config_dict() -> dict:
    """The reference configuration, from the library's defaults.
    ``weights.Q_f`` has no entry: when omitted it follows
    ``physical.J_kgm2``, as in :func:`default_weights`."""
    return {
        "physical": {"J_kgm2": np.diag(DEFAULT_INERTIA).tolist(), "h_seconds": DEFAULT_STEP_SECONDS},
        "weights": {"Q_g": DEFAULT_ATTITUDE_WEIGHT, "R": DEFAULT_TORQUE_WEIGHT, "lambda": DEFAULT_DECAY},
        "mpc": {
            "N": DEFAULT_HORIZON,
            "tau_max_Nm": DEFAULT_TORQUE_BOUND,
            "solver": {},
        },
        "terminal": {"n_samples": DEFAULT_TERMINAL_SAMPLES, "shrink": DEFAULT_TERMINAL_SHRINK},
        "experiment": {
            "initial_attitude_axis_angle_rad": [0.0, 0.0, 3.141592653589793],
            "initial_rate_rad_s": [0.0, 0.0, 0.0],
            "n_steps": 120,
            "seed": 0,
            "distance_tol": DEFAULT_DISTANCE_TOL,
        },
        "output": {"directory": "out", "csv_cadence_steps": 1, "snapshot_seconds": 2.0},
    }


def _positive(value, path: str, allow_inf: bool = False) -> float:
    if not is_number(value):
        raise ConfigError(path, f"must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        number = np.inf
    if np.isnan(number) or number <= 0 or (not allow_inf and np.isinf(number)):
        raise ConfigError(path, f"must be positive and finite, got {number}")
    return number


def _integer(value, path: str, minimum: int) -> int:
    """``value`` as an int: an integer, or a float with an integral value."""
    number = None
    if is_number(value):
        try:
            number = int(value)
        except (ValueError, OverflowError):
            pass
    if number is None or number != value:
        raise ConfigError(path, f"must be an integer, got {value!r}")
    if number < minimum:
        raise ConfigError(path, f"must be at least {minimum}, got {number}")
    return number


def _vector3(value, path: str) -> np.ndarray:
    if not is_numeric_tree(value):
        raise ConfigError(path, f"must be a list of three numbers, got {value!r}")
    try:
        return check_vector3(value, "vector")
    except ValueError as err:
        raise ConfigError(path, str(err)) from None


def parse_config(data: dict) -> RunConfig:
    """Validate a configuration dictionary, naming the offending key on error."""
    merged = default_config_dict()
    for section, content in data.items():
        if section not in merged:
            raise ConfigError(section, "unknown configuration section")
        if not isinstance(content, dict):
            raise ConfigError(section, "must be an object")
        for key in content:
            if key not in merged[section] and (section, key) != ("weights", "Q_f"):
                raise ConfigError(f"{section}.{key}", "unknown configuration key")
        merged[section].update(content)

    merged["weights"].setdefault("Q_f", merged["physical"]["J_kgm2"])

    phys = merged["physical"]
    inertia = as_matrix3(phys["J_kgm2"], "physical.J_kgm2")
    h = _positive(phys["h_seconds"], "physical.h_seconds")

    wsec = merged["weights"]
    attitude = as_matrix3(wsec["Q_g"], "weights.Q_g")
    rate = as_matrix3(wsec["Q_f"], "weights.Q_f")
    torque = as_matrix3(wsec["R"], "weights.R")
    decay = _positive(wsec["lambda"], "weights.lambda")
    try:
        weights = StageWeights(attitude, rate, torque, decay)
    except ValueError as err:
        raise ConfigError("weights.lambda", str(err)) from None

    mpc = merged["mpc"]
    horizon = _integer(mpc["N"], "mpc.N", 1)
    torque_bound = _positive(mpc["tau_max_Nm"], "mpc.tau_max_Nm", allow_inf=True)
    if not isinstance(mpc["solver"], dict):
        raise ConfigError("mpc.solver", "must be an object")
    try:
        solver = SolverSettings(**mpc["solver"])
    except (TypeError, ValueError) as err:
        raise ConfigError("mpc.solver", str(err)) from None

    term = merged["terminal"]
    terminal_samples = _integer(term["n_samples"], "terminal.n_samples", 1)
    terminal_shrink = _positive(term["shrink"], "terminal.shrink")
    if terminal_shrink > 1.0:
        raise ConfigError("terminal.shrink", f"must lie in (0, 1], got {terminal_shrink}")

    exp = merged["experiment"]
    initial_attitude = _vector3(
        exp["initial_attitude_axis_angle_rad"], "experiment.initial_attitude_axis_angle_rad"
    )
    initial_rate = _vector3(exp["initial_rate_rad_s"], "experiment.initial_rate_rad_s")
    n_steps = _integer(exp["n_steps"], "experiment.n_steps", 1)
    seed = _integer(exp["seed"], "experiment.seed", 0)
    distance_tol = _positive(exp["distance_tol"], "experiment.distance_tol")

    out = merged["output"]
    out_dir = out["directory"]
    if not isinstance(out_dir, str) or not out_dir:
        raise ConfigError("output.directory", f"must be a non-empty string, got {out_dir!r}")
    csv_cadence = _integer(out["csv_cadence_steps"], "output.csv_cadence_steps", 1)
    snapshot_seconds = _positive(out["snapshot_seconds"], "output.snapshot_seconds")

    return RunConfig(
        inertia=inertia,
        h=h,
        weights=weights,
        horizon=horizon,
        torque_bound=torque_bound,
        solver=solver,
        terminal_samples=terminal_samples,
        terminal_shrink=terminal_shrink,
        initial_attitude=initial_attitude,
        initial_rate=initial_rate,
        n_steps=n_steps,
        seed=seed,
        distance_tol=distance_tol,
        out_dir=out_dir,
        csv_cadence=csv_cadence,
        snapshot_seconds=snapshot_seconds,
        raw=merged,
    )


def load_config(path: str | None) -> RunConfig:
    if path is None:
        return parse_config({})
    try:
        with open(path) as handle:
            data = json.load(handle)
    except FileNotFoundError:
        raise ConfigError(path, "configuration file not found") from None
    except json.JSONDecodeError as err:
        raise ConfigError(path, f"invalid JSON: {err}") from None
    if not isinstance(data, dict):
        raise ConfigError(path, "top-level JSON value must be an object")
    return parse_config(data)


def _write_summary(path: str, payload: dict) -> None:
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _command_config(args) -> RunConfig:
    """The configuration named by ``--config``, with ``--seed`` applied."""
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg.seed = _integer(args.seed, "--seed", 0)
    return cfg


def _design(cfg: RunConfig) -> TerminalDesign:
    return design_terminal(
        cfg.inertia,
        cfg.h,
        cfg.weights,
        torque_bound=cfg.torque_bound,
        n_samples=cfg.terminal_samples,
        shrink=cfg.terminal_shrink,
        seed=cfg.seed,
    )


def _output_dir(args, cfg: RunConfig) -> str:
    """The output directory, created if needed; a path that cannot be made a
    directory (a file is in the way, say) is a ConfigError naming it."""
    out_dir = args.out or cfg.out_dir
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as err:
        key = "--out" if args.out else "output.directory"
        raise ConfigError(key, f"cannot create directory {out_dir}: {err.strerror}") from None
    return out_dir


def cmd_design(args) -> int:
    cfg = _command_config(args)
    out_dir = _output_dir(args, cfg)
    path = args.design or os.path.join(out_dir, "design.json")
    if args.design is not None:
        # Checked before the design runs, which takes about a second.
        parent = os.path.dirname(path) or "."
        if not os.path.isdir(parent):
            raise ConfigError("--design", f"directory {parent} of {path} does not exist")
        if os.path.isdir(path):
            raise ConfigError("--design", f"{path} is a directory")
    try:
        design = _design(cfg)
    except (NoFeasibleLevel, NoConvergence) as err:
        print(f"design failed: {err}", file=sys.stderr)
        return 2
    design.save(path)

    lin = build_linearization(cfg.h, cfg.inertia)
    cost = build_cost_data(cfg.weights)
    residual = dare_residual(design.P, lin, cost)
    rho = float(np.max(np.abs(np.linalg.eigvals(lin.A - lin.B @ design.K))))
    print(f"design written to {path}")
    print(f"riccati residual: {residual:.3e}")
    print(f"closed-loop spectral radius: {rho:.6f}")
    print(f"terminal level c: {design.c:.6g}")
    print(
        "certification: n_samples=%d max_violation=%.3e"
        % (design.certification.n_samples, design.certification.max_violation)
    )
    return 0


def cmd_simulate(args) -> int:
    cfg = _command_config(args)
    out_dir = args.out or cfg.out_dir
    design_path = args.design or os.path.join(out_dir, "design.json")
    if _design_missing(design_path):
        return 2
    design = TerminalDesign.load(design_path)
    _output_dir(args, cfg)

    system = SpacecraftAttitudeSystem(design, torque_bound=cfg.torque_bound)
    state0 = spinning_state(cfg.initial_attitude, cfg.initial_rate, design.h)
    mpc_config = MpcConfig(horizon=cfg.horizon, solver=cfg.solver)
    try:
        run = closed_loop(
            system, state0, mpc_config, cfg.n_steps, distance_tol=cfg.distance_tol
        )
    except Infeasible as err:
        # The message already names the step: closed_loop prefixes it.
        print(str(err), file=sys.stderr)
        return 3

    traj_path = os.path.join(out_dir, "trajectory.csv")
    diag_path = os.path.join(out_dir, "diagnostics.csv")
    snap_path = os.path.join(out_dir, "snapshots.csv")
    write_trajectory_csv(traj_path, run.states, run.controls, design.h, stride=cfg.csv_cadence)
    write_diagnostics_csv(diag_path, run, design.h)
    write_snapshot_csv(snap_path, run.states, design.h, cfg.snapshot_seconds)
    summary = {
        "config": cfg.raw,
        "design_file": design_path,
        "steps": run.n_steps,
        "converged": run.converged,
        "converged_step": run.converged_step,
        "final_distance": float(run.distances[-1]),
        "total_stage_cost": float(run.stage_costs.sum()),
        "total_solver_iters": int(run.iterations.sum()),
        "traces": {"trajectory": traj_path, "diagnostics": diag_path, "snapshots": snap_path},
    }
    _write_summary(os.path.join(out_dir, "summary.json"), summary)
    print(
        "steps=%d converged=%s final_distance=%.3e total_stage_cost=%.6g"
        % (run.n_steps, run.converged, run.distances[-1], run.stage_costs.sum())
    )
    return 0


def _design_missing(path: str) -> bool:
    """Whether the design file ``path`` is missing, reported on stderr."""
    if os.path.exists(path):
        return False
    print(f"design file not found: {path} (run the design command first)", file=sys.stderr)
    return True


def cmd_verify(args) -> int:
    """Run the suites on the design file named by ``--design``, or on a
    fresh design of the configuration when none is named."""
    cfg = _command_config(args)
    design = None
    if args.design is not None:
        if _design_missing(args.design):
            return 2
        design = TerminalDesign.load(args.design)
    suites = VERIFY_SUITES[:-1] if args.suite == "all" else (args.suite,)
    out_dir = _output_dir(args, cfg)

    reports = []
    mpc_config = MpcConfig(horizon=cfg.horizon, solver=cfg.solver)
    for suite in suites:
        if suite == "conservation":
            reports.append(
                verify_conservation(cfg.inertia, cfg.h, n_steps=cfg.n_steps, seed=cfg.seed, out_dir=out_dir)
            )
            continue
        if design is None:
            design = _design(cfg)
        if suite == "local-law":
            reports.append(
                certify_local_law(design, cfg.torque_bound, n_samples=cfg.terminal_samples, seed=cfg.seed + 20_000)
            )
        elif suite == "lyapunov":
            system = SpacecraftAttitudeSystem(design, torque_bound=cfg.torque_bound)
            state0 = spinning_state(cfg.initial_attitude, cfg.initial_rate, design.h)
            try:
                run = closed_loop(system, state0, mpc_config, cfg.n_steps, distance_tol=cfg.distance_tol)
            except Infeasible as err:
                print(f"lyapunov suite: {err}", file=sys.stderr)
                return 3
            reports.append(audit_lyapunov(run))
        elif suite == "discontinuity":
            try:
                reports.append(
                    probe_discontinuity(
                        design,
                        mpc_config,
                        torque_bound=cfg.torque_bound,
                        n_steps=cfg.n_steps,
                        attitude_tol=cfg.distance_tol,
                        out_dir=out_dir,
                    )
                )
            except Infeasible as err:
                print(f"discontinuity suite: {err}", file=sys.stderr)
                return 3

    payload = {
        "config": cfg.raw,
        "passed": all(r.passed for r in reports),
        "suites": [r.to_json_dict() for r in reports],
    }
    verdict_path = os.path.join(out_dir, f"verify_{args.suite}.json")
    _write_summary(verdict_path, payload)
    for report in reports:
        for verdict in report.verdicts:
            status = "PASS" if verdict.passed else "FAIL"
            print(f"[{status}] {report.name}: {verdict.invariant} (margin {verdict.margin:.3e})")
    print(f"verdicts written to {verdict_path}")
    return 0 if payload["passed"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="so3mpc",
        description="Geometric receding-horizon attitude control on SO(3).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="JSON configuration file")
    common.add_argument("--design", metavar="PATH", help="terminal design JSON file")
    common.add_argument("--out", metavar="DIR", help="output directory")
    common.add_argument("--seed", type=int, metavar="N", help="override the configured seed")

    p_design = sub.add_parser("design", parents=[common], help="compute and store the terminal design")
    p_design.set_defaults(func=cmd_design)
    p_sim = sub.add_parser("simulate", parents=[common], help="run a closed-loop simulation")
    p_sim.set_defaults(func=cmd_simulate)
    p_verify = sub.add_parser("verify", parents=[common], help="run a verification suite")
    p_verify.add_argument("suite", choices=VERIFY_SUITES, help="which suite to run")
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        # argparse exits with 2 on usage errors; keep that contract.
        return int(err.code) if err.code is not None else 2
    try:
        return args.func(args)
    except ConfigError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return 2
    except Infeasible as err:
        print(f"infeasible: {err}", file=sys.stderr)
        return 3
    except So3MpcError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
