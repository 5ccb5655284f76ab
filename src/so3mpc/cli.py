"""Command-line interface: terminal design, closed-loop simulation, and
verification suites, all driven by a JSON configuration file.

Each configuration key is declared once, on the :class:`RunConfig` field
that it fills: its dotted key, its entry in the reference configuration and
its converter.  :func:`default_config_dict`, the unknown-key check and the
conversions of :func:`parse_config` read these declarations.

Exit codes, set by :func:`main` alone: 0 success, 1 verification failure,
2 usage, configuration, design or file error.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import sys
from dataclasses import dataclass, field, fields

import numpy as np

from .attitude import SpacecraftAttitudeSystem, spinning_state
from .errors import ConfigError, So3MpcError
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
from .validation import as_fraction, as_integer, as_matrix, as_positive, as_vector3, is_number

VERIFY_SUITES = ("conservation", "local-law", "lyapunov", "discontinuity", "all")


def _converted(key: str, value, convert, *args):
    """``convert(value, *args)``; a ``ValueError`` becomes a ConfigError
    naming ``key``."""
    try:
        return convert(value, *args)
    except ValueError as err:
        raise ConfigError(key, str(err)) from None


def _matrix3(value) -> np.ndarray:
    """An SPD 3x3 matrix, where a number stands for that multiple of the
    identity and a list of three numbers for a diagonal."""
    diagonal = [value] * 3 if is_number(value) else value
    if isinstance(diagonal, list) and len(diagonal) == 3 and all(map(is_number, diagonal)):
        value = [[d if i == j else 0.0 for j in range(3)] for i, d in enumerate(diagonal)]
    return as_matrix(value, (3, 3), True)


def _directory(value) -> str:
    if not isinstance(value, str) or not value:
        raise ValueError(f"must be a non-empty string, got {value!r}")
    return value


def _solver(value) -> SolverSettings:
    """The settings of an object of :class:`SolverSettings` fields, each
    checked alone, so that an error names ``mpc.solver.<field>``."""
    if not isinstance(value, dict):
        raise ValueError("must be an object")
    for name, setting in value.items():
        key = f"mpc.solver.{name}"
        if name not in {f.name for f in fields(SolverSettings)}:
            raise ConfigError(key, "unknown configuration key")
        _converted(key, setting, lambda value: SolverSettings(**{name: value}))
    return SolverSettings(**value)


def _key(key: str, default, convert, *args):
    """A :class:`RunConfig` field read from the dotted configuration ``key``
    as ``convert(value, *args)``; ``default`` is the key's entry in the
    reference configuration, None for none."""
    return field(metadata={"key": key, "default": default, "convert": convert, "args": args})


@dataclass
class RunConfig:
    """Parsed configuration.  Each field but the last three declares its
    key; the fields are converted in this order, so the first bad key is
    the one named.  ``weights`` is assembled from the four weight fields."""

    inertia: np.ndarray = _key("physical.J_kgm2", np.diag(DEFAULT_INERTIA).tolist(), _matrix3)
    h: float = _key("physical.h_seconds", DEFAULT_STEP_SECONDS, as_positive, False)
    attitude_weight: np.ndarray = _key("weights.Q_g", DEFAULT_ATTITUDE_WEIGHT, _matrix3)
    # When omitted, Q_f follows physical.J_kgm2, as in default_weights.
    rate_weight: np.ndarray = _key("weights.Q_f", None, _matrix3)
    torque_weight: np.ndarray = _key("weights.R", DEFAULT_TORQUE_WEIGHT, _matrix3)
    decay: float = _key("weights.lambda", DEFAULT_DECAY, as_positive, False)
    horizon: int = _key("mpc.N", DEFAULT_HORIZON, as_integer, 1)
    torque_bound: float = _key("mpc.tau_max_Nm", DEFAULT_TORQUE_BOUND, as_positive, True)
    solver: SolverSettings = _key("mpc.solver", {}, _solver)
    terminal_samples: int = _key("terminal.n_samples", DEFAULT_TERMINAL_SAMPLES, as_integer, 1)
    terminal_shrink: float = _key("terminal.shrink", DEFAULT_TERMINAL_SHRINK, as_fraction)
    initial_attitude: np.ndarray = _key(
        "experiment.initial_attitude_axis_angle_rad", [0.0, 0.0, 3.141592653589793], as_vector3
    )
    initial_rate: np.ndarray = _key("experiment.initial_rate_rad_s", [0.0, 0.0, 0.0], as_vector3)
    n_steps: int = _key("experiment.n_steps", 120, as_integer, 1)
    seed: int = _key("experiment.seed", 0, as_integer, 0)
    distance_tol: float = _key("experiment.distance_tol", DEFAULT_DISTANCE_TOL, as_positive, False)
    out_dir: str = _key("output.directory", "out", _directory)
    csv_cadence: int = _key("output.csv_cadence_steps", 1, as_integer, 1)
    snapshot_seconds: float = _key("output.snapshot_seconds", 2.0, as_positive, False)
    raw: dict
    # Dotted keys the configuration file sets, as opposed to defaults.
    explicit: frozenset
    weights: StageWeights = field(init=False)

    def __post_init__(self):
        try:
            self.weights = StageWeights(self.attitude_weight, self.rate_weight, self.torque_weight, self.decay)
        except ValueError as err:
            raise ConfigError("weights.lambda", str(err)) from None


# Each declared field, by its dotted key.
_DECLARED = {f.metadata["key"]: f for f in fields(RunConfig) if f.metadata}


def default_config_dict() -> dict:
    """The reference configuration, from the declarations.  ``weights.Q_f``
    has no entry: when omitted it follows ``physical.J_kgm2``, as in
    :func:`default_weights`."""
    config = {}
    for key, f in _DECLARED.items():
        if f.metadata["default"] is not None:
            section, name = key.split(".")
            config.setdefault(section, {})[name] = copy.deepcopy(f.metadata["default"])
    return config


def parse_config(data: dict) -> RunConfig:
    """Validate a configuration dictionary, naming the offending key on error."""
    merged = default_config_dict()
    for section, content in data.items():
        if section not in merged:
            raise ConfigError(section, "unknown configuration section")
        if not isinstance(content, dict):
            raise ConfigError(section, "must be an object")
        for name in content:
            if f"{section}.{name}" not in _DECLARED:
                raise ConfigError(f"{section}.{name}", "unknown configuration key")
        merged[section].update(content)
    merged["weights"].setdefault("Q_f", merged["physical"]["J_kgm2"])

    values = {}
    for key, f in _DECLARED.items():
        section, name = key.split(".")
        values[f.name] = _converted(key, merged[section][name], f.metadata["convert"], *f.metadata["args"])
    explicit = frozenset(f"{section}.{name}" for section, content in data.items() for name in content)
    return RunConfig(**values, raw=merged, explicit=explicit)


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
        cfg.seed = _converted("--seed", args.seed, as_integer, 0)
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


def _adopt_design(cfg: RunConfig, design: TerminalDesign, path: str) -> None:
    """Take h, J and the weights of the design read from ``path`` into
    ``cfg``.  A key that the configuration file sets to another value is a
    ConfigError naming the key and both values; a key left at its default
    takes the design's value, in ``cfg.raw`` too, so that a summary records
    what ran."""
    w = design.weights
    values = {"h": design.h, "inertia": design.inertia, "attitude_weight": w.attitude,
              "rate_weight": w.rate, "torque_weight": w.torque, "decay": w.decay}
    keys = {f.name: key for key, f in _DECLARED.items()}
    for name, value in values.items():
        key, configured = keys[name], getattr(cfg, name)
        if not np.array_equal(value, configured):
            if key in cfg.explicit:
                raise ConfigError(
                    key,
                    f"is {np.asarray(configured).tolist()} in the configuration but "
                    f"{np.asarray(value).tolist()} in the design file {path}",
                )
            section, entry = key.split(".")
            cfg.raw[section][entry] = np.asarray(value).tolist()
        setattr(cfg, name, value)
    cfg.weights = w


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


def _closed_loop(cfg: RunConfig, design: TerminalDesign):
    """The configured closed loop on ``design``."""
    system = SpacecraftAttitudeSystem(design, torque_bound=cfg.torque_bound)
    state0 = spinning_state(cfg.initial_attitude, cfg.initial_rate, design.h)
    mpc_config = MpcConfig(horizon=cfg.horizon, solver=cfg.solver)
    return closed_loop(system, state0, mpc_config, cfg.n_steps, distance_tol=cfg.distance_tol)


def cmd_design(args) -> int:
    cfg = _command_config(args)
    out_dir = _output_dir(args, cfg)
    path = args.design or os.path.join(out_dir, "design.json")
    design = _design(cfg)
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
    design = TerminalDesign.load(design_path)
    _adopt_design(cfg, design, design_path)
    _output_dir(args, cfg)
    run = _closed_loop(cfg, design)

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


def cmd_verify(args) -> int:
    """Run the suites on the design file named by ``--design``, with its h
    and J in the conservation suite too, or on a fresh design of the
    configuration when none is named."""
    cfg = _command_config(args)
    design = None
    if args.design is not None:
        design = TerminalDesign.load(args.design)
        _adopt_design(cfg, design, args.design)
    suites = VERIFY_SUITES[:-1] if args.suite == "all" else (args.suite,)
    out_dir = _output_dir(args, cfg)

    reports = []
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
            reports.append(audit_lyapunov(_closed_loop(cfg, design)))
        elif suite == "discontinuity":
            reports.append(
                probe_discontinuity(
                    design,
                    MpcConfig(horizon=cfg.horizon, solver=cfg.solver),
                    torque_bound=cfg.torque_bound,
                    n_steps=cfg.n_steps,
                    attitude_tol=cfg.distance_tol,
                    out_dir=out_dir,
                )
            )

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
    except (So3MpcError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
