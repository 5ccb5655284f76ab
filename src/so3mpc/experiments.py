"""Executable property suites: conservation, local-law certification,
closed-loop cost audits, and the branch-cut discontinuity probe.

Each experiment returns an :class:`ExperimentReport` whose verdicts name the
property tested and the measured worst-case margin, and can write its traces
to CSV for external plotting.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .attitude import SpacecraftAttitudeSystem, rest_state
from .lgvi import (
    SpacecraftState,
    body_rate,
    free_momentum_drift,
    orthogonality_drift,
    random_spin_state,
    rollout,
)
from .mpc import DEFAULT_DISTANCE_TOL, ClosedLoopRun, MpcConfig, closed_loop
from .so3 import geodesic_distance, hat
from .terminal import (
    DECREASE_SLACK,
    DEFAULT_TERMINAL_SAMPLES,
    DEFAULT_TORQUE_BOUND,
    TerminalDesign,
    _ellipsoid_samples,
    evaluate_level,
)
from .validation import as_integer, as_parameter, as_positive

# Spin scale of the conservation check's random start, and the slack of the
# closed-loop cost audit.
_CONSERVATION_RATE_SCALE = 0.35
_LYAPUNOV_SLACK = 1e-8


@dataclass
class Verdict:
    """One tested property: what was checked, whether it held, and the
    measured worst-case margin (negative or tiny means satisfied)."""

    invariant: str
    passed: bool
    margin: float


@dataclass
class ExperimentReport:
    name: str
    seed: int
    config: dict
    verdicts: list[Verdict] = field(default_factory=list)
    traces: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(v.passed for v in self.verdicts)

    def add(self, invariant: str, passed: bool, margin: float) -> None:
        self.verdicts.append(Verdict(invariant, bool(passed), float(margin)))

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "seed": self.seed,
            "config": self.config,
            "passed": self.passed,
            "verdicts": [
                {"invariant": v.invariant, "passed": v.passed, "margin": v.margin}
                for v in self.verdicts
            ],
            "traces": self.traces,
        }

    def save(self, path) -> None:
        with open(path, "w") as handle:
            json.dump(self.to_json_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")


def write_trajectory_csv(
    path, states: Sequence[SpacecraftState], torques, h: float, stride: int = 1
) -> None:
    """Rows every ``stride`` steps: k, t, g (9 values row-major), f (9),
    body rate (3), torque (3)."""
    torques = np.asarray(torques, dtype=float)
    header = (
        ["k", "t"]
        + [f"g{i}{j}" for i in range(3) for j in range(3)]
        + [f"f{i}{j}" for i in range(3) for j in range(3)]
        + ["omega_x", "omega_y", "omega_z", "tau_x", "tau_y", "tau_z"]
    )
    lines = [",".join(header)]
    for k in range(0, len(states), stride):
        state = states[k]
        rate = body_rate(state, h)
        tau = torques[k] if k < len(torques) else np.zeros(3)
        row = (
            [str(k), repr(float(k * h))]
            + [repr(float(x)) for x in state.g.reshape(9)]
            + [repr(float(x)) for x in state.f.reshape(9)]
            + [repr(float(x)) for x in rate]
            + [repr(float(x)) for x in tau]
        )
        lines.append(",".join(row))
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")


def write_diagnostics_csv(path, run: ClosedLoopRun, h: float) -> None:
    """Rows: k, t, V_star, V_candidate, L, F_terminal, feasible,
    terminal_excess, solver_iters.  ``feasible`` says that the solve's
    predicted terminal state lies in the terminal set, its value F_terminal
    above the level by at most the configured ``constraint_tol``, and
    ``terminal_excess`` is how far F_terminal exceeds the level, zero when it
    does not."""
    header = [
        "k", "t", "V_star", "V_candidate", "L", "F_terminal",
        "feasible", "terminal_excess", "solver_iters",
    ]
    lines = [",".join(header)]
    for k in range(run.n_steps):
        row = [
            str(k),
            repr(k * h),
            repr(float(run.optimal_costs[k])),
            repr(float(run.candidate_costs[k])),
            repr(float(run.stage_costs[k])),
            repr(float(run.terminal_values[k])),
            str(int(run.feasible[k])),
            repr(float(run.violations[k])),
            str(int(run.iterations[k])),
        ]
        lines.append(",".join(row))
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")


def write_snapshot_csv(path, states: Sequence[SpacecraftState], h: float, cadence_seconds: float = 2.0) -> None:
    """Orientation snapshots at a fixed time cadence: t plus 9 row-major values."""
    stride = max(1, int(round(cadence_seconds / h)))
    header = ["t"] + [f"g{i}{j}" for i in range(3) for j in range(3)]
    lines = [",".join(header)]
    for k in range(0, len(states), stride):
        row = [repr(float(k * h))] + [repr(float(x)) for x in states[k].g.reshape(9)]
        lines.append(",".join(row))
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")


def euler_attitude_rollout(state0: SpacecraftState, n_steps: int, h: float, inertia) -> list[np.ndarray]:
    """Naive forward-Euler attitude propagation used as a drift baseline.

    Integrates the rigid-body rate equation and updates the attitude with
    the first-order map g (I + h hat(w)); the attitude leaves the group at
    a rate the variational integrator does not exhibit.
    """
    inertia = np.asarray(inertia, dtype=float)
    g = state0.g.copy()
    w = body_rate(state0, h)
    attitudes = [g]
    for _ in range(n_steps):
        g = g @ (np.eye(3) + h * hat(w))
        w = w + h * np.linalg.solve(inertia, np.cross(inertia @ w, w))
        attitudes.append(g)
    return attitudes


def verify_conservation(
    inertia,
    h: float,
    n_steps: int = 1000,
    seed: int = 0,
    out_dir: Optional[str] = None,
) -> ExperimentReport:
    """Free-dynamics diagnostics: group-membership drift and spatial
    momentum drift over a long torque-free rollout, with a forward-Euler
    baseline for contrast.  ``h`` must be a positive finite number and
    ``n_steps`` and ``seed`` integers of at least 1 and 0; anything else
    raises ``ValueError`` naming it."""
    h = as_parameter("h", h, as_positive, False)
    n_steps = as_parameter("n_steps", n_steps, as_integer, 1)
    seed = as_parameter("seed", seed, as_integer, 0)
    inertia = np.asarray(inertia, dtype=float)
    rng = np.random.default_rng(seed)
    state0 = random_spin_state(rng, _CONSERVATION_RATE_SCALE, h)

    report = ExperimentReport(
        name="conservation",
        seed=seed,
        config={"inertia": inertia.tolist(), "h": h, "n_steps": n_steps, "rate_scale": _CONSERVATION_RATE_SCALE},
    )
    states = rollout(state0, np.zeros((n_steps, 3)), h, inertia)
    ortho = orthogonality_drift(states)
    momentum = free_momentum_drift(states, inertia)
    report.add("orthogonality drift <= 1e-9", ortho <= 1e-9, ortho)
    report.add("relative momentum drift <= 1e-9", momentum <= 1e-9, momentum)

    euler_states = euler_attitude_rollout(state0, n_steps, h, inertia)
    euler_drift = max(
        float(np.linalg.norm(g.T @ g - np.eye(3))) for g in euler_states
    )
    report.add(
        "forward-Euler baseline drifts at least 1e3 x more",
        euler_drift >= 1e3 * max(ortho, 1e-16),
        euler_drift,
    )
    if out_dir is not None:
        path = os.path.join(out_dir, "conservation_trajectory.csv")
        write_trajectory_csv(path, states, np.zeros((n_steps, 3)), h)
        report.traces["trajectory"] = path
    return report


def certify_local_law(
    design: TerminalDesign,
    torque_bound: float,
    n_samples: int = DEFAULT_TERMINAL_SAMPLES,
    seed: int = 20_000,
) -> ExperimentReport:
    """Re-run the terminal-set conditions on fresh samples.

    Checks, at the calibrated level, that the local law respects the torque
    bound, maps the set into itself, and decreases the terminal cost by at
    least the stage cost.  Raises ``ValueError`` naming the argument when
    ``torque_bound`` is not positive (+inf allowed), ``n_samples`` not an
    integer of at least 1 or ``seed`` not one of at least 0, and
    :class:`~so3mpc.errors.OutOfChart` when the level lies above the chart
    ceiling of the terminal ellipsoid.
    """
    torque_bound = as_parameter("torque_bound", torque_bound, as_positive, True)
    n_samples = as_parameter("n_samples", n_samples, as_integer, 1)
    seed = as_parameter("seed", seed, as_integer, 0)
    rng = np.random.default_rng(seed)
    samples = _ellipsoid_samples(design.P, n_samples, rng)
    margins = evaluate_level(
        design.P, design.K, design.weights, design.h, design.inertia,
        torque_bound, design.c, samples,
    )
    report = ExperimentReport(
        name="local-law",
        seed=seed,
        config={"level": design.c, "n_samples": n_samples, "torque_bound": torque_bound},
    )
    report.add("torque bound respected on terminal set", margins["torque"] <= 0.0, margins["torque"])
    report.add("terminal set invariant under local law", margins["invariance"] <= 0.0, margins["invariance"])
    report.add(
        f"terminal decrease defect <= {DECREASE_SLACK:g}",
        margins["decrease"] <= DECREASE_SLACK,
        margins["decrease"],
    )
    return report


def audit_lyapunov(run: ClosedLoopRun) -> ExperimentReport:
    """Check the candidate-cost decrease chain on a recorded run.

    The chain V_candidate(x_{k+1}) - V*(x_k) + L(x_k, u_k) <= 1e-8 holds by
    construction of the shifted candidate, independent of solver quality;
    the optimal-cost decrease and the stage-cost summability bound
    sum L <= V*(x_0) are reported alongside.
    """
    report = ExperimentReport(name="lyapunov", seed=0, config={"n_steps": run.n_steps, "slack": _LYAPUNOV_SLACK})
    if run.n_steps >= 2:
        chain = run.candidate_costs[1:] - run.optimal_costs[:-1] + run.stage_costs[:-1]
        worst_chain = float(np.nanmax(chain))
    else:
        worst_chain = -np.inf
    report.add(
        f"candidate decrease chain <= {_LYAPUNOV_SLACK:g}", worst_chain <= _LYAPUNOV_SLACK, worst_chain
    )

    stage_total = float(run.stage_costs.sum())
    summability = stage_total - float(run.optimal_costs[0]) if run.n_steps else -np.inf
    report.add("stage-cost total <= V*(x0)", summability <= _LYAPUNOV_SLACK, summability)

    if run.n_steps >= 2:
        vstar_steps = run.optimal_costs[1:] - run.optimal_costs[:-1] + run.stage_costs[:-1]
        worst_vstar = float(np.max(vstar_steps))
    else:
        worst_vstar = -np.inf
    # Informational: holds when each solve at least matches its warm start.
    report.add("optimal-cost decrease (solver-dependent)", worst_vstar <= _LYAPUNOV_SLACK, worst_vstar)
    monotone = np.fmin.accumulate(np.where(np.isnan(run.candidate_costs), np.inf, run.candidate_costs))
    report.config["min_candidate_so_far_final"] = float(monotone[-1]) if run.n_steps else None
    return report


def probe_discontinuity(
    design: TerminalDesign,
    config: MpcConfig,
    torque_bound: float = DEFAULT_TORQUE_BOUND,
    n_steps: int = 120,
    attitude_tol: float = DEFAULT_DISTANCE_TOL,
    out_dir: Optional[str] = None,
) -> ExperimentReport:
    """Two rest-to-rest closed loops straddling the 180-degree branch cut.

    The first starts exactly on the cut (180 degrees about z), the second
    just off it (-0.99 of 180 degrees).  Both must converge to the identity
    attitude; their initial torque z-components must have opposite signs,
    which is the executable witness that the receding-horizon law is
    discontinuous at the cut.  ``attitude_tol`` must be a positive finite
    number; anything else raises ``ValueError`` naming it.
    """
    attitude_tol = as_parameter("attitude_tol", attitude_tol, as_positive, False)
    report = ExperimentReport(
        name="discontinuity",
        seed=0,
        config={
            "n_steps": n_steps,
            "attitude_tol": attitude_tol,
            "torque_bound": torque_bound,
            "horizon": config.horizon,
        },
    )
    system = SpacecraftAttitudeSystem(design, torque_bound=torque_bound)
    angles = {"on_cut": np.pi, "off_cut": -0.99 * np.pi}
    runs: dict[str, ClosedLoopRun] = {}
    for label, angle in angles.items():
        state0 = rest_state(np.array([0.0, 0.0, angle]))
        run = closed_loop(system, state0, config, n_steps)
        runs[label] = run
        attitude_distance = min(
            geodesic_distance(s.g, np.eye(3)) for s in run.states
        )
        report.add(
            f"{label}: attitude converges below {attitude_tol:g}",
            attitude_distance < attitude_tol,
            attitude_distance,
        )
        if out_dir is not None:
            base = os.path.join(out_dir, f"discontinuity_{label}")
            write_trajectory_csv(base + "_trajectory.csv", run.states, run.controls, design.h)
            write_diagnostics_csv(base + "_diagnostics.csv", run, design.h)
            write_snapshot_csv(base + "_snapshots.csv", run.states, design.h)
            report.traces[label] = base + "_trajectory.csv"

    first_z = {}
    for label, run in runs.items():
        z = run.controls[:, 2]
        nonzero = z[np.abs(z) > 1e-9]
        first_z[label] = float(nonzero[0]) if len(nonzero) else 0.0
    opposite = first_z["on_cut"] * first_z["off_cut"] < 0.0
    report.add(
        "first nonzero torque z-components have opposite signs",
        opposite,
        float(first_z["on_cut"] * first_z["off_cut"]),
    )
    report.config["first_tau_z"] = first_z
    return report
