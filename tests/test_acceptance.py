"""Acceptance suite: one test per release criterion, each printing a
pass/fail line with the measured margin.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.  The closed-loop criteria dominate the runtime (a few
minutes in total).
"""

import time

import numpy as np
import pytest
import scipy.linalg

from so3mpc.attitude import rest_state, spinning_state
from so3mpc.flat import DoubleIntegratorSystem
from so3mpc.lgvi import (
    SpacecraftState,
    free_momentum_drift,
    rollout,
)
from so3mpc.mpc import MpcConfig, SolverSettings, closed_loop, solve_ocp
from so3mpc.so3 import exp_so3, geodesic_distance, hat
from so3mpc.terminal import (
    Linearization,
    QuadraticCostData,
    _ellipsoid_samples,
    build_cost_data,
    build_linearization,
    dare_residual,
    evaluate_level,
    solve_dare,
)

from conftest import H_REF, J_REF, TORQUE_BOUND_REF, implicit_increment, implicit_residual, momentum_matrix

PROBE_STEPS = 120


def _report(number: int, description: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {number}: {description}{suffix}")
    assert passed, f"criterion {number} failed: {description}{suffix}"


@pytest.fixture(scope="module")
def probe_runs(ref_system):
    """Closed loops from rest at +180, -0.99*180, and -0.98*180 degrees
    about z, shared between the discontinuity and locality criteria."""
    config = MpcConfig(horizon=10)
    runs = {}
    timings = {}
    for name, angle in (("pi", np.pi), ("m99", -0.99 * np.pi), ("m98", -0.98 * np.pi)):
        start = time.perf_counter()
        runs[name] = closed_loop(
            ref_system, rest_state([0.0, 0.0, angle]), config, PROBE_STEPS
        )
        timings[name] = time.perf_counter() - start
    return runs, timings


def test_criterion_1_lgvi_structure_preservation():
    rng = np.random.default_rng(2024)
    torques = rng.uniform(-1.0, 1.0, (10_000, 3))
    norms = np.linalg.norm(torques, axis=1)
    torques *= (np.minimum(norms, 1.0) / np.maximum(norms, 1e-12))[:, None]

    state0 = SpacecraftState(np.eye(3), exp_so3(H_REF * np.array([0.3, -0.2, 0.1])))
    start = time.perf_counter()
    states = rollout(state0, torques, H_REF, J_REF)
    elapsed = time.perf_counter() - start

    worst_ortho = 0.0
    worst_residual = 0.0
    for k in range(10_000):
        g = states[k + 1].g
        worst_ortho = max(worst_ortho, float(np.linalg.norm(g.T @ g - np.eye(3))))
        m = momentum_matrix(states[k], torques[k], H_REF, J_REF)
        worst_residual = max(worst_residual, implicit_residual(states[k + 1], m, J_REF))

    ok = worst_ortho <= 1e-9 and worst_residual <= 1e-10 and elapsed < 5.0
    _report(
        1,
        "10,000-step rollout stays on the group with tight implicit residuals",
        ok,
        f"ortho {worst_ortho:.2e}, residual {worst_residual:.2e}, {elapsed:.2f} s",
    )


def test_criterion_2_momentum_conservation():
    state0 = SpacecraftState(np.eye(3), exp_so3(H_REF * np.array([0.3, 0.2, 0.1])))
    states = rollout(state0, np.zeros((1000, 3)), H_REF, J_REF)
    drift = free_momentum_drift(states, J_REF)
    _report(2, "free-dynamics momentum drift <= 1e-9", drift <= 1e-9, f"drift {drift:.2e}")


def test_criterion_3_riccati_kernels(ref_design, ref_weights):
    rng = np.random.default_rng(99)
    worst_step = worst_ortho = 0.0
    min_branch = np.inf
    for _ in range(1000):
        eigs = rng.uniform(0.5, 2.0, 3)
        basis, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        inertia = basis @ np.diag(eigs) @ basis.T
        direction = rng.standard_normal(3)
        direction /= np.linalg.norm(direction)
        m = hat(rng.uniform(0.0, 0.95) * 2.0 * eigs.min() * direction)
        f, _ = implicit_increment([m[2, 1], m[0, 2], m[1, 0]], inertia)
        worst_step = max(worst_step, float(np.linalg.norm(f @ inertia - inertia @ f.T - m)))
        worst_ortho = max(worst_ortho, float(np.linalg.norm(f.T @ f - np.eye(3))))
        # The Riccati branch: S = sym(F J) is positive semi-definite.
        fj = f @ inertia
        min_branch = min(min_branch, float(np.linalg.eigvalsh(0.5 * (fj + fj.T))[0]))

    lin = build_linearization(H_REF, J_REF)
    cost = build_cost_data(ref_weights)
    dare_res = dare_residual(ref_design.P, lin, cost)

    scalar_lin = Linearization(np.array([[1.0]]), np.array([[1.0]]))
    scalar_cost = QuadraticCostData(np.array([[1.0]]), np.array([[1.0]]))
    p_scalar = solve_dare(scalar_lin, scalar_cost)[0, 0]
    golden_gap = abs(p_scalar - (1.0 + np.sqrt(5.0)) / 2.0)

    ok = (
        worst_step <= 1e-10
        and worst_ortho <= 1e-12
        and min_branch >= -1e-12
        and dare_res <= 1e-8
        and golden_gap <= 1e-10
    )
    _report(
        3,
        "implicit-step residuals on the group and the Riccati branch, "
        "reference Riccati residual, scalar oracle",
        ok,
        f"step {worst_step:.2e}, ortho {worst_ortho:.2e}, min eig sym(FJ) {min_branch:.2e}, "
        f"dare {dare_res:.2e}, golden {golden_gap:.2e}",
    )


def test_criterion_4_local_law_certification(ref_design, ref_weights):
    rng = np.random.default_rng(777)
    samples = _ellipsoid_samples(ref_design.P, 100_000, rng)
    margins = evaluate_level(
        ref_design.P, ref_design.K, ref_weights, H_REF, J_REF,
        TORQUE_BOUND_REF, ref_design.c, samples,
    )
    ok = margins["decrease"] <= 1e-10 and margins["invariance"] <= 0.0 and margins["torque"] <= 0.0
    _report(
        4,
        "local law certified on 100000 fresh terminal-set samples",
        ok,
        f"decrease {margins['decrease']:.2e}, invariance {margins['invariance']:.2e}",
    )


def test_criterion_5_recursive_feasibility_and_decrease(ref_system):
    axis = np.array([0.6, -0.4, 0.69282032])
    axis /= np.linalg.norm(axis)
    state0 = spinning_state(np.deg2rad(30.0) * axis, [0.02, -0.01, 0.015], H_REF)

    start = time.perf_counter()
    run = closed_loop(ref_system, state0, MpcConfig(horizon=10), 200)
    elapsed = time.perf_counter() - start

    feasible_everywhere = bool(np.all(run.violations <= 1e-8))
    chain = run.candidate_costs[1:] - run.optimal_costs[:-1] + run.stage_costs[:-1]
    worst_chain = float(np.nanmax(chain))
    ok = feasible_everywhere and worst_chain <= 1e-8 and elapsed < 120.0
    _report(
        5,
        "200-step closed loop: recursive feasibility and candidate decrease",
        ok,
        f"chain {worst_chain:.2e}, feasible {feasible_everywhere}, {elapsed:.1f} s",
    )


def test_criterion_6_discontinuity_reproduction(probe_runs):
    runs, timings = probe_runs
    elapsed = timings["pi"] + timings["m99"]

    converged = {}
    for name in ("pi", "m99"):
        converged[name] = min(
            geodesic_distance(s.g, np.eye(3)) for s in runs[name].states
        )
    first_z = {}
    for name in ("pi", "m99"):
        z = runs[name].controls[:, 2]
        nonzero = z[np.abs(z) > 1e-9]
        first_z[name] = float(nonzero[0])
    opposite = first_z["pi"] * first_z["m99"] < 0.0

    ok = (
        converged["pi"] < 1e-2
        and converged["m99"] < 1e-2
        and opposite
        and elapsed < 300.0
    )
    _report(
        6,
        "both near-cut rest-to-rest runs converge with opposite initial torque signs",
        ok,
        f"d {converged['pi']:.1e}/{converged['m99']:.1e}, "
        f"tau_z {first_z['pi']:+.2f}/{first_z['m99']:+.2f}, {elapsed:.0f} s",
    )


def test_criterion_7_generic_layer_lqr_oracle():
    flat = DoubleIntegratorSystem()
    p_oracle = scipy.linalg.solve_discrete_are(flat.A, flat.B, flat.Q, flat.R)
    k_oracle = np.linalg.solve(
        flat.B.T @ p_oracle @ flat.B + flat.R, (flat.A.T @ p_oracle @ flat.B).T
    )
    x0 = np.array([0.8, -0.2])
    value_oracle = float(x0 @ p_oracle @ x0)
    control_oracle = float(-(k_oracle @ x0)[0])

    bounded = DoubleIntegratorSystem(terminal_level=2.0 * value_oracle)
    solution = solve_ocp(
        bounded, x0,
        MpcConfig(horizon=10, solver=SolverSettings(max_iters=500, grad_tol=1e-9)),
    )
    cost_err = abs(solution.cost - value_oracle) / abs(value_oracle)
    control_err = abs(solution.first_control[0] - control_oracle) / abs(control_oracle)
    ok = cost_err <= 1e-4 and control_err <= 1e-4
    _report(
        7,
        "flat double integrator matches the classical solution",
        ok,
        f"cost rel err {cost_err:.2e}, control rel err {control_err:.2e}",
    )


def test_criterion_8_branch_cut_locality(probe_runs):
    runs, _ = probe_runs
    same_side = float(np.max(np.abs(runs["m99"].controls - runs["m98"].controls)))
    straddling = float(np.max(np.abs(runs["pi"].controls - runs["m99"].controls)))
    pair_distance = geodesic_distance(runs["m99"].states[0].g, runs["m98"].states[0].g)
    assert pair_distance == pytest.approx(0.01 * np.pi, abs=1e-9)
    ok = same_side <= 0.1 and straddling > 1.0
    _report(
        8,
        "same-side runs stay within 0.1 N*m while the straddling pair separates",
        ok,
        f"same-side {same_side:.3f}, straddling {straddling:.2f}",
    )
