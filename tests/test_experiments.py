import csv
import dataclasses
import json

import numpy as np
import pytest

from so3mpc.attitude import AttitudeMpc, rest_state, spinning_state
from so3mpc.errors import OutOfChart
from so3mpc.experiments import (
    audit_lyapunov,
    certify_local_law,
    euler_attitude_rollout,
    probe_discontinuity,
    verify_conservation,
    write_diagnostics_csv,
    write_snapshot_csv,
    write_trajectory_csv,
)
from so3mpc.flat import DoubleIntegratorSystem
from so3mpc.lgvi import SpacecraftState, rollout
from so3mpc.mpc import MpcConfig, SolverSettings, closed_loop
from so3mpc.so3 import exp_so3
from so3mpc.terminal import _ellipsoid_samples, calibrate_level, evaluate_level

from conftest import H_REF, J_REF, TORQUE_BOUND_REF


class TestStepCountsAndTolerances:
    """A closed loop or a long rollout reads its step count and distance
    tolerance as the configuration reads ``experiment.n_steps`` and
    ``experiment.distance_tol``.  Unchecked, 0 or -1 steps gave an empty run
    that ``audit_lyapunov`` passed, ``True`` ran one step, 2.5 and "0.1"
    raised bare ``TypeError``s, a NaN or negative tolerance never converged,
    ``probe_discontinuity`` with 0 steps raised ``IndexError`` and
    ``verify_conservation`` with -1 numpy's "negative dimensions"."""

    @pytest.fixture(scope="class")
    def entry_points(self, ref_design):
        est = AttitudeMpc(horizon=4, terminal_samples=200).fit()
        flat, start = DoubleIntegratorSystem(), rest_state([0.2, 0.1, 0.0])
        return {
            "closed_loop": lambda **kw: closed_loop(flat, np.array([1.0, 0.0]), MpcConfig(horizon=3), **kw),
            "simulate": lambda **kw: est.simulate(start, **kw),
            "probe_discontinuity": lambda **kw: probe_discontinuity(ref_design, MpcConfig(horizon=4), **kw),
            "verify_conservation": lambda **kw: verify_conservation(J_REF, H_REF, **kw),
        }

    @pytest.mark.parametrize("entry", ["closed_loop", "simulate", "probe_discontinuity", "verify_conservation"])
    @pytest.mark.parametrize("n_steps", [0, -1, True, 2.5, "3", np.nan])
    def test_bad_step_count_raises_value_error_naming_it(self, entry_points, entry, n_steps):
        with pytest.raises(ValueError, match="^n_steps must "):
            entry_points[entry](n_steps=n_steps)

    @pytest.mark.parametrize("entry", ["closed_loop", "simulate"])
    @pytest.mark.parametrize("distance_tol", ["0.1", True, np.nan, 0.0, -0.1, np.inf])
    def test_bad_distance_tol_raises_value_error_naming_it(self, entry_points, entry, distance_tol):
        with pytest.raises(ValueError, match="^distance_tol must "):
            entry_points[entry](n_steps=2, distance_tol=distance_tol)

    @pytest.mark.parametrize(
        "entry, name", [("verify_conservation", "h"), ("probe_discontinuity", "attitude_tol")]
    )
    @pytest.mark.parametrize("bad", ["0.1", True, np.nan, -0.1])
    def test_bad_step_or_attitude_tol_raises_value_error_naming_it(self, ref_design, entry, name, bad):
        # Unchecked, h="0.1" ended in numpy's UFuncTypeError, NaN in "f must
        # be finite", and -0.1 or True ran and passed; attitude_tol="0.1"
        # ran both closed loops and then failed to format its verdict.
        if entry == "verify_conservation":
            run = lambda: verify_conservation(J_REF, bad, n_steps=3)
        else:
            run = lambda: probe_discontinuity(ref_design, MpcConfig(horizon=4), n_steps=2, attitude_tol=bad)
        with pytest.raises(ValueError, match=f"^{name} must "):
            run()

    @pytest.mark.parametrize("n_steps", [2.0, np.int64(2)])
    def test_integral_float_and_numpy_integer_count(self, entry_points, n_steps):
        assert entry_points["closed_loop"](n_steps=n_steps).n_steps == 2


class TestSeed:
    """The seeded calls read ``seed`` as the configuration reads
    ``experiment.seed``.  Numpy's generator took it unchecked: ``None``
    drew operating-system entropy, so the certified level was not
    reproducible, ``True`` ran as 1, and -1, 1.5 and "a" raised numpy's own
    errors, which do not name ``seed``."""

    @pytest.fixture(scope="class")
    def entry_points(self, ref_design):
        d = ref_design
        return {
            "calibrate_level": lambda seed: calibrate_level(
                d.P, d.K, d.weights, d.h, d.inertia, TORQUE_BOUND_REF, n_samples=50, shrink=0.9, seed=seed
            ),
            "fit": lambda seed: AttitudeMpc(terminal_samples=50, seed=seed).fit(),
            "certify_local_law": lambda seed: certify_local_law(d, TORQUE_BOUND_REF, n_samples=50, seed=seed),
            "verify_conservation": lambda seed: verify_conservation(J_REF, H_REF, n_steps=3, seed=seed),
        }

    @pytest.mark.parametrize("entry", ["calibrate_level", "fit", "certify_local_law", "verify_conservation"])
    @pytest.mark.parametrize("seed", [None, True, -1, 1.5, "a"])
    def test_bad_seed_raises_value_error_naming_it(self, entry_points, entry, seed):
        with pytest.raises(ValueError, match="^seed must "):
            entry_points[entry](seed)

    @pytest.mark.parametrize("entry", ["certify_local_law", "verify_conservation"])
    def test_integral_float_and_numpy_integer_seed(self, entry_points, entry):
        reports = [entry_points[entry](seed).to_json_dict() for seed in (3, 3.0, np.int64(3))]
        assert reports[0]["seed"] == 3
        assert all(json.dumps(report) == json.dumps(reports[0]) for report in reports)


class TestConservationSuite:
    def test_passes_on_reference_inertia(self, tmp_path):
        report = verify_conservation(J_REF, H_REF, n_steps=1000, seed=0, out_dir=str(tmp_path))
        assert report.passed
        by_name = {v.invariant: v for v in report.verdicts}
        assert by_name["orthogonality drift <= 1e-9"].margin <= 1e-9
        assert by_name["relative momentum drift <= 1e-9"].margin <= 1e-9

    def test_trivial_rest_state(self):
        states = rollout(SpacecraftState.identity(), np.zeros((100, 3)), H_REF, J_REF)
        for s in states:
            assert np.linalg.norm(s.g - np.eye(3)) <= 1e-13

    def test_euler_baseline_drifts_more(self):
        state0 = SpacecraftState(np.eye(3), exp_so3(H_REF * np.array([0.3, 0.2, 0.1])))
        lgvi_states = rollout(state0, np.zeros((1000, 3)), H_REF, J_REF)
        euler_states = euler_attitude_rollout(state0, 1000, H_REF, J_REF)
        lgvi_drift = max(np.linalg.norm(s.g.T @ s.g - np.eye(3)) for s in lgvi_states)
        euler_drift = max(np.linalg.norm(g.T @ g - np.eye(3)) for g in euler_states)
        assert euler_drift > 1e3 * lgvi_drift

    def test_report_json(self, tmp_path):
        report = verify_conservation(J_REF, H_REF, n_steps=200, seed=1, out_dir=str(tmp_path))
        path = tmp_path / "report.json"
        report.save(path)
        assert path.exists()
        assert (tmp_path / "conservation_trajectory.csv").exists()


class TestLocalLawSuite:
    def test_fresh_certification_passes(self, ref_design):
        report = certify_local_law(ref_design, TORQUE_BOUND_REF, n_samples=1000, seed=42)
        assert report.passed

    def test_no_samples_rejected(self, ref_design):
        with pytest.raises(ValueError):
            certify_local_law(ref_design, TORQUE_BOUND_REF, n_samples=0)

    @pytest.mark.parametrize(
        "name, value",
        [("torque_bound", "5"), ("torque_bound", True), ("torque_bound", -1.0), ("n_samples", True), ("n_samples", 2.5)],
    )
    def test_bad_argument_raises_value_error_naming_it(self, ref_design, name, value):
        # Before, "5" and 2.5 ended in a bare TypeError and True passed as 1.
        arguments = {"torque_bound": TORQUE_BOUND_REF, "n_samples": 10, name: value}
        with pytest.raises(ValueError, match=f"^{name} must "):
            certify_local_law(ref_design, **arguments)

    def test_equilibrium_sample(self, ref_design, ref_system):
        state = SpacecraftState.identity()
        tau = ref_system.local_law(state)
        successor = ref_system.step(state, tau)
        decrease = (
            ref_system.terminal_cost(successor)
            - ref_system.terminal_cost(state)
            + ref_system.stage_cost(state, tau)
        )
        assert abs(decrease) <= 1e-12

    def test_inflated_level_fails(self, ref_design):
        # 100 c lies above the chart ceiling: its samples would wrap around
        # the exponential map and report the margins of other states.
        samples = _ellipsoid_samples(ref_design.P, 500, np.random.default_rng(7))
        with pytest.raises(OutOfChart):
            evaluate_level(
                ref_design.P, ref_design.K, ref_design.weights, ref_design.h, ref_design.inertia,
                TORQUE_BOUND_REF, 100.0 * ref_design.c, samples,
            )

    def test_tight_torque_bound_fails(self, ref_design):
        # In the chart, a failing condition is reported, not raised.
        report = certify_local_law(ref_design, 1.0, n_samples=500, seed=7)
        assert not report.passed


@pytest.fixture(scope="module")
def recorded_run(ref_system):
    state0 = spinning_state([0.3, -0.1, 0.2], [0.02, 0.0, -0.01], H_REF)
    return closed_loop(ref_system, state0, MpcConfig(horizon=8), 25)


class TestLyapunovAudit:
    def test_chain_holds(self, recorded_run):
        report = audit_lyapunov(recorded_run)
        by_name = {v.invariant: v for v in report.verdicts}
        assert by_name["candidate decrease chain <= 1e-08"].passed
        assert by_name["stage-cost total <= V*(x0)"].passed

    def test_equilibrium_run_all_zero(self, ref_system):
        run = closed_loop(ref_system, SpacecraftState.identity(), MpcConfig(horizon=5), 4)
        report = audit_lyapunov(run)
        assert report.passed
        assert np.allclose(run.stage_costs, 0.0, atol=1e-10)

    def test_crippled_solver_keeps_candidate_chain(self, ref_system):
        # A single-iteration solver wrecks optimality but not the chain,
        # which only depends on the shifted candidate's construction.
        settings = SolverSettings(max_iters=1, grad_tol=1e-16)
        state0 = spinning_state([0.25, 0.1, -0.15], [0.0, 0.0, 0.0], H_REF)
        run = closed_loop(ref_system, state0, MpcConfig(horizon=6, solver=settings), 12)
        report = audit_lyapunov(run)
        by_name = {v.invariant: v for v in report.verdicts}
        assert by_name["candidate decrease chain <= 1e-08"].passed


class TestCsvWriters:
    def test_trajectory_schema(self, tmp_path):
        states = rollout(
            SpacecraftState(np.eye(3), exp_so3(H_REF * np.array([0.1, 0.0, 0.0]))),
            np.zeros((5, 3)),
            H_REF,
            J_REF,
        )
        path = tmp_path / "traj.csv"
        write_trajectory_csv(path, states, np.zeros((5, 3)), H_REF)
        with open(path) as handle:
            rows = list(csv.reader(handle))
        assert rows[0][:2] == ["k", "t"]
        assert len(rows[0]) == 2 + 9 + 9 + 3 + 3
        assert len(rows) == 7  # header + 6 states
        # Every cell must parse as a plain number.
        values = [float(cell) for cell in rows[1]]
        assert values[2:11] == pytest.approx(np.eye(3).reshape(9).tolist())

    def test_snapshot_cadence(self, tmp_path):
        states = rollout(SpacecraftState.identity(), np.zeros((100, 3)), H_REF, J_REF)
        path = tmp_path / "snap.csv"
        write_snapshot_csv(path, states, H_REF, cadence_seconds=2.0)
        with open(path) as handle:
            rows = list(csv.reader(handle))
        # 101 states at h=0.1 with 2 s cadence: samples at k = 0, 20, ..., 100.
        assert len(rows) == 1 + 6

    def test_diagnostics_schema(self, ref_system, tmp_path):
        run = closed_loop(ref_system, SpacecraftState.identity(), MpcConfig(horizon=4), 3)
        path = tmp_path / "diag.csv"
        write_diagnostics_csv(path, run, H_REF)
        with open(path) as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == [
            "k", "t", "V_star", "V_candidate", "L", "F_terminal",
            "feasible", "terminal_excess", "solver_iters",
        ]
        assert len(rows) == 4

    def test_diagnostics_feasible_is_solver_verdict(self, tmp_path):
        # A violation of 5e-7 is within constraint_tol = 1e-6, so the solver
        # judged the step feasible; the writer must not apply its own bound.
        settings = SolverSettings(constraint_tol=1e-6)
        config = MpcConfig(horizon=4, solver=settings)
        run = closed_loop(DoubleIntegratorSystem(), np.array([0.3, 0.0]), config, 2)
        run = dataclasses.replace(run, violations=np.full(2, 5e-7))
        path = tmp_path / "diag.csv"
        write_diagnostics_csv(path, run, 0.1)
        with open(path) as handle:
            rows = list(csv.DictReader(handle))
        assert [row["feasible"] for row in rows] == ["1", "1"]
        assert [float(row["terminal_excess"]) for row in rows] == [5e-7, 5e-7]


class TestDiscontinuityProbeMechanics:
    def test_probe_passes_with_opposite_first_torques(self, ref_design, tmp_path):
        report = probe_discontinuity(ref_design, MpcConfig(horizon=10), out_dir=str(tmp_path))
        assert report.passed, report.verdicts
        assert report.seed == 0
        first_tau_z = report.config["first_tau_z"]
        assert first_tau_z["on_cut"] < 0.0 < first_tau_z["off_cut"]
        assert "cut_sign" not in report.config
        assert set(report.traces) == {"on_cut", "off_cut"}
        for label in ("on_cut", "off_cut"):
            for kind in ("trajectory", "diagnostics", "snapshots"):
                assert (tmp_path / f"discontinuity_{label}_{kind}.csv").is_file()

    def test_on_cut_first_torque_follows_branch_convention(self, ref_system):
        # The cold-start direction at the cut is inherited from the branch
        # convention, whose axis at 180 degrees about z is +z.
        from so3mpc.attitude import rest_state
        from so3mpc.mpc import solve_ocp

        solution = solve_ocp(ref_system, rest_state([0.0, 0.0, np.pi]), MpcConfig(horizon=10))
        assert solution.first_control[2] < 0.0

    def test_away_from_cut_single_smooth_run(self, ref_system):
        from so3mpc.attitude import rest_state

        run = closed_loop(
            ref_system,
            rest_state([0.0, 0.0, np.pi / 2]),
            MpcConfig(horizon=10),
            30,
        )
        assert np.all(run.violations <= 1e-8)
        # No sign anomaly: the z-torque drives the shortest rotation back.
        assert run.controls[0, 2] < 0.0
