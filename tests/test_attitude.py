import numpy as np
import pytest
from numpy.testing import assert_allclose

from so3mpc.attitude import (
    AttitudeMpc,
    SpacecraftAttitudeSystem,
    rest_state,
    spinning_state,
)
from so3mpc.errors import NotPositiveDefinite, NotRotation, OutOfChart
from so3mpc.lgvi import MARGIN_CUTOFF, SpacecraftState, lgvi_step
from so3mpc.mpc import SolverSettings
from so3mpc.so3 import exp_so3

from conftest import H_REF, J_REF


class TestAttitudeSystem:
    def test_equilibrium_contract(self, ref_system):
        x_e = ref_system.equilibrium_state
        u_e = ref_system.equilibrium_control
        nxt = ref_system.step(x_e, u_e)
        assert ref_system.distance(nxt, x_e) <= 1e-10
        assert ref_system.stage_cost(x_e, u_e) == 0.0
        assert ref_system.terminal_cost(x_e) == 0.0

    def test_step_matches_integrator(self, ref_system):
        state = spinning_state([0.2, 0.1, -0.3], [0.05, -0.02, 0.04], H_REF)
        tau = np.array([0.3, -0.1, 0.2])
        nxt = ref_system.step(state, tau)
        ref = lgvi_step(state, tau, H_REF, J_REF)
        assert_allclose(nxt.g, ref.g)
        assert_allclose(nxt.f, ref.f)

    def test_stage_cost_matches_trace_form(self, ref_system, ref_weights):
        q_g, q_f, r = ref_weights.attitude, ref_weights.rate, ref_weights.torque
        eye = np.eye(3)
        rng = np.random.default_rng(0)
        for _ in range(50):
            xi = 0.8 * rng.standard_normal(6)
            state = SpacecraftState(exp_so3(xi[:3]), exp_so3(H_REF * xi[3:]))
            tau = rng.standard_normal(3)
            oracle = (
                np.trace(q_g @ (eye - state.g))
                + np.trace(q_f @ (eye - state.f)) / H_REF**2
                + 0.5 * tau @ (np.trace(r) * eye - r) @ tau
            )
            assert ref_system.stage_cost(state, tau) == pytest.approx(oracle, abs=1e-12)

    def test_stage_cost_lower_bounded_by_control_free(self, ref_system):
        rng = np.random.default_rng(1)
        for _ in range(50):
            xi = 0.5 * rng.standard_normal(6)
            state = SpacecraftState(exp_so3(xi[:3]), exp_so3(H_REF * xi[3:]))
            tau = rng.standard_normal(3)
            free = ref_system.stage_cost(state, np.zeros(3))
            assert ref_system.stage_cost(state, tau) >= free - 1e-12
            assert free >= 0.0

    def test_distance_is_max_of_components(self, ref_system):
        s1 = spinning_state([0.3, 0.0, 0.0], [0.0, 0.0, 0.0], H_REF)
        s2 = SpacecraftState.identity()
        assert ref_system.distance(s1, s2) == pytest.approx(0.3, abs=1e-12)

    def test_projection_clips_to_bound(self, ref_design):
        system = SpacecraftAttitudeSystem(ref_design, torque_bound=2.0)
        assert_allclose(system.project_control([5.0, -3.0, 1.0]), [2.0, -2.0, 1.0])

    @pytest.mark.parametrize("floor", [np.nan, -1e-9, np.inf, MARGIN_CUTOFF, 0.5])
    def test_rejects_bad_solvability_floor(self, ref_design, floor):
        # A NaN floor would never be met and switch the constraint off; the
        # step reports exact margins only below MARGIN_CUTOFF.
        with pytest.raises(ValueError, match="solvability_floor"):
            SpacecraftAttitudeSystem(ref_design, solvability_floor=floor)

    @pytest.mark.parametrize("bound", [np.nan, 0.0, -1.0, -np.inf])
    def test_rejects_bad_torque_bound(self, ref_design, bound):
        # A NaN bound would skip the clip in project_control.
        with pytest.raises(ValueError, match="torque_bound"):
            SpacecraftAttitudeSystem(ref_design, torque_bound=bound)

    def test_accepts_constraint_edges(self, ref_design):
        system = SpacecraftAttitudeSystem(
            ref_design, torque_bound=np.inf, solvability_floor=0.0
        )
        assert_allclose(system.project_control([5e3, 0.0, 0.0]), [5e3, 0.0, 0.0])
        SpacecraftAttitudeSystem(ref_design, solvability_floor=0.99 * MARGIN_CUTOFF)

    def test_margin_floor(self, ref_system):
        state = SpacecraftState.identity()
        _, margin = ref_system.step_with_margin(state, np.zeros(3))
        assert margin >= ref_system.step_margin_floor
        assert margin == pytest.approx(1.0)  # min eig of J^2 at rest

    def test_local_law_out_of_chart(self, ref_system):
        state = rest_state([0.0, 0.0, np.pi])
        with pytest.raises(OutOfChart):
            ref_system.local_law(state)
        # The steering heuristic still returns a deterministic direction.
        steering = ref_system.steering_control(state)
        assert steering[2] < 0.0

    def test_cut_sign_flips_steering(self, ref_design):
        plus = SpacecraftAttitudeSystem(ref_design, cut_sign=1.0)
        minus = SpacecraftAttitudeSystem(ref_design, cut_sign=-1.0)
        state = rest_state([0.0, 0.0, np.pi])
        assert_allclose(
            plus.steering_control(state), -minus.steering_control(state), atol=1e-12
        )


class TestEstimator:
    def test_get_set_params_roundtrip(self):
        est = AttitudeMpc(horizon=7, cost_decay=0.2)
        params = est.get_params()
        assert params["horizon"] == 7
        assert params["cost_decay"] == 0.2
        est.set_params(horizon=12)
        assert est.get_params()["horizon"] == 12

    def test_set_params_rejects_unknown(self):
        with pytest.raises(ValueError):
            AttitudeMpc().set_params(not_a_parameter=3)

    def test_clone_from_params(self):
        est = AttitudeMpc(horizon=4, seed=3)
        clone = AttitudeMpc(**est.get_params())
        assert clone.get_params() == est.get_params()

    def test_predict_requires_fit(self):
        with pytest.raises(RuntimeError):
            AttitudeMpc().predict(SpacecraftState.identity())

    def test_fit_predict_equilibrium(self):
        est = AttitudeMpc(horizon=5, terminal_samples=200).fit()
        assert est.design_.c > 0.0
        torque = est.predict(SpacecraftState.identity())
        assert np.max(np.abs(torque)) <= 1e-8

    def test_predict_batch(self):
        est = AttitudeMpc(horizon=4, terminal_samples=200).fit()
        states = [
            SpacecraftState.identity(),
            spinning_state([0.1, 0.0, 0.0], [0.0, 0.0, 0.0], est.step_seconds),
        ]
        torques = est.predict(states)
        assert torques.shape == (2, 3)
        assert np.max(np.abs(torques[0])) <= 1e-8
        assert np.max(np.abs(torques[1])) > 0.0

    @pytest.mark.parametrize(
        "params", [{"solvability_floor": np.nan}, {"torque_bound": np.nan}]
    )
    def test_fit_rejects_bad_constraints_before_design(self, params):
        (name,) = params
        with pytest.raises(ValueError, match=name):
            AttitudeMpc(terminal_samples=10, **params).fit()

    @pytest.mark.parametrize("horizon", [2.5, True])
    def test_fit_rejects_non_integer_horizon_before_design(self, horizon):
        with pytest.raises(ValueError, match="horizon"):
            AttitudeMpc(horizon=horizon, terminal_samples=10).fit()

    def test_fit_rejects_non_settings_solver_before_design(self):
        with pytest.raises(ValueError, match="solver"):
            AttitudeMpc(solver={"max_iters": 3}, terminal_samples=10).fit()

    def test_fit_rejects_bad_inertia(self):
        with pytest.raises(NotPositiveDefinite):
            AttitudeMpc(inertia=np.diag([1.0, -1.0, 1.0])).fit()

    @pytest.mark.parametrize("method", ["solve", "predict", "predict batch", "simulate"])
    @pytest.mark.parametrize("bad", ["nan", "off orthogonal"])
    def test_rejects_bad_attitude_naming_g(self, method, bad):
        # Unchecked, a NaN attitude reached the margin's eigvalsh and raised
        # numpy's LinAlgError.
        est = AttitudeMpc(horizon=4, terminal_samples=200).fit()
        g = np.eye(3)
        g[0, 1] = np.nan if bad == "nan" else 1e-6
        state = SpacecraftState(g, np.eye(3))
        calls = {
            "solve": lambda: est.solve(state),
            "predict": lambda: est.predict(state),
            "predict batch": lambda: est.predict([SpacecraftState.identity(), state]),
            "simulate": lambda: est.simulate(state, 2),
        }
        with pytest.raises((ValueError, NotRotation), match=r"^g (must be finite|is not orthogonal)"):
            calls[method]()

    def test_simulate_short_run(self):
        est = AttitudeMpc(
            horizon=5,
            terminal_samples=200,
            solver=SolverSettings(max_iters=50),
        ).fit()
        run = est.simulate(rest_state([0.2, 0.1, 0.0]), 5)
        assert run.n_steps == 5
        assert np.all(run.violations <= 1e-8)
