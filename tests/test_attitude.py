import numpy as np
import pytest
from numpy.testing import assert_allclose

from so3mpc.attitude import AttitudeMpc, SpacecraftAttitudeSystem, rest_state, spinning_state
from so3mpc.errors import NotPositiveDefinite, NotRotation, NotSolvable, OutOfChart
from so3mpc.lgvi import MARGIN_CUTOFF, SOLVABILITY_FLOOR, SpacecraftState, lgvi_step
from so3mpc.lgvi import step_with_margin as lgvi_step_with_margin
from so3mpc.mpc import SolverSettings
from so3mpc.so3 import exp_so3
from so3mpc.terminal import StageWeights

from conftest import H_REF, J_REF


class TestAttitudeSystem:
    def test_equilibrium_contract(self, ref_system):
        x_e = ref_system.equilibrium_state
        u_e = np.zeros(ref_system.control_dim)
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

    def test_solvability_floor_lies_below_the_margin_cutoff(self):
        # A floor at or above MARGIN_CUTOFF could not be met: the step reports
        # exact margins only below it.
        assert 0.0 <= SOLVABILITY_FLOOR < MARGIN_CUTOFF

    @pytest.mark.parametrize("bound", [np.nan, 0.0, -1.0, -np.inf, "5", True])
    def test_rejects_bad_torque_bound(self, ref_design, bound):
        # A NaN bound would skip the clip in project_control; a string or a
        # boolean is rejected as in the configuration (before, "5" and True
        # loaded as 5.0 and 1.0).
        with pytest.raises(ValueError, match="torque_bound"):
            SpacecraftAttitudeSystem(ref_design, torque_bound=bound)

    def test_accepts_constraint_edges(self, ref_design):
        system = SpacecraftAttitudeSystem(ref_design, torque_bound=np.inf)
        assert_allclose(system.project_control([5e3, 0.0, 0.0]), [5e3, 0.0, 0.0])

    def test_margin_floor(self, ref_system):
        state = SpacecraftState.identity()
        _, margin = ref_system.step_with_margin(state, np.zeros(3))
        assert margin >= SOLVABILITY_FLOOR
        assert margin == pytest.approx(1.0)  # min eig of J^2 at rest
        # From rest, 200 - 5e-7 N m about z leaves a margin of about 5e-9:
        # solvable, but below the floor, so outside the predictions' domain.
        # The plant step takes it.
        torque = np.array([0.0, 0.0, 200.0 - 5e-7])
        _, margin = lgvi_step_with_margin(state, torque, H_REF, J_REF)
        assert 0.0 <= margin < SOLVABILITY_FLOOR
        for step in (ref_system.step_with_margin, lambda x, u: ref_system.step_near(x, u, state)):
            with pytest.raises(NotSolvable, match=f"is {margin:.3e}, below the floor 1e-06"):
                step(state, torque)
        ref_system.step(state, torque)

    def test_local_law_out_of_chart(self, ref_system):
        state = rest_state([0.0, 0.0, np.pi])
        with pytest.raises(OutOfChart):
            ref_system.local_law(state)
        # The steering heuristic still returns a deterministic direction.
        steering = ref_system.steering_control(state)
        assert steering[2] < 0.0


class TestEstimator:
    def test_predict_requires_fit(self):
        with pytest.raises(RuntimeError):
            AttitudeMpc().predict(SpacecraftState.identity())

    def test_fit_predict_equilibrium(self):
        est = AttitudeMpc(horizon=5, terminal_samples=200).fit()
        assert est.design_.c > 0.0
        torque = est.predict(SpacecraftState.identity())
        assert np.max(np.abs(torque)) <= 1e-8

    def test_fit_rejects_nan_torque_bound_naming_it(self):
        with pytest.raises(ValueError, match="torque_bound"):
            AttitudeMpc(terminal_samples=10, torque_bound=np.nan).fit()

    @pytest.mark.parametrize("horizon", [2.5, True])
    def test_fit_rejects_non_integer_horizon_before_design(self, horizon):
        with pytest.raises(ValueError, match="horizon"):
            AttitudeMpc(horizon=horizon, terminal_samples=10).fit()

    def test_fit_rejects_non_settings_solver_before_design(self):
        with pytest.raises(ValueError, match="solver"):
            AttitudeMpc(solver={"max_iters": 3}, terminal_samples=10).fit()

    def test_fit_rejects_non_stage_weights_before_design(self):
        with pytest.raises(ValueError, match="weights"):
            AttitudeMpc(weights=2.0 * np.eye(3), terminal_samples=10).fit()

    def test_fit_takes_stage_weights(self):
        weights = StageWeights(2.0 * np.eye(3), np.diag([1.0, 1.2, 1.5]), np.eye(3), 0.2)
        est = AttitudeMpc(horizon=4, weights=weights, terminal_samples=200).fit()
        assert est.design_.weights is weights
        assert est.system_.weights is weights

    def test_fit_rejects_bad_inertia(self):
        with pytest.raises(NotPositiveDefinite):
            AttitudeMpc(inertia=np.diag([1.0, -1.0, 1.0])).fit()

    @pytest.mark.parametrize(
        "params, name",
        [
            ({"terminal_shrink": 0.0}, "shrink"),
            ({"terminal_shrink": True}, "shrink"),
            ({"terminal_samples": True}, "n_samples"),
            ({"terminal_samples": 2.5}, "n_samples"),
            ({"terminal_samples": "10"}, "n_samples"),
        ],
    )
    def test_fit_rejects_bad_design_argument(self, params, name):
        # Before, shrink 0 fitted c = 0, a design its own loader rejects, True
        # meant 1, and the samples ended in a bare TypeError.
        with pytest.raises(ValueError, match=f"^{name} must "):
            AttitudeMpc(**params).fit()

    @pytest.mark.parametrize("h", ["0.1", True, np.nan, 0, -1, np.inf])
    def test_fit_rejects_bad_step_naming_h(self, h):
        # Before, "0.1" ended in a bare TypeError, True designed at h = 1
        # and NaN raised NoConvergence from the Riccati solve.
        with pytest.raises(ValueError, match="^h must "):
            AttitudeMpc(step_seconds=h).fit()

    @pytest.mark.parametrize("method", ["solve", "predict", "simulate"])
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
