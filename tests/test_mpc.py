import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from so3mpc import lgvi, mpc, so3
from so3mpc.errors import Infeasible, NotSolvable, RolloutFailure
from so3mpc.flat import DoubleIntegratorSystem
from so3mpc.lgvi import SpacecraftState, rollout
from so3mpc.mpc import (
    FD_STEP,
    PENALTY_WEIGHT,
    ManifoldSystem,
    MpcConfig,
    _Objective,
    MpcController,
    QuadraticModel,
    SolverSettings,
    _gauss_newton_hessian,
    _predict,
    closed_loop,
    horizon_cost,
    solve_ocp,
    steering_rollout,
    warm_start_shift,
)
from so3mpc.attitude import AttitudeMpc, SpacecraftAttitudeSystem, rest_state, spinning_state
from so3mpc.so3 import NEAR_PI
from so3mpc.terminal import build_linearization, tilde_transform

from conftest import H_REF, J_REF, BoundedStepIntegrator, regulate_start, tangent_offset

TIGHT = SolverSettings(max_iters=500, grad_tol=1e-9, ftol_rel=1e-12)


def rot_z(angle):
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def adjoint_gradient(flat, x0, controls):
    """Exact horizon-cost gradient of the double integrator by the adjoint
    recursion: lam_N = 2 P x_N, g_i = 2 R u_i + B^T lam_{i+1},
    lam_i = 2 Q x_i + A^T lam_{i+1}."""
    xs = [x0]
    for u in controls:
        xs.append(flat.step(xs[-1], u))
    lam = 2.0 * flat.P @ xs[-1]
    grad = np.zeros((len(controls), 1))
    for i in reversed(range(len(controls))):
        grad[i, 0] = (2.0 * flat.R @ controls[i] + flat.B.T @ lam)[0]
        lam = 2.0 * flat.Q @ xs[i] + flat.A.T @ lam
    return grad


class KnifeEdgeIntegrator(DoubleIntegratorSystem):
    """Double integrator solvable at u = 0.5 but not just beside it."""

    def step(self, x, u):
        if 0.0 < abs(float(u[0]) - 0.5) < 1e-3:
            raise NotSolvable("u is next to 0.5")
        return super().step(x, u)


class ScalarIntegrator(ManifoldSystem):
    """x+ = x + u with stage cost x^2 + u^2 and the Riccati terminal cost
    P x^2, P = (1 + sqrt 5) / 2: a system that keeps every default of the
    contract (steering control, control projection, step with margin)."""

    control_dim = 1
    P = (1.0 + math.sqrt(5.0)) / 2.0

    def step(self, x, u):
        return x + u

    def quadratic_model(self, states, torques):
        ones = np.ones((len(torques), 1, 1))
        x = np.asarray(states, dtype=float)
        return QuadraticModel(
            ones, ones, 2.0 * ones, 2.0 * ones, 2.0 * self.P * ones[0], 2.0 * x[:-1], 2.0 * torques, 2.0 * self.P * x[-1]
        )

    def distance(self, x1, x2):
        return float(np.linalg.norm(x1 - x2))

    @property
    def equilibrium_state(self):
        return np.zeros(1)

    def stage_cost(self, x, u):
        # Inside a prediction u is a list of floats.
        u = np.asarray(u)
        return float(x @ x + u @ u)

    def terminal_cost(self, x):
        return float(self.P * x @ x)

    @property
    def terminal_level(self):
        return 1e6

    def local_law(self, x):
        return -self.P / (1.0 + self.P) * x


class TestContractDefaults:
    def test_cold_solve_matches_lqr(self):
        system = ScalarIntegrator()
        x0 = np.array([0.7])
        assert_allclose(system.steering_control(x0), [0.0])
        assert_allclose(system.project_control([5.0]), [5.0])
        assert system.step_with_margin(x0, np.array([0.3]))[1] == math.inf
        # The cold start is the steering rollout of zero controls.
        assert_allclose(steering_rollout(system, x0, 6), np.zeros((6, 1)))
        sol = solve_ocp(system, x0, MpcConfig(horizon=6, solver=TIGHT))
        assert sol.feasible
        assert sol.violation == 0.0
        assert sol.cost == pytest.approx(system.terminal_cost(x0), rel=1e-9)
        assert_allclose(sol.first_control, system.local_law(x0), rtol=1e-6)


@pytest.mark.parametrize("kind", ["attitude", "double integrator", "contract default"])
def test_projection_of_a_stack_equals_its_rows(kind, ref_design):
    # The solver projects a whole (N, m) control sequence in one call; that
    # must equal the projection of each row, bit for bit, for entries inside
    # the bound, at either bound and beyond it.
    bound = 2.0
    system = {
        "attitude": lambda: SpacecraftAttitudeSystem(ref_design, torque_bound=bound),
        "double integrator": lambda: DoubleIntegratorSystem(control_bound=bound),
        "contract default": ScalarIntegrator,
    }[kind]()
    entries = [0.0, -0.0, 0.3, -1.7, bound, -bound, np.nextafter(bound, 0.0), 2.5, -40.0, 1e300]
    stack = np.random.default_rng(57).permutation(entries * system.control_dim).reshape(-1, system.control_dim)
    projected = system.project_control(stack)
    rows = np.vstack([system.project_control(u) for u in stack])
    assert projected.dtype == rows.dtype == np.float64 and projected.shape == rows.shape == stack.shape
    assert projected.tobytes() == rows.tobytes()
    if kind != "contract default":
        assert np.abs(projected).max() == bound and (projected == -bound).any()


class TestGenericLayerOnFlatSystem:
    def test_equilibrium_invariants(self):
        flat = DoubleIntegratorSystem()
        x_e = flat.equilibrium_state
        u_e = np.zeros(flat.control_dim)
        assert flat.distance(flat.step(x_e, u_e), x_e) <= 1e-10
        assert flat.stage_cost(x_e, u_e) == 0.0
        assert flat.terminal_cost(x_e) == 0.0

    def test_stage_cost_positive_definite(self):
        flat = DoubleIntegratorSystem()
        rng = np.random.default_rng(0)
        for _ in range(100):
            x = rng.standard_normal(2)
            assert flat.stage_cost(x, np.zeros(1)) >= 0.0
            if np.linalg.norm(x) > 1e-12:
                assert flat.stage_cost(x, np.zeros(1)) > 0.0

    def test_mpc_at_equilibrium_returns_zero(self):
        flat = DoubleIntegratorSystem()
        cfg = MpcConfig(horizon=10, solver=TIGHT)
        sol = solve_ocp(flat, np.zeros(2), cfg)
        assert sol.cost <= 1e-12
        assert np.max(np.abs(sol.torques)) <= 1e-9

    def test_matches_classical_lqr(self):
        # With the Riccati terminal cost and no active constraint, the
        # finite-horizon optimum equals the infinite-horizon feedback.
        flat = DoubleIntegratorSystem()
        x0 = np.array([0.8, -0.2])
        bounded = DoubleIntegratorSystem(terminal_level=2.0 * flat.terminal_cost(x0))
        cfg = MpcConfig(horizon=10, solver=TIGHT)
        sol = solve_ocp(bounded, x0, cfg)
        v_ref = flat.terminal_cost(x0)
        u_ref = flat.local_law(x0)
        assert sol.cost == pytest.approx(v_ref, rel=1e-6)
        assert sol.first_control[0] == pytest.approx(u_ref[0], rel=1e-4)

    def test_lqr_oracle_against_scipy(self):
        flat = DoubleIntegratorSystem()
        p_ref = scipy.linalg.solve_discrete_are(flat.A, flat.B, flat.Q, flat.R)
        assert_allclose(flat.P, p_ref, rtol=1e-9, atol=1e-10)

    def test_closed_loop_converges(self):
        flat = DoubleIntegratorSystem(terminal_level=50.0)
        cfg = MpcConfig(horizon=8)
        run = closed_loop(flat, np.array([1.0, 0.0]), cfg, 40, distance_tol=1e-2)
        assert run.converged
        assert run.distances[-1] <= 1e-2
        assert np.all(np.diff(run.distances)[5:] <= 1e-9)

    def test_box_bound_respected(self):
        flat = DoubleIntegratorSystem(terminal_level=1e6, control_bound=0.5)
        cfg = MpcConfig(horizon=10, solver=TIGHT)
        sol = solve_ocp(flat, np.array([1.0, 0.0]), cfg)
        assert np.max(np.abs(sol.torques)) <= 0.5 + 1e-12

    def test_fd_gradient_matches_analytic(self):
        # On the linear-quadratic system the horizon-cost gradient has a
        # closed form; central differences must reproduce it.
        flat = DoubleIntegratorSystem()
        n = 6
        rng = np.random.default_rng(5)
        for _ in range(10):
            x0 = rng.standard_normal(2)
            controls = rng.standard_normal((n, 1))
            analytic = adjoint_gradient(flat, x0, controls)
            fd = np.zeros((n, 1))
            delta = 1e-6
            for i in range(n):
                up, down = controls.copy(), controls.copy()
                up[i, 0] += delta
                down[i, 0] -= delta
                fd[i, 0] = (
                    horizon_cost(flat, x0, up) - horizon_cost(flat, x0, down)
                ) / (2.0 * delta)
            assert np.linalg.norm(fd - analytic) <= 1e-5 * max(1.0, np.linalg.norm(analytic))


def full_central_differences(objective, torques):
    """Central differences at ``FD_STEP`` of the penalized value of
    ``objective``, each perturbed horizon rolled out in full from its start
    (:meth:`_Objective.trial`): no tails, no start states and no prefix
    sums.  At weight zero the value is :func:`horizon_cost`."""
    grad = np.zeros(torques.shape)
    for index in np.ndindex(torques.shape):
        up, down = torques.copy(), torques.copy()
        up[index] += FD_STEP
        down[index] -= FD_STEP
        grad[index] = (objective.trial(up)[0] - objective.trial(down)[0]) / (2.0 * FD_STEP)
    return grad


class TestObjectiveGradient:
    @pytest.mark.parametrize("point", ["regulate", "saturated", "floor"])
    def test_attitude_gradient_equals_full_central_differences(self, point, ref_design, ref_system):
        # At weight zero the penalized objective is the horizon cost, so the
        # tails, their start states and the prefix sums may move the
        # gradient by round-off only, about 1e-8 of its largest entry at
        # FD_STEP.  Measured while the tails' stage costs were summed by
        # numpy: 7.8e-9 (regulate), 1.5e-8 (saturated) and 5.3e-9 (floor);
        # with the running sums 6.2e-9, 1.8e-8 and 5.3e-9.
        system = ref_system
        if point == "regulate":
            # The warm start of the benchmark's second regulate solve.
            solution = solve_ocp(ref_system, regulate_start(), MpcConfig(horizon=10))
            x0, torques = solution.states[1], warm_start_shift(solution, ref_system)
        elif point == "saturated":
            system = SpacecraftAttitudeSystem(ref_design, torque_bound=1.0)
            axis = np.array([0.8, 0.5, -0.3])
            x0 = rest_state(1.2 * axis / np.linalg.norm(axis))
            torques = solve_ocp(system, x0, MpcConfig(horizon=10)).torques
            assert (np.abs(torques) == 1.0).sum() >= 10
        else:
            # From rest, 199.99 N m about z leaves every later margin between
            # 8e-5 and 1e-3: above SOLVABILITY_FLOOR, on LAPACK's side of the
            # gate.
            x0 = SpacecraftState.identity()
            torques = np.random.default_rng(5).uniform(-0.05, 0.05, (6, 3))
            torques[1, 2] = 199.99
            x, margins = x0, []
            for u in torques:
                x, margin = system.step_with_margin(x, u)
                margins.append(margin)
            assert all(lgvi.SOLVABILITY_FLOOR < m < lgvi.MARGIN_CUTOFF / 10 for m in margins[1:])
        objective = _Objective(system, x0, 0.0)
        grad, value = objective.gradient(torques, _predict(system, x0, torques))
        oracle = full_central_differences(objective, torques)
        assert value == horizon_cost(system, x0, torques)
        assert np.abs(grad - oracle).max() <= 5e-8 * np.abs(oracle).max()

    def test_one_sided_next_to_unsolvable_control(self):
        # u[2] + FD_STEP leaves the solvable set; the entry must fall back to
        # the one-sided difference instead of a 1e30 sentinel.
        system = BoundedStepIntegrator()
        x0 = np.array([0.5, -0.3])
        controls = np.array([[0.2], [-0.4], [1.0 - 5e-7], [0.1], [0.3]])
        objective = _Objective(system, x0, 1e4)
        grad, value = objective.gradient(controls, _predict(system, x0, controls))
        assert value == pytest.approx(horizon_cost(system, x0, controls), rel=1e-14)
        assert_allclose(grad, adjoint_gradient(system, x0, controls), rtol=1e-4, atol=1e-6)
        over = controls.copy()
        over[2, 0] = 1.0 + 5e-7
        assert objective.trial(over) == (math.inf, None)

    def test_both_sides_unsolvable_names_step_and_entry(self):
        system, x0 = KnifeEdgeIntegrator(), np.array([0.5, -0.3])
        controls = np.array([[0.2], [0.5], [0.1]])
        with pytest.raises(RolloutFailure, match="step 1, control entry 0"):
            _Objective(system, x0, 1e4).gradient(controls, _predict(system, x0, controls))

    @pytest.mark.parametrize("which", ["attitude", "flat"])
    def test_reused_base_rollout_matches_recomputed(self, which, ref_system):
        # The line search hands its accepted rollout to the next gradient;
        # that gradient must equal the one handed the prediction of the same
        # controls.
        if which == "attitude":
            system, x0 = ref_system, spinning_state([0.5, -0.3, 0.8], [0.2, 0.1, -0.3], H_REF)
            controls = np.random.default_rng(7).uniform(-20.0, 20.0, (10, 3))
        else:
            system, x0 = DoubleIntegratorSystem(), np.array([0.5, -0.3])
            controls = np.array([[0.2], [-0.4], [0.7], [0.1], [0.3]])
        objective = _Objective(system, x0, 1e4)
        value, data = objective.trial(controls)
        reused, reused_value = objective.gradient(controls, base=data)
        fresh, fresh_value = objective.gradient(controls, base=_predict(system, x0, controls))
        assert np.array_equal(reused, fresh)
        assert reused_value == fresh_value == value


class TestSolverSettings:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("grad_tol", math.nan),
            ("grad_tol", math.inf),
            ("ftol_rel", -1e-4),
            ("constraint_tol", 0.0),
            ("max_iters", 2.5),
            ("max_iters", 0),
            ("max_iters", True),
            ("outer_rounds", 1.5),
        ],
    )
    def test_rejects_bad_value_naming_field(self, field, value):
        with pytest.raises(ValueError, match=field):
            SolverSettings(**{field: value})

    def test_accepts_defaults_and_edges(self):
        SolverSettings()
        SolverSettings(max_iters=np.int64(3), outer_rounds=1, grad_tol=1e9)

    def test_fields_are_the_tuned_ones(self):
        names = [f.name for f in dataclasses.fields(SolverSettings)]
        assert names == ["max_iters", "grad_tol", "ftol_rel", "outer_rounds", "constraint_tol"]


class TestMpcConfig:
    @pytest.mark.parametrize("horizon", [2.5, True, "10", None, 0])
    def test_rejects_bad_horizon_naming_field(self, horizon):
        with pytest.raises(ValueError, match="horizon"):
            MpcConfig(horizon=horizon)

    def test_accepts_numpy_integer(self):
        assert MpcConfig(horizon=np.int64(3)).horizon == 3

    def test_integral_float_counts_as_integer(self):
        # As in the configuration file, where "N": 8.0 reads as 8.
        config = MpcConfig(horizon=8.0, solver=SolverSettings(max_iters=50.0))
        assert type(config.horizon) is int and config.horizon == 8
        assert type(config.solver.max_iters) is int and config.solver.max_iters == 50

    @pytest.mark.parametrize("solver", [{"max_iters": 3}, None])
    def test_rejects_non_settings_solver_naming_field(self, solver):
        # A dict used to pass here and fail at the first solve.
        with pytest.raises(ValueError, match="solver"):
            MpcConfig(horizon=5, solver=solver)


class TestKktAtSaturatedTorques:
    """A cold solve at a 1 Nm bound mostly ends with torques on the box, where
    the projected-gradient optimality condition must hold entry by entry.
    Some starts near 0.5 rad need less than the bound (0.5 rad about
    (0, 1, 1) peaks at 0.97 Nm); they check the residual only."""

    # ftol_rel = 1e-15 also keeps the relative-improvement stop, after which
    # no residual is reported, from ending these solves.
    SOLVER = SolverSettings(outer_rounds=1, ftol_rel=1e-15, max_iters=400)

    @pytest.fixture(scope="class")
    def weak_system(self, ref_design):
        return SpacecraftAttitudeSystem(ref_design, torque_bound=1.0)

    @settings(deadline=None, max_examples=8)
    @given(
        st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=3, max_size=3).filter(
            lambda v: np.linalg.norm(v) > 0.1
        ),
        st.floats(min_value=0.5, max_value=1.5),
    )
    def test_gradient_points_outward_and_residual_reproduces(self, weak_system, direction, angle):
        x0 = rest_state(angle * np.asarray(direction) / np.linalg.norm(direction))
        solution = solve_ocp(weak_system, x0, MpcConfig(horizon=10, solver=self.SOLVER))
        # One penalty round, so the reported residual used this weight.  A
        # solve that iterated took the gradient at its returned torques from
        # the model along their rollout; one that stopped at its first took
        # central differences.
        objective = _Objective(weak_system, x0, PENALTY_WEIGHT)
        u = solution.torques
        base = _predict(weak_system, x0, u)
        differences, value = objective.gradient(u, base)
        if solution.iterations:
            grad, _ = objective.model_gradient(weak_system.quadratic_model(base.states, u), base)
            # Central differences agree within 1e-6 of their largest entry,
            # up to their round-off floor, which decides where the solve
            # converged off the box: there the gradient is about 1e-6, and
            # the differences stray by up to 6.8 eps |value| / FD_STEP.
            floor = 16.0 * np.finfo(float).eps * abs(value) / FD_STEP
            assert np.abs(grad - differences).max() <= 1e-6 * np.abs(differences).max() + floor
        else:
            grad = differences
        assert solution.kkt_residual == float(np.linalg.norm(u - weak_system.project_control(u - grad)))
        assert solution.kkt_residual <= self.SOLVER.grad_tol
        saturated = np.abs(u) == weak_system.torque_bound
        assume(saturated.any())
        # At +bound the descent direction -grad must point up, at -bound down.
        outward = grad[saturated] * np.sign(u[saturated])
        assert np.all(outward <= self.SOLVER.grad_tol)


class TestHeldEntryStep:
    def test_step_is_fixed_per_round_by_its_first_gradient(self, ref_design, monkeypatch):
        # The cold 1 N m solve of the oracle tests holds entries on the box
        # at every iteration; they all take the gradient step of length
        # 1 / max(1, |g0|), g0 the round's first gradient.  A per-iteration
        # Barzilai-Borwein rescaling moved it (0.00735, 0.0268, 0.0120, ...).
        firsts, calls = [], []
        gradient, direction = _Objective.gradient, mpc._quasi_newton_direction

        def recorded_gradient(objective, torques, base):
            result = gradient(objective, torques, base)
            if not firsts or firsts[-1][0] is not objective:
                firsts.append((objective, result[0]))
            return result

        def recorded_direction(grad, free, pairs, step, hessian):
            calls.append((step, int((~free).sum()), firsts[-1][1]))
            return direction(grad, free, pairs, step, hessian)

        monkeypatch.setattr(_Objective, "gradient", recorded_gradient)
        monkeypatch.setattr(mpc, "_quasi_newton_direction", recorded_direction)
        weak = SpacecraftAttitudeSystem(ref_design, torque_bound=1.0)
        axis = np.array([0.8, 0.5, -0.3])
        solution = solve_ocp(weak, rest_state(1.2 * axis / np.linalg.norm(axis)), MpcConfig(horizon=10))
        assert len(calls) == solution.iterations >= 5
        for step, held, first in calls:
            assert held >= 1
            assert step == 1.0 / max(1.0, float(np.linalg.norm(first)))


class TestNonFiniteWarmStart:
    """A warm start with a NaN or an infinity is rejected before any
    rollout, naming the first bad step."""

    def test_attitude(self, ref_system):
        # Unchecked, this reached the margin's eigvalsh and raised numpy's
        # LinAlgError.
        warm = np.full((10, 3), np.nan)
        with pytest.raises(ValueError, match=r"warm_start must be finite; step 0 "):
            solve_ocp(ref_system, SpacecraftState.identity(), MpcConfig(horizon=10), warm_start=warm)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_double_integrator(self, bad):
        # Unchecked, a NaN made both perturbed rollouts "unsolvable".
        warm = np.zeros((8, 1))
        warm[[4, 6], 0] = bad
        with pytest.raises(ValueError, match=r"warm_start must be finite; step 4 "):
            solve_ocp(DoubleIntegratorSystem(), np.array([1.0, -0.5]), MpcConfig(horizon=8), warm_start=warm)


class TestNonFiniteHorizonCost:
    """A candidate sequence with a NaN or an infinity is rejected by
    ``horizon_cost`` as a warm start is, before any rollout."""

    def test_attitude(self, ref_system):
        # Unchecked, this reached the margin's eigvalsh and raised numpy's
        # LinAlgError.
        torques = np.zeros((5, 3))
        torques[2, 1] = np.nan
        with pytest.raises(ValueError, match=r"torques must be finite; step 2 "):
            horizon_cost(ref_system, SpacecraftState.identity(), torques)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_double_integrator(self, bad):
        # Unchecked, an infinity gave a NaN cost and a RuntimeWarning.
        torques = np.zeros((8, 1))
        torques[[3, 5], 0] = bad
        with pytest.raises(ValueError, match=r"torques must be finite; step 3 "):
            horizon_cost(DoubleIntegratorSystem(), np.array([1.0, -0.5]), torques)


class TestRolloutFailureNamesStep:
    """An unsolvable predicted step is named, with the step's own reason."""

    controls = np.array([[0.2], [-0.4], [1.5], [0.1]])

    def test_horizon_cost(self):
        with pytest.raises(RolloutFailure, match=r"step 2: \|u\| = 1\.5\d* exceeds 1") as excinfo:
            horizon_cost(BoundedStepIntegrator(), np.array([0.5, -0.3]), self.controls)
        assert excinfo.value.__cause__.step == 2

    def test_gradient_base_rollout(self):
        # A gradient is handed its base rollout; the prediction that builds
        # it names the unsolvable step.
        with pytest.raises(RolloutFailure, match="step 2"):
            _predict(BoundedStepIntegrator(), np.array([0.5, -0.3]), self.controls)

    def test_solve_from_unsolvable_warm_start(self):
        config = MpcConfig(horizon=4)
        with pytest.raises(RolloutFailure, match="step 2"):
            solve_ocp(BoundedStepIntegrator(), np.array([0.5, -0.3]), config, warm_start=self.controls)

    def test_attitude_message_keeps_lapack_margin(self, ref_system):
        torques = np.zeros((3, 3))
        torques[1] = [0.0, 0.0, 5e3]
        with pytest.raises(RolloutFailure, match=r"step 1: .*min eig of J\^2 \+ M\^2/4 is -"):
            horizon_cost(ref_system, SpacecraftState.identity(), torques)


class TestHorizonCost:
    def test_zero_at_equilibrium(self, ref_system):
        cost = horizon_cost(ref_system, SpacecraftState.identity(), np.zeros((10, 3)))
        assert cost == 0.0

    def test_first_stage_at_cut(self, ref_system):
        # One zero-torque stage from rest at 180 degrees: the attitude term
        # is trace(I - Rz(pi)) = 4 for the identity attitude weight; the
        # endpoint and terminal cost follow from the free dynamics.
        state = SpacecraftState(rot_z(np.pi), np.eye(3))
        stage = ref_system.stage_cost(state, np.zeros(3))
        assert stage == pytest.approx(4.0, abs=1e-12)
        cost = horizon_cost(ref_system, state, np.zeros((1, 3)))
        successor = ref_system.step(state, np.zeros(3))
        assert cost == pytest.approx(stage + ref_system.terminal_cost(successor), abs=1e-9)

    def test_control_term(self, ref_system):
        # tau = e_z with torque weight 2I contributes tau' (tr(R) I - R) tau / 2 = 2.
        state = SpacecraftState.identity()
        stage = ref_system.stage_cost(state, np.array([0.0, 0.0, 1.0]))
        assert stage == pytest.approx(2.0, abs=1e-12)

    def test_matches_rollout_sum(self, ref_system):
        rng = np.random.default_rng(1)
        state = spinning_state([0.2, -0.1, 0.3], [0.1, 0.0, -0.05], H_REF)
        torques = 0.2 * rng.standard_normal((6, 3))
        states = rollout(state, torques, H_REF, J_REF)
        expected = sum(
            ref_system.stage_cost(s, u) for s, u in zip(states[:-1], torques)
        ) + ref_system.terminal_cost(states[-1])
        assert horizon_cost(ref_system, state, torques) == pytest.approx(expected, abs=1e-10)

    def test_rollout_failure_wrapped(self, ref_system):
        torques = np.zeros((3, 3))
        torques[0] = [0.0, 0.0, 5e3]
        with pytest.raises(RolloutFailure):
            horizon_cost(ref_system, SpacecraftState.identity(), torques)


class TestSolveOcp:
    def test_equilibrium(self, ref_system):
        cfg = MpcConfig(horizon=10)
        sol = solve_ocp(ref_system, SpacecraftState.identity(), cfg)
        assert sol.feasible
        assert sol.cost <= 1e-8
        assert np.max(np.abs(sol.torques)) <= 1e-8

    def test_cost_equals_reevaluated_rollout(self, ref_system):
        cfg = MpcConfig(horizon=6)
        state = rest_state([0.4, 0.1, -0.2])
        sol = solve_ocp(ref_system, state, cfg)
        assert sol.cost == horizon_cost(ref_system, state, sol.torques)

    def test_feasible_flags_terminal_value(self, ref_system):
        cfg = MpcConfig(horizon=6)
        state = rest_state([0.4, 0.1, -0.2])
        sol = solve_ocp(ref_system, state, cfg)
        assert sol.feasible
        assert sol.terminal_value <= ref_system.terminal_level + 1e-8
        assert np.max(np.abs(sol.torques)) <= ref_system.torque_bound + 1e-12

    def test_terminal_set_start_bounded_by_local_law_cost(self, ref_system):
        # Inside the terminal set the local-law rollout is feasible, so the
        # solver, warm-started there, can only do better.
        state = spinning_state([0.15, -0.1, 0.2], [0.05, 0.0, -0.1], H_REF)
        assert ref_system.terminal_cost(state) <= ref_system.terminal_level
        kappa_cost = horizon_cost(
            ref_system, state, steering_rollout(ref_system, state, 8)
        )
        sol = solve_ocp(ref_system, state, MpcConfig(horizon=8))
        assert sol.cost <= kappa_cost + 1e-9

    def test_feasible_from_branch_cut(self, ref_system):
        # Rest at 180 degrees is outside the terminal set, so the solver has
        # to do real work; the result must be feasible with positive cost.
        sol = solve_ocp(ref_system, rest_state([0.0, 0.0, np.pi]), MpcConfig(horizon=10))
        assert sol.feasible
        assert sol.terminal_value <= ref_system.terminal_level + 1e-8
        assert sol.cost > 0.0

    def test_determinism(self, ref_system):
        cfg = MpcConfig(horizon=5)
        state = rest_state([0.3, 0.2, -0.4])
        a = solve_ocp(ref_system, state, cfg)
        b = solve_ocp(ref_system, state, cfg)
        assert np.array_equal(a.torques, b.torques)
        assert a.cost == b.cost

    def test_warm_start_length_checked(self, ref_system):
        with pytest.raises(ValueError):
            solve_ocp(
                ref_system,
                SpacecraftState.identity(),
                MpcConfig(horizon=5),
                warm_start=np.zeros((3, 3)),
            )


def second_differences(system, horizon, delta=1e-3):
    """Central second differences of ``horizon_cost`` at the equilibrium
    with zero torques, in the stacked controls."""
    m = system.control_dim
    basis = delta * np.eye(horizon * m)

    def cost(u):
        return horizon_cost(system, system.equilibrium_state, u.reshape(horizon, m))

    hessian = np.empty((horizon * m, horizon * m))
    for i, a in enumerate(basis):
        for j, b in enumerate(basis[i:], start=i):
            value = (cost(a + b) - cost(a - b) - cost(b - a) + cost(-a - b)) / (4.0 * delta**2)
            hessian[i, j] = hessian[j, i] = value
    return hessian


def equilibrium_hessian(system, horizon):
    """The Gauss-Newton Hessian along the rollout that rests at the
    equilibrium under zero controls."""
    m = system.control_dim
    model = system.quadratic_model([system.equilibrium_state] * (horizon + 1), np.zeros((horizon, m)))
    return _gauss_newton_hessian(model)


def constant_model_hessian(a, b, q, r, p, horizon):
    """H = sum_k G_k^T Q G_k + blockdiag(R) + G_N^T P G_N of one
    time-invariant model, from the powers of A: the preconditioner of the
    solver before its model varied along the rollout."""
    n, m = b.shape
    powers = [b]
    for _ in range(horizon - 1):
        powers.append(a @ powers[-1])
    g = np.zeros((horizon * n, horizon * m))
    for k in range(1, horizon + 1):
        for j in range(k):
            g[(k - 1) * n:k * n, j * m:(j + 1) * m] = powers[k - 1 - j]
    weights = [q] * (horizon - 1) + [p]
    weighted = np.vstack([w @ g[k * n:(k + 1) * n] for k, w in enumerate(weights)])
    return g.T @ weighted + np.kron(np.eye(horizon), r)


def gradient_point(name, ref_design, ref_system):
    """The system, start, torques and penalty weight of a model-gradient
    check; see :class:`TestModelGradient`."""
    if name.startswith("random"):
        rng = np.random.default_rng(int(name[-1]))
        x0 = spinning_state(rng.uniform(-2.5, 2.5, 3), rng.uniform(-1.0, 1.0, 3), H_REF)
        return ref_system, x0, rng.uniform(-30.0, 30.0, (10, 3)), 0.0
    if name == "penalty active":
        # Zero torques from rest at 3 rad end 2596.1 above the level and the
        # cold solution's torques 1029.7 below it; the blend of both that
        # ends 0.5 above it, found by bisection.
        x0 = rest_state([0.0, 0.0, 3.0])
        torques = solve_ocp(ref_system, x0, MpcConfig(horizon=10)).torques
        lo, hi = 0.0, 1.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if _predict(ref_system, x0, mid * torques).terminal - ref_system.terminal_level > 0.5:
                lo = mid
            else:
                hi = mid
        return ref_system, x0, lo * torques, PENALTY_WEIGHT
    if name == "saturated":
        system = SpacecraftAttitudeSystem(ref_design, torque_bound=1.0)
        axis = np.array([0.8, 0.5, -0.3])
        x0 = rest_state(1.2 * axis / np.linalg.norm(axis))
        return system, x0, solve_ocp(system, x0, MpcConfig(horizon=10)).torques, PENALTY_WEIGHT
    if name == "floor":
        # The "floor" point of the central-difference test, 1.7e-3 N m closer
        # to 200 N m about z: the later margins fall to 1.67e-6.
        torques = np.random.default_rng(5).uniform(-0.05, 0.05, (6, 3))
        torques[1, 2] = 200.0 - 1.7e-3
        return ref_system, SpacecraftState.identity(), torques, 0.0
    # A terminal attitude 4.5e-4 rad short of the cut, from rest 5e-4 short
    # of it under small torques.
    x0 = rest_state([0.0, 0.0, math.pi - 5e-4])
    return ref_system, x0, np.random.default_rng(7).uniform(-1e-3, 1e-3, (10, 3)), 0.0


def swept_points(monkeypatch, system, x0, config):
    """Solve cold and return, per model sweep the solve took, its objective,
    the torques of the model it swept and the rollout it was handed."""
    builds, sweeps = [], []
    build, sweep = type(system).quadratic_model, _Objective.model_gradient

    def recorded_build(self, states, torques):
        model = build(self, states, torques)
        builds.append((model, torques.copy()))
        return model

    def recorded_sweep(objective, model, base):
        sweeps.append((objective, model, base))
        return sweep(objective, model, base)

    monkeypatch.setattr(type(system), "quadratic_model", recorded_build)
    monkeypatch.setattr(_Objective, "model_gradient", recorded_sweep)
    solve_ocp(system, x0, config)
    monkeypatch.undo()
    return [
        (objective, next(torques for built, torques in builds if built is model), base)
        for objective, model, base in sweeps
    ]


class TestModelGradient:
    """The backward sweep over the linear-quadratic model, which every
    gradient after an unmarked solve's first and every marked warm solve's
    gradient take in place of central differences, is the gradient of the
    penalized objective: measured against full re-rollouts at ``FD_STEP``,
    it agrees to 3.3e-9 to 7.5e-8 of the largest entry at these points, and
    to 3.8e-9 to 4.7e-8 at the cold solves' iterates below."""

    @pytest.mark.parametrize(
        "name", ["random 1", "random 2", "random 3", "penalty active", "saturated", "floor", "near the cut"]
    )
    def test_attitude_equals_full_central_differences(self, name, ref_design, ref_system):
        system, x0, torques, weight = gradient_point(name, ref_design, ref_system)
        base = _predict(system, x0, torques)
        excess = base.terminal - system.terminal_level
        if name == "penalty active":
            assert 0.0 < excess <= 0.5 + 1e-9
        elif name == "saturated":
            assert (np.abs(torques) == 1.0).sum() >= 10
            assert excess < 0.0
        elif name == "floor":
            margins = []
            x = x0
            for u in torques:
                x, margin = system.step_with_margin(x, u)
                margins.append(margin)
            assert lgvi.SOLVABILITY_FLOOR < min(margins[1:]) < 2e-6
        elif name == "near the cut":
            angle = np.linalg.norm(so3.log_so3(base.states[-1].g))
            assert math.pi - NEAR_PI < angle < math.pi
        objective = _Objective(system, x0, weight)
        grad, value = objective.model_gradient(system.quadratic_model(base.states, torques), base)
        oracle = full_central_differences(objective, torques)
        assert value == objective.value(base)
        assert np.abs(grad - oracle).max() <= 1e-6 * np.abs(oracle).max()

    def test_saturated_cold_iterates_equal_full_central_differences(self, monkeypatch):
        # The 1 N m, N = 40 slew's cold first solve from rest at pi: its 7
        # iterations sweep at the first 6 accepted points, each with 28 to
        # 34 of its 120 torque entries on the box.
        model = AttitudeMpc(horizon=40, torque_bound=1.0).fit()
        system = model.system_
        x0 = rest_state([0.0, 0.0, math.pi])
        points = swept_points(monkeypatch, system, x0, model.config_)
        assert len(points) == 6
        for objective, torques, base in points:
            assert objective.weight == PENALTY_WEIGHT
            assert (np.abs(torques) == 1.0).sum() >= 28
            grad, _ = objective.model_gradient(system.quadratic_model(base.states, torques), base)
            oracle = full_central_differences(objective, torques)
            assert np.abs(grad - oracle).max() <= 1e-6 * np.abs(oracle).max()

    def test_second_round_start_equals_full_central_differences(self, ref_system, monkeypatch):
        # Three steps from 2.9 rad at rest: the first round stops outside the
        # terminal set, and the heavier second round starts with the model's
        # sweep there, the penalty active.
        x0 = rest_state([0.0, 0.6 * 2.9, 0.8 * 2.9])
        points = swept_points(monkeypatch, ref_system, x0, MpcConfig(horizon=3))
        objective, torques, base = next(point for point in points if point[0].weight > PENALTY_WEIGHT)
        assert objective.weight == PENALTY_WEIGHT * mpc.PENALTY_GROWTH
        assert base.terminal > ref_system.terminal_level
        grad, _ = objective.model_gradient(ref_system.quadratic_model(base.states, torques), base)
        oracle = full_central_differences(objective, torques)
        assert np.abs(grad - oracle).max() <= 1e-6 * np.abs(oracle).max()

    @pytest.mark.parametrize("weight", [0.0, PENALTY_WEIGHT])
    def test_double_integrator_equals_adjoint(self, weight):
        # Inside the default level the penalty is zero at either weight, and
        # the sweep is the exact adjoint recursion of the horizon cost.
        flat = DoubleIntegratorSystem()
        rng = np.random.default_rng(11)
        for _ in range(5):
            x0, controls = rng.standard_normal(2), rng.standard_normal((6, 1))
            base = _predict(flat, x0, controls)
            objective = _Objective(flat, x0, weight)
            grad, _ = objective.model_gradient(flat.quadratic_model(base.states, controls), base)
            reference = adjoint_gradient(flat, x0, controls)
            assert_allclose(grad, reference, rtol=0.0, atol=1e-14 * np.abs(reference).max())


class TestHorizonHessian:
    @pytest.mark.parametrize("which", ["flat", "attitude"])
    def test_matches_second_differences_at_equilibrium(self, which, ref_system):
        system = DoubleIntegratorSystem() if which == "flat" else ref_system
        hessian = equilibrium_hessian(system, 6)
        reference = second_differences(system, 6)
        assert np.linalg.norm(hessian - reference) <= 1e-4 * np.linalg.norm(reference)

    @pytest.mark.parametrize("which", ["flat", "attitude"])
    def test_equals_constant_model_at_equilibrium(self, which, ref_design, ref_system):
        # At rest at the equilibrium the time-varying model is the
        # linear-quadratic model of the terminal design at every step.
        if which == "flat":
            system = DoubleIntegratorSystem()
            blocks = (system.A, system.B, 2.0 * system.Q, 2.0 * system.R, 2.0 * system.P)
        else:
            system = ref_system
            lin = build_linearization(H_REF, J_REF)
            weights = ref_design.weights
            q = scipy.linalg.block_diag(tilde_transform(weights.attitude), tilde_transform(weights.rate))
            blocks = (lin.A, lin.B, q, tilde_transform(weights.torque), 2.0 * ref_design.P)
        for horizon in (1, 2, 10):
            reference = constant_model_hessian(*blocks, horizon)
            hessian = equilibrium_hessian(system, horizon)
            assert np.linalg.norm(hessian - reference) <= 1e-12 * np.linalg.norm(reference)

    def test_matches_rollout_sensitivities_away_from_equilibrium(self, ref_system):
        # G_k from central differences of a spinning, tilted rollout in the
        # tangent coordinates about its own states, weighted by the model's
        # Q[k] and P: the condensing of the step Jacobians.
        horizon = 5
        x0 = spinning_state([0.4, 1.2, -0.9], [0.3, -0.5, 0.2], H_REF)
        torques = np.random.default_rng(41).uniform(-20.0, 20.0, (horizon, 3))
        states = rollout(x0, torques, H_REF, J_REF)
        model = ref_system.quadratic_model(states, torques)
        delta = 1e-6
        g = np.zeros((horizon, 6, 3 * horizon))
        for column in range(3 * horizon):
            d = delta * np.eye(3 * horizon)[column].reshape(horizon, 3)
            up, down = rollout(x0, torques + d, H_REF, J_REF), rollout(x0, torques - d, H_REF, J_REF)
            for k in range(horizon):
                offsets = (tangent_offset(states[k + 1], x, H_REF) for x in (up[k + 1], down[k + 1]))
                g[k, :, column] = np.subtract(*offsets) / (2.0 * delta)
        weights = list(model.Q[1:]) + [model.P]
        reference = sum(g[k].T @ weights[k] @ g[k] for k in range(horizon))
        reference += scipy.linalg.block_diag(*model.R)
        hessian = _gauss_newton_hessian(model)
        assert np.linalg.norm(hessian - reference) <= 1e-6 * np.linalg.norm(reference)
        # Far from the equilibrium it differs from the constant model's (by
        # 7.5 % here, where the control weight dominates both).
        constant = equilibrium_hessian(ref_system, horizon)
        assert np.linalg.norm(hessian - constant) > 0.05 * np.linalg.norm(hessian)

    def test_double_integrator_solved_in_one_iteration(self):
        # The model is the double integrator itself, so the first
        # quasi-Newton step is the Newton step to the unconstrained optimum,
        # whose cost the Riccati terminal weight gives in closed form.  The
        # identity metric took 7 iterations here and stopped on ftol_rel.
        system = DoubleIntegratorSystem()
        x0 = np.array([0.8, -0.2])
        sol = solve_ocp(system, x0, MpcConfig(horizon=10), warm_start=np.zeros((10, 1)))
        assert sol.iterations == 1
        assert sol.kkt_residual <= SolverSettings().grad_tol
        assert sol.cost == pytest.approx(float(x0 @ system.P @ x0), rel=1e-9)


class RecordingAttitude(SpacecraftAttitudeSystem):
    """Records each model build: its torques and states, and whether the
    build itself stepped the dynamics or valued the terminal cost."""

    def __init__(self, design):
        super().__init__(design)
        self.builds = []
        self.calls = 0

    def step_with_margin(self, x, u, near=None):
        self.calls += 1
        return super().step_with_margin(x, u, near)

    def terminal_cost(self, x):
        self.calls += 1
        return super().terminal_cost(x)

    def quadratic_model(self, states, torques):
        calls = self.calls
        model = super().quadratic_model(states, torques)
        self.builds.append((torques.copy(), list(states), self.calls == calls))
        return model


class TestModelBuild:
    def test_one_build_per_iteration_at_its_iterate(self, ref_design, monkeypatch):
        # A cold solve of three iterations: each builds the model once, on the
        # states of the rollout whose gradient the iteration holds, without
        # a step or a terminal-cost call of its own.  The first holds the
        # central-difference gradient at the start; the build at each
        # accepted point gives that point's gradient by its sweep.
        system = RecordingAttitude(ref_design)
        bases = []
        gradient, sweep = _Objective.gradient, _Objective.model_gradient

        def recorded(method):
            def recorded_method(objective, first, base):
                bases.append(base)
                return method(objective, first, base)

            return recorded_method

        monkeypatch.setattr(_Objective, "gradient", recorded(gradient))
        monkeypatch.setattr(_Objective, "model_gradient", recorded(sweep))
        x0 = rest_state([0.8, 0.2, -0.4])
        solution = solve_ocp(system, x0, MpcConfig(horizon=6))
        assert solution.iterations == len(system.builds) == len(bases) == 3

        def same_states(first, second):
            return all(np.array_equal(a.g, b.g) and np.array_equal(a.f, b.f) for a, b in zip(first, second))

        for (torques, states, quiet), base in zip(system.builds, bases):
            assert same_states(states, _predict(system, x0, torques).states)
            assert same_states(states, base.states)
            assert quiet
        assert not np.array_equal(system.builds[0][0], system.builds[-1][0])

    def test_no_build_when_the_first_gradient_stops(self, ref_design):
        system = RecordingAttitude(ref_design)
        config = MpcConfig(horizon=10, solver=SolverSettings(grad_tol=1e9))
        solution = solve_ocp(system, spinning_state([0.3, -0.2, 0.4], [0.02, -0.01, 0.015], H_REF), config)
        assert solution.iterations == 0
        assert system.builds == []


class HintRecordingAttitude(SpacecraftAttitudeSystem):
    """Records the ``near`` state of every step, ``None`` for a plain step."""

    def __init__(self, design):
        super().__init__(design)
        self.hints = []

    def step_with_margin(self, x, u, near=None):
        self.hints.append(near)
        return super().step_with_margin(x, u, near)


class UnhintedAttitude(SpacecraftAttitudeSystem):
    """Ignores the start value, as the contract's default does."""

    def step_near(self, x, u, near):
        return self.step_with_margin(x, u)


class TestTailStartValue:
    """Each finite-difference tail step starts its implicit solve at the base
    rollout's successor; every other step starts at the linearized root."""

    def test_tails_take_about_one_newton_update_per_step(self, ref_system, monkeypatch):
        # The regulate start's first gradient: 1.00 updates per step, where
        # starting every tail step at the linearized root took 1.62.  Each
        # tail step's first update is a chord update, and all of them stop
        # there.
        x0 = regulate_start()
        torques = steering_rollout(ref_system, x0, 10)
        base = _predict(ref_system, x0, torques)
        counts = {"chord": 0, "newton": 0, "steps": 0}
        chord, newton, increment = lgvi._chord_update, lgvi._newton_update, lgvi._implicit_increment

        def counted_chord(*args):
            counts["chord"] += 1
            return chord(*args)

        def counted_newton(*args):
            counts["newton"] += 1
            return newton(*args)

        def counted_increment(*args):
            counts["steps"] += 1
            return increment(*args)

        monkeypatch.setattr(lgvi, "_chord_update", counted_chord)
        monkeypatch.setattr(lgvi, "_newton_update", counted_newton)
        monkeypatch.setattr(lgvi, "_implicit_increment", counted_increment)
        _Objective(ref_system, x0, PENALTY_WEIGHT).gradient(torques, base=base)
        assert counts["steps"] == counts["chord"] == 2 * 3 * 55
        assert counts["chord"] + counts["newton"] <= 1.2 * counts["steps"]

    @pytest.mark.parametrize("at", ["steering rollout", "solution"])
    def test_gradient_matches_unhinted_gradient(self, ref_design, at):
        # The start value moves the tails at round-off only: within the
        # finite-difference gradient's own floor, about 6e-7.
        system, unhinted = SpacecraftAttitudeSystem(ref_design), UnhintedAttitude(ref_design)
        x0 = regulate_start()
        torques = steering_rollout(system, x0, 10)
        if at == "solution":
            torques = solve_ocp(system, x0, MpcConfig(horizon=10)).torques
        grad, value = _Objective(system, x0, PENALTY_WEIGHT).gradient(torques, _predict(system, x0, torques))
        ref_grad, ref_value = _Objective(unhinted, x0, PENALTY_WEIGHT).gradient(
            torques, _predict(unhinted, x0, torques)
        )
        assert repr(value) == repr(ref_value)
        assert np.abs(grad - ref_grad).max() <= 1e-6

    def test_only_tails_take_the_hint(self, ref_design):
        # A solve that stops at its first gradient: the base rollout and
        # the final check step without a hint; tail i's step k (k >= i) is
        # handed the base rollout's state k + 1.
        system = HintRecordingAttitude(ref_design)
        x0 = regulate_start()
        config = MpcConfig(horizon=10, solver=SolverSettings(grad_tol=1e9))
        solution = solve_ocp(system, x0, config, warm_start=np.zeros((10, 3)))
        hints = system.hints
        assert len(hints) == 10 + 2 * 3 * 55 + 10
        assert hints[:10] == [None] * 10 and hints[-10:] == [None] * 10
        expected = [k + 1 for i in range(10) for _ in range(2 * 3) for k in range(i, 10)]
        states = solution.states
        assert all(
            np.array_equal(near.g, states[k].g) and np.array_equal(near.f, states[k].f)
            for near, k in zip(hints[10:-10], expected)
        )


class TestWarmStartShift:
    def test_degenerate_single_step(self, ref_system):
        cfg = MpcConfig(horizon=1)
        state = spinning_state([0.1, 0.0, 0.1], [0.0, 0.0, 0.0], H_REF)
        sol = solve_ocp(ref_system, state, cfg)
        shifted = warm_start_shift(sol, ref_system)
        assert shifted.shape == (1, 3)
        expected = ref_system.project_control(ref_system.local_law(sol.states[-1]))
        assert_allclose(shifted[0], expected)

    def test_shifted_candidate_feasible(self, ref_system):
        cfg = MpcConfig(horizon=8)
        state = rest_state([0.5, -0.3, 0.2])
        sol = solve_ocp(ref_system, state, cfg)
        assert sol.feasible
        successor = ref_system.step(state, sol.first_control)
        shifted = warm_start_shift(sol, ref_system)
        final = successor
        for u in shifted:
            final = ref_system.step(final, u)
        assert ref_system.terminal_cost(final) <= ref_system.terminal_level + 1e-8

    def test_candidate_cost_inequality(self, ref_system):
        cfg = MpcConfig(horizon=8)
        state = rest_state([0.5, -0.3, 0.2])
        sol = solve_ocp(ref_system, state, cfg)
        stage = ref_system.stage_cost(state, sol.first_control)
        successor = ref_system.step(state, sol.first_control)
        candidate_cost = horizon_cost(ref_system, successor, warm_start_shift(sol, ref_system))
        assert candidate_cost - sol.cost + stage <= 1e-8


class TestController:
    def test_carries_warm_start(self, ref_system):
        controller = MpcController(ref_system, MpcConfig(horizon=6))
        state = rest_state([0.3, 0.0, 0.1])
        assert controller.candidate_sequence() is None
        u, sol = controller.step(state)
        assert sol.feasible
        candidate = controller.candidate_sequence()
        assert candidate is not None
        assert candidate.shape == (6, 3)

    def test_infeasible_raises(self):
        flat = DoubleIntegratorSystem(terminal_level=1e-6, control_bound=1e-4)
        controller = MpcController(flat, MpcConfig(horizon=3))
        with pytest.raises(Infeasible):
            controller.step(np.array([5.0, 0.0]))

    def test_infeasible_step_drops_stale_warm_start(self):
        flat = DoubleIntegratorSystem(terminal_level=1e-6, control_bound=1e-4)
        controller = MpcController(flat, MpcConfig(horizon=3))
        controller.step(np.zeros(2))
        assert controller.candidate_sequence() is not None
        with pytest.raises(Infeasible):
            controller.step(np.array([5.0, 0.0]))
        # The old candidate was shifted for the state before the failed
        # step; stepping on starts cold.
        assert controller.candidate_sequence() is None
        u, solution = controller.step(np.zeros(2))
        assert solution.feasible
        assert_allclose(u, 0.0)

    def test_infeasible_names_terminal_excess(self):
        flat = DoubleIntegratorSystem(terminal_level=1e-6, control_bound=1e-4)
        x0 = np.array([5.0, 0.0])
        solution = solve_ocp(flat, x0, MpcConfig(horizon=3))
        excess = solution.terminal_value - 1e-6
        with pytest.raises(Infeasible) as excinfo:
            MpcController(flat, MpcConfig(horizon=3)).step(x0)
        message = str(excinfo.value)
        assert "terminal value" in message
        assert f"by {excess:.3e}" in message
        assert "solvability" not in message

    def test_start_outside_the_domain_names_step(self):
        class ShortMargin(DoubleIntegratorSystem):
            """Reports the margin 0.25 - position after each step and raises
            below zero, as the attitude system does below its floor: a
            position past 0.25 is outside the domain."""

            def step_with_margin(self, x, u):
                x_next = self.step(x, u)
                margin = 0.25 - x_next[0]
                if margin < 0.0:
                    raise NotSolvable(f"margin {margin:.3e} below the floor 0")
                return x_next, margin

        # Coasting at unit speed with almost no control authority: the
        # positions are 0.1, 0.2, 0.3 and 0.4, so step 2 leaves the domain,
        # by 0.05.  The cold guess stops steering there, and its rollout
        # cannot start the descent.
        system = ShortMargin(control_bound=1e-9)
        with pytest.raises(RolloutFailure) as excinfo:
            MpcController(system, MpcConfig(horizon=4)).step(np.array([0.0, 1.0]))
        message = str(excinfo.value)
        assert "rollout failed at step 2: margin -5.000e-02 below the floor 0" in message
        assert excinfo.value.__cause__.step == 2


class TestClosedLoop:
    def test_one_shift_per_step(self, ref_design):
        class Counting(SpacecraftAttitudeSystem):
            calls = 0

            def local_law(self, x):
                self.calls += 1
                return super().local_law(x)

        system = Counting(ref_design)
        run = closed_loop(system, rest_state([0.3, 0.0, 0.1]), MpcConfig(horizon=5), 6)
        assert run.n_steps == 6
        # Steps 1 to 5 each shift the previous solution, appending one
        # local-law control; the candidate cost and the warm start share it.
        assert system.calls == 5

    def test_stays_at_equilibrium(self, ref_system):
        run = closed_loop(
            ref_system, SpacecraftState.identity(), MpcConfig(horizon=5), 5
        )
        assert np.max(np.abs(run.controls)) <= 1e-8
        assert run.distances[-1] <= 1e-10
        assert run.converged

    def test_small_tumble_converges_and_chain_holds(self, ref_system):
        state0 = spinning_state([0.3, -0.2, 0.25], [0.02, 0.01, -0.01], H_REF)
        run = closed_loop(ref_system, state0, MpcConfig(horizon=8), 40, distance_tol=1e-2)
        assert run.converged
        chain = run.candidate_costs[1:] - run.optimal_costs[:-1] + run.stage_costs[:-1]
        assert np.nanmax(chain) <= 1e-8
        assert np.all(run.violations <= 1e-8)

    def test_monotone_candidate_envelope(self, ref_system):
        state0 = spinning_state([0.3, -0.2, 0.25], [0.0, 0.0, 0.0], H_REF)
        run = closed_loop(ref_system, state0, MpcConfig(horizon=8), 30)
        envelope = np.fmin.accumulate(
            np.where(np.isnan(run.candidate_costs), np.inf, run.candidate_costs)
        )
        assert np.all(np.diff(envelope) <= 1e-12)

    def test_infeasible_reports_step(self):
        flat = DoubleIntegratorSystem(terminal_level=1e-4, control_bound=1e-3)
        with pytest.raises(Infeasible) as excinfo:
            closed_loop(flat, np.array([3.0, 0.0]), MpcConfig(horizon=3), 5)
        assert excinfo.value.step == 0
