import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from so3mpc import lgvi
from so3mpc.errors import Infeasible, NotSolvable, RolloutFailure
from so3mpc.flat import DoubleIntegratorSystem
from so3mpc.lgvi import SpacecraftState, rollout
from so3mpc.mpc import (
    PENALTY_WEIGHT,
    ManifoldSystem,
    MpcConfig,
    _Objective,
    _project_rows,
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
from so3mpc.attitude import SpacecraftAttitudeSystem, rest_state, spinning_state
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
    contract (steering control, control projection, margin floor)."""

    control_dim = 1
    P = (1.0 + math.sqrt(5.0)) / 2.0

    def step(self, x, u):
        return x + u

    def quadratic_model(self, states, torques):
        ones = np.ones((len(torques), 1, 1))
        return QuadraticModel(ones, ones, 2.0 * ones, 2.0 * ones, 2.0 * self.P * ones[0])

    def distance(self, x1, x2):
        return float(np.linalg.norm(x1 - x2))

    @property
    def equilibrium_state(self):
        return np.zeros(1)

    def stage_cost(self, x, u):
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
        assert system.step_margin_floor == 0.0
        # The cold start is the steering rollout of zero controls.
        assert_allclose(steering_rollout(system, x0, 6), np.zeros((6, 1)))
        sol = solve_ocp(system, x0, MpcConfig(horizon=6, solver=TIGHT))
        assert sol.feasible
        assert not sol.shortfalls.any()
        assert sol.cost == pytest.approx(system.terminal_cost(x0), rel=1e-9)
        assert_allclose(sol.first_control, system.local_law(x0), rtol=1e-6)


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


class TestObjectiveGradient:
    def test_one_sided_next_to_unsolvable_control(self):
        # u[2] + FD_STEP leaves the solvable set; the entry must fall back to
        # the one-sided difference instead of a 1e30 sentinel.
        system = BoundedStepIntegrator()
        x0 = np.array([0.5, -0.3])
        controls = np.array([[0.2], [-0.4], [1.0 - 5e-7], [0.1], [0.3]])
        objective = _Objective(system, x0, 1e4)
        grad, value = objective.gradient(controls)
        assert value == pytest.approx(horizon_cost(system, x0, controls), rel=1e-14)
        assert_allclose(grad, adjoint_gradient(system, x0, controls), rtol=1e-4, atol=1e-6)
        over = controls.copy()
        over[2, 0] = 1.0 + 5e-7
        assert objective.trial(over) == (math.inf, None)

    def test_both_sides_unsolvable_names_step_and_entry(self):
        system = KnifeEdgeIntegrator()
        controls = np.array([[0.2], [0.5], [0.1]])
        with pytest.raises(RolloutFailure, match="step 1, control entry 0"):
            _Objective(system, np.array([0.5, -0.3]), 1e4).gradient(controls)

    @pytest.mark.parametrize("which", ["attitude", "flat"])
    def test_reused_base_rollout_matches_recomputed(self, which, ref_system):
        # The line search hands its accepted rollout to the next gradient;
        # that gradient must equal the one that rolls the base out itself.
        if which == "attitude":
            system, x0 = ref_system, spinning_state([0.5, -0.3, 0.8], [0.2, 0.1, -0.3], H_REF)
            controls = np.random.default_rng(7).uniform(-20.0, 20.0, (10, 3))
        else:
            system, x0 = DoubleIntegratorSystem(), np.array([0.5, -0.3])
            controls = np.array([[0.2], [-0.4], [0.7], [0.1], [0.3]])
        objective = _Objective(system, x0, 1e4)
        value, data = objective.trial(controls)
        reused, reused_value = objective.gradient(controls, base=data)
        fresh, fresh_value = objective.gradient(controls)
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
        # One penalty round, so the reported residual used this weight.
        objective = _Objective(weak_system, x0, PENALTY_WEIGHT)
        grad, _ = objective.gradient(solution.torques)
        u = solution.torques
        assert solution.kkt_residual == float(np.linalg.norm(u - _project_rows(weak_system, u - grad)))
        assert solution.kkt_residual <= self.SOLVER.grad_tol
        saturated = np.abs(u) == weak_system.torque_bound
        assume(saturated.any())
        # At +bound the descent direction -grad must point up, at -bound down.
        outward = grad[saturated] * np.sign(u[saturated])
        assert np.all(outward <= self.SOLVER.grad_tol)


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
        objective = _Objective(BoundedStepIntegrator(), np.array([0.5, -0.3]), 1e4)
        with pytest.raises(RolloutFailure, match="step 2"):
            objective.gradient(self.controls)

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
        # a step or a terminal-cost call of its own.
        system = RecordingAttitude(ref_design)
        points = []
        gradient = _Objective.gradient

        def recorded(objective, torques, base=None):
            points.append(torques.copy())
            return gradient(objective, torques, base)

        monkeypatch.setattr(_Objective, "gradient", recorded)
        x0 = rest_state([0.8, 0.2, -0.4])
        solution = solve_ocp(system, x0, MpcConfig(horizon=6))
        assert solution.iterations == len(system.builds) == 3
        for (torques, states, quiet), point in zip(system.builds, points):
            assert np.array_equal(torques, point)
            expected = _predict(system, x0, torques).states
            assert all(np.array_equal(a.g, b.g) and np.array_equal(a.f, b.f) for a, b in zip(states, expected))
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
        # starting every tail step at the linearized root took 1.62.
        x0 = regulate_start()
        torques = steering_rollout(ref_system, x0, 10)
        base = _predict(ref_system, x0, torques)
        counts = {"updates": 0, "steps": 0}
        update, increment = lgvi._newton_update, lgvi._implicit_increment

        def counted_update(*args):
            counts["updates"] += 1
            return update(*args)

        def counted_increment(*args):
            counts["steps"] += 1
            return increment(*args)

        monkeypatch.setattr(lgvi, "_newton_update", counted_update)
        monkeypatch.setattr(lgvi, "_implicit_increment", counted_increment)
        _Objective(ref_system, x0, PENALTY_WEIGHT).gradient(torques, base=base)
        assert counts["steps"] == 2 * 3 * 55
        assert counts["updates"] <= 1.2 * counts["steps"]

    @pytest.mark.parametrize("at", ["steering rollout", "solution"])
    def test_gradient_matches_unhinted_gradient(self, ref_design, at):
        # The start value moves the tails at round-off only: within the
        # finite-difference gradient's own floor, about 6e-7.
        system, unhinted = SpacecraftAttitudeSystem(ref_design), UnhintedAttitude(ref_design)
        x0 = regulate_start()
        torques = steering_rollout(system, x0, 10)
        if at == "solution":
            torques = solve_ocp(system, x0, MpcConfig(horizon=10)).torques
        grad, value = _Objective(system, x0, PENALTY_WEIGHT).gradient(torques)
        ref_grad, ref_value = _Objective(unhinted, x0, PENALTY_WEIGHT).gradient(torques)
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

    def test_infeasible_names_solvability_shortfall_and_step(self):
        class ShortMargin(DoubleIntegratorSystem):
            """Reports the margin 0.25 - position after each step; the floor
            is zero, so positions past 0.25 fall short."""

            def step_with_margin(self, x, u):
                x_next = self.step(x, u)
                return x_next, 0.25 - x_next[0]

        # Coasting at unit speed with almost no control authority: the
        # positions are 0.1, 0.2, 0.3 and 0.4, so steps 2 and 3 fall short,
        # step 3 by 0.15.
        system = ShortMargin(control_bound=1e-9)
        with pytest.raises(Infeasible) as excinfo:
            MpcController(system, MpcConfig(horizon=4)).step(np.array([0.0, 1.0]))
        message = str(excinfo.value)
        assert "solvability margin below its floor by 1.500e-01 at predicted step 3" in message
        assert "terminal" not in message


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
