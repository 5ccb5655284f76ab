import json
import re

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from so3mpc import terminal
from so3mpc.errors import (
    DesignFileError,
    NoConvergence,
    NoFeasibleLevel,
    NotSolvable,
    NotStabilizable,
    OutOfChart,
)
from so3mpc.lgvi import SpacecraftState, lgvi_step
from so3mpc.so3 import NEAR_PI, SMALL_ANGLE, exp_so3, exp_so3_rows, hat, log_so3
from so3mpc.terminal import (
    Linearization,
    QuadraticCostData,
    StageWeights,
    TerminalDesign,
    build_cost_data,
    build_linearization,
    calibrate_level,
    coordinates,
    dare_residual,
    default_weights,
    design_terminal,
    evaluate_level,
    feedback,
    lqr_gain,
    solve_dare,
    stage_hessians,
    terminal_hessian,
    terminal_value,
    tilde_transform,
    _ellipsoid_samples,
    _level_ceiling,
)

from conftest import H_REF, J_REF, TORQUE_BOUND_REF, perturbed

GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0


def fixed_point_dare(lin, cost):
    """Oracle: the Riccati difference equation iterated from P = Q until an
    update no longer changes P beyond round-off."""
    a, b = lin
    q, r = cost
    p = q
    for _ in range(200_000):
        apb = a.T @ p @ b
        p_next = a.T @ p @ a + q - apb @ np.linalg.solve(b.T @ p @ b + r, apb.T)
        p_next = 0.5 * (p_next + p_next.T)
        if np.linalg.norm(p_next - p) <= 1e-15 * np.linalg.norm(p_next):
            return p_next
        p = p_next
    raise AssertionError("the fixed-point oracle did not converge")


def random_spd(rng, scale):
    m = rng.standard_normal((3, 3))
    return scale * (m @ m.T / 3.0 + 0.2 * np.eye(3))


def random_problem(seed, h):
    """A seeded non-diagonal inertia (principal moments in [1, 2], so the
    triangle inequalities hold, turned by a random rotation) with random
    SPD weights and decay."""
    rng = np.random.default_rng(seed)
    turn = exp_so3(rng.uniform(-np.pi, np.pi, 3) / np.sqrt(3.0))
    inertia = turn @ np.diag(rng.uniform(1.0, 2.0, 3)) @ turn.T
    inertia = 0.5 * (inertia + inertia.T)
    weights = StageWeights(
        random_spd(rng, 1.0), random_spd(rng, 1.0), random_spd(rng, 2.0), rng.uniform(0.05, 0.5)
    )
    return build_linearization(h, inertia), build_cost_data(weights)


class TestTildeTransform:
    def test_identity(self):
        assert_allclose(tilde_transform(np.eye(3)), 2.0 * np.eye(3))

    def test_twice_identity(self):
        assert_allclose(tilde_transform(2.0 * np.eye(3)), 4.0 * np.eye(3))

    def test_diagonal(self):
        # trace = 6, so 6 I - diag(1, 2, 3).
        assert_allclose(tilde_transform(np.diag([1.0, 2.0, 3.0])), np.diag([5.0, 4.0, 3.0]))

    def test_linear(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            a = rng.standard_normal((3, 3))
            a = a + a.T
            b = rng.standard_normal((3, 3))
            b = b + b.T
            al, be = rng.standard_normal(2)
            assert_allclose(
                tilde_transform(al * a + be * b),
                al * tilde_transform(a) + be * tilde_transform(b),
                atol=1e-12,
            )

    def test_takes_symmetric_part(self):
        # tilde(M) = tilde(sym(M)): the trace-form cost sees only sym(M).
        m = np.array([[0.0, 1.0, 0], [0, 0, 0], [0, 0, 0]])
        assert_allclose(tilde_transform(m), -0.5 * (m + m.T), atol=0.0)
        rng = np.random.default_rng(2)
        for _ in range(20):
            m = rng.standard_normal((3, 3))
            sym = 0.5 * (m + m.T)
            assert tilde_transform(m).tobytes() == tilde_transform(sym).tobytes()

    def test_stack_matches_single_matrices(self):
        stack = np.random.default_rng(3).standard_normal((7, 3, 3))
        tilde = tilde_transform(stack)
        assert tilde.shape == (7, 3, 3)
        for m, t in zip(stack, tilde):
            assert t.tobytes() == tilde_transform(m).tobytes()


def skew_trace_identity_check(a, b, r) -> float:
    """Gap |trace(hat(a)^T R hat(b)) - a^T (trace(R) I - R) b|: the identity
    behind the quadratic expansion of the trace-form cost."""
    a = np.asarray(a, dtype=float).reshape(3)
    b = np.asarray(b, dtype=float).reshape(3)
    r = np.asarray(r, dtype=float)
    lhs = float(np.trace(hat(a).T @ r @ hat(b)))
    rhs = float(a @ (np.trace(r) * np.eye(3) - r) @ b)
    return abs(lhs - rhs)


class TestSkewTraceIdentity:
    def test_unit_axis_case(self):
        # hat(e3)^T hat(e3) = diag(1, 1, 0); trace against 2I gives 4.
        assert skew_trace_identity_check([0, 0, 1], [0, 0, 1], 2.0 * np.eye(3)) <= 1e-12

    def test_zero_vector(self):
        assert skew_trace_identity_check([0, 0, 0], [1, 2, 3], np.eye(3)) == 0.0

    def test_random(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            a, b = rng.standard_normal(3), rng.standard_normal(3)
            r = rng.standard_normal((3, 3))
            r = r + r.T
            assert skew_trace_identity_check(a, b, r) <= 1e-12


class TestLinearization:
    def test_blocks(self):
        lin = build_linearization(0.1, J_REF)
        assert_allclose(lin.A[:3, 3:], 0.1 * np.eye(3))
        assert_allclose(lin.A[:3, :3], np.eye(3))
        assert_allclose(lin.A[3:, 3:], np.eye(3))
        assert_allclose(lin.A[3:, :3], np.zeros((3, 3)))
        assert_allclose(lin.B[:3], np.zeros((3, 3)))

    def test_unit_step_identity_coupling(self):
        # trace(J) I - J = I for J = I/2, so a unit step couples by I.
        lin = build_linearization(1.0, 0.5 * np.eye(3))
        assert_allclose(lin.B, np.vstack([np.zeros((3, 3)), np.eye(3)]))

    def test_inertia_coupling_is_exact_jacobian(self):
        lin = build_linearization(H_REF, J_REF)
        tilde = np.trace(J_REF) * np.eye(3) - J_REF
        assert_allclose(lin.B[3:], H_REF * np.linalg.inv(tilde))

    def test_controllability(self):
        for h in (0.01, 0.1, 1.0, 7.3):
            for inertia in (np.eye(3), J_REF):
                lin = build_linearization(h, inertia)
                ctrb = np.hstack([np.linalg.matrix_power(lin.A, k) @ lin.B for k in range(6)])
                assert np.linalg.matrix_rank(ctrb) == 6

    def test_rejects_nonpositive_step(self):
        with pytest.raises(ValueError):
            build_linearization(0.0, J_REF)


class TestCostData:
    def test_reference_values(self, ref_weights):
        cost = build_cost_data(ref_weights)
        assert_allclose(cost.Q[:3, :3], 20.0 * np.eye(3))
        assert_allclose(cost.Q[3:, 3:], 10.0 * np.diag([2.7, 2.5, 2.2]))
        assert_allclose(cost.Q[:3, 3:], np.zeros((3, 3)))
        assert_allclose(cost.R_dare, 40.0 * np.eye(3))

    def test_decay_boundary_rejected(self):
        with pytest.raises(ValueError):
            StageWeights(np.eye(3), np.eye(3), np.eye(3), 1.0)
        with pytest.raises(ValueError):
            StageWeights(np.eye(3), np.eye(3), np.eye(3), 0.0)

    def test_tilde_of_spd_weights_stays_spd(self):
        # Each eigenvalue of the tilde transform is the sum of the other two
        # eigenvalues of the input, so SPD weights always produce SPD blocks.
        rng = np.random.default_rng(3)
        for _ in range(50):
            eigs = rng.uniform(0.01, 10.0, 3)
            basis, _ = np.linalg.qr(rng.standard_normal((3, 3)))
            spd = basis @ np.diag(eigs) @ basis.T
            cost = build_cost_data(StageWeights(spd, np.eye(3), np.eye(3), 0.1))
            assert np.linalg.eigvalsh(cost.Q)[0] > 0.0
            assert np.linalg.eigvalsh(cost.R_dare)[0] > 0.0


class TestDare:
    def test_scalar_golden_ratio(self):
        lin = Linearization(np.array([[1.0]]), np.array([[1.0]]))
        cost = QuadraticCostData(np.array([[1.0]]), np.array([[1.0]]))
        p = solve_dare(lin, cost)
        assert p[0, 0] == pytest.approx(GOLDEN, abs=1e-10)

    def test_scalar_gain(self):
        lin = Linearization(np.array([[1.0]]), np.array([[1.0]]))
        cost = QuadraticCostData(np.array([[1.0]]), np.array([[1.0]]))
        p = solve_dare(lin, cost)
        k = lqr_gain(p, lin, cost)
        assert k[0, 0] == pytest.approx(p[0, 0] / (p[0, 0] + 1.0), abs=1e-12)
        assert abs(1.0 - k[0, 0]) < 1.0

    def test_homogeneity(self, ref_weights):
        lin = build_linearization(H_REF, J_REF)
        cost = build_cost_data(ref_weights)
        p1 = solve_dare(lin, cost)
        scaled = QuadraticCostData(3.0 * cost.Q, 3.0 * cost.R_dare)
        p3 = solve_dare(lin, scaled)
        assert_allclose(p3, 3.0 * p1, rtol=1e-9)

    def test_reference_design_residual_and_stability(self, ref_weights):
        lin = build_linearization(H_REF, J_REF)
        cost = build_cost_data(ref_weights)
        p = solve_dare(lin, cost)
        assert dare_residual(p, lin, cost) <= 1e-8
        k = lqr_gain(p, lin, cost)
        rho = np.max(np.abs(np.linalg.eigvals(lin.A - lin.B @ k)))
        assert rho < 1.0

    def test_matches_scipy(self, ref_weights):
        lin = build_linearization(H_REF, J_REF)
        cost = build_cost_data(ref_weights)
        p = solve_dare(lin, cost)
        p_ref = scipy.linalg.solve_discrete_are(lin.A, lin.B, cost.Q, cost.R_dare)
        assert_allclose(p, p_ref, rtol=1e-8, atol=1e-8)

    def test_gain_reproduces_residual_identity(self, ref_weights):
        lin = build_linearization(H_REF, J_REF)
        cost = build_cost_data(ref_weights)
        p = solve_dare(lin, cost)
        k = lqr_gain(p, lin, cost)
        a_cl = lin.A - lin.B @ k
        # P = A_cl^T P A_cl + Q + K^T R K is the completed-square form.
        rebuilt = a_cl.T @ p @ a_cl + cost.Q + k.T @ cost.R_dare @ k
        assert np.linalg.norm(rebuilt - p) <= 1e-8

    @pytest.mark.parametrize("h", [0.05, 0.1, 0.5])
    @pytest.mark.parametrize("seed", range(20))
    def test_doubling_matches_fixed_point_iteration(self, seed, h):
        lin, cost = random_problem(seed, h)
        p = solve_dare(lin, cost)
        assert_allclose(p, fixed_point_dare(lin, cost), rtol=1e-10)
        # Exactly symmetric: eigh and the certificate's samples read one triangle.
        assert np.array_equal(p, p.T)

    def test_double_integrator_matches_fixed_point_iteration(self):
        lin = Linearization(np.array([[1.0, 0.1], [0.0, 1.0]]), np.array([[0.0], [0.1]]))
        cost = QuadraticCostData(np.diag([1.0, 0.5]), np.array([[0.1]]))
        assert_allclose(solve_dare(lin, cost), fixed_point_dare(lin, cost), rtol=1e-10)

    def test_reference_residual_at_round_off(self, ref_weights):
        lin = build_linearization(H_REF, J_REF)
        cost = build_cost_data(ref_weights)
        assert dare_residual(solve_dare(lin, cost), lin, cost) <= 5e-13

    def test_doubling_cap_raises_no_convergence(self, ref_weights, monkeypatch):
        monkeypatch.setattr(terminal, "_DARE_MAX_DOUBLINGS", 1)
        lin = build_linearization(H_REF, J_REF)
        cost = build_cost_data(ref_weights)
        with pytest.raises(NoConvergence, match="1 doublings"):
            solve_dare(lin, cost)

    def test_zero_state_zero_control(self, ref_design):
        xi = np.zeros(6)
        assert_allclose(-(ref_design.K @ xi), np.zeros(3))

    def test_not_stabilizable(self):
        lin = Linearization(np.eye(2), np.zeros((2, 1)))
        cost = QuadraticCostData(np.eye(2), np.eye(1))
        with pytest.raises(NotStabilizable):
            solve_dare(lin, cost)


# Rotations by exactly pi: symmetric, so the antisymmetric part is zero.
EXACT_CUTS = (
    np.diag([-1.0, -1.0, 1.0]),
    np.diag([1.0, -1.0, -1.0]),
    np.array([[-0.28, 0.96, 0.0], [0.96, 0.28, 0.0], [0.0, 0.0, -1.0]]),
)
EDGE_ANGLES = (
    0.0,
    0.5 * SMALL_ANGLE,
    SMALL_ANGLE,
    2.0 * SMALL_ANGLE,
    np.pi - 1.001 * NEAR_PI,
    np.pi - NEAR_PI,
    np.pi - 0.999 * NEAR_PI,
    np.pi,
)
_axes = st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=3, max_size=3).filter(
    lambda v: np.linalg.norm(v) > 1e-3
)
_rotations = st.one_of(
    st.builds(
        lambda axis, angle: exp_so3(angle * np.asarray(axis) / np.linalg.norm(axis)),
        _axes,
        st.one_of(st.floats(min_value=0.0, max_value=np.pi), st.sampled_from(EDGE_ANGLES)),
    ),
    st.sampled_from(EXACT_CUTS),
)


class TestCoordinatesOnePass:
    """The single-state chart coordinates take both logarithms in one pass;
    they must equal the two separate ``log_so3`` calls bit for bit."""

    @settings(deadline=None, max_examples=400)
    @given(_rotations, _rotations)
    @example(EXACT_CUTS[0], EXACT_CUTS[2])
    @example(EXACT_CUTS[2], EXACT_CUTS[1])
    @example(np.eye(3), exp_so3([0.0, 0.0, np.pi - NEAR_PI]))
    @example(exp_so3([SMALL_ANGLE, 0.0, 0.0]), exp_so3([0.0, 0.5 * SMALL_ANGLE, 0.0]))
    def test_matches_separate_logs(self, g, f):
        xi = coordinates(SpacecraftState(g, f), H_REF)
        ref = np.concatenate([log_so3(g), log_so3(f) / H_REF])
        assert xi.shape == (6,)
        assert xi.tobytes() == ref.tobytes()


def second_differences(fn, dim, delta=1e-4):
    """Central second differences of ``fn`` at zero, a dim x dim matrix."""
    basis = delta * np.eye(dim)
    hessian = np.empty((dim, dim))
    for i, a in enumerate(basis):
        for j, b in enumerate(basis):
            hessian[i, j] = (fn(a + b) - fn(a - b) - fn(b - a) + fn(-a - b)) / (4.0 * delta**2)
    return hessian


class TestTangentHessians:
    """The stage and terminal Hessians that the solver's model reads along a
    rollout, in the tangent coordinates g exp(hat(zeta)), f exp(h hat(omega))."""

    def test_equilibrium_values_are_the_design_model(self, ref_weights, ref_design):
        q, r = stage_hessians(ref_weights, SpacecraftState.identity())
        expected = scipy.linalg.block_diag(
            tilde_transform(ref_weights.attitude), tilde_transform(ref_weights.rate)
        )
        assert q.tobytes() == expected.tobytes()
        assert r.tobytes() == tilde_transform(ref_weights.torque).tobytes()
        p = terminal_hessian(ref_design.P, SpacecraftState.identity(), H_REF)
        assert p.tobytes() == (2.0 * ref_design.P).tobytes()

    def test_stage_hessian_matches_second_differences(self, ref_weights):
        # States within 90 degrees, where both blocks are positive definite
        # and nothing is clipped.
        rng = np.random.default_rng(31)
        u = np.zeros(3)
        for _ in range(6):
            state = SpacecraftState(
                exp_so3(rng.uniform(-0.8, 0.8, 3)), exp_so3(H_REF * rng.uniform(-5.0, 5.0, 3))
            )
            q, _ = stage_hessians(ref_weights, state)
            ref = second_differences(
                lambda d: ref_weights.stage_cost(perturbed(state, d, H_REF), u, H_REF), 6
            )
            assert np.linalg.norm(q - ref) <= 1e-6 * np.linalg.norm(ref)

    def test_stage_hessian_is_clipped_to_positive_semidefinite(self, ref_weights):
        # With Q_g = I the attitude block has eigenvalues 2 cos(theta) (along
        # the axis) and 1 + cos(theta) (twice): past 90 degrees the first is
        # negative, and the clip sets it to zero.
        axis = np.array([0.48, 0.6, 0.64])
        for angle in (2.0, 3.0, np.pi):
            state = SpacecraftState(exp_so3(angle * axis), np.eye(3))
            q, _ = stage_hessians(ref_weights, state)
            assert_allclose(q[:3, :3] @ axis, 0.0, atol=1e-12)
            assert_allclose(
                np.linalg.eigvalsh(q[:3, :3]), [0.0, 1.0 + np.cos(angle), 1.0 + np.cos(angle)], atol=1e-12
            )
            assert q[3:, 3:].tobytes() == tilde_transform(ref_weights.rate).tobytes()

    def test_stack_matches_single_states(self, ref_weights):
        rng = np.random.default_rng(32)
        g = np.array([exp_so3(rng.uniform(-np.pi, np.pi, 3)) for _ in range(6)])
        f = np.array([exp_so3(H_REF * rng.uniform(-20.0, 20.0, 3)) for _ in range(6)])
        q, _ = stage_hessians(ref_weights, SpacecraftState(g, f))
        for k in range(6):
            single, _ = stage_hessians(ref_weights, SpacecraftState(g[k], f[k]))
            assert_allclose(q[k], single, rtol=1e-13, atol=1e-13)

    @pytest.mark.parametrize("angle", [0.0, 0.4, 2.5, np.pi - 1e-6])
    def test_terminal_hessian_is_the_chart_gauss_newton_term(self, ref_design, angle):
        # 2 C^T P C with C from central differences of the chart coordinates.
        axis = np.array([0.2, -0.6, 0.77])
        state = SpacecraftState(
            exp_so3(angle * axis / np.linalg.norm(axis)), exp_so3(H_REF * np.array([0.5, -0.2, 0.3]))
        )
        delta = 1e-7
        chart = np.column_stack([
            (coordinates(perturbed(state, delta * e, H_REF), H_REF)
             - coordinates(perturbed(state, -delta * e, H_REF), H_REF)) / (2.0 * delta)
            for e in np.eye(6)
        ])
        ref = 2.0 * chart.T @ ref_design.P @ chart
        hessian = terminal_hessian(ref_design.P, state, H_REF)
        assert np.linalg.norm(hessian - ref) <= 1e-6 * np.linalg.norm(ref)

    def test_terminal_hessian_finite_at_the_cut(self, ref_design):
        for g in (exp_so3([0.0, 0.0, np.pi]), np.diag([-1.0, -1.0, 1.0]), np.diag([1.0, -1.0, -1.0])):
            hessian = terminal_hessian(ref_design.P, SpacecraftState(g, np.eye(3)), H_REF)
            assert np.all(np.isfinite(hessian))
            assert np.linalg.eigvalsh(hessian)[0] > 0.0


class TestTerminalCostAndLaw:
    def test_zero_at_equilibrium(self, ref_system):
        state = SpacecraftState.identity()
        assert ref_system.terminal_cost(state) == 0.0
        assert_allclose(ref_system.local_law(state), np.zeros(3))

    def test_positive_away_from_equilibrium(self, ref_system):
        rng = np.random.default_rng(2)
        for _ in range(100):
            xi = 0.5 * rng.standard_normal(6)
            state = SpacecraftState(exp_so3(xi[:3]), exp_so3(H_REF * xi[3:]))
            if np.linalg.norm(xi) < 1e-12:
                continue
            assert ref_system.terminal_cost(state) > 0.0

    def test_out_of_chart(self, ref_system):
        state = SpacecraftState(exp_so3([0, 0, np.pi]), np.eye(3))
        with pytest.raises(OutOfChart):
            ref_system.local_law(state)

    def test_branch_cut_excluded_from_terminal_set(self, ref_system):
        # The calibration ceiling keeps the level below min-eig(P) pi^2, so
        # 180-degree attitudes can never satisfy the terminal constraint and
        # the log's sign ambiguity never reaches the local law.
        p = ref_system.design.P
        assert ref_system.terminal_level < np.linalg.eigvalsh(p)[0] * np.pi**2
        rng = np.random.default_rng(21)
        for _ in range(20):
            axis = rng.standard_normal(3)
            axis /= np.linalg.norm(axis)
            state = SpacecraftState(exp_so3(np.pi * axis), np.eye(3))
            assert ref_system.terminal_cost(state) > ref_system.terminal_level

    def test_linear_consistency_of_one_step(self, ref_system):
        # One integrator step under the local law matches the design model to
        # second order in the state.
        lin = build_linearization(H_REF, J_REF)
        rng = np.random.default_rng(3)
        worst = 0.0
        for _ in range(200):
            xi = rng.standard_normal(6)
            xi *= 1e-4 * rng.uniform(0, 1) / np.linalg.norm(xi)
            state = SpacecraftState(exp_so3(xi[:3]), exp_so3(H_REF * xi[3:]))
            chart = coordinates(state, H_REF)
            tau = ref_system.local_law(state)
            nxt = lgvi_step(state, tau, H_REF, J_REF)
            predicted = lin.A @ chart + lin.B @ tau
            worst = max(worst, np.linalg.norm(coordinates(nxt, H_REF) - predicted))
        assert worst <= 1e-6


class TestCalibration:
    def test_reference_level_positive_and_certified(self, ref_design):
        assert ref_design.c > 0.0
        assert ref_design.certification.n_samples == 1000
        assert ref_design.certification.max_violation <= 1e-10

    def test_fresh_samples_certify(self, ref_design, ref_weights):
        rng = np.random.default_rng(99)
        samples = _ellipsoid_samples(ref_design.P, 100_000, rng)
        margins = evaluate_level(
            ref_design.P, ref_design.K, ref_weights, H_REF, J_REF,
            TORQUE_BOUND_REF, ref_design.c, samples,
        )
        assert margins["passed"]

    def test_tiny_torque_bound_shrinks_level(self, ref_design, ref_weights):
        level_small, _ = calibrate_level(
            ref_design.P, ref_design.K, ref_weights, H_REF, J_REF,
            torque_bound=1e-3, n_samples=200, seed=0,
        )
        assert level_small < ref_design.c

    def test_no_samples_rejected(self, ref_design, ref_weights):
        # Zero samples would certify the chart ceiling vacuously.
        with pytest.raises(ValueError):
            calibrate_level(
                ref_design.P, ref_design.K, ref_weights, H_REF, J_REF,
                TORQUE_BOUND_REF, n_samples=0,
            )

    def test_zero_torque_bound_infeasible(self, ref_design, ref_weights):
        with pytest.raises(NoFeasibleLevel):
            calibrate_level(
                ref_design.P, ref_design.K, ref_weights, H_REF, J_REF,
                torque_bound=0.0, n_samples=200, seed=0,
            )

    def test_nested_levels(self, ref_design, ref_weights):
        # Conditions passing at the calibrated level also pass at half of it.
        rng = np.random.default_rng(7)
        samples = _ellipsoid_samples(ref_design.P, 300, rng)
        for level in (ref_design.c, ref_design.c / 2.0):
            margins = evaluate_level(
                ref_design.P, ref_design.K, ref_weights, H_REF, J_REF,
                TORQUE_BOUND_REF, level, samples,
            )
            assert margins["passed"]

    def test_terminal_cost_dominates_stage_cost(self, ref_design, ref_system, ref_weights):
        # F(x) >= r L(x, 0) on chart samples, for the ratio computed from the
        # smallest terminal eigenvalue and the largest quadratic stage block:
        # the trace-form stage cost is below its quadratic majorant, so
        # r = min eig(P) / max eig(blockdiag of tilde weights / 2) works.
        q_att = tilde_transform(ref_weights.attitude)
        q_rate = tilde_transform(ref_weights.rate)
        stage_block = 0.5 * max(
            np.linalg.eigvalsh(q_att)[-1], np.linalg.eigvalsh(q_rate)[-1]
        )
        ratio = np.linalg.eigvalsh(ref_design.P)[0] / stage_block
        assert ratio > 0.0
        rng = np.random.default_rng(11)
        samples = _ellipsoid_samples(ref_design.P, 200, rng)
        for xi in np.sqrt(ref_design.c) * samples:
            state = SpacecraftState(exp_so3(xi[:3]), exp_so3(H_REF * xi[3:]))
            value = ref_system.terminal_cost(state)
            stage_free = ref_system.stage_cost(state, np.zeros(3))
            assert value >= ratio * stage_free - 1e-9


J_ODD = np.diag([0.2, 1.0, 3.0])
H_ODD = 0.5


@pytest.fixture(scope="module")
def odd_design():
    """A design whose calibration meets levels with unsolvable steps."""
    return design_terminal(J_ODD, H_ODD, default_weights(J_ODD), torque_bound=1.0, n_samples=300)


def scalar_margins(design, weights, h, inertia, torque_bound, level, unit_samples):
    """The certificate's margins by a loop over samples with the scalar
    functions, over the samples whose step is solvable, plus the number of
    unsolvable samples."""
    torques, succ_values, decreases = [], [], []
    unsolvable = 0
    for xi in np.sqrt(level) * unit_samples:
        state = SpacecraftState(exp_so3(xi[:3]), exp_so3(h * xi[3:]))
        chart = coordinates(state, h)
        torque = feedback(design.K, chart)
        try:
            successor = lgvi_step(state, torque, h, inertia)
        except NotSolvable:
            unsolvable += 1
            continue
        succ_value = terminal_value(design.P, coordinates(successor, h))
        torques.append(float(np.max(np.abs(torque))) - torque_bound)
        succ_values.append(succ_value - level)
        decreases.append(
            succ_value - terminal_value(design.P, chart) + weights.stage_cost(state, torque, h)
        )
    return max(torques), max(succ_values), max(decreases), unsolvable


class TestBatchedCertificate:
    """evaluate_level runs every sample as one array operation; the scalar
    functions are its reference."""

    def test_matches_scalar_loop(self, ref_design, ref_weights):
        samples = _ellipsoid_samples(ref_design.P, 300, np.random.default_rng(5))
        report = evaluate_level(
            ref_design.P, ref_design.K, ref_weights, H_REF, J_REF,
            TORQUE_BOUND_REF, ref_design.c, samples,
        )
        torque, invariance, decrease, unsolvable = scalar_margins(
            ref_design, ref_weights, H_REF, J_REF, TORQUE_BOUND_REF, ref_design.c, samples
        )
        assert unsolvable == 0
        assert report["torque"] == pytest.approx(torque, abs=1e-12)
        assert report["invariance"] == pytest.approx(invariance, abs=1e-9)
        assert report["decrease"] == pytest.approx(decrease, abs=1e-9)

    def test_odd_inertia_level(self, odd_design):
        # Three of its nine level evaluations meet an unsolvable step.
        assert odd_design.c == 28.316654095520573

    def test_unsolvable_samples_fail_and_margins_ignore_order(self, odd_design):
        weights = default_weights(J_ODD)
        level = _level_ceiling(odd_design.P, H_ODD)
        samples = _ellipsoid_samples(odd_design.P, 300, np.random.default_rng(0))
        torque, _, decrease, unsolvable = scalar_margins(
            odd_design, weights, H_ODD, J_ODD, 1.0, level, samples
        )
        assert 0 < unsolvable < len(samples)
        for order in (samples, samples[::-1]):
            report = evaluate_level(
                odd_design.P, odd_design.K, weights, H_ODD, J_ODD, 1.0, level, order
            )
            assert report["invariance"] == np.inf
            assert not report["passed"]
            # Taken over the solvable samples, wherever they stand.
            assert report["torque"] == pytest.approx(torque, abs=1e-12)
            assert report["decrease"] == pytest.approx(decrease, abs=1e-9)

    def test_cost_formulas_take_stacks(self, ref_design, ref_weights):
        rng = np.random.default_rng(6)
        xi = rng.standard_normal((50, 6))
        torques = rng.standard_normal((50, 3))
        states = SpacecraftState(exp_so3_rows(xi[:, :3]), exp_so3_rows(H_REF * xi[:, 3:]))
        values = terminal_value(ref_design.P, xi)
        laws = feedback(ref_design.K, xi)
        stages = ref_weights.stage_cost(states, torques, H_REF)
        chart = coordinates(states, H_REF)
        for i in range(50):
            state = SpacecraftState(states.g[i], states.f[i])
            assert values[i] == pytest.approx(terminal_value(ref_design.P, xi[i]), rel=1e-14)
            assert_allclose(laws[i], feedback(ref_design.K, xi[i]), rtol=1e-14, atol=1e-14)
            assert stages[i] == pytest.approx(ref_weights.stage_cost(state, torques[i], H_REF), rel=1e-14)
            assert np.array_equal(chart[i], coordinates(state, H_REF))


    def test_stage_cost_components_match_numpy_oracle_and_stacks(self, ref_design):
        # The component stage cost against its former numpy form, for the
        # reference weights and for full (non-diagonal) ones; a stack's rows
        # equal the single costs bit for bit.
        rng = np.random.default_rng(7)
        full = StageWeights(*(a @ a.T + np.eye(3) for a in rng.standard_normal((3, 3, 3))), 0.1)
        xi = rng.standard_normal((200, 6))
        states = SpacecraftState(exp_so3_rows(xi[:, :3]), exp_so3_rows(H_REF * xi[:, 3:]))
        torques = 10.0 * rng.standard_normal((200, 3))
        for weights in (ref_design.weights, full):
            r_tilde = tilde_transform(weights.torque)
            stages = weights.stage_cost(states, torques, H_REF)
            for i in range(200):
                g, f, u = states.g[i], states.f[i], torques[i]
                oracle = (
                    np.trace(weights.attitude) - (weights.attitude * g.T).sum()
                    + (np.trace(weights.rate) - (weights.rate * f.T).sum()) / H_REF**2
                    + 0.5 * (u @ r_tilde) @ u
                )
                single = weights.stage_cost(SpacecraftState(g, f), u, H_REF)
                assert single == pytest.approx(oracle, rel=1e-13, abs=1e-12)
                assert stages[i] == single


class TestDesignSerialization:
    def test_roundtrip(self, ref_design, tmp_path):
        path = tmp_path / "design.json"
        ref_design.save(path)
        loaded = TerminalDesign.load(path)
        assert_allclose(loaded.P, ref_design.P)
        assert_allclose(loaded.K, ref_design.K)
        assert loaded.c == ref_design.c
        assert loaded.h == ref_design.h
        assert_allclose(loaded.inertia, ref_design.inertia)
        assert loaded.certification == ref_design.certification

    def test_schema_fields(self, ref_design):
        data = ref_design.to_json_dict()
        assert set(data) == {"h", "J", "Q_g", "Q_f", "R", "lambda", "P", "K", "c", "certification"}
        assert len(data["P"]) == 36
        assert len(data["K"]) == 18
        assert set(data["certification"]) == {"n_samples", "max_violation"}

    def test_deterministic_bytes(self, ref_weights, tmp_path):
        a = design_terminal(J_REF, H_REF, ref_weights, torque_bound=100.0, seed=0)
        b = design_terminal(J_REF, H_REF, ref_weights, torque_bound=100.0, seed=0)
        pa, pb = tmp_path / "a.json", tmp_path / "b.json"
        a.save(pa)
        b.save(pb)
        assert pa.read_bytes() == pb.read_bytes()

    @pytest.mark.parametrize(
        ("key", "value", "message"),
        [
            ("certification", {"n_samples": 1000}, "missing key 'certification.max_violation'"),
            ("P", [1.0] * 35, "key 'P': cannot reshape"),
            ("c", [1.0], "key 'c':"),
            ("lambda", 1.5, "weights: decay must lie in (0, 1)"),
        ],
    )
    def test_bad_entry_raises_design_file_error(self, ref_design, key, value, message):
        data = ref_design.to_json_dict()
        data[key] = value
        with pytest.raises(DesignFileError) as err:
            TerminalDesign.from_json_dict(data)
        assert str(err.value).startswith(message)

    @pytest.mark.parametrize(
        ("key", "bad", "message"),
        [
            ("h", lambda d: -0.1, "key 'h': must be positive and finite, got -0.1"),
            ("h", lambda d: 0.0, "key 'h': must be positive and finite, got 0.0"),
            ("h", lambda d: float("inf"), "key 'h': must be positive and finite, got inf"),
            ("h", lambda d: float("nan"), "key 'h': must be positive and finite, got nan"),
            ("J", lambda d: np.diag([1.0, -1.2, 1.5]).tolist(), "key 'J': must be symmetric positive definite"),
            ("J", lambda d: [[1.0, 0.5, 0.0], [0.0, 1.2, 0.0], [0.0, 0.0, 1.5]], "key 'J': must be symmetric positive definite"),
            ("J", lambda d: np.diag([1.0, np.nan, 1.5]).tolist(), "key 'J': must be finite"),
            ("P", lambda d: [-x for x in d["P"]], "key 'P': must be symmetric positive definite"),
            ("P", lambda d: [0.0] * 36, "key 'P': must be symmetric positive definite"),
            ("P", lambda d: d["P"][:35] + [float("inf")], "key 'P': must be finite"),
            ("K", lambda d: d["K"][:4] + [float("nan")] + d["K"][5:], "key 'K': must be finite"),
            ("K", lambda d: [float("-inf")] + d["K"][1:], "key 'K': must be finite"),
            ("c", lambda d: 0.0, "key 'c': must be positive and finite, got 0.0"),
            ("c", lambda d: -2456.6, "key 'c': must be positive and finite, got -2456.6"),
            ("c", lambda d: float("inf"), "key 'c': must be positive and finite, got inf"),
            ("c", lambda d: float("nan"), "key 'c': must be positive and finite, got nan"),
        ],
    )
    def test_value_out_of_range_raises_design_file_error(self, ref_design, key, bad, message):
        # The keys and types of these files are valid; their values are not.
        data = ref_design.to_json_dict()
        data[key] = bad(data)
        with pytest.raises(DesignFileError) as err:
            TerminalDesign.from_json_dict(data)
        assert str(err.value).startswith(message)

    @pytest.mark.parametrize("n_samples", [0, -5])
    def test_sample_count_below_one_raises_design_file_error(self, ref_design, n_samples):
        data = ref_design.to_json_dict()
        data["certification"]["n_samples"] = n_samples
        with pytest.raises(DesignFileError) as err:
            TerminalDesign.from_json_dict(data)
        assert str(err.value) == f"key 'certification.n_samples': must be at least 1, got {n_samples}"

    def test_valid_file_loads_unchanged(self, ref_design):
        data = ref_design.to_json_dict()
        loaded = TerminalDesign.from_json_dict(json.loads(json.dumps(data)))
        assert loaded.to_json_dict() == data

    def test_load_names_the_file(self, ref_design, tmp_path):
        data = ref_design.to_json_dict()
        data["Q_g"] = [[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
        path = tmp_path / "design.json"
        path.write_text(json.dumps(data))
        with pytest.raises(DesignFileError, match=f"^{re.escape(str(path))}: attitude weight has non-positive"):
            TerminalDesign.load(path)
