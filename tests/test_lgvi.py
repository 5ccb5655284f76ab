import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from so3mpc import lgvi
from so3mpc.errors import NoConvergence, NotSolvable
from so3mpc.lgvi import (
    MARGIN_CUTOFF,
    SpacecraftState,
    _cayley,
    _cayley_vector,
    _eigen_discs,
    _implicit_increment,
    _implicit_increments,
    _inertia_constants,
    _margin,
    _margin_bound,
    _margins,
    _step_rows,
    free_momentum_drift,
    lgvi_step,
    orthogonality_drift,
    rollout,
    spatial_momentum,
    step_jacobians,
    step_with_margin,
)
from so3mpc.so3 import exp_so3, hat
from so3mpc.terminal import build_linearization

from conftest import (
    check_solvability,
    implicit_residual,
    momentum_matrix,
    momentum_vector,
    perturbed,
    tangent_offset,
)

J_REF = np.diag([1.0, 1.2, 1.5])
H = 0.1


def rot_z(angle):
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def vector(momentum):
    """The vector m of a skew momentum M = hat(m), or of each of a stack."""
    return np.asarray(momentum)[..., [2, 0, 1], [1, 2, 0]]


def random_solvable_pair(rng, slack=0.95):
    """Random SPD inertia and skew momentum inside the solvable region."""
    eigs = rng.uniform(0.5, 2.0, 3)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    inertia = q @ np.diag(eigs) @ q.T
    direction = rng.standard_normal(3)
    direction /= np.linalg.norm(direction)
    # min eig of J^2 + M^2/4 stays nonnegative while |m| <= 2 min eig J.
    m = rng.uniform(0.0, slack) * 2.0 * eigs.min() * direction
    return hat(m), inertia


def criterion_3_draws():
    """The 1000 (momentum, inertia) pairs of acceptance criterion 3."""
    rng = np.random.default_rng(99)
    momenta, inertias = [], []
    for _ in range(1000):
        eigs = rng.uniform(0.5, 2.0, 3)
        basis, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        inertias.append(basis @ np.diag(eigs) @ basis.T)
        direction = rng.standard_normal(3)
        direction /= np.linalg.norm(direction)
        momenta.append(hat(rng.uniform(0.0, 0.95) * 2.0 * eigs.min() * direction))
    return np.array(momenta), np.array(inertias)


def newton_oracle(momentum, inertia):
    """The implicit step's Newton iteration in numpy matrix form, with
    LAPACK solves: an independent reference for the component-form kernels."""
    m = np.array([momentum[2, 1], momentum[0, 2], momentum[1, 0]])
    a = np.trace(inertia) * np.eye(3) - inertia
    x = np.linalg.solve(a, 0.5 * m)
    for _ in range(50):
        a_x = a - hat(x) @ inertia
        r = a_x @ x - 0.5 * (1.0 + x @ x) * m
        jac = a_x + hat(inertia @ x) - np.outer(m, x)
        dx = np.linalg.solve(jac, -r)
        x = x + dx
        if dx @ dx <= 1e-6**2:
            xh = hat(x)
            return np.eye(3) + (2.0 / (1.0 + x @ x)) * (xh + xh @ xh)
    raise AssertionError("oracle did not converge")


class TestMomentumMatrix:
    def test_identity_increment_no_torque(self):
        state = SpacecraftState(np.eye(3), np.eye(3))
        assert_allclose(momentum_matrix(state, [0, 0, 0], H, J_REF), np.zeros((3, 3)))

    def test_linear_in_torque(self):
        state = SpacecraftState(np.eye(3), np.eye(3))
        m = momentum_matrix(state, [0, 0, 1.0], H, J_REF)
        assert_allclose(m, 0.01 * hat([0, 0, 1.0]), atol=1e-15)

    def test_planar_spin_spherical_body(self):
        # f - f^T for a planar rotation collapses to 2 sin(angle) about the axis.
        state = SpacecraftState(np.eye(3), rot_z(0.1))
        m = momentum_matrix(state, [0, 0, 0], H, np.eye(3))
        assert_allclose(m, 2.0 * np.sin(0.1) * hat([0, 0, 1.0]), atol=1e-15)

    def test_always_skew(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            axis = rng.standard_normal(3)
            axis /= np.linalg.norm(axis)
            f = exp_so3(rng.uniform(0, np.pi) * axis)
            m = momentum_matrix(
                SpacecraftState(np.eye(3), f), rng.standard_normal(3), H, J_REF
            )
            assert np.linalg.norm(m + m.T) <= 1e-12


class TestSolvability:
    def test_zero_momentum(self):
        ok, margin = check_solvability(np.zeros((3, 3)), J_REF)
        assert ok
        assert margin == pytest.approx(1.0)  # min eig of J^2

    def test_unsolvable_example(self):
        # hat(v)^2 has eigenvalues {-|v|^2, -|v|^2, 0}.
        ok, margin = check_solvability(hat([0, 0, 4.0]), np.eye(3))
        assert not ok
        assert margin == pytest.approx(-3.0, abs=1e-12)

    def test_boundary_example(self):
        ok, margin = check_solvability(hat([0, 0, 2.0]), np.eye(3))
        assert ok
        assert margin == pytest.approx(0.0, abs=1e-12)

    @given(st.floats(min_value=-1e-12, max_value=1e-12))
    @example(1e-13)
    def test_verdict_matches_step_at_boundary(self, delta):
        # min eig of J^2 + M^2/4 is about -delta: the draws straddle the
        # boundary of the solvable region.
        momentum = hat([0.0, 0.0, 2.0 + delta])
        ok = check_solvability(momentum, np.eye(3)).ok
        try:
            _implicit_increment(vector(momentum), np.eye(3))
        except NotSolvable:
            solved = False
        else:
            solved = True
        assert ok == solved


def step_residual(f, momentum, inertia):
    return np.linalg.norm(f @ inertia - inertia @ f.T - momentum)


def orthogonality(f):
    return np.linalg.norm(f.T @ f - np.eye(3))


def sym(a):
    return 0.5 * (a + a.T)


class TestStepRiccati:
    """The implicit-step kernel against the step Riccati equation: with
    S = sym(F J), the increment is F = (M/2 + S) J^{-1}, and S is the
    positive semi-definite root of (S - M/2)(S + M/2) = J^2."""

    def test_zero_momentum_gives_inertia(self):
        f, _ = _implicit_increment(np.zeros(3), J_REF)
        assert_allclose(f, np.eye(3), atol=1e-12)
        assert_allclose(sym(f @ J_REF), J_REF, atol=1e-12)

    def test_planar_spin_analytic_solution(self):
        # Substituting a planar increment into the implicit update gives
        # S = diag(cos a, cos a, 1) for a spherical body.
        angle = 0.1
        m = 2.0 * np.sin(angle) * hat([0, 0, 1.0])
        f, _ = _implicit_increment(vector(m), np.eye(3))
        assert_allclose(f, rot_z(angle), atol=1e-12)
        assert_allclose(sym(f), np.diag([np.cos(angle), np.cos(angle), 1.0]), atol=1e-12)

    def test_random_residuals(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            m, inertia = random_solvable_pair(rng)
            f, _ = _implicit_increment(vector(m), inertia)
            assert step_residual(f, m, inertia) <= 1e-10
            # The Riccati branch: S = sym(F J) is positive semi-definite.
            assert np.linalg.eigvalsh(sym(f @ inertia))[0] >= -1e-12

    def test_factored_form(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            m, inertia = random_solvable_pair(rng)
            f, _ = _implicit_increment(vector(m), inertia)
            s = sym(f @ inertia)
            gap = (s - 0.5 * m) @ (s + 0.5 * m) - inertia @ inertia
            assert np.linalg.norm(gap) <= 1e-10

    def test_unsolvable_raises(self):
        with pytest.raises(NotSolvable):
            _implicit_increment([0.0, 0.0, 4.0], np.eye(3))

    @settings(deadline=None)
    @given(
        st.floats(min_value=1e-8, max_value=1.0),
        st.lists(st.floats(min_value=1.0, max_value=2.0), min_size=3, max_size=3),
        st.integers(min_value=0, max_value=2),
        st.lists(st.floats(min_value=-np.pi, max_value=np.pi), min_size=3, max_size=3),
    )
    @example(1e-8, [1.0, 1.0, 1.0], 2, [0.0, 0.0, 0.0])
    def test_on_group_without_projection_near_boundary(self, margin, eigs, axis, rotation):
        # Diagonal J with M about a principal axis: J^2 + M^2/4 is diagonal
        # with entries eigs[axis]^2 >= 1 >= margin and eigs[i]^2 - |m|^2/4.
        # The rotation Q leaves the margin unchanged.
        others = [eigs[i] for i in range(3) if i != axis]
        size = 2.0 * np.sqrt(min(others) ** 2 - margin)
        q = exp_so3(rotation)
        inertia = q @ np.diag(eigs) @ q.T
        m = q @ hat(size * np.eye(3)[axis]) @ q.T
        f, step_margin = _implicit_increment(vector(m), inertia)
        # LAPACK's value in the band below the cutoff, a lower bound above.
        assert step_margin <= margin + 1e-12
        if margin < MARGIN_CUTOFF:
            assert step_margin == pytest.approx(margin, abs=1e-12)
        assert step_residual(f, m, inertia) <= 1e-10
        assert orthogonality(f) <= 1e-12
        # Both kernels stop within about 1e-9 of the root here; their
        # round-off differences grow as the root's condition, 1/sqrt(margin)
        # (at most 3.8e-16/sqrt(margin) over 6000 draws).
        assert np.abs(f - newton_oracle(m, inertia)).max() <= 1e-14 / np.sqrt(margin)

    def test_matches_oracle_on_criterion_3_draws(self):
        momenta, inertias = criterion_3_draws()
        worst = max(
            float(np.abs(_implicit_increment(vector(m), inertia)[0] - newton_oracle(m, inertia)).max())
            for m, inertia in zip(momenta, inertias)
        )
        assert worst <= 1e-12

    @settings(deadline=None)
    @given(
        st.floats(min_value=1e-8, max_value=1.0),
        st.lists(st.floats(min_value=1.0, max_value=2.0), min_size=3, max_size=3),
        st.integers(min_value=0, max_value=2),
        st.lists(st.floats(min_value=-np.pi, max_value=np.pi), min_size=3, max_size=3),
    )
    @example(1e-8, [1.0, 1.0, 1.0], 2, [0.0, 0.0, 0.0])
    @example(1e-8, [2.0, 2.0, 2.0], 0, [np.pi, 0.0, 0.0])
    def test_accuracy_in_f_against_planar_solution(self, margin, eigs, axis, rotation):
        # The docstring's bound: F within 3e-12 / sqrt(margin) of the exact
        # increment.  With M = size Q e_k and diagonal J, the root is the
        # rotation Q exp(theta hat(e_k)) Q^T with (J_i + J_j) sin(theta) = size,
        # i and j the other two axes.
        others = [eigs[i] for i in range(3) if i != axis]
        size = 2.0 * np.sqrt(min(others) ** 2 - margin)
        q = exp_so3(rotation)
        inertia = q @ np.diag(eigs) @ q.T
        f, _ = _implicit_increment(size * q[:, axis], inertia)
        theta = np.arcsin(size / sum(others))
        exact = q @ exp_so3(theta * np.eye(3)[axis]) @ q.T
        assert np.abs(f - exact).max() <= 3e-12 / np.sqrt(margin)

    def test_iteration_cap_raises(self, monkeypatch):
        # The linearized root 0.375 e3 is far from the root tan(theta/2) e3
        # with 2 sin(theta) = 1.5, about 0.45 e3, so one step cannot stop.
        m, inertia = hat([0.0, 0.0, 1.5]), np.eye(3)
        _implicit_increment(vector(m), inertia)
        monkeypatch.setattr(lgvi, "_NEWTON_MAX_ITERS", 1)
        with pytest.raises(NoConvergence):
            _implicit_increment(vector(m), inertia)
        with pytest.raises(NoConvergence):
            _implicit_increments(vector(np.array([np.zeros((3, 3)), m])), inertia)


class TestBatchedKernel:
    """The stacked twin of the implicit-step kernel against the kernel."""

    def test_matches_scalar_kernel_on_criterion_3_draws(self):
        momenta, inertias = criterion_3_draws()
        for m, inertia in zip(momenta, inertias):
            increments, margins = _implicit_increments(vector(m[None]), inertia)
            f_ref, margin_ref = _implicit_increment(vector(m), inertia)
            assert np.array_equal(increments[0], f_ref)
            assert margins[0] == margin_ref

    def test_shared_inertia(self):
        rng = np.random.default_rng(8)
        momenta = np.array([random_solvable_pair(rng)[0] for _ in range(40)])
        increments, _ = _implicit_increments(vector(momenta), J_REF)
        for f, m in zip(increments, momenta):
            assert np.array_equal(f, _implicit_increment(vector(m), J_REF)[0])

    def test_per_row_inertia(self):
        # Any SPD inertia per draw and any momentum inside the solvable set,
        # not only the momenta of criterion 3's bound; one stacked call per
        # inertia.
        rng = np.random.default_rng(12)
        momenta, inertias = [], []
        for _ in range(1000):
            eigs = rng.uniform(0.1, 3.0, 3)
            q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
            inertia = q @ np.diag(eigs) @ q.T
            direction = rng.standard_normal(3)
            direction /= np.linalg.norm(direction)
            # Up to 5 % past the bound |m| <= 2 min eig J, inside which
            # every direction is solvable.
            m = hat(rng.uniform(0.0, 2.1) * eigs.min() * direction)
            if check_solvability(m, inertia).ok:
                momenta.append(m)
                inertias.append(inertia)
        assert len(momenta) >= 950
        for m, inertia in zip(momenta, inertias):
            increments, _ = _implicit_increments(vector(m[None]), inertia)
            assert np.array_equal(increments[0], _implicit_increment(vector(m), inertia)[0])

    def test_unsolvable_rows_return_lapack_margin_and_nan(self):
        # The rows of the fixed example, then a stack of which about a quarter
        # lies past the solvable set of J_REF (|m| > 2 min eig J is not always
        # unsolvable, so the verdict is LAPACK's).
        rng = np.random.default_rng(13)
        direction = rng.standard_normal((400, 3))
        direction /= np.linalg.norm(direction, axis=1)[:, None]
        random_rows = rng.uniform(0.0, 3.0, (400, 1)) * direction
        cases = [
            (np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 4.0], [0.1, 0.0, 0.0]]), np.eye(3)),
            (random_rows, J_REF),
        ]
        unsolvable = []
        for rows, inertia in cases:
            increments, margins = _implicit_increments(rows, inertia)
            unsolvable.append(0)
            for m, f, margin in zip(rows, increments, margins):
                exact = check_solvability(hat(m), inertia)
                if not exact.ok:
                    unsolvable[-1] += 1
                    assert margin == exact.margin < 0.0
                    assert np.isnan(f).all()
                    with pytest.raises(NotSolvable):
                        _implicit_increment(m, inertia)
                    continue
                f_ref, margin_ref = _implicit_increment(m, inertia)
                assert np.array_equal(f, f_ref)
                assert margin == margin_ref
        assert unsolvable[0] == 1
        assert 50 <= unsolvable[1] <= 350

    def test_step_rows_match_single_steps(self):
        # The certificate's stacked step: each solvable row is
        # step_with_margin's successor and margin bit for bit, each
        # unsolvable row has LAPACK's negative margin and a NaN increment.
        rng = np.random.default_rng(14)
        g = np.array([exp_so3(rng.uniform(-np.pi, np.pi, 3)) for _ in range(60)])
        f = np.array([exp_so3(H * rng.uniform(-3.0, 3.0, 3)) for _ in range(60)])
        torques = rng.uniform(-250.0, 250.0, (60, 3))
        successors, margins = _step_rows(SpacecraftState(g, f), torques, H, J_REF)
        unsolvable = 0
        for k in range(60):
            state = SpacecraftState(g[k], f[k])
            assert np.array_equal(successors.g[k], g[k] @ f[k])
            exact = check_solvability(momentum_matrix(state, torques[k], H, J_REF), J_REF)
            if not exact.ok:
                unsolvable += 1
                assert margins[k] == exact.margin < 0.0
                assert np.isnan(successors.f[k]).all()
                continue
            nxt, margin = step_with_margin(state, torques[k], H, J_REF)
            assert np.array_equal(successors.f[k], nxt.f)
            assert margins[k] == margin
        assert 5 <= unsolvable <= 55

    def test_empty_stack(self):
        increments, margins = _implicit_increments(np.zeros((0, 3)), J_REF)
        assert increments.shape == (0, 3, 3)
        assert margins.shape == (0,)

    def test_momentum_matrix_rows(self):
        rng = np.random.default_rng(9)
        f = np.array([exp_so3(H * rng.standard_normal(3)) for _ in range(20)])
        torques = rng.standard_normal((20, 3))
        stack = momentum_matrix(SpacecraftState(np.eye(3), f), torques, H, J_REF)
        for m, f_row, tau in zip(stack, f, torques):
            assert np.array_equal(m, momentum_matrix(SpacecraftState(np.eye(3), f_row), tau, H, J_REF))


class TestInertiaConstantsCache:
    """The step looks the constants of its inertia up by the bytes of the
    array, so a changed inertia never sees another's constants: the cached
    entries equal the array's, and each step equals the stacked kernel on a
    copy of the inertia."""

    state = SpacecraftState(np.eye(3), exp_so3(H * np.array([0.8, -0.6, 1.0])))
    tau = np.array([0.5, -1.0, 0.25])

    def check_step(self, inertia):
        nxt, margin = step_with_margin(self.state, self.tau, H, inertia)
        m = momentum_vector(self.state, self.tau, H, inertia)
        increments, margins = _implicit_increments(m[None], inertia.copy())
        assert np.array_equal(nxt.f, increments[0])
        assert margin == margins[0]
        assert _inertia_constants(inertia).j == tuple(map(tuple, inertia.tolist()))

    def test_follows_in_place_mutation(self):
        rng = np.random.default_rng(31)
        inertia = J_REF.copy()
        for _ in range(20):
            self.check_step(inertia)
            inertia[...] = random_inertia(rng.uniform(0.5, 2.0, 3), rng.uniform(-np.pi, np.pi, 3))
        # A one-ulp change is a new inertia too.
        inertia[1, 1] = np.nextafter(inertia[1, 1], np.inf)
        self.check_step(inertia)

    def test_alternating_inertias(self):
        pair = (J_REF.copy(), random_inertia([0.6, 1.4, 2.0], [0.3, -1.1, 2.0]))
        for k in range(20):
            self.check_step(pair[k % 2])

    @pytest.mark.parametrize("inertia", [np.arange(1.0, 10.0), np.eye(3)[:2]])
    def test_rejects_inertia_of_wrong_shape(self, inertia):
        with pytest.raises(ValueError, match="shape"):
            step_with_margin(self.state, self.tau, H, inertia)


class TestLgviStep:
    def test_equilibrium(self):
        state = SpacecraftState.identity()
        nxt = lgvi_step(state, [0, 0, 0], H, J_REF)
        assert_allclose(nxt.g, np.eye(3), atol=1e-14)
        assert_allclose(nxt.f, np.eye(3), atol=1e-14)

    def test_uniform_spin_persists_spherical(self):
        state = SpacecraftState(np.eye(3), rot_z(0.1))
        nxt = lgvi_step(state, [0, 0, 0], H, np.eye(3))
        assert_allclose(nxt.g, rot_z(0.1), atol=1e-13)
        assert_allclose(nxt.f, rot_z(0.1), atol=1e-13)

    def test_attitude_update_uses_current_increment(self):
        rng = np.random.default_rng(3)
        axis = rng.standard_normal(3)
        axis /= np.linalg.norm(axis)
        g0 = exp_so3(0.7 * axis)
        f0 = exp_so3(H * np.array([0.2, -0.1, 0.3]))
        nxt = lgvi_step(SpacecraftState(g0, f0), [0.5, 0, 0], H, J_REF)
        assert_allclose(nxt.g, g0 @ f0, atol=1e-14)

    def test_implicit_residual(self):
        rng = np.random.default_rng(4)
        state = SpacecraftState(np.eye(3), exp_so3(H * np.array([0.3, 0.2, 0.1])))
        for _ in range(100):
            tau = rng.uniform(-1, 1, 3)
            m = momentum_matrix(state, tau, H, J_REF)
            nxt = lgvi_step(state, tau, H, J_REF)
            assert implicit_residual(nxt, m, J_REF) <= 1e-10
            state = nxt

    def test_step_with_margin_matches(self):
        # The margin is LAPACK's exact value in the band below MARGIN_CUTOFF
        # and a lower bound on it above; the verdict is LAPACK's everywhere.
        cases = [
            (J_REF, exp_so3(H * np.array([0.3, 0.2, 0.1])), np.array([0.1, -0.2, 0.3])),
            # J = I turning 1.5 rad per step: margin cos(1.5)^2, about 0.005.
            (np.eye(3), rot_z(1.5), np.zeros(3)),
        ]
        in_band = 0
        for inertia, f, tau in cases:
            state = SpacecraftState(np.eye(3), f)
            nxt, margin = step_with_margin(state, tau, H, inertia)
            alone = lgvi_step(state, tau, H, inertia)
            assert np.array_equal(nxt.g, alone.g)
            assert np.array_equal(nxt.f, alone.f)
            exact = check_solvability(momentum_matrix(state, tau, H, inertia), inertia)
            assert margin <= exact.margin
            assert (margin >= 0.0) == exact.ok
            if exact.margin < MARGIN_CUTOFF:
                in_band += 1
                assert margin == exact.margin
        assert in_band == 1


def central_jacobians(state, torque, h, inertia, delta=1e-6):
    """Central differences of ``step_with_margin`` in the tangent
    coordinates of :func:`~so3mpc.lgvi.step_jacobians`: the successor's
    coordinates about the unperturbed successor, per state and torque entry."""
    successor, _ = step_with_margin(state, torque, h, inertia)
    a, b = np.zeros((6, 6)), np.zeros((6, 3))
    for i in range(6):
        d = delta * np.eye(6)[i]
        up = step_with_margin(perturbed(state, d, h), torque, h, inertia)[0]
        down = step_with_margin(perturbed(state, -d, h), torque, h, inertia)[0]
        a[:, i] = (tangent_offset(successor, up, h) - tangent_offset(successor, down, h)) / (2.0 * delta)
    for i in range(3):
        d = delta * np.eye(3)[i]
        up = step_with_margin(state, torque + d, h, inertia)[0]
        down = step_with_margin(state, torque - d, h, inertia)[0]
        b[:, i] = (tangent_offset(successor, up, h) - tangent_offset(successor, down, h)) / (2.0 * delta)
    return successor, a, b


class TestStepJacobians:
    """The analytic step Jacobians against central differences of the step,
    to 1e-6 relative in each block."""

    def check(self, state, torque, inertia=J_REF):
        successor, a_ref, b_ref = central_jacobians(state, torque, H, inertia)
        a, b = step_jacobians(state.f, successor.f, H, inertia)
        assert np.linalg.norm(a - a_ref) <= 1e-6 * np.linalg.norm(a_ref)
        assert np.linalg.norm(b - b_ref) <= 1e-6 * np.linalg.norm(b_ref)
        return a, b

    def test_random_states(self):
        rng = np.random.default_rng(21)
        for k in range(12):
            inertia = J_REF
            if k % 3 == 2:
                q = exp_so3(rng.uniform(-np.pi, np.pi, 3))
                inertia = q @ np.diag(rng.uniform(0.5, 2.0, 3)) @ q.T
            state = SpacecraftState(
                exp_so3(rng.uniform(-np.pi, np.pi, 3)), exp_so3(H * rng.uniform(-3.0, 3.0, 3))
            )
            self.check(state, rng.uniform(-30.0, 30.0, 3), inertia)

    @pytest.mark.parametrize("margin", [1e-2, 1e-4, 1e-6])
    def test_margins_near_the_solvability_floor(self, margin):
        # From rest a torque tau about z leaves a margin of 1 - (h^2 tau)^2 / 4;
        # 1e-6 is the attitude system's default floor.
        rng = np.random.default_rng(22)
        state = SpacecraftState(exp_so3(rng.uniform(-np.pi, np.pi, 3)), np.eye(3))
        torque = np.array([0.0, 0.0, 2.0 * np.sqrt(1.0 - margin) / H**2])
        assert step_with_margin(state, torque, H, J_REF)[1] == pytest.approx(margin, rel=1e-6)
        self.check(state, torque)

    def test_saturated_torques(self):
        # Every entry at the 100 N m bound, from spinning states.
        rng = np.random.default_rng(23)
        for _ in range(6):
            state = SpacecraftState(
                exp_so3(rng.uniform(-np.pi, np.pi, 3)), exp_so3(H * rng.uniform(-1.0, 1.0, 3))
            )
            self.check(state, 100.0 * rng.choice([-1.0, 1.0], 3))

    def test_identity_is_the_design_linearization(self):
        # At the identity the step is a double integrator in exponential
        # coordinates, with the torque entering the rate row through
        # h (tr J I - J)^{-1}; the terminal design takes these Jacobians.
        for inertia in (J_REF, np.array([[1.0, 0.1, 0.0], [0.1, 1.2, 0.05], [0.0, 0.05, 1.5]])):
            a, b = step_jacobians(np.eye(3), np.eye(3), H, inertia)
            a_ref = np.block([[np.eye(3), H * np.eye(3)], [np.zeros((3, 3)), np.eye(3)]])
            coupling = H * np.linalg.inv(np.trace(inertia) * np.eye(3) - inertia)
            b_ref = np.vstack([np.zeros((3, 3)), coupling])
            assert np.linalg.norm(a - a_ref) <= 1e-12 * np.linalg.norm(a_ref)
            assert np.linalg.norm(b - b_ref) <= 1e-12 * np.linalg.norm(b_ref)
            lin = build_linearization(H, inertia)
            assert lin.A.tobytes() == a.tobytes() and lin.B.tobytes() == b.tobytes()

    def test_stack_matches_single_steps(self):
        rng = np.random.default_rng(24)
        f = np.array([exp_so3(H * rng.uniform(-2.0, 2.0, 3)) for _ in range(5)])
        f_next = np.array([exp_so3(H * rng.uniform(-2.0, 2.0, 3)) for _ in range(5)])
        a, b = step_jacobians(f, f_next, H, J_REF)
        assert a.shape == (5, 6, 6) and b.shape == (5, 6, 3)
        for k in range(5):
            a_k, b_k = step_jacobians(f[k], f_next[k], H, J_REF)
            assert_allclose(a[k], a_k, rtol=1e-14, atol=1e-15)
            assert_allclose(b[k], b_k, rtol=1e-14, atol=1e-15)


def unit(v):
    return v / np.linalg.norm(v)


def random_inertia(eigs, rotation):
    q = exp_so3(rotation)
    inertia = q @ np.diag(eigs) @ q.T
    return 0.5 * (inertia + inertia.T)


class TestSolvabilityGate:
    """The Weyl bound that spares LAPACK above MARGIN_CUTOFF, against
    LAPACK's eigenvalue."""

    @settings(deadline=None, max_examples=300)
    @given(
        st.lists(st.floats(min_value=0.1, max_value=3.0), min_size=3, max_size=3),
        st.lists(st.floats(min_value=-np.pi, max_value=np.pi), min_size=3, max_size=3),
        st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=3, max_size=3),
        st.floats(min_value=0.0, max_value=1.2),
    )
    # J = I and |m| = 2: margin zero, and the bound is tight there.
    @example([1.0, 1.0, 1.0], [0.0, 0.0, 0.0], [0.0, 0.0, 1.0], 1.0)
    @example([1.0, 1.0, 1.0], [0.3, -0.2, 0.1], [1.0, -1.0, 0.5], 1.0)
    @example([1.0, 1.0, 1.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0], 0.0)
    @example([0.1, 3.0, 3.0], [0.0, 0.0, 0.0], [0.0, 1.0, 0.0], 1.0)
    def test_bound_below_lapack_and_stacks_agree(self, eigs, rotation, direction, scale):
        inertia = random_inertia(eigs, rotation)
        direction = np.asarray(direction)
        norm = np.linalg.norm(direction)
        m = np.zeros(3) if norm < 1e-9 else 2.0 * scale * min(eigs) * direction / norm
        exact = check_solvability(hat(m), inertia).margin
        lows, highs = _eigen_discs(inertia.tolist())
        bound = _margin_bound(m.tolist(), max(min(lows), 0.0), max(highs))
        assert bound <= exact
        margin = _margin(m.tolist(), _inertia_constants(inertia), inertia)
        assert margin == (exact if bound < MARGIN_CUTOFF else bound)
        # The stacked gate.
        assert _margins(m[None], _inertia_constants(inertia), inertia)[0] == margin

    def test_verdicts_and_shortfalls_match_lapack(self):
        # Steps from random spins, torques and inertias, many of them near
        # the boundary: the verdict and the shortfall below every floor are
        # LAPACK's.
        rng = np.random.default_rng(21)
        floors = (0.0, 1e-6, 1e-3, 0.99 * MARGIN_CUTOFF)
        seen = {"bound": 0, "lapack": 0, "below cutoff": 0, "unsolvable": 0}
        for _ in range(3000):
            inertia = random_inertia(rng.uniform(0.5, 2.0, 3), rng.uniform(-np.pi, np.pi, 3))
            state = SpacecraftState(np.eye(3), exp_so3(rng.uniform(0.0, 1.7) * unit(rng.standard_normal(3))))
            tau = rng.uniform(-3.0, 3.0, 3)
            exact = check_solvability(momentum_matrix(state, tau, H, inertia), inertia)
            try:
                _, margin = step_with_margin(state, tau, H, inertia)
            except NotSolvable:
                assert not exact.ok
                seen["unsolvable"] += 1
                continue
            assert exact.ok
            assert margin <= exact.margin
            seen["lapack" if margin == exact.margin else "bound"] += 1
            seen["below cutoff"] += exact.margin < MARGIN_CUTOFF
            for floor in floors:
                assert max(0.0, floor - margin) == max(0.0, floor - exact.margin)
        assert min(seen.values()) >= 20


def check_start_value(state, torque, inertia, size, direction):
    """The step started at its own successor's increment moved by ``size``
    radians about ``direction`` equals the step from the linearized root to
    1e-10, bit for bit below ``MARGIN_CUTOFF``, where the start is not
    taken."""
    axis = np.asarray(direction, dtype=float)
    axis = unit(axis) if np.linalg.norm(axis) > 1e-3 else np.array([1.0, 0.0, 0.0])
    try:
        successor, margin = step_with_margin(state, torque, H, inertia)
    except NotSolvable:
        with pytest.raises(NotSolvable):
            step_with_margin(state, torque, H, inertia, np.eye(3))
        return
    start = successor.f @ exp_so3(size * axis)
    hinted, hinted_margin = step_with_margin(state, torque, H, inertia, start)
    assert hinted_margin == margin
    assert np.array_equal(hinted.g, successor.g)
    assert np.abs(hinted.f - successor.f).max() <= 1e-10
    if margin < MARGIN_CUTOFF:
        assert np.array_equal(hinted.f, successor.f)


HINT_SIZES = st.floats(min_value=-8.0, max_value=-2.0).map(lambda e: 10.0**e)
DIRECTIONS = st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=3, max_size=3)
ANGLES = st.lists(st.floats(min_value=-np.pi, max_value=np.pi), min_size=3, max_size=3)


class TestStartValue:
    """The implicit step's optional start increment changes F at round-off
    only: on random states, at saturated torques and near the solvability
    floor, from starts 1e-8 to 1e-2 radians off."""

    def test_cayley_vector_inverts_the_cayley_map(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            x = rng.uniform(-3.0, 3.0, 3)
            f = np.array(_cayley(tuple(x))).reshape(3, 3)
            assert_allclose(_cayley_vector(f.tolist()), x, rtol=1e-12, atol=1e-14)

    @settings(deadline=None, max_examples=200)
    @given(
        ANGLES,
        st.lists(st.floats(min_value=-3.0, max_value=3.0), min_size=3, max_size=3),
        st.lists(st.floats(min_value=-30.0, max_value=30.0), min_size=3, max_size=3),
        st.lists(st.floats(min_value=0.5, max_value=2.0), min_size=3, max_size=3),
        ANGLES,
        HINT_SIZES,
        DIRECTIONS,
    )
    def test_random_states(self, attitude, rate, torque, eigs, rotation, size, direction):
        state = SpacecraftState(exp_so3(attitude), exp_so3(H * np.asarray(rate)))
        check_start_value(state, np.asarray(torque), random_inertia(eigs, rotation), size, direction)

    @settings(deadline=None, max_examples=100)
    @given(
        ANGLES,
        st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=3, max_size=3),
        st.lists(st.sampled_from([-1.0, 1.0]), min_size=3, max_size=3),
        HINT_SIZES,
        DIRECTIONS,
    )
    def test_saturated_torques(self, attitude, rate, signs, size, direction):
        state = SpacecraftState(exp_so3(attitude), exp_so3(H * np.asarray(rate)))
        check_start_value(state, 100.0 * np.asarray(signs), J_REF, size, direction)

    @settings(deadline=None, max_examples=200)
    @given(
        st.floats(min_value=-8.0, max_value=-1.0).map(lambda e: 10.0**e),
        ANGLES,
        HINT_SIZES,
        DIRECTIONS,
    )
    # Without the gate at MARGIN_CUTOFF, a start 1e-2 off at margin 1e-8
    # converged to another root, 1e-2 away.
    @example(1e-8, [0.0, 0.0, 0.0], 1e-2, [1.0, 1.0, 0.0])
    @example(1.5e-2, [0.0, 0.0, 0.0], 1e-2, [1.0, 1.0, 0.0])
    def test_margins_near_the_solvability_floor(self, margin, attitude, size, direction):
        # From rest a torque tau about z leaves a margin of 1 - (h^2 tau)^2 / 4
        # (see TestStepJacobians); the attitude system's floor is 1e-6.
        state = SpacecraftState(exp_so3(attitude), np.eye(3))
        torque = np.array([0.0, 0.0, 2.0 * np.sqrt(1.0 - margin) / H**2])
        check_start_value(state, torque, J_REF, size, direction)


class TestRollout:
    def test_empty(self):
        state = SpacecraftState.identity()
        states = rollout(state, np.zeros((0, 3)), H, J_REF)
        assert len(states) == 1

    def test_rest_stays_at_rest(self):
        state = SpacecraftState.identity()
        states = rollout(state, np.zeros((50, 3)), H, J_REF)
        for s in states:
            assert_allclose(s.g, np.eye(3), atol=1e-13)
            assert_allclose(s.f, np.eye(3), atol=1e-13)

    def test_orthogonality_drift(self):
        rng = np.random.default_rng(5)
        state = SpacecraftState(np.eye(3), exp_so3(H * np.array([0.3, 0.2, 0.1])))
        torques = rng.uniform(-1, 1, (1000, 3))
        states = rollout(state, torques, H, J_REF)
        assert orthogonality_drift(states) <= 1e-9

    def test_failure_reports_step_index(self):
        # A torque far beyond the solvable range breaks the first step.
        state = SpacecraftState.identity()
        torques = np.zeros((5, 3))
        torques[2] = [0, 0, 1e4]
        with pytest.raises(NotSolvable) as excinfo:
            rollout(state, torques, H, J_REF)
        assert excinfo.value.step == 2

    def test_determinism(self):
        rng = np.random.default_rng(6)
        torques = rng.uniform(-1, 1, (100, 3))
        state = SpacecraftState(np.eye(3), exp_so3(H * np.array([0.1, 0.2, -0.3])))
        a = rollout(state, torques, H, J_REF)
        b = rollout(state, torques, H, J_REF)
        for sa, sb in zip(a, b):
            assert np.array_equal(sa.g, sb.g)
            assert np.array_equal(sa.f, sb.f)


class TestConservation:
    def test_momentum_conserved_free_dynamics(self):
        state = SpacecraftState(np.eye(3), exp_so3(H * np.array([0.3, 0.2, 0.1])))
        states = rollout(state, np.zeros((1000, 3)), H, J_REF)
        assert free_momentum_drift(states, J_REF) <= 1e-9

    def test_momentum_transported_by_attitude(self):
        # One free step maps the body momentum by the increment, leaving the
        # spatially expressed momentum unchanged.
        state = SpacecraftState(
            exp_so3([0.4, -0.2, 0.1]), exp_so3(H * np.array([0.25, 0.15, -0.05]))
        )
        nxt = lgvi_step(state, [0, 0, 0], H, J_REF)
        assert_allclose(
            spatial_momentum(nxt, J_REF), spatial_momentum(state, J_REF), atol=1e-13
        )

    def test_zero_momentum_at_rest(self):
        assert_allclose(spatial_momentum(SpacecraftState.identity(), J_REF), np.zeros(3))
