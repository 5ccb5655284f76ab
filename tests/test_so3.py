import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from so3mpc.so3 import (
    NEAR_PI,
    SMALL_ANGLE,
    exp_so3,
    exp_so3_rows,
    geodesic_distance,
    hat,
    inverse_right_jacobian,
    log_so3,
    log_so3_rows,
)


def rot_z(angle):
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def random_rotation(rng, max_angle=np.pi):
    axis = rng.standard_normal(3)
    axis /= np.linalg.norm(axis)
    return exp_so3(rng.uniform(0.0, max_angle) * axis)


class TestHatVee:
    def test_hat_basis(self):
        assert_allclose(hat([1, 0, 0]), [[0, 0, 0], [0, 0, -1], [0, 1, 0]])

    def test_hat_zero(self):
        assert_allclose(hat([0, 0, 0]), np.zeros((3, 3)))

    def test_hat_cross_product(self):
        assert_allclose(hat([1, 2, 3]) @ [4, 5, 6], [-3, 6, -3])

    def test_hat_cross_product_random(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            a, b = rng.standard_normal(3), rng.standard_normal(3)
            assert_allclose(hat(a) @ b, np.cross(a, b), atol=1e-14)

    def test_hat_linear(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            a, b = rng.standard_normal(3), rng.standard_normal(3)
            al, be = rng.standard_normal(2)
            assert_allclose(hat(al * a + be * b), al * hat(a) + be * hat(b), atol=1e-14)


class TestExpLog:
    def test_exp_zero(self):
        assert_allclose(exp_so3([0, 0, 0]), np.eye(3))

    def test_exp_quarter_turn(self):
        expected = [[0, -1, 0], [1, 0, 0], [0, 0, 1]]
        assert_allclose(exp_so3([0, 0, np.pi / 2]), expected, atol=1e-15)

    def test_exp_is_rotation(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            v = rng.uniform(-2 * np.pi, 2 * np.pi, 3)
            r = exp_so3(v)
            assert np.linalg.norm(r.T @ r - np.eye(3)) <= 1e-12
            assert abs(np.linalg.det(r) - 1.0) <= 1e-12

    def test_log_identity(self):
        assert_allclose(log_so3(np.eye(3)), [0, 0, 0])

    def test_log_pi_about_z_uses_sign_convention(self):
        assert_allclose(log_so3(rot_z(np.pi)), [0, 0, np.pi], atol=1e-12)

    def test_log_small_planar(self):
        assert_allclose(log_so3(rot_z(0.3)), [0, 0, 0.3], atol=1e-12)

    def test_log_returns_principal_branch(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            assert np.linalg.norm(log_so3(random_rotation(rng))) <= np.pi + 1e-12

    def test_exp_log_roundtrip_all_of_group(self):
        rng = np.random.default_rng(5)
        worst = 0.0
        for _ in range(1000):
            r = random_rotation(rng)
            worst = max(worst, np.linalg.norm(exp_so3(log_so3(r)) - r))
        assert worst <= 1e-10

    def test_exp_log_roundtrip_near_cut(self):
        rng = np.random.default_rng(6)
        worst = 0.0
        for _ in range(300):
            axis = rng.standard_normal(3)
            axis /= np.linalg.norm(axis)
            angle = np.pi - 10.0 ** rng.uniform(-15, -1)
            r = exp_so3(angle * axis)
            worst = max(worst, np.linalg.norm(exp_so3(log_so3(r)) - r))
        assert worst <= 1e-10

    def test_log_exp_roundtrip_inside_ball(self):
        rng = np.random.default_rng(7)
        for _ in range(500):
            axis = rng.standard_normal(3)
            axis /= np.linalg.norm(axis)
            v = rng.uniform(0.0, np.pi - 1e-6) * axis
            assert np.linalg.norm(log_so3(exp_so3(v)) - v) <= 1e-10

    def test_small_angle_series(self):
        for scale in (1e-12, 1e-9, 1e-7):
            v = scale * np.array([1.0, -2.0, 0.5])
            r = exp_so3(v)
            assert np.linalg.norm(r.T @ r - np.eye(3)) <= 1e-15
            assert_allclose(log_so3(r), v, atol=1e-16)


def bitwise_equal(a, b):
    """Equal values, including the signs of zeros."""
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def near_pi_rotation(axis, gap, exact_cut):
    """Rotation by pi - gap about ``axis``; with ``exact_cut`` the exact
    half-turn 2 n n^T - I, whose antisymmetric part is exactly zero."""
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    if exact_cut:
        return 2.0 * np.outer(axis, axis) - np.eye(3)
    return exp_so3((np.pi - gap) * axis)


class TestNearPi:
    """Rotation angles in [pi - 1e-2, pi]: across the edge of the NEAR_PI
    band and onto the branch cut."""

    @settings(deadline=None)
    @given(
        st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=3, max_size=3).filter(
            lambda v: np.linalg.norm(v) > 1e-3
        ),
        st.floats(min_value=0.0, max_value=1e-2),
        st.booleans(),
    )
    @example([0.0, 0.0, 1.0], 0.0, True)
    @example([0.3, -0.5, 0.2], NEAR_PI, False)
    # Just outside a 1e-4 band the round trip reached 1.8e-12.
    @example([0.3, -0.5, 0.2], 1e-4, False)
    def test_roundtrip_and_batched_log(self, axis, gap, exact_cut):
        r = near_pi_rotation(axis, gap, exact_cut)
        v = log_so3(r)
        # pi up to the rounding of the norm itself: at theta = pi the
        # computed length of theta * axis can come out an ulp or two above.
        assert np.linalg.norm(v) <= np.pi * (1.0 + 4.0 * np.finfo(float).eps)
        assert np.linalg.norm(exp_so3(v) - r) <= 1e-12
        # A stack mixing this rotation with rotations off the band.
        stack = np.array([r, np.eye(3), exp_so3([0.4, -1.0, 2.0]), r.T, exp_so3(1e-9 * np.ones(3))])
        rows = log_so3_rows(stack)
        for got, matrix in zip(rows, stack):
            assert bitwise_equal(got, log_so3(matrix))

    def test_exact_cut_follows_cut_sign(self):
        r = near_pi_rotation([0.0, 0.0, 1.0], 0.0, True)
        assert_allclose(log_so3_rows(r[None])[0], [0, 0, np.pi])


class TestRows:
    def test_hat_rows_bitwise(self):
        rng = np.random.default_rng(12)
        v = rng.standard_normal((50, 3))
        v[::5, 1] = -0.0
        stack = hat(v)
        assert stack.shape == (50, 3, 3)
        for got, row in zip(stack, v):
            assert bitwise_equal(got, hat(row))

    def test_exp_rows_match_exp(self):
        rng = np.random.default_rng(13)
        v = rng.standard_normal((600, 3)) * np.repeat([1e-12, 1e-9, 1e-7, 0.1, 1.0, 3.0], 100)[:, None]
        axes = rng.standard_normal((50, 3))
        axes /= np.linalg.norm(axes, axis=1)[:, None]
        # Rows at exactly zero, at SMALL_ANGLE and an ulp either side, where
        # the series and the closed form meet, and inside the NEAR_PI band.
        edge = np.concatenate([
            np.zeros((2, 3)),
            SMALL_ANGLE * axes[:10],
            np.nextafter(SMALL_ANGLE, 0.0) * axes[10:20],
            np.nextafter(SMALL_ANGLE, 1.0) * axes[20:30],
            (np.pi - rng.uniform(0.0, NEAR_PI, 10))[:, None] * axes[30:40],
            np.pi * axes[40:],
        ])
        v = np.concatenate([edge, v])
        stack = exp_so3_rows(v)
        assert stack.shape == (len(v), 3, 3)
        assert np.array_equal(stack[:2], np.broadcast_to(np.eye(3), (2, 3, 3)))
        worst = max(np.abs(got - exp_so3(row)).max() for got, row in zip(stack, v))
        # Round-off only: the rows sum products of components, exp_so3
        # multiplies matrices and squares by pow.
        assert worst <= 1e-14
        # R^T R = I to a few ulps: over 20,000 random rows both forms stay
        # within about 2e-15.
        orthogonality = np.abs(np.swapaxes(stack, -1, -2) @ stack - np.eye(3)).max()
        assert orthogonality <= 4e-15

    def test_log_rows_bitwise_over_group(self):
        rng = np.random.default_rng(14)
        stack = np.array([random_rotation(rng) for _ in range(300)] + [np.eye(3)])
        for got, matrix in zip(log_so3_rows(stack), stack):
            assert bitwise_equal(got, log_so3(matrix))


    def test_log_matches_numpy_oracle(self):
        # The component log against its former numpy form (norm, trace,
        # clip, arctan2), off the NEAR_PI band: round-off only.
        def numpy_log(r):
            s = 0.5 * np.array([r[2, 1] - r[1, 2], r[0, 2] - r[2, 0], r[1, 0] - r[0, 1]])
            sin_theta = np.linalg.norm(s)
            theta = np.arctan2(sin_theta, np.clip((np.trace(r) - 1.0) / 2.0, -1.0, 1.0))
            return s if theta < SMALL_ANGLE else (theta / sin_theta) * s

        rng = np.random.default_rng(15)
        axes = rng.standard_normal((700, 3))
        axes /= np.linalg.norm(axes, axis=1)[:, None]
        angles = np.concatenate(
            [10.0 ** rng.uniform(-12, 0, 300), rng.uniform(0.0, np.pi - 2 * NEAR_PI, 400)]
        )
        for axis, angle in zip(axes, angles):
            r = exp_so3(angle * axis)
            assert_allclose(log_so3(r), numpy_log(r), rtol=1e-14, atol=1e-15 * angle)


class TestGeodesicDistance:
    def test_zero_at_equal(self):
        rng = np.random.default_rng(8)
        r = random_rotation(rng)
        assert geodesic_distance(r, r) == 0.0

    def test_maximal_rotation(self):
        assert geodesic_distance(np.eye(3), rot_z(np.pi)) == pytest.approx(np.pi, abs=1e-12)

    def test_symmetry_and_range(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            r1, r2 = random_rotation(rng), random_rotation(rng)
            d12, d21 = geodesic_distance(r1, r2), geodesic_distance(r2, r1)
            assert d12 == pytest.approx(d21, abs=1e-10)
            assert 0.0 <= d12 <= np.pi + 1e-12

    def test_triangle_inequality(self):
        rng = np.random.default_rng(10)
        for _ in range(1000):
            r1, r2, r3 = (random_rotation(rng) for _ in range(3))
            assert geodesic_distance(r1, r3) <= (
                geodesic_distance(r1, r2) + geodesic_distance(r2, r3) + 1e-10
            )

    def test_left_invariance(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            q, r1, r2 = (random_rotation(rng) for _ in range(3))
            assert geodesic_distance(q @ r1, q @ r2) == pytest.approx(
                geodesic_distance(r1, r2), abs=1e-10
            )


class TestInverseRightJacobian:
    """d/de log(exp(v) exp(e)) at e = 0 against central differences of
    ``log_so3``, across the series band and up to the cut."""

    @pytest.mark.parametrize("angle", [0.0, 1e-6, 5e-3, 1.5e-2, 0.7, 2.0, 3.0, np.pi - 1e-2])
    def test_matches_central_differences(self, angle):
        axis = np.array([0.3, -0.5, 0.8]) / np.linalg.norm([0.3, -0.5, 0.8])
        v = angle * axis
        r = exp_so3(v)
        delta = 1e-6
        ref = np.column_stack([
            (log_so3(r @ exp_so3(delta * e)) - log_so3(r @ exp_so3(-delta * e))) / (2.0 * delta)
            for e in np.eye(3)
        ])
        assert_allclose(inverse_right_jacobian(v), ref, rtol=0.0, atol=1e-8)

    def test_series_meets_closed_form(self):
        # Both sides of the series threshold agree to round-off.
        v = np.array([0.6, 0.0, 0.8])
        below = inverse_right_jacobian(np.nextafter(1e-2, 0.0) * v)
        above = inverse_right_jacobian(1e-2 * v)
        assert_allclose(below, above, rtol=0.0, atol=1e-13)

    def test_finite_at_the_cut(self):
        # At theta = pi the coefficient is 1/pi^2; the matrix stays bounded by
        # pi/2 off the axis, the inverse of the right Jacobian's sin(pi/2)/(pi/2).
        for v in (np.array([0.0, 0.0, np.pi]), log_so3(rot_z(np.pi))):
            jac = inverse_right_jacobian(v)
            assert np.all(np.isfinite(jac))
            assert_allclose(np.linalg.svd(jac, compute_uv=False), [np.pi / 2, np.pi / 2, 1.0], rtol=1e-12)
