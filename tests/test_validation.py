"""The input checks at the edges of their fixed tolerances."""

import pytest

from so3mpc.errors import NotPositiveDefinite, NotRotation
from so3mpc.so3 import exp_so3
from so3mpc.validation import (
    ROTATION_ATOL,
    SPD_SYMMETRY_RTOL,
    check_rotation,
    check_spd,
)

from conftest import J_REF


@pytest.mark.parametrize("factor, rejected", [(0.1, False), (10.0, True)])
def test_rotation_tolerance(factor, rejected):
    # (1 + e) R has ||R^T R - I||_F = sqrt(3) (2e + e^2) and det (1 + e)^3.
    scaled = (1.0 + factor * ROTATION_ATOL) * exp_so3([0.3, -0.2, 0.5])
    if rejected:
        with pytest.raises(NotRotation, match="not orthogonal"):
            check_rotation(scaled)
    else:
        check_rotation(scaled)


@pytest.mark.parametrize("factor, rejected", [(1.0, False), (2.0, True)])
def test_spd_symmetry_tolerance_is_relative(factor, rejected):
    # An off-diagonal gap d gives ||A - A^T||_F = sqrt(2) d, against the
    # tolerance times ||A||_F = 1e3 ||J_REF||_F, about 2.2e3; the accepted
    # gap is 1e3 times the tolerance itself.
    a = 1e3 * J_REF
    a[0, 1] = factor * 1e3 * SPD_SYMMETRY_RTOL
    if rejected:
        with pytest.raises(NotPositiveDefinite, match="not symmetric"):
            check_spd(a)
    else:
        check_spd(a)
