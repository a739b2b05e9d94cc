"""Seeded quasi-random sampling."""

import pytest

from sdstab.sampling import ball_points


@pytest.mark.parametrize("radius", [0.0, -1.0, float("nan")])
def test_ball_points_rejects_a_non_positive_radius(radius):
    # with a negative or NaN radius the rejection loop never collects a point
    with pytest.raises(ValueError, match="radius must be positive"):
        ball_points(2, 10, radius)
