"""Geometry primitive tests: distances, angles, midpoints."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.geometry.points import (
    angle_at,
    as_points,
    distance,
    distance_matrix,
    midpoint,
    pairwise_distances,
)

coords = st.floats(min_value=-1e6, max_value=1e6)
points = st.tuples(coords, coords).map(np.array)


class TestAsPoints:
    def test_single_point_promoted(self):
        assert as_points(np.array([1.0, 2.0])).shape == (1, 2)

    def test_batch_kept(self):
        assert as_points(np.zeros((5, 2))).shape == (5, 2)

    def test_rejects_wrong_width(self):
        with pytest.raises(ValueError):
            as_points(np.zeros((5, 3)))


class TestDistance:
    def test_pythagorean(self):
        assert distance(np.array([0.0, 0.0]), np.array([3.0, 4.0])) == 5.0

    @given(points, points)
    def test_symmetry(self, a, b):
        assert distance(a, b) == pytest.approx(distance(b, a))

    @given(points, points, points)
    def test_triangle_inequality(self, a, b, c):
        assert distance(a, c) <= distance(a, b) + distance(b, c) + 1e-6

    def test_distance_matrix_shape_and_values(self):
        a = np.array([[0.0, 0.0], [1.0, 0.0]])
        b = np.array([[0.0, 1.0], [0.0, 2.0], [3.0, 4.0]])
        m = distance_matrix(a, b)
        assert m.shape == (2, 3)
        assert m[0, 0] == pytest.approx(1.0)
        assert m[1, 2] == pytest.approx(np.hypot(2.0, 4.0))

    def test_pairwise_diagonal_zero(self):
        pts = np.random.default_rng(0).normal(size=(6, 2))
        m = pairwise_distances(pts)
        np.testing.assert_allclose(np.diag(m), 0.0)
        np.testing.assert_allclose(m, m.T)


class TestAngles:
    def test_right_angle_at_vertex(self):
        vertex = np.array([0.0, 0.0])
        assert angle_at(vertex, np.array([1.0, 0.0]), np.array([0.0, 1.0])) == (
            pytest.approx(np.pi / 2)
        )

    def test_collinear_gives_pi_or_zero(self):
        v = np.array([0.0, 0.0])
        assert angle_at(v, np.array([1.0, 0.0]), np.array([2.0, 0.0])) == (
            pytest.approx(0.0, abs=1e-9)
        )
        assert angle_at(v, np.array([1.0, 0.0]), np.array([-1.0, 0.0])) == (
            pytest.approx(np.pi)
        )

    def test_degenerate_vertex_rejected(self):
        v = np.array([1.0, 1.0])
        with pytest.raises(ValueError):
            angle_at(v, v, np.array([2.0, 2.0]))


class TestTransforms:
    def test_midpoint(self):
        np.testing.assert_allclose(
            midpoint(np.array([0.0, 0.0]), np.array([2.0, 4.0])), [1.0, 2.0]
        )
