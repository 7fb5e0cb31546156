import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from extremal_cech.construct import build_3d
from extremal_cech.geometry import (
    AffineDegeneracyError,
    DimensionMismatchError,
    Sphere,
    barycentric_coordinates,
    barycentric_interior,
    circumsphere,
    is_empty_sphere,
    min_enclosing_ball,
    squared_distance,
)


def miniball_bruteforce(pts):
    """Independent oracle: enumerate every boundary-defining subset, solve
    its circumsphere, keep the smallest ball containing all points."""
    pts = np.asarray(pts, float)
    best = None
    for size in range(1, len(pts) + 1):
        for sub in itertools.combinations(range(len(pts)), size):
            chosen = pts[list(sub)]
            p0 = chosen[0]
            rel = chosen[1:] - p0
            if len(rel):
                gram = rel @ rel.T
                coeff, *_ = np.linalg.lstsq(gram, 0.5 * np.sum(rel * rel, axis=1), rcond=None)
                center = p0 + rel.T @ coeff
            else:
                center = p0.copy()
            radius = float(np.max(np.linalg.norm(pts[list(sub)] - center, axis=1)))
            if np.all(np.linalg.norm(pts - center, axis=1) <= radius + 1e-9):
                if best is None or radius < best[1]:
                    best = (center, radius)
    return best


def ideal_tetrahedron(s):
    """Two disjoint edges of length 2s joined by four unit edges."""
    height = math.sqrt(1.0 - 2.0 * s * s)
    return np.array([
        [-s, 0.0, 0.0],
        [s, 0.0, 0.0],
        [0.0, height, -s],
        [0.0, height, s],
    ])


class TestSquaredDistance:
    def test_identical_points(self):
        assert squared_distance((0.0, 0.0), (0.0, 0.0)) == 0.0

    def test_orthogonal_unit_vectors(self):
        assert squared_distance((1, 0, 0), (0, 1, 0)) == pytest.approx(2.0, abs=0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            squared_distance((1.0, 2.0), (1.0, 2.0, 3.0))

    def test_3d_long_edge_range(self):
        # endpoints of the extreme long edge of the linked-circles set
        delta = 0.01
        ps = build_3d(2, delta)
        d2 = squared_distance(ps.points[0], ps.points[3])
        assert 1.0 - 1e-12 <= d2 <= 1.0 + 2.0 * delta**4 + 1e-12


class TestMinEnclosingBall:
    def test_single_point(self):
        ball = min_enclosing_ball([(2.0, 3.0)])
        assert ball.radius == 0.0
        assert np.allclose(ball.center, (2.0, 3.0))

    def test_segment_midpoint(self):
        ball = min_enclosing_ball([(-1.0, 0.0), (1.0, 0.0)])
        assert ball.radius == pytest.approx(1.0)
        assert np.allclose(ball.center, (0.0, 0.0), atol=1e-12)

    def test_empty_input(self):
        with pytest.raises(ValueError):
            min_enclosing_ball([])

    @pytest.mark.parametrize("x", [1.1920928955078125e-07, 1e-6, 1e-3])
    def test_close_points_are_not_merged(self, x):
        # the inside-slack shrinks with the ball, so a tiny segment keeps
        # its own radius instead of collapsing onto one endpoint
        ball = min_enclosing_ball([[0.0, 0.0], [0.0, x]])
        assert ball.radius == pytest.approx(x / 2, rel=1e-12)

    @pytest.mark.parametrize("s", [0.1, 0.25, 0.4])
    def test_ideal_tetrahedron_radius(self, s):
        # center lies inside, so the miniball is the circumsphere with
        # 4 R^2 = 1 + 2 s^2
        ball = min_enclosing_ball(ideal_tetrahedron(s))
        assert 4.0 * ball.radius**2 == pytest.approx(1.0 + 2.0 * s * s, rel=1e-12)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_bruteforce_oracle(self, data):
        d = data.draw(st.integers(2, 4))
        m = data.draw(st.integers(1, d + 1))
        coords = data.draw(st.lists(
            st.lists(st.floats(-5, 5, allow_nan=False, width=32), min_size=d, max_size=d),
            min_size=m, max_size=m, unique_by=tuple))
        pts = np.asarray(coords, float)
        ball = min_enclosing_ball(pts)
        center, radius = miniball_bruteforce(pts)
        assert ball.radius == pytest.approx(radius, rel=1e-7, abs=1e-9)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_subset_monotone(self, data):
        d = data.draw(st.integers(2, 4))
        m = data.draw(st.integers(2, d + 1))
        pts = np.asarray(data.draw(st.lists(
            st.lists(st.floats(-5, 5, allow_nan=False, width=32), min_size=d, max_size=d),
            min_size=m, max_size=m, unique_by=tuple)), float)
        keep = data.draw(st.integers(1, m - 1))
        big = min_enclosing_ball(pts).radius
        small = min_enclosing_ball(pts[:keep]).radius
        assert small <= big + 1e-12

    @given(st.randoms(use_true_random=False))
    @settings(max_examples=30, deadline=None)
    def test_rigid_motion_invariant(self, rnd):
        rng = np.random.default_rng(rnd.randrange(2**32))
        d = int(rng.integers(2, 5))
        m = int(rng.integers(2, d + 2))
        pts = rng.normal(size=(m, d))
        q, _ = np.linalg.qr(rng.normal(size=(d, d)))
        shift = rng.normal(size=d)
        moved = pts @ q.T + shift
        r0 = min_enclosing_ball(pts).radius
        r1 = min_enclosing_ball(moved).radius
        assert r1 == pytest.approx(r0, rel=1e-9)


class TestCircumsphere:
    @pytest.mark.parametrize("ell", [1, 2, 3, 4, 5])
    def test_regular_simplex(self, ell):
        # unit-edge regular simplex: squared circumradius ell / (2 ell + 2)
        eye = np.eye(ell + 1) / math.sqrt(2.0)
        sphere = circumsphere(eye)
        assert sphere.radius**2 == pytest.approx(ell / (2.0 * ell + 2.0), rel=1e-12)

    @pytest.mark.parametrize("s", [0.1, 0.3, 0.45])
    def test_ideal_triangle(self, s):
        height = math.sqrt(1.0 - s * s)
        tri = np.array([[-s, 0.0], [s, 0.0], [0.0, height]])
        sphere = circumsphere(tri)
        assert 4.0 * sphere.radius**2 == pytest.approx(1.0 / (1.0 - s * s), rel=1e-12)

    def test_two_points_equals_miniball(self):
        pts = np.array([[0.0, 1.0, 2.0], [3.0, -1.0, 0.5]])
        a = circumsphere(pts)
        b = min_enclosing_ball(pts)
        assert a.radius == pytest.approx(b.radius, rel=1e-12)
        assert np.allclose(a.center, b.center, atol=1e-12)

    def test_collinear_rejected(self):
        with pytest.raises(AffineDegeneracyError):
            circumsphere([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)])

    def test_too_many_points_rejected(self):
        with pytest.raises(AffineDegeneracyError):
            circumsphere(np.random.default_rng(0).normal(size=(4, 2)))

    def test_radius_at_least_miniball(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            pts = rng.normal(size=(3, 3))
            assert circumsphere(pts).radius >= min_enclosing_ball(pts).radius - 1e-12


class TestBarycentric:
    def test_barycenter_is_interior(self):
        tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        assert barycentric_interior(tri, tri.mean(axis=0))

    def test_vertex_is_not_interior(self):
        tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        assert not barycentric_interior(tri, tri[0])

    def test_coordinates_sum_to_one(self):
        tri = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        coords = barycentric_coordinates(tri, np.array([0.25, 0.25, 0.0]))
        assert coords.sum() == pytest.approx(1.0, rel=1e-12)

    def test_point_off_hull_rejected(self):
        tri = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        with pytest.raises(ValueError):
            barycentric_coordinates(tri, np.array([0.2, 0.2, 0.5]))


class TestEmptySphere:
    def test_radius_zero_off_data(self):
        pts = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert is_empty_sphere(Sphere(np.array([5.0, 5.0]), 0.0), pts)

    def test_3d_long_edge_sphere_strictly_empty(self):
        ps = build_3d(2, 0.01)
        ball = min_enclosing_ball(ps.points[[0, 3]])
        assert is_empty_sphere(ball, ps, exclude=(0, 3))

    def test_even_global_sphere_relaxed_vs_strict(self):
        from extremal_cech.construct import build_even
        ps = build_even(2, 5)
        sphere = Sphere(np.zeros(4), math.sqrt(2.0) / 2.0)
        assert not is_empty_sphere(sphere, ps)
