import itertools

import numpy as np
import pytest

from conftest import (
    critical_instance,
    disjoint_instance,
    lens_instance,
    random_supported_instance,
)
from seblab.errors import (
    DimensionTooLarge,
    EmptyInteriorError,
    ValidationError,
)
from seblab.geometry import Instance
from seblab.sampling import (
    SampleCloud,
    SampleMethod,
    cloud_meb,
    default_box,
    farthest_distance,
    grid_min_maxg,
    grid_resolution_bound,
    sample_intersection,
)
from seblab.solver import solve_seb


SHIFT = np.array([1e6, 0.0])


def moved_lens():
    """The lens translated by SHIFT; its optimal ball is B(SHIFT, 1)."""
    lens = lens_instance()
    return Instance.from_data(lens.centers_matrix() + SHIFT, lens.radii())


def max_violation(instance, points):
    centers = instance.centers_matrix()
    radii2 = instance.radii() ** 2
    d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    return float((d2 - radii2[None, :]).max())


class TestSampleIntersection:
    @pytest.mark.parametrize("method", list(SampleMethod))
    def test_points_are_feasible(self, method):
        lens, far = lens_instance(), moved_lens()
        # the moved lens's chains start at its known center, which keeps
        # this a check of the sampler alone; its tolerance is relative to
        # the balls, since |center|^2 ~ 1e12 would hide misses
        for inst, start, tol in (
                (lens, None, 1e-9 * lens.scale()),
                (far, SHIFT, 1e-9 * float((far.radii() ** 2).max()))):
            cloud = sample_intersection(inst, 500, seed=3, method=method,
                                        start=start)
            assert len(cloud) == 500
            assert cloud.points.shape == (500, 2)
            assert max_violation(inst, cloud.points) <= tol

    def test_moved_lens_slater_point(self):
        # without `start` the chains begin at the solver's Slater point
        far = moved_lens()
        cloud = sample_intersection(far, 5, seed=3)
        assert len(cloud) == 5
        assert max_violation(far, cloud.points) <= 1e-9 * float(
            (far.radii() ** 2).max())

    def test_rejection_single_ball_is_uniform_box_restriction(self):
        inst = Instance.from_data([[1.0, -2.0]], [0.5])
        cloud = sample_intersection(inst, 2000, seed=1,
                                    method=SampleMethod.REJECTION)
        assert cloud.method is SampleMethod.REJECTION
        assert max_violation(inst, cloud.points) <= 1e-9
        # sample mean near the center for a symmetric body
        assert np.allclose(cloud.points.mean(axis=0), [1.0, -2.0], atol=0.05)

    def test_hit_and_run_reaches_both_lobes(self):
        # the lens is symmetric about x2 = 0; a mixing chain covers both sides
        cloud = sample_intersection(lens_instance(), 2000, seed=7)
        assert (cloud.points[:, 1] > 0.1).sum() > 200
        assert (cloud.points[:, 1] < -0.1).sum() > 200

    def test_seed_reproducibility(self):
        inst = critical_instance()
        c1 = sample_intersection(inst, 100, seed=42)
        c2 = sample_intersection(inst, 100, seed=42)
        c3 = sample_intersection(inst, 100, seed=43)
        assert np.array_equal(c1.points, c2.points)
        assert not np.array_equal(c1.points, c3.points)

    def test_hit_and_run_translation_equivariant(self):
        # chords are computed relative to the start point, so moving the
        # balls and the start by 1e6 moves the cloud and nothing else
        near = sample_intersection(lens_instance(), 500, seed=3,
                                   start=np.zeros(2))
        moved = sample_intersection(moved_lens(), 500, seed=3, start=SHIFT)
        assert np.allclose(moved.points - SHIFT, near.points, rtol=0,
                           atol=1e-9)

    def test_global_rng_untouched(self):
        np.random.seed(7)
        expected = np.random.random(3)
        np.random.seed(7)
        sample_intersection(lens_instance(), 5, seed=1)
        assert np.array_equal(np.random.random(3), expected)

    @pytest.mark.parametrize("count", [1, 5, 300, 1000])
    def test_count_around_chain_rounds(self, count):
        # below, between and above multiples of the chain count
        inst = critical_instance()
        start = solve_seb(inst).center
        c1 = sample_intersection(inst, count, seed=4, start=start,
                                 burn_in=0, thin=1)
        c2 = sample_intersection(inst, count, seed=4, start=start,
                                 burn_in=0, thin=1)
        assert c1.points.shape == (count, 2)
        assert max_violation(inst, c1.points) <= 1e-9 * inst.scale()
        assert np.array_equal(c1.points, c2.points)

    def test_disjoint_raises(self):
        with pytest.raises(EmptyInteriorError):
            sample_intersection(disjoint_instance(), 10)

    def test_zero_count(self):
        cloud = sample_intersection(lens_instance(), 0)
        assert len(cloud) == 0 and cloud.points.shape == (0, 2)

    def test_negative_count_rejected(self):
        with pytest.raises(ValidationError):
            sample_intersection(lens_instance(), -1)

    def test_random_instances_feasible(self, rng):
        for n in (2, 3, 4):
            inst = random_supported_instance(rng, n)
            cloud = sample_intersection(inst, 300, seed=n)
            assert max_violation(inst, cloud.points) <= 1e-8 * inst.scale()


class TestFarthestDistance:
    def test_examples(self):
        cloud = SampleCloud(points=[[0.0, 0.0], [3.0, 4.0]], seed=0,
                            method=SampleMethod.REJECTION)
        assert farthest_distance(cloud, [0.0, 0.0]) == 5.0
        assert farthest_distance(cloud, [3.0, 4.0]) == 5.0
        assert farthest_distance(cloud, [1.5, 2.0]) == 2.5

    def test_empty_rejected(self):
        empty = SampleCloud(points=np.empty((0, 2)), seed=0,
                            method=SampleMethod.REJECTION)
        with pytest.raises(ValidationError):
            farthest_distance(empty, [0.0, 0.0])

    def test_lower_bounds_enclosing_radius(self):
        inst = lens_instance()
        sol = solve_seb(inst)
        cloud = sample_intersection(inst, 5000, seed=2)
        assert farthest_distance(cloud, sol.center) <= sol.radius + 1e-9


def brute_force_circle(points):
    """Smallest circle through one point (radius 0), a pair (diametral) or a
    triple (circumscribed) of the 2-D points that encloses them all:
    (center, r)."""
    centers = list(points) + [
        (points[i] + points[j]) / 2.0
        for i, j in itertools.combinations(range(len(points)), 2)]
    for i, j, k in itertools.combinations(range(len(points)), 3):
        M = 2.0 * np.array([points[j] - points[i], points[k] - points[i]])
        if abs(np.linalg.det(M)) <= 1e-12 * np.abs(M).max() ** 2:
            continue  # collinear or repeated: no circumscribed circle
        rhs = [points[j] @ points[j] - points[i] @ points[i],
               points[k] @ points[k] - points[i] @ points[i]]
        centers.append(np.linalg.solve(M, rhs))
    radii = [np.linalg.norm(points - c, axis=1).max() for c in centers]
    best = int(np.argmin(radii))
    return centers[best], radii[best]


def as_cloud(points):
    return SampleCloud(points=points, seed=0, method=SampleMethod.REJECTION)


class TestCloudMeb:
    def test_two_points(self):
        c, r = cloud_meb(as_cloud([[0.0, 0.0], [2.0, 0.0]]))
        assert np.allclose(c, [1.0, 0.0], rtol=0.0, atol=1e-12)
        assert r == pytest.approx(1.0, rel=1e-12)

    def test_singleton(self):
        c, r = cloud_meb(as_cloud([[5.0, -1.0]]))
        assert np.allclose(c, [5.0, -1.0]) and r == 0.0

    def test_encloses_all_points(self, rng):
        pts = rng.standard_normal((200, 3)) * 2
        c, r = cloud_meb(as_cloud(pts))
        dists = np.linalg.norm(pts - c, axis=1)
        assert dists.max() <= r * (1 + 1e-12)
        # the covering radius is convex in the center: no nearby center
        # does better than the returned one
        for d in np.random.default_rng(5).standard_normal((50, 3)) * 1e-3:
            nearby = np.linalg.norm(pts - c - d, axis=1).max()
            assert nearby >= r * (1 - 1e-12)

    def test_matches_brute_force_circle(self):
        rng = np.random.default_rng(2025)
        clouds = [rng.standard_normal((int(rng.integers(1, 13)), 2))
                  * rng.uniform(0.1, 10.0) for _ in range(20)]
        angles = np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False) + 0.3
        circle = np.column_stack([np.cos(angles), np.sin(angles)])
        clouds.append(3.0 * circle + [1.0, -2.0])       # co-circular
        clouds.append(np.vstack([circle[:3]] * 3))      # triplicated points
        clouds.append(np.vstack([clouds[0], clouds[0][:2]]))  # duplicates
        for pts in clouds:
            c, r = cloud_meb(as_cloud(pts))
            c0, r0 = brute_force_circle(pts)
            assert r == pytest.approx(r0, rel=1e-12, abs=1e-15)
            assert np.linalg.norm(c - c0) <= 1e-12 * r0

    def test_translation_equivariant(self):
        pts = np.random.default_rng(4).standard_normal((500, 3))
        shift = np.array([1e6, -1e6, 1e6])
        c, r = cloud_meb(as_cloud(pts))
        c_far, r_far = cloud_meb(as_cloud(pts + shift))
        # moving the points rounds them to about 1e-10
        assert np.allclose(c_far, c + shift, rtol=0.0, atol=1e-9)
        assert r_far == pytest.approx(r, abs=1e-9)

    def test_lower_bounds_solver_radius(self):
        inst = lens_instance()
        sol = solve_seb(inst)
        cloud = sample_intersection(inst, 5000, seed=9)
        _, r = cloud_meb(cloud)
        assert r <= sol.radius * (1 + 1e-9)


class TestGridMinMaxG:
    def test_lens_value(self):
        # max_i g_i at the origin equals -q* = -1; the grid approaches it
        val = grid_min_maxg(lens_instance(), 201)
        bound = grid_resolution_bound(lens_instance(), 201)
        assert val >= -1.0 - 1e-12
        assert val <= -1.0 + bound

    def test_moved_lens(self):
        # the bound depends on distances inside the box, not on its
        # distance from the origin, so moving the lens by 1e6 keeps it; the
        # grid of even resolution has a node at the optimum, value -1
        bound = grid_resolution_bound(lens_instance(), 200)
        far_bound = grid_resolution_bound(moved_lens(), 200)
        assert far_bound == pytest.approx(bound, rel=1e-9)
        val = grid_min_maxg(moved_lens(), 200)
        assert -1.0 - 1e-9 <= val <= -1.0 + far_bound

    def test_disjoint_value(self):
        # two unit balls centered (+-5, 0): min of max g_i is at the origin,
        # value 25 - 1 = 24
        inst = disjoint_instance()
        val = grid_min_maxg(inst, 241)
        bound = grid_resolution_bound(inst, 241)
        assert val >= 24.0 - 1e-9
        assert val <= 24.0 + bound

    def test_matches_negated_qp_value(self, rng):
        for n in (2, 3):
            inst = random_supported_instance(rng, n)
            sol = solve_seb(inst)
            res = 81 if n == 3 else 301
            val = grid_min_maxg(inst, res)
            bound = grid_resolution_bound(inst, res)
            assert val >= -sol.qp_value - 1e-9
            assert val <= -sol.qp_value + bound

    def test_dimension_guard(self):
        inst = Instance.from_data([np.zeros(4)], [1.0])
        with pytest.raises(DimensionTooLarge):
            grid_min_maxg(inst, 10)

    def test_resolution_validation(self):
        with pytest.raises(ValidationError):
            grid_min_maxg(lens_instance(), 0)


def test_default_box_covers_all_balls():
    lo, hi = default_box(lens_instance())
    assert np.array_equal(lo, [-2.0 - np.sqrt(2) + 1, -np.sqrt(2)])
    lo, hi = default_box(disjoint_instance(), pad=0.5)
    assert np.array_equal(lo, [-6.5, -1.5])
    assert np.array_equal(hi, [6.5, 1.5])
