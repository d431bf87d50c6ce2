import dataclasses
import itertools

import numpy as np
import pytest

from conftest import (
    critical_instance,
    disjoint_instance,
    lens_3d_instance,
    lens_instance,
    random_supported_instance,
    traced_peak_mb,
)
from seblab.errors import (
    DimensionMismatch,
    DimensionTooLarge,
    EmptyInteriorError,
    ValidationError,
)
from seblab import kernels
from seblab.geometry import Instance
from seblab.sampling import (
    BURN_IN,
    THIN,
    SampleCloud,
    SampleMethod,
    _default_box,
    _feasible_rows,
    _proposal_ball,
    cloud_meb,
    farthest_distance,
    grid_min_maxg,
    grid_resolution_bound,
    sample_intersection,
)
from seblab import sampling, solver
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


def fallback_instance(shift=0.0, scale=1.0):
    """16 balls centered at the unit vectors of R^16, radius 1.2, scaled and
    then moved by `shift`: the solver's ball keeps about 4 in 10,000 of its
    uniform draws, so the sampler falls back to hit-and-run. The origin
    (moved by `shift`) lies strictly inside every ball."""
    return Instance.from_data(np.eye(16) * scale + shift,
                              np.full(16, 1.2 * scale))


def chains(instance, count, seed, start, burn_in=BURN_IN, thin=THIN):
    """Hit-and-run points of the instance, the sampler's fallback."""
    return kernels.hit_and_run(instance.centers_matrix(), instance.radii(),
                               np.asarray(start, dtype=float), count,
                               burn_in, thin, seed)


def rejection_stream(instance, seed, rows):
    """The first `rows` in-ball draws of the rejection stream: batches of
    TILE // (4 n) uniform points of the multipliers' ball, in the sampler's
    arithmetic, each kept when it lies inside every input ball."""
    center, radius = _proposal_ball(instance, solve_seb(instance).multipliers)
    n = instance.dimension
    batch = kernels.TILE // (4 * n)
    centers = instance.centers_matrix() - center
    rng = np.random.default_rng(seed)
    kept = []
    while sum(len(k) for k in kept) < rows:
        X = rng.standard_normal((batch, n))
        X *= (radius * rng.random(batch) ** (1.0 / n)
              / np.sqrt(np.einsum("ij,ij->i", X, X)))[:, None]
        D2 = ((X[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        kept.append(X[(D2 <= instance.radii() ** 2).all(axis=1)])
    return np.vstack(kept)[:rows] + center


class TestSampleIntersection:
    @pytest.mark.parametrize("method", list(SampleMethod))
    def test_points_are_feasible(self, method):
        # the input picks the path: the lens takes rejection, the
        # 16-dimensional instance falls back to hit-and-run. The moved
        # instance's chains start at a known interior point, which keeps
        # this a check of the sampler alone; its tolerance is relative to
        # the balls, since |center|^2 ~ 1e12 would hide misses
        if method is SampleMethod.REJECTION:
            near, far, far_start = lens_instance(), moved_lens(), SHIFT
        else:
            far_start = np.full(16, 1e6)
            near, far = fallback_instance(), fallback_instance(far_start)
        n = near.dimension
        for inst, start, tol in (
                (near, None, 1e-9 * near.scale()),
                (far, far_start, 1e-9 * float((far.radii() ** 2).max()))):
            cloud = sample_intersection(inst, 500, seed=3, start=start)
            assert cloud.method is method
            assert len(cloud) == 500
            assert cloud.points.shape == (500, n)
            assert max_violation(inst, cloud.points) <= tol

    def test_cloud_leaves_the_callers_array_writable(self):
        a = np.zeros((3, 2))
        cloud = SampleCloud(a, 0, SampleMethod.REJECTION)
        assert a.flags.writeable
        assert not cloud.points.flags.writeable
        a[0, 0] = 1.0
        assert cloud.points[0, 0] == 0.0

    @pytest.mark.parametrize("method", list(SampleMethod))
    def test_cloud_keeps_the_drawn_array(self, method, monkeypatch):
        # the draws are wrapped as they come, with no second points array
        if method is SampleMethod.REJECTION:
            inst, module, name = lens_instance(), sampling, "_ball_rejection"
        else:
            inst, module, name = fallback_instance(), kernels, "hit_and_run"
        drawn = []
        draw = getattr(module, name)

        def recorded(*args):
            drawn.append(draw(*args))
            return drawn[-1]

        monkeypatch.setattr(module, name, recorded)
        cloud = sample_intersection(inst, 50, seed=3)
        assert cloud.method is method
        assert cloud.points is drawn[0]
        assert cloud.points.flags.owndata
        assert not cloud.points.flags.writeable

    def test_moved_lens_slater_point(self):
        # without `start` the chains begin at the solver's center, a
        # Slater point: on the lens moved by 1e6 (taken to the chains
        # directly, as rejection serves the lens) and on the fallback
        # instance moved by 1e6, which the sampler hands to the chains
        far = moved_lens()
        center = solve_seb(far).center
        assert max_violation(far, center[None]) < 0.0
        pts = chains(far, 5, 3, center)
        assert max_violation(far, pts) <= 1e-9 * float(
            (far.radii() ** 2).max())
        far = fallback_instance(np.full(16, 1e6))
        cloud = sample_intersection(far, 5, seed=3)
        assert cloud.method is SampleMethod.HIT_AND_RUN
        assert len(cloud) == 5
        assert max_violation(far, cloud.points) <= 1e-9 * float(
            (far.radii() ** 2).max())

    @pytest.mark.parametrize("s", [1e-8, 1e8])
    def test_scaled_lens_slater_point(self, s):
        lens = lens_instance()
        scaled = Instance.from_data(lens.centers_matrix() * s,
                                    lens.radii() * s)
        center = solve_seb(scaled).center
        assert max_violation(scaled, center[None]) < 0.0
        pts = chains(scaled, 5, 3, center)
        assert max_violation(scaled, pts) <= 1e-9 * 2.0 * s * s
        assert np.sqrt(np.einsum("ij,ij->i", pts, pts).max()) <= s * (
            1.0 + 1e-12)
        scaled = fallback_instance(scale=s)
        cloud = sample_intersection(scaled, 5, seed=3)
        assert cloud.method is SampleMethod.HIT_AND_RUN
        assert len(cloud) == 5
        assert max_violation(scaled, cloud.points) <= 1e-9 * 1.44 * s * s

    def test_rejection_single_ball_moments(self):
        # uniform on B(c, r) in R^3: mean c, and E|x - c|^2 = 3 r^2 / 5
        c, r = np.array([1.0, -2.0, 0.5]), 0.5
        inst = Instance.from_data([c], [r])
        cloud = sample_intersection(inst, 4000, seed=1)
        assert cloud.method is SampleMethod.REJECTION
        assert max_violation(inst, cloud.points) <= 1e-12
        # five standard errors: 0.0071 r per coordinate, 0.0041 r^2
        assert np.allclose(cloud.points.mean(axis=0), c, rtol=0.0,
                           atol=0.035 * r)
        D = cloud.points - c
        assert np.einsum("ij,ij->i", D, D).mean() == pytest.approx(
            0.6 * r * r, abs=0.02 * r * r)

    def test_proposal_ball_holds_the_intersection(self, rng):
        # any simplex weights give a ball holding every feasible point;
        # the points come from hit-and-run, which does not use that ball
        lens = lens_instance()
        for mu, center, r in (([0.5, 0.5], [0.0, 0.0], 1.0),
                              ([1.0, 0.0], [-1.0, 0.0], np.sqrt(2.0))):
            a, radius = _proposal_ball(lens, mu)
            assert np.allclose(a, center, rtol=0.0, atol=1e-15)
            assert radius == pytest.approx(r, rel=1e-15)
        for n in (2, 3, 4):
            inst = random_supported_instance(rng, n)
            cloud = SampleCloud(chains(inst, 500, n, solve_seb(inst).center),
                                n, SampleMethod.HIT_AND_RUN)
            for _ in range(5):
                a, radius = _proposal_ball(inst, rng.dirichlet(
                    np.ones(inst.m)))
                assert farthest_distance(cloud, a) <= radius * (1 + 1e-12)

    def test_shrunken_solution_ball_is_exceeded(self):
        # the draws come from the multipliers alone: a solution whose
        # radius is too small, or whose center is off, is still sampled
        # over the whole lens, so the cloud reaches outside its ball
        lens = lens_instance()
        sol = solve_seb(lens)
        for bad in (dataclasses.replace(sol, radius=0.9 * sol.radius),
                    dataclasses.replace(sol, center=sol.center + [0.0, 0.3])):
            cloud = sample_intersection(lens, 2000, seed=2, solution=bad)
            assert cloud.method is SampleMethod.REJECTION
            assert max_violation(lens, cloud.points) <= 0.0
            assert farthest_distance(cloud, bad.center) > bad.radius + 0.05

    def test_held_solution_saves_the_solve(self, monkeypatch):
        # a caller that holds the solution gets the cloud the call would
        # draw after its own solve, without a second solve, on either path
        cases = [(inst, method, solve_seb(inst),
                  sample_intersection(inst, 500, 3))
                 for inst, method in (
                     (lens_instance(), SampleMethod.REJECTION),
                     (fallback_instance(), SampleMethod.HIT_AND_RUN))]

        def no_solve(*args, **kwargs):
            raise AssertionError("sample_intersection solved again")

        monkeypatch.setattr(solver, "solve_seb", no_solve)
        for inst, method, sol, own in cases:
            held = sample_intersection(inst, 500, seed=3, solution=sol)
            assert own.method is held.method is method
            assert np.array_equal(held.points, own.points)

    def test_filter_rejects_points_just_outside(self):
        # |x - a|^2 = r^2 (1 + 5e-10) lies outside: a 1e-9 r^2 slack let it
        # through, and the benchmark's containment check allows 1e-12
        for r in (1.0, 3.0):
            X = np.array([[r * np.sqrt(1.0 + 5e-10), 0.0], [r, 0.0],
                          [0.0, -r], [0.5 * r, 0.5 * r]])
            assert np.array_equal(
                _feasible_rows(np.zeros((1, 2)), np.array([r]), X), [1, 2, 3])

    def test_rejection_batches_split_one_stream(self):
        # fixed batches split one stream of draws: the cloud is the first
        # `count` in-ball rows of that stream, a smaller count gives a
        # prefix of it, and the batches, not the count, bound the working
        # memory
        c, r = np.array([0.5, -1.0, 2.0]), 1.5
        inst = Instance.from_data([c], [r])
        count = 20000
        cloud = sample_intersection(inst, count, seed=6)
        assert np.array_equal(cloud.points, rejection_stream(inst, 6, count))
        assert np.array_equal(sample_intersection(inst, 100, seed=6).points,
                              cloud.points[:100])
        # the cloud itself is 0.48 MB; an uncapped batch of 4 count rows
        # was 6.5 MB
        peak = traced_peak_mb(sample_intersection, inst, count, 6)
        assert peak < 2.0

    def test_rejection_holds_one_output(self):
        # accepted rows go straight into the (count, n) output, which is
        # moved to the ball's center in place, so beyond it only one batch
        # and its filter are live; stacking a list of kept batches held the
        # rows about twice more (9.95 MB), and so does `out + center`
        inst = lens_3d_instance()
        count = 200_000
        output_mb = count * 3 * 8 / 1e6
        # the first draw of a process imports modules (0.7 MB); not counted
        assert sample_intersection(inst, 1, 4).method is (
            SampleMethod.REJECTION)
        peak = traced_peak_mb(sample_intersection, inst, count, 4)
        assert peak < output_mb + 1.5

    def test_rejection_working_set_on_lens(self):
        # 2,000 points of the 3-D lens, as the verification workloads draw
        # them: the output (0.048 MB), one batch scaled in place, the
        # filter's per-row vectors and the solve, 0.22 MB; a (rows, n)
        # difference per ball took 0.28 MB, scaling through temporaries
        # and gathering every row for the first ball 0.34 MB, and
        # hit-and-run from the center 0.86 MB
        inst = lens_3d_instance()
        sample_intersection(inst, 1, 4)
        peak = traced_peak_mb(sample_intersection, inst, 2000, 4)
        assert peak < 0.25

    def test_hit_and_run_reaches_both_lobes(self):
        # the lens is symmetric about x2 = 0; a mixing chain covers both sides
        pts = chains(lens_instance(), 2000, 7, np.zeros(2))
        assert (pts[:, 1] > 0.1).sum() > 200
        assert (pts[:, 1] < -0.1).sum() > 200

    def test_rejection_reaches_both_lobes(self):
        # each side of the strip |x2| <= 0.1 holds 43 % of the lens's area:
        # 855 of 2,000 i.i.d. uniform points expected, standard deviation 22
        cloud = sample_intersection(lens_instance(), 2000, seed=7)
        assert cloud.method is SampleMethod.REJECTION
        assert (cloud.points[:, 1] > 0.1).sum() > 700
        assert (cloud.points[:, 1] < -0.1).sum() > 700

    def test_high_dimension_falls_back_to_hit_and_run(self):
        # the first batch of ball draws keeps (almost) nothing, so the call
        # hands over to the chains and says so
        inst = fallback_instance()
        cloud = sample_intersection(inst, 300, seed=2)
        assert cloud.method is SampleMethod.HIT_AND_RUN
        assert cloud.points.shape == (300, 16)
        assert max_violation(inst, cloud.points) <= 1e-9 * inst.scale()

    def test_seed_reproducibility(self):
        # one seed gives one cloud on either path, and seeds apart by 2^31
        # give different clouds: the chains take the seed as given
        for inst, method in ((critical_instance(), SampleMethod.REJECTION),
                             (fallback_instance(), SampleMethod.HIT_AND_RUN)):
            c1 = sample_intersection(inst, 100, seed=42)
            c2 = sample_intersection(inst, 100, seed=42)
            assert c1.method is method
            assert np.array_equal(c1.points, c2.points)
            for other in (43, 42 + 2**31):
                c3 = sample_intersection(inst, 100, seed=other)
                assert c3.method is method and c3.seed == other
                assert not np.array_equal(c1.points, c3.points)

    def test_hit_and_run_translation_equivariant(self):
        # chords are computed relative to the start point, so moving the
        # balls and the start by 1e6 moves the cloud and nothing else
        near = chains(lens_instance(), 500, 3, np.zeros(2))
        moved = chains(moved_lens(), 500, 3, SHIFT)
        assert np.allclose(moved - SHIFT, near, rtol=0, atol=1e-9)

    def test_rejection_translation_equivariant(self):
        # draws and filter are taken about the solver's center, so moving
        # the balls by 1e6 moves the cloud and nothing else
        near = sample_intersection(lens_instance(), 500, seed=3)
        moved = sample_intersection(moved_lens(), 500, seed=3)
        assert near.method is moved.method is SampleMethod.REJECTION
        assert np.allclose(moved.points - SHIFT, near.points, rtol=0,
                           atol=1e-9)

    def test_global_rng_untouched(self):
        for inst in (lens_instance(), fallback_instance()):
            np.random.seed(7)
            expected = np.random.random(3)
            np.random.seed(7)
            sample_intersection(inst, 5, seed=1)
            assert np.array_equal(np.random.random(3), expected)

    @pytest.mark.parametrize("count", [1, 5, 300, 1000])
    def test_count_around_chain_rounds(self, count):
        # below, between and above multiples of the chain count
        inst = critical_instance()
        start = solve_seb(inst).center
        c1 = chains(inst, count, 4, start, burn_in=0, thin=1)
        c2 = chains(inst, count, 4, start, burn_in=0, thin=1)
        assert c1.shape == (count, 2)
        assert max_violation(inst, c1) <= 1e-9 * inst.scale()
        assert np.array_equal(c1, c2)

    def test_disjoint_raises(self):
        with pytest.raises(EmptyInteriorError):
            sample_intersection(disjoint_instance(), 10)

    def test_hit_and_run_start_is_tested(self):
        # the chains start only strictly inside every ball: a given start
        # on a sphere or outside, or a solution center outside a ball (no
        # cycle run on the disjoint pair), raises before any step
        inst = fallback_instance()
        for start in (np.eye(16)[0] * -0.2, np.full(16, 1.0)):
            with pytest.raises(EmptyInteriorError, match="start"):
                sample_intersection(inst, 10, start=start)
        disjoint = disjoint_instance()
        sol = solve_seb(disjoint, max_iter=0)
        with pytest.raises(EmptyInteriorError, match="start"):
            sample_intersection(disjoint, 10, solution=sol)

    @pytest.mark.parametrize("count", [0, 10])
    def test_start_is_checked_on_every_path(self, count, monkeypatch):
        # a start of the wrong shape once broadcast (the 24-D chains ran
        # from the origin) and a non-finite one was read as outside a
        # ball; both are refused before the solve or any draw, on the
        # rejection path (the lens) and the fallback (24 unit vectors)
        def broken(*args, **kwargs):
            raise AssertionError("the sampler ran with an unchecked start")

        monkeypatch.setattr(solver, "solve_seb", broken)
        monkeypatch.setattr(sampling, "_ball_rejection", broken)
        monkeypatch.setattr(kernels, "hit_and_run", broken)
        for inst in (lens_3d_instance(),
                     Instance.from_data(np.eye(24), np.full(24, 1.2))):
            n = inst.dimension
            for start in ([0.0], np.zeros((1, n)), np.zeros(n + 1)):
                with pytest.raises(DimensionMismatch, match="start"):
                    sample_intersection(inst, count, start=start)
            for bad in (np.nan, np.inf):
                start = np.zeros(n)
                start[-1] = bad
                with pytest.raises(ValidationError, match="start"):
                    sample_intersection(inst, count, start=start)

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

    def test_center_is_checked(self):
        # a center of the wrong shape once broadcast: [0.0] against a 3-D
        # cloud returned 0.998
        cloud = sample_intersection(lens_3d_instance(), 100, seed=2)
        for center in ([0.0], [0.0, 0.0], np.zeros((1, 3)), np.zeros(4)):
            with pytest.raises(DimensionMismatch, match="center"):
                farthest_distance(cloud, center)
        for bad in (np.nan, -np.inf):
            with pytest.raises(ValidationError, match="center"):
                farthest_distance(cloud, [0.0, bad, 0.0])


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

    def test_zero_iterations_give_the_start_ball(self):
        # the diameter pair from the first point is (1.0, 1.9) and (0, 0):
        # no major cycle leaves their midpoint, whose ball covers the
        # cloud but is larger than the exact one
        pts = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 1.9]])
        c, r = cloud_meb(as_cloud(pts), 0)
        assert np.allclose(c, [0.5, 0.95], rtol=0.0, atol=1e-15)
        assert r == pytest.approx(np.linalg.norm(pts - c, axis=1).max(),
                                  rel=1e-15)
        assert r > cloud_meb(as_cloud(pts))[1]

    def test_negative_iterations_raise(self):
        with pytest.raises(ValidationError, match="iterations"):
            cloud_meb(as_cloud([[0.0, 0.0], [2.0, 0.0]]), -1)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError, match="empty cloud"):
            cloud_meb(as_cloud(np.empty((0, 2))))

    def test_working_memory(self):
        # each O(Nn) difference is formed once: the centred points, the
        # diameter pair's differences (freed before the kernel) and two
        # length-N vectors, 2.7 times the cloud's bytes on 100,000 points
        # of the 3-D lens; keeping the pair's differences through the
        # kernel and subtracting the center twice took 5.0 times
        cloud = sample_intersection(lens_3d_instance(), 100_000, seed=3)
        cloud_meb(as_cloud(cloud.points[:10]))
        peak = traced_peak_mb(cloud_meb, cloud)
        assert peak <= 3.5 * cloud.points.nbytes / 1e6


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
        # the grid and its bound take one resolution through one check: a
        # count >= 1, and no float or bool, which a scan would truncate
        # (2.5 to 2, True to 1) while the bound divides by it as given
        lens = lens_instance()
        for oracle in (grid_min_maxg, grid_resolution_bound):
            for resolution in (0, -3, 2.5, 2.0, np.float64(3.0), True, False,
                               "4", None):
                with pytest.raises(ValidationError):
                    oracle(lens, resolution)
            assert oracle(lens, np.int64(7)) == oracle(lens, 7)


def test_default_box_covers_all_balls():
    lo, hi = _default_box(lens_instance())
    assert np.array_equal(lo, [-2.0 - np.sqrt(2) + 1, -np.sqrt(2)])
    lo, hi = _default_box(disjoint_instance())
    assert np.array_equal(lo, [-6.0, -1.0])
    assert np.array_equal(hi, [6.0, 1.0])
