import itertools

import numpy as np
import pytest

from conftest import (
    CORPUS_FAMILIES,
    FAR_BALL,
    corpus,
    lens_instance,
    random_supported_instance,
    tall_instance,
    traced_peak_mb,
)
from seblab import Instance, kernels, sampling, simplex_qp, solver


def brute_force_grid(centers, radii, lo, hi, resolution):
    """max_i g_i evaluated node by node over the grid, then minimized."""
    axes = [np.linspace(lo[d], hi[d], resolution + 1) for d in range(lo.size)]
    return min(
        max(float(np.sum((np.array(x) - a) ** 2)) - r * r
            for a, r in zip(centers, radii))
        for x in itertools.product(*axes))


def untiled_values(centers, radii, lo, hi, resolution):
    """The whole grid at once: each ball's per-axis tables broadcast into
    one (resolution+1)^n array of max_i g_i, in the kernel's order of
    additions."""
    axes = np.linspace(lo, hi, resolution + 1, axis=1)
    best = np.full((resolution + 1,) * lo.size, -np.inf)
    for a, r in zip(centers, radii):
        g = (axes[0] - a[0]) ** 2 - r * r
        for x, c in zip(axes[1:], a[1:]):
            g = g[..., None] + (x - c) ** 2
        np.maximum(best, g, out=best)
    return best


def untiled_grid(centers, radii, lo, hi, resolution):
    return float(untiled_values(centers, radii, lo, hi, resolution).min())


def random_grid_case(rng, n, m):
    centers = rng.standard_normal((m, n)) * 2.0
    radii = rng.uniform(0.5, 3.0, m)
    lo = rng.uniform(-4.0, 0.0, n)
    hi = lo + rng.uniform(0.5, 6.0, n)
    return centers, radii, lo, hi


@pytest.fixture(scope="module")
def verify_items(bench):
    """The `verify-lab` instances of seeds 1-3."""
    return [item for seed in (1, 2, 3)
            for item in bench["workloads"].verify_items(seed)]


@pytest.fixture(scope="module")
def verify_clouds(verify_items, bench):
    """The clouds the `verify-lab` operations draw for those instances."""
    clouds = []
    for item in verify_items:
        sol = solver.solve_seb(item.instance)
        clouds.append(sampling.sample_intersection(
            item.instance, bench["workloads"].CLOUD_POINTS, seed=item.seed,
            start=sol.center, solution=sol).points)
    return clouds


class TestGridMinMaxG:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_node_by_node(self, n):
        rng = np.random.default_rng(100 + n)
        for m in (1, 2, 3, 4):
            for resolution in (1, 4, 7):
                centers = rng.standard_normal((m, n)) * 2.0
                radii = rng.uniform(0.5, 3.0, m)
                lo = rng.uniform(-4.0, 0.0, n)
                hi = lo + rng.uniform(0.5, 6.0, n)
                val = kernels.grid_min_maxg(centers, radii, lo, hi,
                                            resolution)
                ref = brute_force_grid(centers, radii, lo, hi, resolution)
                scale = float(np.max(np.abs(np.concatenate(
                    [lo, hi, centers.ravel()]))) ** 2 + np.max(radii) ** 2)
                assert val == pytest.approx(ref, rel=1e-12,
                                            abs=1e-12 * scale)

    @pytest.mark.parametrize("n, resolution", [(1, 70000), (2, 300),
                                               (3, 70)])
    def test_slabs_match_untiled_scan(self, n, resolution):
        # several slabs and a partial last one; each node's arithmetic is
        # that of the untiled scan, so the values are equal, not close
        k = resolution + 1
        rows = kernels.TILE // k ** (n - 1)
        assert 1 <= rows < k and k % rows != 0
        rng = np.random.default_rng(200 + n)
        for m in (1, 2, 3):
            case = random_grid_case(rng, n, m)
            assert (kernels.grid_min_maxg(*case, resolution)
                    == untiled_grid(*case, resolution))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_small_tile_matches_untiled_scan(self, n, monkeypatch):
        # partial last slabs, and a tile smaller than one node row (n = 2
        # at resolution 60, n = 3 above 6) that scans a row per slab
        monkeypatch.setattr(kernels, "TILE", 50)
        rng = np.random.default_rng(300 + n)
        for m in (1, 2, 4):
            for resolution in (1, 10, 120 // n):
                case = random_grid_case(rng, n, m)
                assert (kernels.grid_min_maxg(*case, resolution)
                        == untiled_grid(*case, resolution))

    @pytest.mark.parametrize("shift", [1e3, 1e5, 1e8])
    @pytest.mark.parametrize("n, resolution", [(1, 70000), (2, 200), (3, 60)])
    def test_shifted_boxes_match_untiled_scan(self, n, resolution, shift):
        # the pruning margin follows the box's extent about the centers,
        # not the coordinates' magnitude
        rng = np.random.default_rng(400 + n)
        for m in (1, 2, 3):
            centers, radii, lo, hi = random_grid_case(rng, n, m)
            t = shift * rng.uniform(0.5, 1.0, n) * rng.choice([-1.0, 1.0], n)
            case = (centers + t, radii, lo + t, hi + t)
            assert (kernels.grid_min_maxg(*case, resolution)
                    == untiled_grid(*case, resolution))

    @pytest.mark.parametrize("n, resolution", [(2, 200), (3, 60)])
    def test_disjoint_balls_match_untiled_scan(self, n, resolution):
        # a positive minimum: no node lies in every ball
        centers = np.zeros((2, n))
        centers[:, 0] = [-5.0, 5.0]
        case = (centers, np.ones(2), np.full(n, -6.0), np.full(n, 6.0))
        value = kernels.grid_min_maxg(*case, resolution)
        assert value > 0.0
        assert value == untiled_grid(*case, resolution)

    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("n, resolution", [(1, 70000), (2, 200), (3, 60)])
    def test_minimum_on_slab_boundary(self, n, resolution, reverse):
        # nodes at the integers 0..resolution, and one ball centred on the
        # last row of the first slab, on the first row of the second, or
        # halfway between them, where the two rows tie in value and the
        # two slabs in bound; the slab holding the minimum has it as its
        # bound, so a bound too high by a row would skip that slab
        lo, hi = np.zeros(n), np.full(n, float(resolution))
        if reverse:
            lo, hi = hi, lo
        axes = np.linspace(lo, hi, resolution + 1, axis=1)
        rows, _ = kernels._slabs(np.zeros((1, n)), np.ones(1), axes)
        for x0 in (rows - 1.0, rows - 0.5, float(rows)):
            centers = np.full((1, n), resolution / 2.0)
            centers[0, 0] = resolution - x0 if reverse else x0
            case = (centers, np.array([3.0]), lo, hi)
            _, bounds = kernels._slabs(centers, case[1], axes)
            if x0 == rows - 0.5:
                assert bounds[0] == bounds[1] == bounds.min()
            assert (kernels.grid_min_maxg(*case, resolution)
                    == untiled_grid(*case, resolution))

    @pytest.mark.parametrize("n, resolution", [(1, 70000), (2, 200), (3, 60)])
    def test_tied_slab_bounds_match_untiled_scan(self, n, resolution):
        # a box flat along the first axis: every slab ties in bound
        rng = np.random.default_rng(600 + n)
        for m in (1, 2, 3):
            centers, radii, lo, hi = random_grid_case(rng, n, m)
            hi[0] = lo[0]
            axes = np.linspace(lo, hi, resolution + 1, axis=1)
            _, bounds = kernels._slabs(centers, radii, axes)
            assert bounds.size > 1 and np.unique(bounds).size == 1
            assert (kernels.grid_min_maxg(centers, radii, lo, hi, resolution)
                    == untiled_grid(centers, radii, lo, hi, resolution))

    def test_verify_lab_grids_match_untiled_scan(self, verify_items, bench):
        for item in verify_items:
            inst = item.instance
            resolution = bench["workloads"].GRID_RESOLUTION[inst.dimension]
            case = (inst.centers_matrix(), inst.radii(),
                    *sampling._default_box(inst))
            assert (kernels.grid_min_maxg(*case, resolution)
                    == untiled_grid(*case, resolution)), item.label

    @pytest.mark.parametrize("n, resolution", [(1, 70000), (2, 200), (3, 60)])
    def test_slab_bounds_undercut_their_nodes(self, n, resolution):
        # in either orientation of the box, no node of a slab lies below
        # the slab's bound by more than rounding
        rng = np.random.default_rng(700 + n)
        for m in (1, 2, 3) * 3:
            centers, radii, lo, hi = random_grid_case(rng, n, m)
            if rng.random() < 0.5:
                lo, hi = hi, lo
            axes = np.linspace(lo, hi, resolution + 1, axis=1)
            rows, bounds = kernels._slabs(centers, radii, axes)
            values = untiled_values(centers, radii, lo, hi, resolution)
            mins = [values[s:s + rows].min()
                    for s in range(0, resolution + 1, rows)]
            assert np.all(bounds <= np.array(mins) + 1e-12)

    def test_pruning_skips_far_slabs(self):
        # one ball inside the box: only the slabs next to its center can
        # hold a node as low as the minimum
        centers, radii = np.array([[0.3, -0.2, 0.1]]), np.ones(1)
        lo, hi = np.full(3, -2.0), np.full(3, 2.0)
        rows, bounds = kernels._slabs(centers, radii,
                                      np.linspace(lo, hi, 61, axis=1))
        value = kernels.grid_min_maxg(centers, radii, lo, hi, 60)
        assert bounds.size > 2
        assert np.count_nonzero(bounds <= value) <= 2

    def test_working_memory_is_a_slab(self):
        # 201^3 nodes: an untiled scan holds two 65 MB grids
        rng = np.random.default_rng(7)
        case = random_grid_case(rng, 3, 2)
        peak = traced_peak_mb(kernels.grid_min_maxg, *case, 200)
        assert peak < 2.0


class TestHitAndRun:
    def test_uniform_moments_in_one_ball(self):
        # uniform on B(c, 1) in R^3: mean c and E|x - c|^2 = 3/5; a slip
        # between the chain and coordinate axes breaks one or the other
        c = np.array([3.0, -1.0, 2.0])
        pts = kernels.hit_and_run(c[None, :], np.ones(1), c, 4000, 100, 5, 11)
        assert pts.shape == (4000, 3)
        d2 = np.einsum("ij,ij->i", pts - c, pts - c)
        assert d2.max() <= 1.0 + 1e-12
        assert np.abs(pts.mean(axis=0) - c).max() <= 0.05
        assert abs(d2.mean() - 0.6) <= 0.05

    def test_feasible_with_many_balls(self):
        rng = np.random.default_rng(40)
        n, m = 5, 40
        centers = rng.standard_normal((m, n))
        p = rng.standard_normal(n) * 0.3
        radii = np.linalg.norm(centers - p, axis=1) + rng.uniform(0.2, 0.7, m)
        pts = kernels.hit_and_run(centers, radii, p, 1000, 100, 5, 3)
        assert pts.shape == (1000, n)
        d2 = ((pts[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        assert (d2 - radii ** 2).max() <= 1e-9 * float((radii ** 2).max())

    def test_steps_across_draw_blocks(self):
        # burn-in and thinning that are not multiples of the draw block,
        # and a partial last round of chains
        n = 3
        block = kernels.TILE // (n * kernels.CHAINS)
        burn_in, thin = 2 * block + 5, block + 1
        rng = np.random.default_rng(41)
        centers = rng.standard_normal((4, n))
        p = rng.standard_normal(n) * 0.3
        radii = np.linalg.norm(centers - p, axis=1) + rng.uniform(0.2, 0.7, 4)
        args = (centers, radii, p, kernels.CHAINS + 44, burn_in, thin)
        pts = kernels.hit_and_run(*args, 9)
        assert pts.shape == (kernels.CHAINS + 44, n)
        d2 = ((pts[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        assert (d2 - radii ** 2).max() <= 1e-9 * float((radii ** 2).max())
        assert np.array_equal(pts, kernels.hit_and_run(*args, 9))
        assert not np.array_equal(pts, kernels.hit_and_run(*args, 10))

    def test_working_memory_is_bounded(self):
        # 2,000 points in 3-D: the draws of a block fill at most TILE
        # elements, whatever burn_in and count
        c = np.zeros(3)
        peak = traced_peak_mb(kernels.hit_and_run, c[None, :], np.ones(1), c,
                              2000, 100, 5, 1)
        assert peak < 1.0


def cholesky_z(A, c, T):
    """z of the support T by one Cholesky factorization of D D^T: the
    reference for the z = u R of `kernels._factor`, which borders the
    factor point by point, on well-posed supports."""
    a0 = A[T[0]]
    D = A[T[1:]] - a0
    rhs = 0.5 * (c[T[1:]] - c[T[0]]) - D @ a0
    L = np.linalg.cholesky(D @ D.T)
    return np.linalg.solve(L.T, np.linalg.solve(L, rhs))


def qr_pivots(A, T):
    """(|R_jj|, |d_j|) of Householder QR of the differences
    d_j = a_j - a_0 of the support T, in its order: |R_jj| is the
    distance of d_j from the span of the earlier ones, computed without
    the kernel's factor, the reference for its pivot test."""
    D = A[T[1:]] - A[T[0]]
    return (np.abs(np.diagonal(np.linalg.qr(D.T, mode="r"))),
            np.linalg.norm(D, axis=1))


def well_apart_support(rng):
    """(A, c, T): a support of 1 to n + 1 points, random, or points well
    apart with a last point 1e-2 to 1e-9 of the spread off their affine
    hull, or on it; moved by up to 1e10, then taken about their first
    point, as `cloud_meb` takes its cloud (the spread grows with the move,
    so that rounding the moved points stays far below the 1e-6 pivot
    test)."""
    n = int(rng.choice([2, 3, 5, 8]))
    k = int(rng.integers(1, n + 2))
    shift = float(rng.choice([0.0, 1e3, 1e6, 1e10]))
    spread = max(1.0, 1e-6 * shift) * 10.0 ** rng.uniform(0.0, 2.0)
    off = rng.choice([None, 1e-2, 1e-4, 1e-9, 0.0])
    if k > 2 and off is not None:
        P = np.zeros((k, n))
        Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
        P[1:-1] = Q[:k - 2] * rng.uniform(0.5, 2.0, (k - 2, 1))
        P[:-1] = rng.permutation(P[:-1])
        P[-1] = (rng.dirichlet(np.ones(k - 1)) @ P[:-1]
                 + off * rng.standard_normal(n))
        T = np.arange(k)
    else:
        P = rng.standard_normal((k, n))
        T = rng.permutation(k)
    return moved_support(rng, P, shift, spread) + (T,)


def near_hull_support(rng):
    """(A, c, T): 2 to n + 1 random points (n 2 to 8), one of them 1e-12
    to 1e-3 of the spread off the convex hull of the others, at a random
    place in the order, moved and taken about the first point as in
    `well_apart_support`. Bordered before the others, the near point
    leaves the later pivots' earlier ratios small, the case where a pivot
    taken as sqrt(|d|^2 - |l|^2) has its cancellation floor."""
    n = int(rng.integers(2, 9))
    k = int(rng.integers(2, n + 2))
    shift = float(rng.choice([0.0, 1e3, 1e6, 1e10]))
    spread = max(1.0, 1e-6 * shift) * 10.0 ** rng.uniform(0.0, 2.0)
    P = rng.standard_normal((k, n))
    u = rng.standard_normal(n)
    P[-1] = (rng.dirichlet(np.ones(k - 1)) @ P[:-1]
             + 10.0 ** rng.uniform(-12.0, -3.0) * u / np.linalg.norm(u))
    return moved_support(rng, rng.permutation(P), shift, spread) + (
        np.arange(k),)


def moved_support(rng, P, shift, spread):
    """(A, c) for the points P scaled by `spread`, moved by `shift` in a
    random direction and taken about the first point, c ~ |a|^2 - r^2."""
    A = spread * P + shift * rng.standard_normal(P.shape[1])
    A -= A[0].copy()
    return A, (np.einsum("ij,ij->i", A, A)
               - spread ** 2 * rng.uniform(1.0, 4.0, P.shape[0]))


def default_start_meb(points, iterations=1000):
    """`kernels.cloud_meb` started from `fw_minimize`'s best vertex."""
    o = points[0]
    P = points - o
    mu, _, _ = kernels.fw_minimize(P, np.einsum("ij,ij->i", P, P),
                                   iterations)
    center = o + P.T @ mu
    return center, float(np.sqrt(np.einsum("ij,ij->i", points - center,
                                           points - center).max()))


def simplex_q(A, c, mu):
    x = A.T @ mu
    return float(x @ x - c @ mu)


def count_rebuilds(monkeypatch):
    """Wrap the kernel's from-scratch work: a factor built for a support of
    more than one point (after a drop) and a border that returns a
    dependency, along which the minor cycles step. Returns the calls: the
    supports of each (T + s for a border), and of every minor-cycle call."""
    calls = {"factor": [], "dependent": [], "minor": []}
    factor, border = kernels._factor, kernels._border
    minor_cycles = kernels._minor_cycles

    def counted_factor(A, c, T):
        if T.size > 1:
            calls["factor"].append(T.copy())
        return factor(A, c, T)

    def counted_border(A, c, T, factor, s):
        out = border(A, c, T, factor, s)
        if isinstance(out, np.ndarray):
            calls["dependent"].append(np.append(T, s))
        return out

    def counted_minor_cycles(A, c, T, w, factor):
        calls["minor"].append(T.copy())
        return minor_cycles(A, c, T, w, factor)

    monkeypatch.setattr(kernels, "_factor", counted_factor)
    monkeypatch.setattr(kernels, "_border", counted_border)
    monkeypatch.setattr(kernels, "_minor_cycles", counted_minor_cycles)
    return calls


class TestCarriedFactor:
    def test_growing_support_builds_nothing_from_scratch(self, monkeypatch,
                                                         bench):
        # the unit vectors of R^n (every weight 1/n at the optimum) and the
        # known-answer cross family: each major cycle adds a ball and drops
        # none, so the factor is only ever bordered
        calls = count_rebuilds(monkeypatch)
        for n in (6, 12, 24):
            sol = solver.solve_seb(Instance.from_data(np.eye(n),
                                                      np.full(n, 1.2)))
            assert sol.status is solver.SolveStatus.CERTIFIED_OPTIMAL
            assert sol.fw_iterations == n - 1
            assert np.allclose(sol.multipliers, 1.0 / n, rtol=1e-12)
        rng = np.random.default_rng(900)
        for n, k in ((2, 1), (8, 3), (16, 6), (48, 20)):
            item = bench["workloads"].known_item(rng, n, k)
            sol = solver.solve_seb(item.instance)
            assert sol.status is solver.SolveStatus.CERTIFIED_OPTIMAL
            assert sol.radius == pytest.approx(1.0, rel=1e-12)
        assert calls["factor"] == calls["dependent"] == []
        assert calls["minor"]

    def test_drops_and_dependent_supports_match_the_oracle(
            self, monkeypatch, bench, verify_clouds):
        # random radii give drops; equal radii with m > n + 1 give supports
        # of n + 2 points, whose last border returns a dependency, as the
        # `verify-lab` clouds of seed 1 do in `cloud_meb`; after either the
        # factor is rebuilt, q still matches the oracle, and the kernel
        # steps along the border's dependency, calling no SVD
        calls = count_rebuilds(monkeypatch)

        def no_svd(*args, **kwargs):
            raise AssertionError("np.linalg.svd called")

        rng = np.random.default_rng(901)
        for n, m in ((2, 6), (3, 8), (4, 10), (6, 6), (8, 8), (2, 30),
                     (3, 12)) * 4:
            centers = rng.standard_normal((m, n))
            if m > 2 * n:
                radii = np.full(m, 3.0)
            else:
                p = 0.3 * rng.standard_normal(n)
                radii = (np.linalg.norm(centers - p, axis=1)
                         + rng.uniform(0.5, 1.0, m))
            qp = simplex_qp.build_qp(Instance.from_data(centers, radii))
            with monkeypatch.context() as patch:
                patch.setattr(np.linalg, "svd", no_svd)
                res = simplex_qp.solve(qp)
            q_exact, _ = simplex_qp.support_oracle(qp)
            assert abs(res.value - q_exact) <= 1e-9 * abs(q_exact)
        assert calls["dependent"] and calls["factor"]
        calls["dependent"].clear()
        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "svd", no_svd)
            for P in verify_clouds[:len(bench["workloads"].verify_items(1))]:
                kernels.cloud_meb(P, 1000)
        assert calls["dependent"]

    def test_far_point_leaves_near_points_independent(self):
        # each pivot is tested against its own row's length: a point 1e10
        # away does not make the two near points, 2 apart, look dependent,
        # whether the support is factored from scratch or bordered; a
        # repeated point is dependent, along v = (-1, 1)
        A = np.array([[-1.0, 0.0], [0.0, 1e10], [1.0, 0.0]])
        c = np.zeros(3)
        assert isinstance(kernels._factor(A, c, np.array([0, 1, 2])), tuple)
        assert isinstance(kernels._border(
            A, c, np.array([0, 1]), kernels._factor(A, c, np.array([0, 1])),
            2), tuple)
        assert np.array_equal(
            kernels._factor(A[[0, 0]], c[:2], np.array([0, 1])), [-1.0, 1.0])

    def test_every_border_reads_its_supports_factor(self, monkeypatch, bench,
                                                     verify_clouds):
        # between major cycles the support is affinely independent and
        # carries its factor (R, u), R of order |T| - 1: the one-point
        # start and every support a drop leaves included, on the seed-1
        # items of every workload, the stress corpus and the `verify-lab`
        # clouds
        calls, missing = [], []
        border = kernels._border

        def checked(A, c, T, factor, s):
            calls.append(T.size)
            if not (isinstance(factor, tuple)
                    and factor[0].shape == (T.size - 1,) * 2):
                missing.append(T.copy())
            return border(A, c, T, factor, s)

        monkeypatch.setattr(kernels, "_border", checked)
        workloads = bench["workloads"]
        for item in (workloads.square_items(1) + workloads.tall_items(1)
                     + workloads.verify_items(1)):
            solver.solve_seb(item.instance)
        for family in CORPUS_FAMILIES + (FAR_BALL,):
            for inst in corpus(family):
                solver.solve_seb(inst)
        for points in verify_clouds:
            kernels.cloud_meb(points, 1000)
        assert 1 in calls and missing == []

    def test_face_minimum_drops_its_zero_weights(self):
        # the minimum of q on the plane of the three points, the
        # circumcenter of (-1, 0), (1, 0), (0, -1), is the midpoint of the
        # first two: the third weight is exactly zero, and the step to it
        # drops that point and returns the factor of the other two
        P = np.array([[-1.0, 0.0], [1.0, 0.0], [0.0, -1.0], [0.0, 0.5]])
        P -= P[0].copy()
        c = np.einsum("ij,ij->i", P, P)
        T = np.arange(3)
        R, u = kernels._factor(P, c, T)
        assert u.dot(R)[1] == 0.0
        T, w, factor = kernels._minor_cycles(P, c, T, np.full(3, 1.0 / 3.0),
                                             (R, u))
        assert np.array_equal(T, [0, 1]) and np.array_equal(w, [0.5, 0.5])
        expected = kernels._factor(P, c, T)
        assert all(np.array_equal(f, g) for f, g in zip(factor, expected))
        mu, cycles, _ = kernels.fw_minimize(P, c, 100, np.arange(3))
        assert np.array_equal(mu, [0.5, 0.5, 0.0, 0.0]) and cycles == 0

    def test_bordered_factor_matches_cholesky(self):
        # the verdict of `_factor` is that of Householder QR on the same
        # differences, every |R_jj| > 1e-6 |d_j|, on supports of 1 to
        # n + 1 points; supports with a pivot within 10 % of the threshold
        # are left out, since rounding may decide either verdict there. A
        # dependent support returns a dependency v: sum v = 0, and
        # D^T v, the residual of the failing border, is within the test's
        # 1e-6 of the rows. On the well-apart supports that are well posed
        # (every pivot above 1e-3 of its row) z = u R matches a Cholesky
        # solve.
        rng = np.random.default_rng(905)
        # 4 points in R^3, the last 2.7e-12 |d| off the plane of the others
        # by QR: the pivot as sqrt(|d|^2 - |l|^2) read 1.5e-6 |d| there and
        # called the support independent
        misread = np.array([
            [0.0, 0.0, 0.0],
            [-82.12067511579204, 125.58637600169399, 9.425549000987152],
            [-78.60745936486703, 119.05827808777482, 10.14871993174014],
            [-48.07612585836322, 21.271961243215344, 56.45858652720695]])
        apart = [well_apart_support(rng) for _ in range(3000)]
        near = ([near_hull_support(rng) for _ in range(3000)]
                + [(misread, np.zeros(4), np.arange(4))])
        well_posed = dependent = 0
        for trial, (A, c, T) in enumerate(apart + near):
            pivots, rows = qr_pivots(A, T)
            if np.any(np.abs(pivots - 1e-6 * rows) < 1e-7 * rows):
                continue
            got = kernels._factor(A, c, T)
            if np.all(pivots > 1e-6 * rows):
                assert isinstance(got, tuple), trial
                if trial < len(apart) and np.all(pivots > 1e-3 * rows):
                    well_posed += 1
                    z, z_ref = got[1].dot(got[0]), cholesky_z(A, c, T)
                    assert (np.linalg.norm(z - z_ref)
                            <= 1e-9 * np.linalg.norm(z_ref)), trial
            else:
                assert isinstance(got, np.ndarray), trial
                dependent += 1
                assert abs(got.sum()) <= 1e-12 * np.abs(got).sum(), trial
                assert (np.linalg.norm(got.dot(A[T] - A[T[0]]))
                        <= 1e-6 * rows.max()), trial
        assert well_posed >= 1500 and dependent >= 2000

    def test_working_memory_is_support_sized(self):
        # a 48 x 48 program: the factor grows with the support, never to
        # (n + 1) x (n + 1) buffers, and no copy of A_T is kept beside it
        qp = simplex_qp.build_qp(
            random_supported_instance(np.random.default_rng(48), 48))
        A, c = qp.centers, qp.linear
        mu, _, _ = kernels.fw_minimize(A, c, 10**4)
        assert np.count_nonzero(mu) >= 12
        peak = traced_peak_mb(kernels.fw_minimize, A, c, 10**4)
        assert peak * 1e6 <= 2.0 * A.nbytes

    def test_working_set_is_two_vectors(self):
        # at m >> n: the stop's sizes and one gradient buffer, overwritten
        # by every major cycle and returned, read-only, as mu
        qp = simplex_qp.build_qp(tall_instance(6, 20_000))
        A, c = qp.centers, qp.linear
        mu, _, _ = kernels.fw_minimize(A, c, 10**4)
        assert not mu.flags.writeable
        peak = traced_peak_mb(kernels.fw_minimize, A, c, 10**4)
        assert peak * 1e6 <= 2.5 * 8 * A.shape[0]


class TestCloudMeb:
    @pytest.mark.parametrize("points, center, radius", [
        ([[5.0, -1.0]], [5.0, -1.0], 0.0),
        ([[2.0, 3.0, -1.0]] * 6, [2.0, 3.0, -1.0], 0.0),
        ([[0.0, 0.0], [2.0, 0.0]], [1.0, 0.0], 1.0),
        ([[3.0, 1.0], [2.0, -1.0], [4.0, 3.0], [1.0, -3.0], [2.5, 0.0]],
         [2.5, 0.0], 3.0 * np.sqrt(1.25)),
    ], ids=["one point", "all equal", "two points", "collinear"])
    def test_degenerate_clouds(self, points, center, radius):
        points = np.array(points)
        c, r = kernels.cloud_meb(points, 1000)
        assert np.allclose(c, center, rtol=0.0, atol=1e-12)
        assert r == pytest.approx(radius, rel=1e-12, abs=1e-15)
        c0, r0 = default_start_meb(points)
        assert r == pytest.approx(r0, rel=1e-15, abs=1e-15)

    def test_far_shift(self):
        rng = np.random.default_rng(800)
        points = rng.standard_normal((500, 3))
        shift = np.array([1e8, -1e8, 1e8])
        c, r = kernels.cloud_meb(points, 1000)
        c_far, r_far = kernels.cloud_meb(points + shift, 1000)
        # moving the points rounds them to about 1.5e-8
        assert np.allclose(c_far - shift, c, rtol=0.0, atol=1e-7)
        assert r_far == pytest.approx(r, abs=1e-7)
        assert r_far == pytest.approx(default_start_meb(points + shift)[1],
                                      rel=1e-15, abs=0.0)

    def test_support_start_keeps_gap_guarantee(self):
        # a ball program's simplex QP, started from a given support
        rng = np.random.default_rng(801)
        for n, m in ((2, 5), (3, 40), (6, 30)):
            A = rng.standard_normal((m, n))
            c = np.einsum("ij,ij->i", A, A) - rng.uniform(1.0, 4.0, m)
            unit, sizes = kernels.rounding_stop(A, c)
            mu0, _, _ = kernels.fw_minimize(A, c, 10**4)
            for support in (np.array([0]), np.array([m - 1, 0]),
                            np.arange(min(m, n + 3))):
                mu, _, gap = kernels.fw_minimize(A, c, 10**4, support)
                assert mu.min() >= 0.0 and mu.sum() == pytest.approx(1.0)
                grad = 2.0 * (A @ (A.T @ mu)) - c
                assert gap == pytest.approx(grad @ mu - grad.min(), abs=1e-12)
                # the rounding stop at the returned mu, tighter than 1e-10
                x = A.T @ mu
                stop = unit * float(x @ x) + float(sizes @ mu)
                assert gap <= stop <= 1e-10
                assert (simplex_q(A, c, mu)
                        <= simplex_q(A, c, mu0) + stop)

    def test_support_start_is_its_hull_minimum(self):
        # an acute triangle and points inside it: started from the three
        # vertices, the kernel is at their circumcenter, the exact ball,
        # before its first major cycle
        rng = np.random.default_rng(803)
        triangle = np.array([[0.0, 0.0], [4.0, 0.0], [1.5, 3.0]])
        inner = rng.dirichlet(np.ones(3), 200) @ triangle
        P = np.vstack([triangle, inner])
        c = np.einsum("ij,ij->i", P, P)
        mu, cycles, _ = kernels.fw_minimize(P, c, 100, np.arange(3))
        center = P.T @ mu
        assert cycles == 0
        assert np.count_nonzero(mu) == 3
        d = np.linalg.norm(triangle - center, axis=1)
        assert d.max() - d.min() <= 1e-14 * d.max()

    def test_no_confirming_cycle(self, monkeypatch):
        # the last Frank-Wolfe vertex of a cloud MEB is usually already in
        # the support: the kernel stops there, where it used to run one
        # more cycle with a dependent step on the repeated point; the ball
        # is still exact: every support point lies on its sphere, and the
        # center is their convex combination
        calls = count_rebuilds(monkeypatch)
        results = []
        fw_minimize = kernels.fw_minimize

        def kept(*args):
            results.append(fw_minimize(*args))
            return results[-1]

        monkeypatch.setattr(kernels, "fw_minimize", kept)
        cloud = sampling.sample_intersection(lens_instance(), 2000, seed=904)
        center, radius = kernels.cloud_meb(cloud.points, 1000)
        assert calls["minor"]
        assert all(np.unique(T).size == T.size for T in calls["minor"])
        mu = results[-1][0]
        support = cloud.points[mu > 0.0]
        assert np.allclose(center, mu[mu > 0.0] @ support, rtol=0.0,
                           atol=1e-12)
        d = np.linalg.norm(support - center, axis=1)
        assert np.abs(d - radius).max() <= 1e-12 * radius
        assert radius == sampling.farthest_distance(cloud, center)

    def test_radius_matches_default_start(self, verify_clouds):
        rng = np.random.default_rng(802)
        clouds = list(verify_clouds)
        for n in (1, 2, 3, 5):
            for size in (3, 50, 1000):
                scale, shift = rng.uniform(0.1, 10.0), rng.standard_normal(n)
                clouds.append(rng.standard_normal((size, n)) * scale + shift)
        for points in clouds:
            r0 = default_start_meb(points)[1]
            assert kernels.cloud_meb(points, 1000)[1] == pytest.approx(
                r0, rel=1e-15, abs=0.0)
