import itertools

import numpy as np
import pytest

from conftest import traced_peak_mb
from seblab import kernels


def brute_force_grid(centers, radii, lo, hi, resolution):
    """max_i g_i evaluated node by node over the grid, then minimized."""
    axes = [np.linspace(lo[d], hi[d], resolution + 1) for d in range(lo.size)]
    return min(
        max(float(np.sum((np.array(x) - a) ** 2)) - r * r
            for a, r in zip(centers, radii))
        for x in itertools.product(*axes))


def untiled_grid(centers, radii, lo, hi, resolution):
    """The whole grid at once: each ball's per-axis tables broadcast into
    one (resolution+1)^n array, in the kernel's order of additions."""
    axes = np.linspace(lo, hi, resolution + 1, axis=1)
    best = np.full((resolution + 1,) * lo.size, -np.inf)
    for a, r in zip(centers, radii):
        g = (axes[0] - a[0]) ** 2 - r * r
        for x, c in zip(axes[1:], a[1:]):
            g = g[..., None] + (x - c) ** 2
        np.maximum(best, g, out=best)
    return float(best.min())


def random_grid_case(rng, n, m):
    centers = rng.standard_normal((m, n)) * 2.0
    radii = rng.uniform(0.5, 3.0, m)
    lo = rng.uniform(-4.0, 0.0, n)
    hi = lo + rng.uniform(0.5, 6.0, n)
    return centers, radii, lo, hi


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
