import itertools

import numpy as np
import pytest

from seblab import kernels


def brute_force_grid(centers, radii, lo, hi, resolution):
    """max_i g_i evaluated node by node over the grid, then minimized."""
    axes = [np.linspace(lo[d], hi[d], resolution + 1) for d in range(lo.size)]
    return min(
        max(float(np.sum((np.array(x) - a) ** 2)) - r * r
            for a, r in zip(centers, radii))
        for x in itertools.product(*axes))


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
