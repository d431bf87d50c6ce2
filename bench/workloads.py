"""Workload inputs and operations.

Every operation calls only the public functions that the `seblab` CLI and
the test suite call, looked up on their modules at call time so that the
tracer in spans.py can wrap them.
"""

from dataclasses import dataclass

import numpy as np

from seblab import numrange, sampling, solver
from seblab.geometry import Instance, SolveStatus

# Each round runs every item once, in this order.  The shapes are weighted
# so that the 50th and 90th percentiles of a run's operation times fall
# inside a block of operations of similar cost, not on the gap between two
# costs, which keeps them steady from seed to seed: with 25 (or 15, or 13)
# items per round they fall in the middle of the 13th and 23rd (8th and
# 14th, 7th and 12th) fastest items' blocks.

# solve-square: m = n random instances, and the known-answer family (n, k).
# The known-answer solves and n = 2 end in a few iterations, every other
# random solve runs FW to max_iter.  Random n from 3 to 8 is left out: there
# some seeds end in a few iterations and others do not, which makes the cost
# of a round depend on the seed.  n = 64 is left out because some seeds end
# unconverged there (see CHANGES.md).
SQUARE_RANDOM = (2,) + (12,) * 5 + (16,) * 5 + (24, 32, 32) + (48,) * 5
SQUARE_KNOWN = ((2, 1), (4, 2), (8, 3), (16, 6), (32, 12), (48, 20))

# solve-tall: fixed (n, m) instances drawn from TALL_SEED, never from the
# run's seed.  Most of them end above the stated accuracy (silent
# non-convergence), and an operation that fails must fail on every seed.
TALL_SEED = 20250117
TALL_SHAPES = ((3, 12), (3, 60), (3, 150), (6, 300), (4, 16), (5, 20), (8, 32),
               (4, 40), (10, 60), (16, 64), (20, 80), (5, 100), (6, 100))

# verify-lab: supported instances (n <= 3, m <= n) and the known-answer
# family with k = 1.  m stays at most 2, where the solve ends within one
# iteration; at n = m = 3 about half the seeds run FW to max_iter, which
# would make the cost of an operation depend on the seed.
VERIFY_RANDOM = ((2, 1),) * 3 + ((2, 2),) * 3 + ((3, 1),) * 3 + ((3, 2),) * 4
VERIFY_KNOWN = ((2, 1), (3, 1))
CLOUD_POINTS = 2000
PROBE_SAMPLES = 2000
MEB_ITERATIONS = 1000
GRID_RESOLUTION = {2: 200, 3: 60}   # the resolutions `seblab oracle` uses


@dataclass(frozen=True)
class Item:
    """One instance with what its generator knows about it."""

    label: str
    instance: Instance
    rank: int                 # rank{a_i - a} at the optimum, by construction
    interior: np.ndarray      # a point inside every ball
    center: np.ndarray | None  # optimal center when known (radius is 1)
    seed: int                 # seed for the sampler and the probes

    @property
    def shape(self):
        return self.instance.dimension, self.instance.m

    def expected_status(self):
        """The paper's rank gate: rank < n, or rank = n = m, is certified."""
        n, m = self.shape
        if self.rank < n or self.rank == n == m:
            return SolveStatus.CERTIFIED_OPTIMAL
        return SolveStatus.UPPER_BOUND_ONLY


def random_item(rng, n, m):
    """Normal centers and radii reaching past a common interior point p.

    Every ball holds B(p, 0.5), the recipe of the test suite's
    `random_supported_instance`, here for any m.
    """
    centers = rng.standard_normal((m, n))
    p = 0.3 * rng.standard_normal(n)
    radii = np.linalg.norm(centers - p, axis=1) + 0.5 + rng.uniform(0.0, 0.5, m)
    return Item(f"random n={n} m={m}", Instance.from_data(centers, radii),
                rank=min(m - 1, n), interior=p, center=None,
                seed=int(rng.integers(2**31)))


def known_item(rng, n, k):
    """2k balls of radius sqrt(d^2 + 1) centred at +-d e_j, j < k < n,
    rotated and translated by t.

    The intersection lies in the unit ball around t and touches its sphere
    where x_j = 0 for j < k, so the optimal ball is B(t, 1) and the rank of
    the shifted centers is k.
    """
    d = rng.uniform(1.0, 3.0)
    base = np.zeros((2 * k, n))
    base[np.arange(k), np.arange(k)] = d
    base[k + np.arange(k), np.arange(k)] = -d
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    rotation = q * np.sign(np.diag(r))
    t = rng.uniform(-2.0, 2.0, n)
    radii = np.full(2 * k, np.sqrt(d * d + 1.0))
    return Item(f"known n={n} k={k}",
                Instance.from_data(base @ rotation.T + t, radii),
                rank=k, interior=t, center=t, seed=int(rng.integers(2**31)))


def square_items(seed):
    rng = np.random.default_rng(seed)
    return ([random_item(rng, n, n) for n in SQUARE_RANDOM]
            + [known_item(rng, n, k) for n, k in SQUARE_KNOWN])


def tall_items(seed):
    del seed  # see TALL_SEED
    return [random_item(np.random.default_rng([TALL_SEED, n, m]), n, m)
            for n, m in TALL_SHAPES]


def verify_items(seed):
    rng = np.random.default_rng(seed)
    return ([random_item(rng, n, m) for n, m in VERIFY_RANDOM]
            + [known_item(rng, n, k) for n, k in VERIFY_KNOWN])


@dataclass(frozen=True)
class SolveOutput:
    solution: object
    regime: object
    certificate: object


@dataclass(frozen=True)
class VerifyOutput:
    solution: object
    cloud: object
    farthest: float
    meb_center: np.ndarray
    meb_radius: float
    grid_value: float
    grid_bound: float
    convexity: object
    separation: object


def solve_op(item):
    """The library calls behind `seblab solve`."""
    instance = item.instance
    solution = solver.solve_seb(instance)
    regime = solver.regime_report(instance, solution)
    certificate = None
    if solution.status in (SolveStatus.CERTIFIED_OPTIMAL,
                           SolveStatus.UPPER_BOUND_ONLY):
        certificate = solver.build_certificate(instance, solution)
    return SolveOutput(solution, regime, certificate)


def verify_op(item):
    """The calls behind `seblab solve --verify`, `seblab oracle --cloud` and
    `seblab jnr probe`, on the map targeted at the solver's ball."""
    instance = item.instance
    solution = solver.solve_seb(instance)
    cloud = sampling.sample_intersection(instance, CLOUD_POINTS,
                                         seed=item.seed, start=solution.center)
    farthest = sampling.farthest_distance(cloud, solution.center)
    meb_center, meb_radius = sampling.cloud_meb(cloud, MEB_ITERATIONS)
    resolution = GRID_RESOLUTION[instance.dimension]
    grid_value = sampling.grid_min_maxg(instance, resolution)
    grid_bound = sampling.grid_resolution_bound(instance, resolution)
    qmap = numrange.QuadraticMap.from_instance(instance,
                                               solution.target_quadratic())
    convexity = numrange.convexity_probe(qmap, PROBE_SAMPLES, seed=item.seed)
    separation = numrange.separation_probe(qmap, PROBE_SAMPLES, seed=item.seed,
                                           extra_points=cloud.points)
    return VerifyOutput(solution, cloud, farthest, meb_center, meb_radius,
                        grid_value, grid_bound, convexity, separation)
