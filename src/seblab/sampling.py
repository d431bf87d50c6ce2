"""Independent verification machinery: feasible sampling and brute-force
oracles for the enclosing-ball solver."""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import kernels, solver
from .errors import DimensionTooLarge, EmptyInteriorError, ValidationError
from .geometry import Instance, SolveStatus, _finite_array, _freeze

# A first batch of ball draws that keeps fewer than this share of its rows
# hands the call to hit-and-run: the ball's volume outgrows the
# intersection's with the dimension (about 1-9 % kept at n = 12, none at
# n >= 24), and the rate bounds rejection's draws near 100 per point. It
# is not the cost crossover: on n balls at the unit vectors of R^n
# (n = 8, 12, 16, 24; 2-CPU Xeon, numpy 2.4.6) a drawn and filtered row
# took 0.45-1.75 us and a hit-and-run point (2,000 points, burn-in 100,
# thin 5) 9.3-22 us, so the two cost the same per kept point at 5-8 %
# kept. Between 1 % and that, rejection spends up to about 8 times the
# chains' time to keep its points i.i.d. and exactly uniform.
PILOT_ACCEPT_RATE = 0.01
# Hit-and-run's chains all start at one point, which BURN_IN steps leave
# before a point is kept; THIN steps between kept points decorrelate them.
BURN_IN, THIN = 100, 5


class SampleMethod(Enum):
    REJECTION = "Rejection"
    HIT_AND_RUN = "HitAndRun"


@dataclass(frozen=True)
class SampleCloud:
    points: np.ndarray
    seed: int
    method: SampleMethod

    def __post_init__(self):
        object.__setattr__(self, "points",
                           _freeze(np.atleast_2d(self.points)))

    def __len__(self):
        return self.points.shape[0]


def _squared_distances(X, rows, a):
    """|x - a|^2 of the rows `rows` of X (an index array or a slice),
    summed one coordinate at a time, so that no (rows, n) difference is
    built."""
    columns = X.T
    total = columns[0][rows] - a[0]
    total *= total
    for x_k, a_k in zip(columns[1:], a[1:]):
        d = x_k[rows] - a_k
        d *= d
        total += d
    return total


def _feasible_rows(centers, radii, X):
    """Indices of the rows of X inside every ball, filtered ball by ball:
    the first ball on X itself, each later one on the rows still kept.

    The test |x - a_i|^2 <= r_i^2 carries no slack: a uniform draw lies on
    a sphere with probability zero, so a margin would only admit points
    outside the balls.
    """
    keep = np.flatnonzero(_squared_distances(X, slice(None), centers[0])
                          <= radii[0] * radii[0])
    for a, r in zip(centers[1:], radii[1:]):
        keep = keep[_squared_distances(X, keep, a) <= r * r]
    return keep


def _proposal_ball(instance: Instance, multipliers):
    """The enclosing ball B(a, r) that simplex weights mu give on their own:
    a = sum_i mu_i a_i and r^2 = sum_i mu_i (r_i^2 - |a_i - a|^2).

    For x in every ball, sum_i mu_i |x - a_i|^2 = |x - a|^2
    + sum_i mu_i |a_i - a|^2 <= sum_i mu_i r_i^2, so the ball holds the
    whole intersection for any simplex mu, converged or not. It is built
    here from mu (clipped to the simplex) and not read off the solution, so
    a containment check of the solution's center and radius against the
    cloud still tests them. Sums run about the first center, free of
    cancellation however far the balls sit from the origin.
    """
    mu = np.clip(np.asarray(multipliers, dtype=float), 0.0, None)
    mu /= mu.sum()
    centers = instance.centers_matrix()
    a = centers[0] + mu @ (centers - centers[0])
    D = centers - a
    r2 = float(mu @ (instance.radii() ** 2 - np.einsum("ij,ij->i", D, D)))
    if not r2 > 0.0:
        raise EmptyInteriorError("ball intersection has empty interior")
    return a, np.sqrt(r2)


def _ball_rejection(instance: Instance, count, rng, center, radius):
    """`count` i.i.d. uniform points of the intersection, drawn uniformly
    from its enclosing ball B(center, radius) and kept when inside every
    ball; None when the first batch keeps less than PILOT_ACCEPT_RATE.

    A draw is a normalised normal direction times radius * U^(1/n), in
    coordinates about `center`, which keeps the filter free of
    cancellation however far the balls sit from the origin. Every batch
    holds `kernels.TILE // (4 n)` rows (at least one), so the draws and
    the filter's temporaries stay a fixed working set however large
    `count`; the batches split one stream of draws, and a smaller `count`
    gives a prefix of the same cloud. Accepted rows go straight into the
    one (count, n) output, which is moved to `center` in place. A batch is
    scaled in place, the first ball filters it as drawn and each ball
    sums its squared distances one coordinate at a time, so beside the
    output the call holds one batch and a few per-row vectors: for 2,000
    points of the 3-D lens it peaks at 0.22 MB, the 0.048 MB output
    included, where a (rows, n) difference per ball took 0.28 MB and
    scaling through temporaries and gathering every row for the first ball
    0.34 MB.
    """
    n = instance.dimension
    batch = max(1, kernels.TILE // (4 * n))
    centers, radii = instance.centers_matrix() - center, instance.radii()
    out = np.empty((count, n))
    accepted = 0
    while accepted < count:
        X = rng.standard_normal((batch, n))
        scale = rng.random(batch)
        scale **= 1.0 / n
        scale *= radius
        scale /= np.sqrt(np.einsum("ij,ij->i", X, X))
        X *= scale[:, None]
        rows = _feasible_rows(centers, radii, X)
        if accepted == 0 and rows.size < PILOT_ACCEPT_RATE * batch:
            return None
        rows = rows[:count - accepted]
        out[accepted:accepted + rows.size] = X[rows]
        accepted += rows.size
    out += center
    return out


def sample_intersection(instance: Instance, count: int, seed: int = 0,
                        start=None, solution=None) -> SampleCloud:
    """Draw `count` points of the ball intersection.

    `solution` is the solver's output for `instance`; when omitted the
    call solves once itself. Its multipliers alone give the enclosing ball
    B(a, r) of `_proposal_ball`, which holds the whole intersection
    whether or not the solve converged; its center and radius are not
    used for the draws. The input picks the path: rejection draws i.i.d.
    uniform points of that ball and keeps those inside every input ball,
    so the cloud is i.i.d. and exactly uniform on the intersection. When
    the first batch keeps too few draws (PILOT_ACCEPT_RATE), as in high
    dimension, the call falls back to hit-and-run, which walks exact
    chords from `start`, or from the solution's center when `start` is
    omitted; a start that does not lie strictly inside every ball raises
    EmptyInteriorError. A given start must be a finite point of R^n on
    either path: DimensionMismatch or ValidationError is raised before the
    solve and any draw. Up to
    `kernels.CHAINS` chains start there together, each runs BURN_IN steps
    and then keeps every THIN-th point. The cloud's `method` names the
    path that ran. Both draw only from `np.random.default_rng(seed)` or
    the kernel's own generator of that seed: the global `np.random` state
    is left alone, and each seed gives its own cloud.
    """
    if count < 0:
        raise ValidationError("count must be >= 0")
    if start is not None:
        start = _finite_array(start, (instance.dimension,), "start")
    if count == 0:
        return SampleCloud(points=np.empty((0, instance.dimension)),
                           seed=seed, method=SampleMethod.REJECTION)
    if solution is None:
        solution = solver.solve_seb(instance)
    if solution.status in (SolveStatus.EMPTY_INTERIOR,
                           SolveStatus.DEGENERATE_POINT):
        raise EmptyInteriorError("ball intersection has empty interior")
    pts = _ball_rejection(instance, count, np.random.default_rng(seed),
                          *_proposal_ball(instance, solution.multipliers))
    if pts is not None:
        pts.setflags(write=False)  # read-only and owned: kept uncopied
        return SampleCloud(pts, seed, SampleMethod.REJECTION)
    if start is None:
        start = solution.center
    D = instance.centers_matrix() - start
    if not (np.einsum("ij,ij->i", D, D) < instance.radii() ** 2).all():
        raise EmptyInteriorError(
            "the hit-and-run start lies on or outside an input ball")
    pts = kernels.hit_and_run(instance.centers_matrix(), instance.radii(),
                              start, int(count), BURN_IN, THIN, seed)
    pts.setflags(write=False)
    return SampleCloud(points=pts, seed=seed, method=SampleMethod.HIT_AND_RUN)


def farthest_distance(cloud: SampleCloud, center) -> float:
    """max over cloud points of |x - center|; center must be a finite
    point of R^n (DimensionMismatch, ValidationError)."""
    if len(cloud) == 0:
        raise ValidationError("empty cloud")
    diff = cloud.points - _finite_array(center, cloud.points.shape[1:],
                                        "center")
    return float(np.sqrt(np.einsum("ij,ij->i", diff, diff).max()))


def cloud_meb(cloud: SampleCloud, iterations: int = 1000):
    """Exact minimum enclosing ball of the cloud: (center, radius).

    `iterations` bounds the major cycles of the simplex-QP kernel, which
    ends at the exact ball after about as many cycles as the ball has
    support points (at most n + 1); 0 gives the ball about the midpoint of
    the kernel's diameter-pair start, and a negative count raises
    ValidationError. The cloud lies inside the intersection, so the exact
    radius lower-bounds the optimal enclosing radius up to rounding.
    """
    if len(cloud) == 0:
        raise ValidationError("empty cloud")
    if iterations < 0:
        raise ValidationError(f"iterations must be >= 0, got {iterations}")
    c, r = kernels.cloud_meb(cloud.points, int(iterations))
    return c, float(r)


def _default_box(instance: Instance):
    """Axis-aligned box covering every input ball."""
    centers = instance.centers_matrix()
    radii = instance.radii()[:, None]
    return (centers - radii).min(axis=0), (centers + radii).max(axis=0)


def _resolution(resolution):
    """The grid resolution as an int: an integer >= 1 (numpy integers
    included), else ValidationError, so the grid and its bound never read
    one value two ways (a bool or a float is refused, not truncated)."""
    if (not isinstance(resolution, (int, np.integer))
            or isinstance(resolution, bool) or resolution < 1):
        raise ValidationError(
            f"resolution must be an integer >= 1, got {resolution!r}")
    return int(resolution)


def grid_min_maxg(instance: Instance, resolution: int) -> float:
    """Exhaustive grid minimum of max_i g_i(x) over a box (n <= 3 only).

    Independent oracle for the minimax identity min_x max_i g_i = -q*.
    """
    n = instance.dimension
    if n > 3:
        raise DimensionTooLarge("grid oracle supports n <= 3")
    return kernels.grid_min_maxg(instance.centers_matrix(), instance.radii(),
                                 *_default_box(instance),
                                 _resolution(resolution))


def grid_resolution_bound(instance: Instance, resolution: int) -> float:
    """Lipschitz error bound for grid_min_maxg at the given resolution.

    |grad g_i(x)| = 2|x - a_i| <= L = 2 max_i max_{x in box} |x - a_i|,
    the farther box face per coordinate, so L does not grow when the balls
    and the box move together. The grid minimum overshoots the true
    minimum by at most L * h * sqrt(n) / 2.
    """
    resolution = _resolution(resolution)
    lo, hi = _default_box(instance)
    centers = instance.centers_matrix()
    far = np.maximum(np.abs(lo - centers), np.abs(hi - centers))
    L = 2.0 * float(np.linalg.norm(far, axis=1).max())
    h = float((hi - lo).max()) / resolution
    return L * h * np.sqrt(lo.size) / 2.0
