"""Independent verification machinery: feasible sampling and brute-force
oracles for the enclosing-ball solver."""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import kernels
from .errors import (
    DimensionTooLarge,
    EmptyInteriorError,
    RejectionStall,
    ValidationError,
)
from .geometry import BASE_TOL, Instance, SolveStatus

REJECTION_BUDGET = 5_000_000
MIN_ACCEPT_RATE = 1e-6


class SampleMethod(Enum):
    REJECTION = "Rejection"
    HIT_AND_RUN = "HitAndRun"


@dataclass(frozen=True)
class SampleCloud:
    points: np.ndarray
    seed: int
    method: SampleMethod

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    def __len__(self):
        return self.points.shape[0]


def _slater_point(instance: Instance):
    from .solver import check_interior, solve_seb

    solution = solve_seb(instance)
    if solution.status is SolveStatus.EMPTY_INTERIOR:
        raise EmptyInteriorError("ball intersection has empty interior")
    nonempty, point = check_interior(instance, solution)
    if not nonempty:
        raise EmptyInteriorError("ball intersection has empty interior")
    if point is None:
        raise EmptyInteriorError(
            "the unconverged solve found no point inside every ball")
    return point


def _feasible_rows(instance: Instance, X, tol):
    """Indices of the rows of X inside every ball, filtered ball by ball."""
    keep = np.arange(X.shape[0])
    for a, r in zip(instance.centers_matrix(), instance.radii()):
        D = X[keep] - a
        keep = keep[np.einsum("ij,ij->i", D, D) <= r * r + tol]
    return keep


def _rejection(instance: Instance, count, seed, tol):
    """Uniform rejection from the bounding box of the smallest input ball.

    A batch holds at most `kernels.TILE // n` rows (at least one), so the
    draws and the filter's temporaries stay a fixed working set however
    large `count`, and accepted rows go straight into the one (count, n)
    output. Batches split one stream of draws, so their size does not
    change which points come out.
    """
    rng = np.random.default_rng(seed)
    i = int(np.argmin(instance.radii()))
    lo = instance.centers_matrix()[i] - instance.radii()[i]
    hi = instance.centers_matrix()[i] + instance.radii()[i]
    cap = max(1, kernels.TILE // instance.dimension)
    out = np.empty((count, instance.dimension))
    drawn = 0
    accepted = 0
    while accepted < count:
        batch = min(max(4 * count, 4096), cap)
        if drawn + batch > REJECTION_BUDGET:
            batch = REJECTION_BUDGET - drawn
            if batch <= 0:
                raise RejectionStall(
                    f"acceptance rate below {MIN_ACCEPT_RATE} after {drawn} draws"
                )
        X = rng.uniform(lo, hi, size=(batch, instance.dimension))
        rows = _feasible_rows(instance, X, tol)[:count - accepted]
        drawn += batch
        out[accepted:accepted + rows.size] = X[rows]
        accepted += rows.size
        if drawn >= 1_000_000 and accepted / drawn < MIN_ACCEPT_RATE:
            raise RejectionStall(
                f"acceptance rate {accepted / drawn:.2e} below {MIN_ACCEPT_RATE}"
            )
    return out


def sample_intersection(instance: Instance, count: int, seed: int = 0,
                        method=SampleMethod.HIT_AND_RUN, start=None,
                        burn_in=100, thin=5, base_tol=BASE_TOL) -> SampleCloud:
    """Draw `count` points of the ball intersection.

    Hit-and-run walks exact chords from a Slater point (computed from the
    solver when `start` is omitted): up to `kernels.CHAINS` chains start
    there together, each runs `burn_in` steps and then keeps every
    `thin`-th point, and rows come out one round of chains at a time.
    Rejection samples the bounding box of the smallest ball and falls back
    to hit-and-run if acceptance collapses. Both draw only from
    `np.random.default_rng(seed)`: the global `np.random` state is left
    alone, and the same arguments give the same cloud.
    """
    if count < 0:
        raise ValidationError("count must be >= 0")
    method = SampleMethod(method)
    # relative to the balls, not to |center|^2: far from the origin a
    # scale() tolerance would accept points well outside the balls
    tol = base_tol * float((instance.radii() ** 2).max())
    if count == 0:
        return SampleCloud(points=np.empty((0, instance.dimension)),
                           seed=seed, method=method)
    if method is SampleMethod.REJECTION:
        try:
            pts = _rejection(instance, count, seed, tol)
            return SampleCloud(points=pts, seed=seed, method=method)
        except RejectionStall:
            method = SampleMethod.HIT_AND_RUN
    if start is None:
        start = _slater_point(instance)
    pts = kernels.hit_and_run(
        instance.centers_matrix(), instance.radii(),
        np.asarray(start, dtype=float),
        int(count), int(burn_in), int(thin), int(seed) % 2**31,
    )
    return SampleCloud(points=pts, seed=seed, method=SampleMethod.HIT_AND_RUN)


def farthest_distance(cloud: SampleCloud, center) -> float:
    """max over cloud points of |x - center|."""
    if len(cloud) == 0:
        raise ValidationError("empty cloud")
    diff = cloud.points - np.asarray(center, dtype=float)[None, :]
    return float(np.sqrt(np.einsum("ij,ij->i", diff, diff).max()))


def cloud_meb(cloud: SampleCloud, iterations: int = 1000):
    """Exact minimum enclosing ball of the cloud: (center, radius).

    `iterations` bounds the major cycles of the simplex-QP kernel, which
    ends at the exact ball after about as many cycles as the ball has
    support points (at most n + 1). The cloud lies inside the intersection,
    so this radius lower-bounds the optimal enclosing radius up to rounding.
    """
    if len(cloud) == 0:
        raise ValidationError("empty cloud")
    c, r = kernels.cloud_meb(cloud.points, int(iterations))
    return c, float(r)


def default_box(instance: Instance, pad=0.0):
    """Axis-aligned box covering every input ball (plus padding)."""
    centers = instance.centers_matrix()
    radii = instance.radii()[:, None]
    lo = (centers - radii).min(axis=0) - pad
    hi = (centers + radii).max(axis=0) + pad
    return lo, hi


def grid_min_maxg(instance: Instance, resolution: int, box=None) -> float:
    """Exhaustive grid minimum of max_i g_i(x) over a box (n <= 3 only).

    Independent oracle for the minimax identity min_x max_i g_i = -q*.
    """
    n = instance.dimension
    if n > 3:
        raise DimensionTooLarge("grid oracle supports n <= 3")
    if resolution < 1:
        raise ValidationError("resolution must be >= 1")
    lo, hi = box if box is not None else default_box(instance)
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    return kernels.grid_min_maxg(instance.centers_matrix(), instance.radii(),
                                 lo, hi, int(resolution))


def grid_resolution_bound(instance: Instance, resolution: int, box=None) -> float:
    """Lipschitz error bound for grid_min_maxg at the given resolution.

    |grad g_i(x)| = 2|x - a_i| <= L = 2 max_i max_{x in box} |x - a_i|,
    the farther box face per coordinate, so L does not grow when the balls
    and the box move together. The grid minimum overshoots the true
    minimum by at most L * h * sqrt(n) / 2.
    """
    lo, hi = box if box is not None else default_box(instance)
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    centers = instance.centers_matrix()
    far = np.maximum(np.abs(lo - centers), np.abs(hi - centers))
    L = 2.0 * float(np.linalg.norm(far, axis=1).max())
    h = float((hi - lo).max()) / resolution
    return L * h * np.sqrt(lo.size) / 2.0
