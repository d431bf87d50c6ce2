"""Core domain model: balls, instances, unit-leading quadratics, solutions.

All types are immutable after construction (arrays are frozen), so they are
safe to share between threads. An `Instance` holds its balls as read-only
arrays (centers, radii, theta and the scale), built once; its `balls` and
`quadratics()` are views built from those arrays on demand.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DimensionMismatch, ValidationError

#: Base relative tolerance used throughout; scaled by (1 + operand magnitude).
BASE_TOL = 1e-9


def _freeze(arr):
    a = np.array(arr, dtype=float)
    a.setflags(write=False)
    return a


def _require_finite(arr, what):
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{what} contains non-finite entries")


@dataclass(frozen=True)
class Ball:
    """Closed Euclidean ball with center in R^n and radius > 0."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        center = _freeze(np.atleast_1d(self.center))
        if center.ndim != 1 or center.size == 0:
            raise ValidationError("ball center must be a nonempty vector")
        _require_finite(center, "ball center")
        radius = float(self.radius)
        if not np.isfinite(radius) or radius <= 0.0:
            raise ValidationError(f"ball radius must be finite and > 0, got {radius}")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "radius", radius)

    @property
    def dimension(self):
        return self.center.size

    def contains(self, x, tol=BASE_TOL):
        x = np.asarray(x, dtype=float)
        return float(np.dot(x - self.center, x - self.center)) <= self.radius**2 + tol * (
            1.0 + float(np.dot(x, x))
        )


@dataclass(frozen=True)
class UnitQuadratic:
    """The function x -> x.x - 2 a.x + theta (identity leading form).

    Nonpositive sublevel set {q <= 0} is the ball of center a and radius
    sqrt(|a|^2 - theta) when that quantity is positive.
    """

    a: np.ndarray
    theta: float

    def __post_init__(self):
        a = _freeze(np.atleast_1d(self.a))
        _require_finite(a, "quadratic linear coefficient")
        theta = float(self.theta)
        if not np.isfinite(theta):
            raise ValidationError("quadratic constant must be finite")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "theta", theta)

    @property
    def dimension(self):
        return self.a.size

    def __call__(self, x):
        return eval_quadratic(self, x)


def ball_to_quadratic(b: Ball) -> UnitQuadratic:
    """Represent a ball as its defining unit quadratic: theta = |c|^2 - r^2."""
    c = b.center
    return UnitQuadratic(a=c, theta=float(np.dot(c, c)) - b.radius**2)


def quadratic_to_ball(q: UnitQuadratic) -> Ball:
    """Inverse of ball_to_quadratic; requires |a|^2 - theta > 0."""
    r2 = float(np.dot(q.a, q.a)) - q.theta
    if r2 <= 0.0:
        raise ValidationError("quadratic has empty or degenerate sublevel set")
    return Ball(center=q.a, radius=float(np.sqrt(r2)))


def eval_quadratic(q: UnitQuadratic, x) -> float:
    """Evaluate x.x - 2 a.x + theta."""
    x = np.asarray(x, dtype=float)
    if x.shape != q.a.shape:
        raise DimensionMismatch(
            f"point dimension {x.shape} does not match quadratic dimension {q.a.shape}"
        )
    return float(np.dot(x, x) - 2.0 * np.dot(q.a, x) + q.theta)


class Instance:
    """A collection of m >= 1 balls in a common ambient dimension n.

    The balls are held as read-only arrays built once at construction:
    the (m, n) centers, the radii, theta_i = |a_i|^2 - r_i^2 and the
    scale. The accessors return these arrays without copying, and writing
    to one raises. `balls` and `quadratics()` are views built from the
    arrays on each call; `from_data` validates the arrays and builds no
    Ball.
    """

    def __init__(self, dimension, balls):
        balls = tuple(balls)
        if len(balls) == 0:
            raise ValidationError("instance needs at least one ball")
        n = int(dimension)
        if n < 1:
            raise ValidationError("dimension must be >= 1")
        for b in balls:
            if not isinstance(b, Ball):
                raise ValidationError("instance balls must be Ball objects")
            if b.dimension != n:
                raise DimensionMismatch(
                    f"ball dimension {b.dimension} != instance dimension {n}"
                )
        self._store(np.array([b.center for b in balls]),
                    np.array([b.radius for b in balls]))

    @classmethod
    def from_data(cls, centers, radii):
        """Instance from an (m, n) array of centers and m radii (copied)."""
        centers = np.array(centers, dtype=float)
        radii = np.array(radii, dtype=float)
        if centers.ndim != 2 or centers.size == 0:
            raise ValidationError("centers must be a nonempty (m, n) array")
        if radii.shape != centers.shape[:1]:
            raise DimensionMismatch(
                f"{radii.size} radii for {centers.shape[0]} centers")
        _require_finite(centers, "ball center")
        if not np.all(np.isfinite(radii) & (radii > 0.0)):
            raise ValidationError("ball radii must be finite and > 0")
        instance = object.__new__(cls)
        instance._store(centers, radii)
        return instance

    def _store(self, centers, radii):
        # measured from the smallest ball, the scale ignores translation
        D = centers - centers[np.argmin(radii)]
        scale = max(1.0, float((np.einsum("ij,ij->i", D, D)
                                + radii * radii).max()))
        theta = np.einsum("ij,ij->i", centers, centers) - radii * radii
        for arr in (centers, radii, theta):
            arr.setflags(write=False)
        self.__dict__.update(dimension=centers.shape[1], _centers=centers,
                             _radii=radii, _theta=theta, _scale=scale)

    def __setattr__(self, name, value):
        raise AttributeError("Instance is immutable")

    @property
    def m(self):
        return self._radii.size

    @property
    def balls(self):
        return tuple(Ball(c, r) for c, r in zip(self._centers, self._radii))

    def centers_matrix(self):
        """The m centers as rows of an (m, n) array."""
        return self._centers

    def radii(self):
        return self._radii

    def theta(self):
        """theta_i = |a_i|^2 - r_i^2, the constant of each ball's quadratic."""
        return self._theta

    def quadratics(self):
        return tuple(UnitQuadratic(a=c, theta=t)
                     for c, t in zip(self._centers, self._theta))

    def scale(self):
        """Magnitude proxy used for relative tolerances:
        max(1, max_i |a_i - o|^2 + r_i^2), o the center of the smallest
        ball."""
        return self._scale


class SolveStatus(Enum):
    CERTIFIED_OPTIMAL = "CertifiedOptimal"
    UPPER_BOUND_ONLY = "UpperBoundOnly"
    EMPTY_INTERIOR = "EmptyInterior"
    DEGENERATE_POINT = "DegeneratePoint"


@dataclass(frozen=True)
class Solution:
    """Output of the enclosing-ball solver.

    center/radius define the returned ball, multipliers the simplex weights
    recovering it, qp_value the simplex-QP optimum (= radius^2 for nonempty
    interior); fw_gap bounds qp_value - q*, and converged says whether it
    met the solve's tolerance. rank_shifted is rank{a_i - center} when the
    solve took it (q* > 0), else None.
    """

    center: np.ndarray
    radius: float
    multipliers: np.ndarray
    qp_value: float
    status: SolveStatus
    fw_gap: float = 0.0
    fw_iterations: int = 0
    converged: bool = True
    rank_shifted: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "center", _freeze(self.center))
        object.__setattr__(self, "multipliers", _freeze(self.multipliers))

    def target_quadratic(self) -> UnitQuadratic:
        """Unit quadratic of the returned ball (theta = |a|^2 - r^2)."""
        c = self.center
        return UnitQuadratic(a=c, theta=float(np.dot(c, c)) - self.radius**2)


@dataclass(frozen=True)
class Certificate:
    """Multiplier certificate data for the containment LMI.

    The block matrix [[alpha I, offdiag], [offdiag^T, beta]] being PSD proves
    the returned ball contains the intersection. At an exact solver optimum
    alpha, offdiag and beta all vanish.
    """

    multipliers: np.ndarray
    alpha: float
    offdiag: np.ndarray
    beta: float
    psd_ok: bool
    residual: float

    def __post_init__(self):
        object.__setattr__(self, "multipliers", _freeze(self.multipliers))
        object.__setattr__(self, "offdiag", _freeze(self.offdiag))
