"""Core domain model: balls, instances, unit-leading quadratics, solutions.

All types are immutable after construction (arrays are frozen), so they are
safe to share between threads. An `Instance` holds its balls as read-only
arrays (centers, radii, scale and frame), built once. Every quadratic is
held in vertex form |x - c|^2 - rho; `numrange` evaluates a map of them
through its graph relation about the target center.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DimensionMismatch, ValidationError

#: Relative tolerance: solve_seb certifies a ball when its duality bracket
#: closes to BASE_TOL q(mu), and build_certificate's PSD test applies it to
#: blocks taken over Instance.scale(); no status is read from it.
BASE_TOL = 1e-9


def _freeze(arr):
    """arr as a read-only float array, copied unless it is one that owns
    its data, so that no write to the caller's data reaches it."""
    if (isinstance(arr, np.ndarray) and arr.dtype == float
            and arr.flags.owndata and not arr.flags.writeable):
        return arr
    a = np.array(arr, dtype=float)
    a.setflags(write=False)
    return a


def _require_finite(arr, what):
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{what} contains non-finite entries")


def _finite_array(x, shape, what):
    """x as a float array of the given shape with finite entries, else
    DimensionMismatch or ValidationError."""
    x = np.asarray(x, dtype=float)
    if x.shape != shape:
        raise DimensionMismatch(f"{what} has shape {x.shape}, not {shape}")
    _require_finite(x, what)
    return x


@dataclass(frozen=True)
class UnitQuadratic:
    """The function x -> |x - a|^2 - rho (identity leading form).

    Nonpositive sublevel set {q <= 0} is the ball of center a and radius
    sqrt(rho) when rho is positive.
    """

    a: np.ndarray
    rho: float

    def __post_init__(self):
        a = _freeze(np.atleast_1d(self.a))
        _require_finite(a, "quadratic center")
        rho = float(self.rho)
        if not np.isfinite(rho):
            raise ValidationError("quadratic constant must be finite")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "rho", rho)

    @property
    def dimension(self):
        return self.a.size


class Instance:
    """A collection of m >= 1 balls in a common ambient dimension n.

    The balls are held as read-only arrays built once by `from_data`: the
    (m, n) centers, the radii, the scale and `frame` = (o, B, c), the
    balls about the center o of the smallest ball (rows b_i = a_i - o and
    c_i = |b_i|^2 - r_i^2, differenced before squaring) that the solver's
    program and rank gate read. None is copied, and writing to one raises.
    """

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
        # measured from the smallest ball, the scale ignores translation;
        # with no floor it follows a uniform scaling of the balls exactly
        origin = centers[int(np.argmin(radii))].copy()
        with np.errstate(over="ignore"):
            B = centers - origin
            BB = np.einsum("ij,ij->i", B, B)
            scale = float((BB + radii * radii).max())
        if not np.isfinite(scale):
            raise ValidationError("the balls' squared sizes overflow: "
                                  "|a_i - o|^2 + r_i^2 must be finite")
        linear = BB - radii * radii
        for arr in (centers, radii, origin, B, linear):
            arr.setflags(write=False)
        instance = object.__new__(cls)
        instance.__dict__.update(dimension=centers.shape[1], _centers=centers,
                                 _radii=radii, _scale=scale,
                                 frame=(origin, B, linear))
        return instance

    def __setattr__(self, name, value):
        raise AttributeError("Instance is immutable")

    @property
    def m(self):
        return self._radii.size

    def centers_matrix(self):
        """The m centers as rows of an (m, n) array."""
        return self._centers

    def radii(self):
        return self._radii

    def scale(self):
        """Magnitude of the whole instance: max_i |a_i - o|^2 + r_i^2, o
        the center of the smallest ball. It is positive and finite (from_data
        refuses balls whose squares overflow), moves with no translation and
        scales with the square of a uniform scaling."""
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
    met the rounding stop. rank_shifted is rank{a_i - center}, the
    affine rank of the centers, which solve_seb reads before the solve and
    keeps for every status (a hand-built Solution may leave it None).
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
        """Unit quadratic of the returned ball (rho = r^2)."""
        return UnitQuadratic(a=self.center, rho=self.radius**2)


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
