"""Joint-numerical-range laboratory.

The map x -> (-g(x), g_1(x), ..., g_m(x)) of a target quadratic
g(x) = |x - a|^2 - rho and the ball quadratics g_i, held as arrays about
the target center a. In graph coordinates y_i = z_i + z_0 and t = -z_0 the
range is {(A (x - a) + offsets, g(x))} with A = -2(a_i - a) and
offsets_i = g_i(a) - g(a), so a value vector z is decided by one query on
its fibre {x : A (x - a) + offsets = y}: the minimum of g over the fibre
against the level -z_0. The range needs a point fibre to hit the level
exactly (a fibre with free directions reaches every level above its
minimum). In the critical regime (rank A = n = m) the pair hull of the
range is the epigraph of g over the point fibres, so it only needs the
minimum at or below the level. The rank of A is read against the
rounding of the coordinates it is differenced from (`numerical_rank`), so
a translation leaves it alone up to the rounding that the translation
itself puts into the map.

The values have one evaluator, `_values`, which reads the same relation
at y = x - a: z_0 = rho - |y|^2 and z_i = A_i . y + offsets_i - z_0.
`eval_map` calls it on x - a, and the probes on points they draw in y,
so no draw makes the round trip a + y, - a.

The probes do only the work their answer needs. By the paper's rank
theorem the range is convex if and only if rank A < n, which the map reads
once when it is built, so the convexity probe returns the theorem's
verdict and searches nothing: at rank A < n an empty report with
samples=0, at rank A = n one certified counterexample, the midpoint of
G(a + v) and G(a - v), which misses the range by |v|^2. The separation
probe draws range and pair-hull points and tests the negative orthant one
column at a time, on the rows still standing.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, UnsupportedRegime, ValidationError
from .geometry import (
    Instance,
    UnitQuadratic,
    _finite_array,
    _freeze,
    _require_finite,
)
from .linalg import numerical_rank
from .solver import Regime, _regime_of


@dataclass(frozen=True)
class QuadraticMap:
    """The map x -> (-target(x), g_1(x), ..., g_m(x)) with
    g_i(x) = |x - centers_i|^2 - rho_i.

    The graph relation is y = A (x - a) + offsets, a = target.a. The affine
    part A = -2(centers - a), the offsets g_i(a) - g(a), the rank of A, its
    pseudo-inverse, an orthonormal basis of its null space, `dropped`, the
    largest singular value the rank leaves out (0 at full rank), and
    `kept`, the smallest it keeps (inf at rank 0), are computed once, at
    construction, from one SVD, thin when m >= n so that no m x m factor
    is formed. So is `scale`, the map's squared length
    max(spread^2, target.rho), the spread being the largest distance of a
    center (the target's included) from their mean; it sets the probes'
    sampling width and witness length, and the fibre query's slacks come
    from the rounding of the map and the query instead (`fibre`).
    """

    centers: np.ndarray
    rho: np.ndarray
    target: UnitQuadratic

    def __post_init__(self):
        centers = _freeze(self.centers)
        rho = _freeze(self.rho)
        if centers.ndim != 2 or centers.shape[0] == 0:
            raise ValidationError("quadratic map needs an (m, n) array of "
                                  "centers with m >= 1")
        if rho.shape != centers.shape[:1] or (
                self.target.dimension != centers.shape[1]):
            raise DimensionMismatch("quadratic map dimensions disagree")
        _require_finite(centers, "quadratic map centers")
        _require_finite(rho, "quadratic map constants")
        a = self.target.a
        B = centers - a
        A = _freeze(-2.0 * B)
        # thin when m >= n: Vt is then already n x n, and U holds no m x m
        U, s, Vt = np.linalg.svd(A, full_matrices=A.shape[0] < A.shape[1])
        # A's entries are twice differences of these coordinates
        rank = numerical_rank(s, A.shape, 2.0 * max(
            centers.max(), -centers.min(), a.max(), -a.min()))
        points = np.vstack([centers, a])
        spread = np.linalg.norm(points - points.mean(axis=0), axis=1).max()
        self.__dict__.update(
            centers=centers, rho=rho, A=A,
            offsets=_freeze(np.einsum("ij,ij->i", B, B) - rho
                            + self.target.rho),
            rank=rank, dropped=float(s[rank]) if rank < s.size else 0.0,
            kept=float(s[rank - 1]) if rank else np.inf,
            pinv=_freeze(Vt[:rank].T @ (U[:, :rank] / s[:rank]).T),
            null=_freeze(Vt[rank:].T),
            scale=max(float(spread) ** 2, self.target.rho))

    @classmethod
    def from_instance(cls, instance: Instance, target: UnitQuadratic):
        return cls(centers=instance.centers_matrix(),
                   rho=instance.radii() ** 2, target=target)

    @property
    def dimension(self):
        return self.centers.shape[1]

    @property
    def m(self):
        return self.centers.shape[0]

    def regime(self) -> Regime:
        return _regime_of(self.rank, self.dimension, self.m)

    def fibre(self, Z):
        """The fibre query on the rows z of Z: (margin, slack, X_min).

        margin is the minimum of the target over the fibre less the level
        -z_0 (inf on an empty fibre), X_min the minimiser and slack the
        rounding a level test allows. The fibre is solved in y = x - a,
        where the least-norm solution Y = pinv rhs of A y = rhs,
        rhs_i = z_i + z_0 - offsets_i, is the minimiser of g = |y|^2 - rho.

        Both slacks are the perturbation bounds of least squares (Higham,
        ch. 20) applied to what an image's values carry. Each value is
        within 8 (n + 4) eps of its sizes (`_values`), |y|^2 of the
        preimage among them, which is rho + level on the range and at
        least |Y|^2; so rhs is off A y by at most d_rhs, and Y off the
        fibre's minimiser by dY = (d_rhs + 8 (max(m, n) + 4) eps |A| |Y|)
        / s_r, the second term the solve's own rounding (|A| is taken as
        the Frobenius norm, s_r = `kept`). The residual |rhs - A Y| may be
        d_rhs + |A| dY plus the product's rounding, plus `dropped`
        sqrt(rho + level) from the singular directions the rank left out;
        the level test's slack is 2 |Y| dY + dY^2 plus the rounding of
        |Y|^2 and of the level.
        """
        Z = np.atleast_2d(np.asarray(Z, dtype=float))
        (m, n), rho = self.A.shape, self.target.rho
        eps = np.finfo(float).eps
        value, solve = 8 * (n + 4) * eps, 8 * (max(m, n) + 4) * eps
        rhs = Z[:, 1:] + Z[:, :1] - self.offsets
        Y = rhs @ self.pinv.T
        resid = np.linalg.norm(rhs - Y @ self.A.T, axis=1)
        level = -Z[:, 0]
        YY = np.einsum("ij,ij->i", Y, Y)
        norm_Y, norm_rhs = np.sqrt(YY), np.linalg.norm(rhs, axis=1)
        size = np.maximum(YY, rho + level)
        # |A_i|^2 / 4 = |c_i - a|^2; z_i's and z_0's bounds and the two
        # sums that form rhs, the norm over i taken term by term
        rows = np.einsum("ij,ij->i", self.A, self.A)
        d_rhs = value * (2.0 * np.sqrt(m) * size + norm_rhs + np.linalg.norm(
            rows / 4.0 + np.abs(self.rho) + 3.0 * abs(rho)))
        norm_A = np.sqrt(rows.sum())
        dY = (d_rhs + solve * norm_A * norm_Y) / self.kept
        consistent = resid <= (
            d_rhs + norm_A * dY + value * (norm_A * norm_Y + norm_rhs)
            + self.dropped * np.sqrt(np.maximum(rho + level, 0.0)))
        margin = np.where(consistent, YY - rho - level, np.inf)
        slack = dY * (2.0 * norm_Y + dY) + value * (
            2.0 * size + np.abs(level) + 2.0 * abs(rho))
        return margin, slack, Y + self.target.a


@dataclass(frozen=True)
class MembershipVerdict:
    member: bool
    witness: np.ndarray | None
    margin: float


def _values(qmap: QuadraticMap, Y):
    """The (m + 1, N) values of the map at the points a + y, y the rows of
    the (N, n) array Y, read off the graph relation one contiguous row at
    a time: z_0 = rho - |y|^2 and z_i = A_i . y + offsets_i - z_0.

    The points stay about the target center, as the relation holds them,
    so rounding follows their distances from a and from the centers, not
    from the origin: against exact rationals, on maps moved by up to 1e8
    and scaled from 1e-8 to 1e8, each value is within 8 (n + 4) eps of
    |y|^2 + |c_i - a|^2 + |rho_i| + rho. Beside the values the call holds
    no moved copy and no 2-D temporary.
    """
    Z = np.empty((qmap.m + 1, Y.shape[0]))
    z0 = np.einsum("ij,ij->i", Y, Y, out=Z[0])
    np.subtract(qmap.target.rho, z0, out=z0)
    for row, offset, z in zip(qmap.A, qmap.offsets, Z[1:]):
        np.matmul(Y, row, out=z)
        z += offset
        z -= z0
    return Z


def eval_map(qmap: QuadraticMap, x):
    """(-g(x), g_1(x), ..., g_m(x)): shape (m + 1,) for a point x, and
    (N, m + 1) for the rows of an (N, n) array; a point with a non-finite
    entry raises ValidationError.

    The values are `_values` of x - a, and the (N, m + 1) array is the
    transposed view of its (m + 1, N) one, so each quadratic's values are
    contiguous. On 4,000 points of a 3-D map with m = 2 the call peaks at
    0.19 MB, its 0.096 MB of values included.
    """
    x = np.asarray(x, dtype=float)
    X = np.atleast_2d(x)
    if X.shape[1] != qmap.dimension:
        raise DimensionMismatch("sample dimension does not match the map")
    _require_finite(X, "map input")
    Z = _values(qmap, X - qmap.target.a).T
    return Z[0] if x.ndim == 1 else Z


def _range_members(qmap: QuadraticMap, Z):
    """(member, margin, X_min) of the rows of Z against the range: a
    nonempty fibre whose minimum is at the level (below it, when the fibre
    has free directions) up to the level test's slack."""
    margin, slack, Xmin = qmap.fibre(Z)
    # a point fibre cannot climb: it must sit at the level
    off = np.abs(margin) if qmap.null.shape[1] == 0 else margin
    return off <= slack, margin, Xmin


def _value_vector(qmap: QuadraticMap, z):
    """z as a float vector of length m + 1 with finite entries: an infinite
    level would make the level test's slack infinite too."""
    return _finite_array(z, (qmap.m + 1,), "value vector")


def in_range(qmap: QuadraticMap, z) -> MembershipVerdict:
    """Exact membership of z in the image of the map, up to rounding: z
    reads member when it lies within what rounding can put between an
    image's computed values and its exact ones (the slacks of
    `QuadraticMap.fibre`), so every `eval_map` image is a member, and a
    vector further off the range is not.

    On a positive verdict the witness x reproduces z: the minimizer of the
    target over the fibre is walked along a kernel direction (the target
    grows exactly quadratically there) up to the required level.
    """
    z = _value_vector(qmap, z)
    member, margin, Xmin = _range_members(qmap, z[None, :])
    margin = float(margin[0])
    if not member[0]:
        return MembershipVerdict(member=False, witness=None, margin=margin)
    witness = Xmin[0]
    if qmap.null.shape[1] > 0:
        witness = witness + np.sqrt(max(-margin, 0.0)) * qmap.null[:, 0]
    return MembershipVerdict(member=True, witness=witness, margin=margin)


def in_pair_hull(qmap: QuadraticMap, z) -> MembershipVerdict:
    """Membership in the pairwise-segment hull of the range.

    Convex regime: the hull equals the range, so delegate. Critical regime:
    the hull is the epigraph of the target over the point fibres, so z is
    a member when its fibre's minimum is at or below the level up to the
    level test's slack (`QuadraticMap.fibre`). Other regimes are refused
    (no exact test exists).
    """
    regime = qmap.regime()
    if regime is Regime.CONVEX:
        return in_range(qmap, z)
    if regime is not Regime.CRITICAL:
        raise UnsupportedRegime(
            "pair-hull membership needs rank{a_i - a} < n or = n = m"
        )
    margin, slack, _ = qmap.fibre(_value_vector(qmap, z)[None, :])
    return MembershipVerdict(member=bool(margin[0] <= slack[0]),
                             witness=None, margin=float(margin[0]))


def sample_inputs(qmap: QuadraticMap, count: int, rng):
    """`count` normal map inputs about the target center, of standard
    deviation three times the map's length, drawn from `rng` and scaled
    and moved in place."""
    if count < 0:
        raise ValidationError(f"count must be >= 0, got {count}")
    X = rng.standard_normal((count, qmap.dimension))
    X *= 3.0 * np.sqrt(qmap.scale)
    X += qmap.target.a
    return X


@dataclass(frozen=True)
class ConvexityReport:
    samples: int
    counterexamples: tuple  # of (x, y, lam, z)

    @property
    def convex_evidence(self):
        return len(self.counterexamples) == 0


def convexity_probe(qmap: QuadraticMap, samples: int,
                    seed=0) -> ConvexityReport:
    """The paper's rank theorem as a report: the range is convex if and
    only if rank A < n.

    When rank A < n (the convex regime) the report is that verdict, with
    samples=0, and nothing is drawn. When rank A = n every fibre is a
    point, so for any v != 0 the midpoint z of G(a + v) and G(a - v) has
    the fibre {a}, where the target sits |v|^2 below the level -z_0: z
    misses the range by |v|^2. The report is that one counterexample
    (a + v, a - v, 0.5, z), v a random direction (from `seed`) of length
    sqrt(scale), with samples=1; its values are read at y = +-v, so
    neither point makes the round trip a + y, - a. samples=0 gives the
    empty report in both regimes.
    """
    if samples < 0:
        raise ValidationError(f"samples must be >= 0, got {samples}")
    if samples == 0 or qmap.null.shape[1] > 0:
        return ConvexityReport(samples=0, counterexamples=())
    v = np.random.default_rng(seed).standard_normal(qmap.dimension)
    v *= np.sqrt(qmap.scale) / np.linalg.norm(v)
    z = _values(qmap, np.stack([v, -v])).mean(axis=1)
    a = qmap.target.a
    return ConvexityReport(samples=1,
                           counterexamples=((a + v, a - v, 0.5, z),))


def _orthant_rows(m, column):
    """The ascending indices of the rows in the negative orthant (entries
    1..m <= 0, entry 0 < 0). column(j, rows) gives entry j of the rows
    `rows` (a slice of all of them for the first column); each column is
    read only on the rows that passed the ones before it."""
    rows = np.flatnonzero(column(1, slice(None)) <= 0.0)
    for j in (*range(2, m + 1), 0):
        if rows.size == 0:
            break
        values = column(j, rows)
        rows = rows[values < 0.0 if j == 0 else values <= 0.0]
    return rows


@dataclass(frozen=True)
class SeparationReport:
    samples: int
    range_hits: tuple  # range points landing in the negative orthant
    hull_hits: tuple   # pair-hull points landing in the negative orthant

    @property
    def implication_holds(self):
        """Empty range hits must imply empty hull hits."""
        return bool(self.range_hits) or not self.hull_hits


def separation_probe(qmap: QuadraticMap, samples: int, seed=0,
                     extra_points=None) -> SeparationReport:
    """Sample the range and its pair hull, listing negative-orthant members.

    Only supported in the convex/critical regimes (where the separation
    implication is a theorem). extra_points, if given, are additional map
    inputs (e.g. feasible samples of the ball intersection) to evaluate:
    rows of length n with finite entries, else DimensionMismatch or
    ValidationError before anything is drawn.

    The N inputs are drawn into one (N, n) array in y = x - a, the
    samples scaled in place in the top rows and the extra points moved
    into the rows below, and freed once evaluated. The orthant tests read
    the contiguous columns of the values, and a pair-hull column is formed
    in place in its gathered rows, only on the rows still standing, so
    beyond the (N, m + 1) values the probe holds a few length-N vectors.
    With 100,000 samples and 100,000 extra points on a 3-D map with m = 2
    it peaks at 2.67 times its values, and with 2,000 of each at 0.261 MB.
    """
    if qmap.regime() is Regime.UNSUPPORTED:
        raise UnsupportedRegime("separation probe needs a supported regime")
    extra = None
    if extra_points is not None and len(extra_points) > 0:
        extra = np.atleast_2d(extra_points)
        extra = _finite_array(extra, (len(extra), qmap.dimension),
                              "extra points")
    if samples < 0:
        raise ValidationError(f"samples must be >= 0, got {samples}")
    N = samples + (0 if extra is None else len(extra))
    if N == 0:
        return SeparationReport(samples=0, range_hits=(), hull_hits=())
    rng = np.random.default_rng(seed)
    Y = np.empty((N, qmap.dimension))
    rng.standard_normal(out=Y[:samples])
    Y[:samples] *= 3.0 * np.sqrt(qmap.scale)
    if extra is not None:
        np.subtract(extra, qmap.target.a, out=Y[samples:])
    columns = _values(qmap, Y)  # (m + 1, N), each row contiguous
    del Y
    range_rows = _orthant_rows(qmap.m, lambda j, rows: columns[j, rows])
    # pair hull: random pairs of the sampled range points
    idx_u = rng.integers(0, N, size=N)
    idx_v = rng.integers(0, N, size=N)
    lams = rng.uniform(0.0, 1.0, size=N)

    def hull(j, rows):
        # the point v + lam (u - v) of the pair (u, v), formed in place in
        # the gathered u
        h = columns[j, idx_u[rows]]
        v = columns[j, idx_v[rows]]
        h -= v
        h *= lams[rows]
        h += v
        return h

    hull_rows = _orthant_rows(qmap.m, hull)
    # whole hull rows, only for the hits
    return SeparationReport(samples=int(N),
                            range_hits=tuple(columns[:, range_rows].T),
                            hull_hits=tuple(hull(slice(None), hull_rows).T))
