"""Joint-numerical-range laboratory.

Evaluates the quadratic map x -> (-g(x), g_1(x), ..., g_m(x)), decides exact
membership in its range and in the pairwise-segment hull of the range, and
runs randomized probes of the convexity and separation properties the solver
relies on.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    SingularTransform,
    UnsupportedRegime,
    ValidationError,
)
from .geometry import Instance, UnitQuadratic, _freeze, ball_to_quadratic
from .linalg import numerical_rank, rank_from_singular_values
from .solver import Regime, _regime_of

MEMBER_TOL = 1e-8


@dataclass(frozen=True)
class QuadraticMap:
    """The map x -> (-target(x), components_1(x), ..., components_m(x))."""

    target: UnitQuadratic
    components: tuple
    dimension: int

    def __post_init__(self):
        comps = tuple(self.components)
        if len(comps) == 0:
            raise ValidationError("quadratic map needs at least one component")
        n = int(self.dimension)
        if self.target.dimension != n or any(c.dimension != n for c in comps):
            raise DimensionMismatch("quadratic map dimensions disagree")
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "dimension", n)

    @classmethod
    def from_instance(cls, instance: Instance, target: UnitQuadratic):
        return cls(target=target,
                   components=instance.quadratics(),
                   dimension=instance.dimension)

    @property
    def m(self):
        return len(self.components)

    def component_centers(self):
        return np.array([c.a for c in self.components])

    def shifted_rank(self):
        """rank{a_i - a}, the quantity gating the hull tests."""
        return numerical_rank(self.component_centers() - self.target.a)

    def regime(self) -> Regime:
        return _regime_of(self.shifted_rank(), self.dimension, self.m)


@dataclass(frozen=True)
class MembershipVerdict:
    member: bool
    witness: np.ndarray | None
    margin: float


def eval_map(qmap: QuadraticMap, x):
    """Value vector (-g(x), g_1(x), ..., g_m(x)) of length m + 1."""
    return eval_map_batch(qmap, np.asarray(x, dtype=float)[None, :])[0]


def eval_map_batch(qmap: QuadraticMap, X):
    """eval_map over rows of X, shape (N, n) -> (N, m + 1)."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != qmap.dimension:
        raise DimensionMismatch("sample dimension does not match the map")
    xx = np.einsum("ij,ij->i", X, X)
    A = qmap.component_centers()
    theta = np.array([c.theta for c in qmap.components])
    comp = xx[:, None] - 2.0 * X @ A.T + theta[None, :]
    tgt = xx - 2.0 * X @ qmap.target.a + qmap.target.theta
    return np.concatenate([-tgt[:, None], comp], axis=1)


def graph_transform(z):
    """(z_0, ..., z_m) -> (z_1 + z_0, ..., z_m + z_0, -z_0).

    Invertible linear map putting the range into graph coordinates
    (affine part, target value).
    """
    z = np.asarray(z, dtype=float)
    return np.concatenate([z[1:] + z[0], [-z[0]]])


@dataclass(frozen=True)
class GraphForm:
    """Flattened data of the map in the critical regime.

    A has rows -2(a_i - a); in coordinates y = A x + offsets the target value
    equals the strictly convex quadratic y^T quad y - 2 lin . y + const.
    """

    A: np.ndarray
    offsets: np.ndarray
    quad: np.ndarray
    lin: np.ndarray
    const: float

    def __post_init__(self):
        object.__setattr__(self, "A", _freeze(self.A))
        object.__setattr__(self, "offsets", _freeze(self.offsets))
        object.__setattr__(self, "quad", _freeze(self.quad))
        object.__setattr__(self, "lin", _freeze(self.lin))

    def value(self, y):
        y = np.asarray(y, dtype=float)
        return float(y @ self.quad @ y - 2.0 * self.lin @ y + self.const)

    def forward(self, x):
        """Graph coordinates of a point: y = A x + offsets."""
        return self.A @ np.asarray(x, dtype=float) + self.offsets


def build_graph_form(qmap: QuadraticMap, validate=True, rng=None) -> GraphForm:
    """Construct the flattening; requires rank{a_i - a} = n = m."""
    n, m = qmap.dimension, qmap.m
    if m != n or qmap.shifted_rank() != n:
        raise SingularTransform(
            "graph form needs rank{a_i - a} = n = m (square invertible A)"
        )
    a = qmap.target.a
    A = -2.0 * (qmap.component_centers() - a)
    offsets = np.array([c.theta for c in qmap.components]) - qmap.target.theta
    Ainv = np.linalg.inv(A)
    quad = Ainv.T @ Ainv
    lin = quad @ offsets + Ainv.T @ a
    const = float(offsets @ quad @ offsets + 2.0 * a @ Ainv @ offsets
                  + qmap.target.theta)
    form = GraphForm(A=A, offsets=offsets, quad=quad, lin=lin, const=const)
    if validate:
        rng = np.random.default_rng(0) if rng is None else rng
        scale = 1.0 + float(np.abs(a).max())
        for _ in range(100):
            x = rng.standard_normal(n) * scale
            lhs = form.value(form.forward(x))
            rhs = qmap.target(x)
            if abs(lhs - rhs) > 1e-8 * (1.0 + abs(rhs)):
                raise ValidationError(
                    f"graph form inconsistent: {lhs} vs {rhs}"
                )
    return form


class _RangeGeometry:
    """Cached affine structure of a map: the membership system A x = rhs.

    Row i of A is -2(a_i - a); rhs depends on the queried value vector only,
    so the SVD is shared across queries (the probes query tens of thousands
    of points against one map).
    """

    def __init__(self, qmap: QuadraticMap):
        self.qmap = qmap
        a = qmap.target.a
        self.A = -2.0 * (qmap.component_centers() - a)
        self.offsets = (np.array([c.theta for c in qmap.components])
                        - qmap.target.theta)
        U, s, Vt = np.linalg.svd(self.A, full_matrices=True)
        r = rank_from_singular_values(s, self.A.shape)
        self.rank = r
        self.pinv = Vt[:r].T @ (U[:, :r] / s[:r]).T if r > 0 else np.zeros(
            (self.A.shape[1], self.A.shape[0]))
        self.null = Vt[r:].T  # (n, n - r), orthonormal

    def query(self, Z, tol=MEMBER_TOL):
        """Batch membership of rows of Z in the range of the map.

        Returns (member, consistent, g_min, X_min): a row is in the range iff
        its affine system is consistent and the minimum of the target
        quadratic over the solution set does not exceed -z_0.
        """
        Z = np.atleast_2d(np.asarray(Z, dtype=float))
        rhs = Z[:, 1:] + Z[:, :1] - self.offsets[None, :]
        X0 = rhs @ self.pinv.T
        resid = np.linalg.norm(rhs - X0 @ self.A.T, axis=1)
        consistent = resid <= tol * (1.0 + np.linalg.norm(rhs, axis=1))
        a = self.qmap.target.a
        T = (a[None, :] - X0) @ self.null
        Xmin = X0 + T @ self.null.T
        g_min = (np.einsum("ij,ij->i", Xmin, Xmin)
                 - 2.0 * Xmin @ a + self.qmap.target.theta)
        level = -Z[:, 0]
        slack = tol * (1.0 + np.abs(level))
        if self.null.shape[1] == 0:
            # point fiber: no freedom to climb, the level must be hit exactly
            member = consistent & (np.abs(g_min - level) <= slack)
        else:
            member = consistent & (g_min <= level + slack)
        return member, consistent, g_min, Xmin


def in_range(qmap: QuadraticMap, z, tol=MEMBER_TOL,
             geometry=None) -> MembershipVerdict:
    """Exact membership of z in the image of the map.

    On a positive verdict the witness x reproduces z: the minimizer of the
    target over the affine fiber is walked along a kernel direction (the
    target grows exactly quadratically there) up to the required level; a
    point fiber is accepted only when it already sits at the level.
    """
    z = np.asarray(z, dtype=float)
    if z.size != qmap.m + 1:
        raise DimensionMismatch("value vector must have length m + 1")
    geo = geometry or _RangeGeometry(qmap)
    member, consistent, g_min, Xmin = geo.query(z[None, :], tol=tol)
    level = -float(z[0])
    margin = float(g_min[0]) - level if consistent[0] else np.inf
    if not member[0]:
        return MembershipVerdict(member=False, witness=None, margin=margin)
    x_min = Xmin[0]
    if geo.null.shape[1] == 0:
        witness = x_min
    else:
        step = np.sqrt(max(level - float(g_min[0]), 0.0))
        witness = x_min + step * geo.null[:, 0]
    return MembershipVerdict(member=True, witness=witness, margin=margin)


def in_pair_hull(qmap: QuadraticMap, z, tol=MEMBER_TOL) -> MembershipVerdict:
    """Membership in the pairwise-segment hull of the range.

    Convex regime: the hull equals the range, so delegate. Critical regime:
    the hull is the epigraph of the flattened quadratic in graph
    coordinates. Other regimes are refused (no exact test exists).
    """
    z = np.asarray(z, dtype=float)
    regime = qmap.regime()
    if regime is Regime.CONVEX:
        return in_range(qmap, z, tol=tol)
    if regime is not Regime.CRITICAL:
        raise UnsupportedRegime(
            "pair-hull membership needs rank{a_i - a} < n or = n = m"
        )
    form = build_graph_form(qmap, validate=False)
    h = graph_transform(z)
    y, t = h[:-1], float(h[-1])
    val = form.value(y)
    margin = val - t
    return MembershipVerdict(member=margin <= tol * (1.0 + abs(t)),
                             witness=None, margin=margin)


def pair_hull_combine(p, q, lam):
    """Convex combination lam*p + (1-lam)*q, 0 <= lam <= 1."""
    lam = float(lam)
    if not 0.0 <= lam <= 1.0:
        raise ValidationError(f"lambda must be in [0, 1], got {lam}")
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    return lam * p + (1.0 - lam) * q


def _sampling_scale(qmap: QuadraticMap, radius=None):
    if radius is not None:
        return float(radius)
    centers = np.vstack([qmap.component_centers(), qmap.target.a[None, :]])
    mean = centers.mean(axis=0)
    spread = float(np.linalg.norm(centers - mean, axis=1).max())
    return 3.0 * max(spread, 1.0)


@dataclass(frozen=True)
class ConvexityReport:
    samples: int
    counterexamples: tuple  # of (x, y, lam, z)

    @property
    def convex_evidence(self):
        return len(self.counterexamples) == 0


def convexity_probe(qmap: QuadraticMap, samples: int, seed=0, radius=None,
                    include_pairs=(), tol=MEMBER_TOL) -> ConvexityReport:
    """Randomized search for segment midpoints leaving the range.

    Membership is exact, so each recorded counterexample proves
    non-convexity; an empty report is (only) evidence of convexity.
    include_pairs lets callers seed specific (x, y, lam) triples.
    """
    rng = np.random.default_rng(seed)
    geo = _RangeGeometry(qmap)
    sigma = _sampling_scale(qmap, radius)
    n = qmap.dimension
    pairs = [(np.asarray(x, dtype=float), np.asarray(y, dtype=float), float(l))
             for x, y, l in include_pairs]
    if samples > 0:
        X = rng.standard_normal((samples, n)) * sigma
        Y = rng.standard_normal((samples, n)) * sigma
        lams = rng.uniform(0.0, 1.0, size=samples)
    else:
        X = np.empty((0, n)); Y = np.empty((0, n)); lams = np.empty(0)
    counterexamples = []
    for x, y, lam in pairs:
        z = pair_hull_combine(eval_map(qmap, x), eval_map(qmap, y), lam)
        if not in_range(qmap, z, tol=tol, geometry=geo).member:
            counterexamples.append((x, y, lam, z))
    if samples > 0:
        GX = eval_map_batch(qmap, X)
        GY = eval_map_batch(qmap, Y)
        Z = lams[:, None] * GX + (1.0 - lams[:, None]) * GY
        member, _, _, _ = geo.query(Z, tol=tol)
        for i in np.flatnonzero(~member):
            counterexamples.append((X[i], Y[i], float(lams[i]), Z[i]))
    return ConvexityReport(samples=samples + len(pairs),
                           counterexamples=tuple(counterexamples))


@dataclass(frozen=True)
class SeparationReport:
    samples: int
    range_hits: tuple  # range points landing in the negative orthant
    hull_hits: tuple   # pair-hull points landing in the negative orthant

    @property
    def implication_holds(self):
        """Empty range hits must imply empty hull hits."""
        return bool(self.range_hits) or not self.hull_hits


def separation_probe(qmap: QuadraticMap, samples: int, seed=0, radius=None,
                     extra_points=None) -> SeparationReport:
    """Sample the range and its pair hull, listing negative-orthant members.

    Only supported in the convex/critical regimes (where the separation
    implication is a theorem). extra_points, if given, are additional map
    inputs (e.g. feasible samples of the ball intersection) to evaluate.
    """
    if qmap.regime() is Regime.UNSUPPORTED:
        raise UnsupportedRegime("separation probe needs a supported regime")
    rng = np.random.default_rng(seed)
    n = qmap.dimension
    sigma = _sampling_scale(qmap, radius)
    X = (rng.standard_normal((samples, n)) * sigma if samples > 0
         else np.empty((0, n)))
    if extra_points is not None and len(extra_points) > 0:
        X = np.vstack([X, np.atleast_2d(np.asarray(extra_points, dtype=float))])
    if X.shape[0] == 0:
        return SeparationReport(samples=0, range_hits=(), hull_hits=())
    G = eval_map_batch(qmap, X)
    in_orthant = (G[:, 0] < 0.0) & np.all(G[:, 1:] <= 0.0, axis=1)
    range_hits = tuple(G[i] for i in np.flatnonzero(in_orthant))
    # pair hull: random pairs of the sampled range points
    N = G.shape[0]
    idx_u = rng.integers(0, N, size=N)
    idx_v = rng.integers(0, N, size=N)
    lams = rng.uniform(0.0, 1.0, size=N)
    H = lams[:, None] * G[idx_u] + (1.0 - lams[:, None]) * G[idx_v]
    hull_mask = (H[:, 0] < 0.0) & np.all(H[:, 1:] <= 0.0, axis=1)
    hull_hits = tuple(H[i] for i in np.flatnonzero(hull_mask))
    return SeparationReport(samples=int(N), range_hits=range_hits,
                            hull_hits=hull_hits)

