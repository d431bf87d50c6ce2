"""Convex quadratic minimization over the unit simplex.

Minimizes q(mu) = |A^T mu|^2 - c^T mu with A the (m, n) matrix of ball
centers and c_i = |a_i|^2 - r_i^2, built about the center o of the
smallest ball: the program's points are b_i = a_i - o and its linear term
|b_i|^2 - r_i^2, which give the same q on the simplex. No m x m Gram matrix
is formed: memory is O(mn). Wolfe's finite method adds one ball per major
cycle and moves to the exact minimum over the hull of the support (at most
n + 1 balls at an optimum of a ball instance), so it ends at a
rounding-level gap after about as many cycles as the support has balls,
with a gap certificate built in.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import CombinatorialBlowup
from .geometry import Instance, _freeze

GRID_ORACLE_GUARD = 10**7


@dataclass(frozen=True)
class SimplexQP:
    """Points (one row per vertex) and linear term of the simplex program,
    and the origin the points are measured from (zero unless given)."""

    centers: np.ndarray
    linear: np.ndarray
    origin: np.ndarray | None = None

    def __post_init__(self):
        A = np.asarray(self.centers, dtype=float)
        c = np.asarray(self.linear, dtype=float)
        if A.ndim != 2 or A.shape[0] != c.size:
            raise ValueError("centers/linear shape mismatch")
        origin = np.zeros(A.shape[1]) if self.origin is None else self.origin
        object.__setattr__(self, "centers", _freeze(A))
        object.__setattr__(self, "linear", _freeze(c))
        object.__setattr__(self, "origin", _freeze(origin))

    @property
    def m(self):
        return self.linear.size

    def value(self, mu):
        x = self.centers.T @ np.asarray(mu, dtype=float)
        return float(x @ x - self.linear @ mu)


@dataclass(frozen=True)
class QPResult:
    minimizer: np.ndarray
    value: float
    gap: float
    iterations: int
    converged: bool = True

    def __post_init__(self):
        object.__setattr__(self, "minimizer", _freeze(self.minimizer))


def build_qp(instance: Instance) -> SimplexQP:
    """The program about the center o of the smallest ball: points
    b_i = a_i - o and linear term c_i = |b_i|^2 - r_i^2.

    Taking differences before squaring keeps the gradient from being
    rounded at the scale of |a_i|^2, however far the balls sit from the
    origin; the center is recovered as o + B^T mu.
    """
    A = instance.centers_matrix()
    radii = instance.radii()
    o = A[int(np.argmin(radii))]
    B = A - o
    linear = np.einsum("ij,ij->i", B, B) - radii * radii
    return SimplexQP(centers=B, linear=linear, origin=o)


def solve(qp: SimplexQP, tol_gap=None, max_iter=None):
    """Wolfe's finite method on the program.

    The returned gap upper-bounds value - q* by convexity. If the
    major-cycle budget runs out, or rounding stops progress, above tol_gap
    the result is still returned with converged=False.
    """
    m = qp.m
    if tol_gap is None:
        tol_gap = 1e-10 * (1.0 + abs(qp.value(np.full(m, 1.0 / m))))
    if max_iter is None:
        max_iter = 200 * m + 10**4
    mu, iters, gap = kernels.fw_minimize(qp.centers, qp.linear,
                                         float(tol_gap), int(max_iter))
    return QPResult(minimizer=mu, value=qp.value(mu),
                    gap=max(gap, 0.0), iterations=int(iters),
                    converged=gap <= tol_gap)


def _compositions(k, m):
    """All m-part compositions of k (stars and bars), lexicographic."""
    for bars in itertools.combinations(range(k + m - 1), m - 1):
        prev = -1
        counts = []
        for b in bars:
            counts.append(b - prev - 1)
            prev = b
        counts.append(k + m - 1 - prev - 1)
        yield counts


def grid_oracle(qp: SimplexQP, k: int):
    """Exhaustive minimum of q over the k-th simplex lattice {mu_i = k_i/k}.

    Independent brute-force oracle; ties resolve to the lexicographically
    smallest minimizer regardless of evaluation order.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    m = qp.m
    n_points = math.comb(k + m - 1, m - 1)
    if n_points > GRID_ORACLE_GUARD:
        raise CombinatorialBlowup(
            f"simplex lattice has {n_points} points (> {GRID_ORACLE_GUARD})"
        )
    best_val = math.inf
    best_mu = None
    batch = []
    def flush():
        nonlocal best_val, best_mu
        if not batch:
            return
        MU = np.array(batch, dtype=float) / k
        X = MU @ qp.centers
        vals = np.einsum("ij,ij->i", X, X) - MU @ qp.linear
        j = int(np.argmin(vals))
        if vals[j] < best_val or (
            vals[j] == best_val and tuple(MU[j]) < tuple(best_mu)
        ):
            best_val = float(vals[j])
            best_mu = MU[j]
        batch.clear()
    for counts in _compositions(k, m):
        batch.append(counts)
        if len(batch) >= 100_000:
            flush()
    flush()
    return best_val, best_mu
