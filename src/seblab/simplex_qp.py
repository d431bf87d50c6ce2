"""Convex quadratic minimization over the unit simplex.

Minimizes q(mu) = |A^T mu|^2 - c^T mu with A the (m, n) matrix of ball
centers and c_i = |a_i|^2 - r_i^2. No m x m Gram matrix is formed: memory
is O(mn). Pairwise Frank-Wolfe from the smallest ball, with a corrective
step to the minimum over the hull of the support whenever the support
changes, finds the support (at most n + 1 balls at an optimum of a ball
instance) with a gap certificate built in, and one equality-constrained
solve on that support closes the remaining gap to rounding.
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
    """Points (one row per vertex) and linear term of the simplex program."""

    centers: np.ndarray
    linear: np.ndarray

    def __post_init__(self):
        A = np.asarray(self.centers, dtype=float)
        c = np.asarray(self.linear, dtype=float)
        if A.ndim != 2 or A.shape[0] != c.size:
            raise ValueError("centers/linear shape mismatch")
        object.__setattr__(self, "centers", _freeze(A))
        object.__setattr__(self, "linear", _freeze(c))

    @property
    def m(self):
        return self.linear.size

    def value(self, mu):
        x = self.centers.T @ np.asarray(mu, dtype=float)
        return float(x @ x - self.linear @ mu)

    def gradient(self, mu):
        x = self.centers.T @ np.asarray(mu, dtype=float)
        return 2.0 * (self.centers @ x) - self.linear

    def gap(self, mu):
        """Frank-Wolfe gap grad(mu)^T (mu - e_j) at the best vertex e_j."""
        g = self.gradient(mu)
        return float(g @ mu - g.min())


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
    """Centers A and linear term c_i = |a_i|^2 - r_i^2."""
    A = instance.centers_matrix()
    linear = np.einsum("ij,ij->i", A, A) - instance.radii() ** 2
    return SimplexQP(centers=A, linear=linear)


def _polish(qp: SimplexQP, mu):
    """Minimum of q on the affine hull of the support S of mu, or None.

    Solves the KKT system [[2 A_S A_S^T, 1], [1^T, 0]] [mu_S; -lam] =
    [c_S; 1] (Wolfe 1970) in the least-squares sense, which also covers
    affinely dependent support points; None when the solution leaves the
    simplex.
    """
    idx = np.flatnonzero(mu)
    k = idx.size
    A = qp.centers[idx]
    KKT = np.ones((k + 1, k + 1))
    KKT[:k, :k] = 2.0 * (A @ A.T)
    KKT[k, k] = 0.0
    sol = np.linalg.lstsq(KKT, np.append(qp.linear[idx], 1.0), rcond=None)[0]
    if sol[:k].min() < 0.0:
        return None
    cand = np.zeros(qp.m)
    cand[idx] = sol[:k] / sol[:k].sum()
    return cand


def solve(qp: SimplexQP, tol_gap=None, max_iter=None, refine=True):
    """Frank-Wolfe (pairwise and corrective), then one polish on the support.

    The polished point (skipped with refine=False) is kept only if its
    gap, recomputed over all m vertices, is no larger. The returned gap
    upper-bounds value - q* by convexity. If the iteration budget is
    exhausted above tol_gap the result is still returned with
    converged=False.
    """
    m = qp.m
    if tol_gap is None:
        tol_gap = 1e-10 * (1.0 + abs(qp.value(np.full(m, 1.0 / m))))
    if max_iter is None:
        max_iter = 200 * m + 10**4
    mu, iters, _ = kernels.fw_minimize(qp.centers, qp.linear,
                                       float(tol_gap), int(max_iter))
    # the kernel's gap uses its running x = A^T mu; recompute it from mu
    value, gap = qp.value(mu), qp.gap(mu)
    cand = _polish(qp, mu) if refine else None
    if cand is not None:
        gap_c = qp.gap(cand)
        if gap_c <= gap:
            mu, value, gap = cand, qp.value(cand), gap_c
    return QPResult(minimizer=mu, value=value, gap=max(gap, 0.0),
                    iterations=int(iters), converged=gap <= tol_gap)


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
