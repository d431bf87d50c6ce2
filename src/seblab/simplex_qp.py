"""Convex quadratic minimization over the unit simplex.

Minimizes q(mu) = mu^T M mu - c^T mu with M the Gram matrix of the ball
centers and c_i = |a_i|^2 - r_i^2. Solved by Frank-Wolfe with exact line
search (gap certificate built in) plus an active-set finishing step that
recovers near-machine accuracy.
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
    """Gram matrix and linear term of the simplex program."""

    gram: np.ndarray
    linear: np.ndarray

    def __post_init__(self):
        G = np.asarray(self.gram, dtype=float)
        c = np.asarray(self.linear, dtype=float)
        if G.shape != (c.size, c.size):
            raise ValueError("gram/linear shape mismatch")
        if not np.allclose(G, G.T, atol=1e-12 * (1.0 + np.abs(G).max())):
            raise ValueError("gram matrix must be symmetric")
        object.__setattr__(self, "gram", _freeze(0.5 * (G + G.T)))
        object.__setattr__(self, "linear", _freeze(c))

    @property
    def m(self):
        return self.linear.size

    def value(self, mu):
        mu = np.asarray(mu, dtype=float)
        return float(mu @ self.gram @ mu - self.linear @ mu)

    def gradient(self, mu):
        return 2.0 * self.gram @ np.asarray(mu, dtype=float) - self.linear

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
    """Gram matrix M_ij = a_i . a_j and linear term c_i = |a_i|^2 - r_i^2."""
    A = instance.centers_matrix()
    radii = instance.radii()
    gram = A @ A.T
    linear = np.einsum("ij,ij->i", A, A) - radii**2
    return SimplexQP(gram=gram, linear=linear)


def _refine_active_set(qp: SimplexQP, mu, max_rounds=50):
    """Equality-constrained QP refinement on the (evolving) support of mu.

    Solves [[2 M_SS, 1], [1^T, 0]] [mu_S; lam] = [c_S; 1], dropping negative
    coordinates and re-adding vertices whose gradient undercuts the
    multiplier. Returns the incumbent if no improving feasible point is
    found.
    """
    m = qp.m
    support = mu > 1e-12
    if not support.any():
        support = np.ones(m, dtype=bool)
    best_mu, best_val = mu, qp.value(mu)
    for _ in range(max_rounds):
        idx = np.flatnonzero(support)
        k = idx.size
        KKT = np.zeros((k + 1, k + 1))
        KKT[:k, :k] = 2.0 * qp.gram[np.ix_(idx, idx)]
        KKT[:k, k] = 1.0
        KKT[k, :k] = 1.0
        rhs = np.concatenate([qp.linear[idx], [1.0]])
        sol, *_ = np.linalg.lstsq(KKT, rhs, rcond=None)
        mu_s = sol[:k]
        if mu_s.min() < -1e-12:
            support[idx[int(np.argmin(mu_s))]] = False
            if not support.any():
                break
            continue
        cand = np.zeros(m)
        cand[idx] = np.maximum(mu_s, 0.0)
        s = cand.sum()
        if s <= 0:
            break
        cand /= s
        val = qp.value(cand)
        if val <= best_val + 1e-15 * (1.0 + abs(best_val)):
            best_mu, best_val = cand, val
        # optimality over dropped vertices: grad_i >= lam for i off support
        grad = qp.gradient(cand)
        lam = float(grad[idx].mean())
        off = ~support
        viol = lam - grad
        viol[~off] = -np.inf
        j = int(np.argmax(viol))
        if viol[j] > 1e-12 * (1.0 + abs(lam)):
            support[j] = True
            continue
        break
    return best_mu, best_val


def solve(qp: SimplexQP, tol_gap=None, max_iter=None, refine=True):
    """Frank-Wolfe with exact line search and active-set finishing.

    The returned gap upper-bounds value - q* by convexity. If the iteration
    budget is exhausted above tol_gap the result is still returned with
    converged=False.
    """
    m = qp.m
    mu0 = np.full(m, 1.0 / m)
    if tol_gap is None:
        tol_gap = 1e-10 * (1.0 + abs(qp.value(mu0)))
    if max_iter is None:
        max_iter = 200 * m + 10**4
    mu, iters, gap = kernels.fw_minimize(qp.gram, qp.linear,
                                         float(tol_gap), int(max_iter))
    value = qp.value(mu)
    if refine:
        mu_r, val_r = _refine_active_set(qp, mu)
        if val_r <= value:
            gap_r = max(qp.gap(mu_r), 0.0)
            if gap_r <= max(gap, tol_gap):
                mu, value, gap = mu_r, val_r, gap_r
    converged = gap <= tol_gap
    return QPResult(minimizer=mu, value=value, gap=max(gap, 0.0),
                    iterations=int(iters), converged=converged)


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
        vals = np.einsum("ij,jl,il->i", MU, qp.gram, MU) - MU @ qp.linear
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
