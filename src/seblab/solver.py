"""Enclosing-ball pipeline: regime gating, QP solve, recovery, certificates.

The center is recovered as the multiplier combination of the input centers
and the radius as the square root of the QP optimum; one duality bracket at
the returned multipliers, with the affine rank of the centers, decides every
status.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .geometry import (
    BASE_TOL,
    Certificate,
    Instance,
    Solution,
    SolveStatus,
)
from .linalg import arrowhead_psd, numerical_rank
from .simplex_qp import build_qp, solve


class Regime(Enum):
    CONVEX = "ConvexCase"
    CRITICAL = "CriticalCase"
    UNSUPPORTED = "Unsupported"


@dataclass(frozen=True)
class RankRegime:
    rank_shifted: int
    regime: Regime


def _regime_of(rank, n, m):
    if rank < n:
        return Regime.CONVEX
    if m == n:
        return Regime.CRITICAL
    return Regime.UNSUPPORTED


def classify(instance: Instance) -> RankRegime:
    """The rank gate, read before the solve: rank{a_i - a} at the solver's
    center a = sum mu_i a_i is rank{a_i - a_j} for every simplex mu (a lies
    in the centers' affine hull), the affine rank of the centers: the rank
    of the rows b_i = a_i - o that `Instance.from_data` forms about the
    smallest ball o (`Instance.frame`, the points of build_qp). It is at
    most m - 1: the gate never reads CriticalCase (rank = n = m) for the
    solver. The rows are differences of the centers' coordinates, whose
    largest magnitude sets the rank's cutoff (`numerical_rank`): the rank
    moves with no translation beyond the rounding that the translation
    puts into the centers."""
    B, C = instance.frame[1], instance.centers_matrix()
    rank = numerical_rank(np.linalg.svd(B, compute_uv=False), B.shape,
                          max(C.max(), -C.min()))
    return RankRegime(rank_shifted=rank,
                      regime=_regime_of(rank, instance.dimension, instance.m))


def solve_seb(instance: Instance, max_iter=None):
    """Solve the simplex QP and recover the enclosing ball.

    Every status is read from one duality bracket at the returned
    multipliers mu, in the program's frame about the smallest ball o
    (x = B^T mu, formed once by `simplex_qp.solve`; the center is o + x):
    every simplex mu has sum_i mu_i g_i(y) = |y - x|^2 - q(mu), so
    -max_i g_i(x) <= q* <= q(mu).
    g_i(x) = |x|^2 - 2 b_i.x + c_i is a few n-term dot products, each
    rounded by at most about n eps (|x|^2 + |b_i|^2 + r_i^2) (Higham), so
    e_i = 8(n + 4) eps (|x|^2 + |b_i|^2 + r_i^2) bounds its rounding with
    room to spare; q(mu) also sums over the m balls, and its bound e_q
    takes 8(n + m + 4) eps times the mu-weighted mean of those sizes. With
    lb = -max_i(g_i + e_i) and ub = q(mu):

    - lb > 0: x lies strictly inside every ball, so the interior is
      nonempty; radius sqrt(ub), CertifiedOptimal when the centers' rank
      (read once by classify before the solve and kept on the solution)
      passes the gate and ub - lb <= BASE_TOL ub, else UpperBoundOnly;
    - ub < -e_q: max_i g_i(y) >= -q(mu) > 0 at every y, EmptyInterior;
    - ub <= e_q with x in every ball up to e_i: DegeneratePoint;
    - otherwise UpperBoundOnly with radius sqrt(max(ub, 0)).

    An UpperBoundOnly radius encloses the intersection only up to the
    rounding e_q of ub: the exact q(mu) >= q* for any simplex mu, but the
    computed ub can fall below q*. On the two-ball cases of the test
    corpus's tangent family, 9 of the 16 UpperBoundOnly ones with q* > 0
    (all with lb > 0) return a radius short of r*.

    The bounds follow the balls that hold x or carry weight, not the
    largest ball. `converged` says whether the solve met its rounding stop
    (`simplex_qp.solve`) within max_iter major cycles; it decides no
    status.
    """
    gate = classify(instance)
    qp = build_qp(instance)
    res = solve(qp, max_iter=max_iter)
    mu, x, ub = res.minimizer, res.point, res.value
    xx = float(x @ x)
    # |x|^2 + |b_i|^2 + r_i^2, with c_i = |b_i|^2 - r_i^2
    size = xx + qp.linear + 2.0 * instance.radii() ** 2
    eps = np.finfo(float).eps
    n, m = qp.centers.shape[1], mu.size
    g = xx - 2.0 * (qp.centers @ x) + qp.linear
    e = 8 * (n + 4) * eps * size
    e_q = 8 * (n + m + 4) * eps * float(mu @ size)
    lb = -float((g + e).max())

    status, radius = SolveStatus.UPPER_BOUND_ONLY, float(np.sqrt(max(ub, 0.0)))
    if lb > 0.0:
        if gate.regime is not Regime.UNSUPPORTED and ub - lb <= BASE_TOL * ub:
            status = SolveStatus.CERTIFIED_OPTIMAL
    elif ub < -e_q:
        status, radius = SolveStatus.EMPTY_INTERIOR, 0.0
    elif ub <= e_q and float((g - e).max()) <= 0.0:
        status, radius = SolveStatus.DEGENERATE_POINT, 0.0
    return Solution(center=qp.origin + x, radius=radius, multipliers=mu,
                    qp_value=ub, status=status, fw_gap=res.gap,
                    fw_iterations=res.iterations, converged=res.converged,
                    rank_shifted=gate.rank_shifted)


def regime_report(instance: Instance, solution: Solution) -> RankRegime:
    """The regime of the rank the solve read and kept on the solution."""
    return RankRegime(rank_shifted=solution.rank_shifted,
                      regime=_regime_of(solution.rank_shifted,
                                        instance.dimension, instance.m))


def build_certificate(instance: Instance, solution: Solution) -> Certificate:
    """Multiplier certificate blocks for the containment LMI.

    In the program's frame about the smallest ball o (b_i = a_i - o):
    alpha = sum(mu) - 1, offdiag = (a - o) - sum(mu_i b_i),
    beta = r^2 - |a - o|^2 + sum(mu_i (|b_i|^2 - r_i^2)); all three vanish
    at an exact QP optimum. alpha is a pure number, offdiag a length and
    beta a squared length, so the PSD test (and its residual) takes them
    over 1, sqrt(scale) and scale against BASE_TOL.
    """
    qp = build_qp(instance)
    mu = solution.multipliers
    d = solution.center - qp.origin
    alpha = float(mu.sum() - 1.0)
    offdiag = d - qp.centers.T @ mu
    beta = float(solution.radius**2 - d @ d + mu @ qp.linear)
    scale = instance.scale()
    psd_ok, residual = arrowhead_psd(alpha, offdiag / np.sqrt(scale),
                                     beta / scale, tol=BASE_TOL)
    return Certificate(multipliers=mu, alpha=alpha, offdiag=offdiag, beta=beta,
                       psd_ok=psd_ok, residual=residual)
