"""Enclosing-ball pipeline: regime gating, QP solve, recovery, certificates.

The center is recovered as the multiplier combination of the input centers
and the radius as the square root of the QP optimum; the rank of the centers
and the convergence of the solve decide whether minimality is certified.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ValidationFailure
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
    rank_centers: int
    regime: Regime
    rank_shifted: int | None = None


def _regime_of(rank, n, m):
    if rank < n:
        return Regime.CONVEX
    if m == n:
        return Regime.CRITICAL
    return Regime.UNSUPPORTED


def classify(instance: Instance) -> RankRegime:
    """Pre-solve gate on rank{a_1, ..., a_m} (the shifted rank needs the
    still-unknown center, so the unshifted rank stands in; it only
    over-reports)."""
    rank = numerical_rank(instance.centers_matrix())
    return RankRegime(rank_centers=rank,
                      regime=_regime_of(rank, instance.dimension, instance.m))


def solve_seb(instance: Instance, tol_gap=None, max_iter=None, base_tol=BASE_TOL):
    """Solve the simplex QP and recover the enclosing ball.

    The center is o + B^T mu in the program's frame about the smallest
    ball o. q* > 0: ball of radius sqrt(q*), certified when the solve
    converged and the post-solve shifted rank, kept on the solution,
    satisfies the gating condition. |q*| ~ 0: the intersection is a single
    touching point (radius 0). q* < 0: empty interior.
    """
    qp = build_qp(instance)
    res = solve(qp, tol_gap=tol_gap, max_iter=max_iter)
    mu = res.minimizer
    q_star = res.value
    x = qp.centers.T @ mu
    tol = base_tol * instance.scale()
    rank_shifted = None

    if q_star < -tol:
        status = SolveStatus.EMPTY_INTERIOR
        radius = 0.0
    elif q_star <= tol:
        status = SolveStatus.DEGENERATE_POINT
        radius = 0.0  # sqrt of noise-level q* clamps to 0
    else:
        rank_shifted = numerical_rank(qp.centers - x)
        post = _regime_of(rank_shifted, instance.dimension, instance.m)
        if res.converged and post in (Regime.CONVEX, Regime.CRITICAL):
            status = SolveStatus.CERTIFIED_OPTIMAL
        else:
            status = SolveStatus.UPPER_BOUND_ONLY
        radius = float(np.sqrt(q_star))
    return Solution(center=qp.origin + x, radius=radius, multipliers=mu,
                    qp_value=q_star, status=status, fw_gap=res.gap,
                    fw_iterations=res.iterations, converged=res.converged,
                    rank_shifted=rank_shifted)


def regime_report(instance: Instance, solution: Solution) -> RankRegime:
    """Pre-solve rank of the centers, and the regime read from the
    post-solve shifted rank rank{a_i - a}: the solution's own when the
    solve took it, else computed here."""
    pre = classify(instance)
    rank_shifted = solution.rank_shifted
    if rank_shifted is None:
        rank_shifted = numerical_rank(instance.centers_matrix()
                                      - solution.center)
    return RankRegime(rank_centers=pre.rank_centers,
                      regime=_regime_of(rank_shifted, instance.dimension,
                                        instance.m),
                      rank_shifted=rank_shifted)


def check_interior(instance: Instance, solution: Solution, base_tol=BASE_TOL):
    """Slater check via the minimax identity min_x max_i g_i(x) = -q*.

    The intersection has nonempty interior iff q* > 0. For any simplex mu
    with center a, max_i g_i(a) = fw_gap - q(mu), so a larger value means
    the reported gap is understated; that raises ValidationFailure.
    Returns (nonempty, slater_point_or_None), the point being the center
    when it lies strictly inside every ball.
    """
    tol = base_tol * instance.scale()
    a = solution.center
    A = instance.centers_matrix()
    worst = float((np.einsum("ij,ij->i", A - a, A - a)
                   - instance.radii() ** 2).max())
    if worst > -solution.qp_value + solution.fw_gap + tol:
        raise ValidationFailure(
            f"max_i g_i(center) = {worst} exceeds -q(mu) + gap = "
            f"{-solution.qp_value + solution.fw_gap}"
        )
    nonempty = solution.qp_value > tol
    return nonempty, (a if nonempty and worst < 0.0 else None)


def build_certificate(instance: Instance, solution: Solution,
                      base_tol=BASE_TOL) -> Certificate:
    """Multiplier certificate blocks for the containment LMI.

    In the program's frame about the smallest ball o (b_i = a_i - o):
    alpha = sum(mu) - 1, offdiag = (a - o) - sum(mu_i b_i),
    beta = r^2 - |a - o|^2 + sum(mu_i (|b_i|^2 - r_i^2)); all three vanish
    at an exact QP optimum.
    """
    qp = build_qp(instance)
    mu = solution.multipliers
    d = solution.center - qp.origin
    alpha = float(mu.sum() - 1.0)
    offdiag = d - qp.centers.T @ mu
    beta = float(solution.radius**2 - d @ d + mu @ qp.linear)
    tol = base_tol * instance.scale()
    psd_ok, residual = arrowhead_psd(alpha, offdiag, beta, tol=tol)
    return Certificate(multipliers=mu, alpha=alpha, offdiag=offdiag, beta=beta,
                       psd_ok=psd_ok, residual=residual)


def identity_residual(instance: Instance, solution: Solution, x):
    """sum_i mu_i g_i(x) - g_solution(x) at the point x (a float) or at each
    row of an (N, n) array x (an array); identically 0 at a QP optimum.

    The identity needs only sum(mu) = 1, a = sum(mu_i a_i) and
    theta = sum(mu_i theta_i); it does not depend on the rank condition.
    Every g_i is evaluated from the centers and theta in one array pass.
    """
    x = np.asarray(x, dtype=float)
    X = np.atleast_2d(x)
    xx = np.einsum("ij,ij->i", X, X)
    g = (xx[:, None] - 2.0 * (X @ instance.centers_matrix().T)
         + instance.theta())
    target = solution.target_quadratic()
    residual = g @ solution.multipliers - (xx - 2.0 * (X @ target.a)
                                           + target.theta)
    return float(residual[0]) if x.ndim == 1 else residual
