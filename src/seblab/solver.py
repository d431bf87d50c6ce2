"""Enclosing-ball pipeline: regime gating, QP solve, recovery, certificates.

The center is recovered as the multiplier combination of the input centers
and the radius as the square root of the QP optimum; the affine rank of the
centers and the convergence of the solve decide whether minimality is
certified.
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
    quadratic_values,
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
    in the centers' affine hull), the affine rank of the centers. It is
    taken about the smallest ball, the frame of build_qp, so it moves with
    no translation, and it is at most m - 1: the gate never reads
    CriticalCase (rank = n = m) for the solver."""
    A = instance.centers_matrix()
    rank = numerical_rank(A - A[int(np.argmin(instance.radii()))])
    return RankRegime(rank_shifted=rank,
                      regime=_regime_of(rank, instance.dimension, instance.m))


def solve_seb(instance: Instance, tol_gap=None, max_iter=None):
    """Solve the simplex QP and recover the enclosing ball.

    The center is o + B^T mu in the program's frame about the smallest
    ball o. q* > 0: ball of radius sqrt(q*), certified when the solve
    converged and the centers' rank, read once by classify before the
    solve and kept on the solution, satisfies the gating condition.
    |q*| ~ 0: the intersection is a single touching point (radius 0).
    q* < 0: empty interior.
    """
    gate = classify(instance)
    qp = build_qp(instance)
    res = solve(qp, tol_gap=tol_gap, max_iter=max_iter)
    mu = res.minimizer
    q_star = res.value
    x = qp.centers.T @ mu
    tol = BASE_TOL * instance.scale()

    if q_star < -tol:
        status = SolveStatus.EMPTY_INTERIOR
        radius = 0.0
    elif q_star <= tol:
        status = SolveStatus.DEGENERATE_POINT
        radius = 0.0  # sqrt of noise-level q* clamps to 0
    else:
        if res.converged and gate.regime in (Regime.CONVEX, Regime.CRITICAL):
            status = SolveStatus.CERTIFIED_OPTIMAL
        else:
            status = SolveStatus.UPPER_BOUND_ONLY
        radius = float(np.sqrt(q_star))
    return Solution(center=qp.origin + x, radius=radius, multipliers=mu,
                    qp_value=q_star, status=status, fw_gap=res.gap,
                    fw_iterations=res.iterations, converged=res.converged,
                    rank_shifted=gate.rank_shifted)


def regime_report(instance: Instance, solution: Solution) -> RankRegime:
    """The regime of the rank the solve read and kept on the solution."""
    return RankRegime(rank_shifted=solution.rank_shifted,
                      regime=_regime_of(solution.rank_shifted,
                                        instance.dimension, instance.m))


def check_interior(instance: Instance, solution: Solution):
    """Slater check via the minimax identity min_x max_i g_i(x) = -q*.

    The intersection has nonempty interior iff q* > 0. For any simplex mu
    with center a, max_i g_i(a) = fw_gap - q(mu), so a larger value means
    the reported gap is understated; that raises ValidationFailure.
    Returns (nonempty, slater_point_or_None), the point being the center
    when it lies strictly inside every ball.
    """
    tol = BASE_TOL * instance.scale()
    a = solution.center
    worst = float(quadratic_values(a[None, :], instance.centers_matrix(),
                                   instance.radii() ** 2).max())
    if worst > -solution.qp_value + solution.fw_gap + tol:
        raise ValidationFailure(
            f"max_i g_i(center) = {worst} exceeds -q(mu) + gap = "
            f"{-solution.qp_value + solution.fw_gap}"
        )
    nonempty = solution.qp_value > tol
    return nonempty, (a if nonempty and worst < 0.0 else None)


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


def identity_residual(instance: Instance, solution: Solution, x):
    """sum_i mu_i g_i(x) - g_solution(x) at the point x (a float) or at each
    row of an (N, n) array x (an array); identically 0 at a QP optimum.

    The identity needs only sum(mu) = 1, a = sum(mu_i a_i) and
    r^2 = sum(mu_i (r_i^2 - |a_i - a|^2)); it does not depend on the rank
    condition. The g_i and the target are evaluated in one array pass.
    """
    x = np.asarray(x, dtype=float)
    G = quadratic_values(
        np.atleast_2d(x),
        np.vstack([instance.centers_matrix(), solution.center]),
        np.append(instance.radii() ** 2, solution.radius ** 2))
    residual = G[:, :-1] @ solution.multipliers - G[:, -1]
    return float(residual[0]) if x.ndim == 1 else residual
