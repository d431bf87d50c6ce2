"""Convex quadratic minimization over the unit simplex.

Minimizes q(mu) = |A^T mu|^2 - c^T mu with A the (m, n) matrix of ball
centers and c_i = |a_i|^2 - r_i^2, taken about the center o of the
smallest ball (`Instance.frame`): the points b_i = a_i - o and the linear
term |b_i|^2 - r_i^2 give the same q on the simplex. No m x m Gram matrix
is formed: the program is O(mn), and beside it a solve holds at most
three length-m vectors and the support's factor. The kernel holds its
stop's sizes and one gradient buffer, which becomes the returned mu;
then `solve_seb` holds mu and its bracket's two vectors. At
(n, m) = (6, 300) a solve with its certificate peaks at 0.0095 MB, at
(50, 100,000) a solve at 2.4 MB. Wolfe's finite method adds one ball per
major cycle and moves to the exact minimum over the hull of the support
(at most n + 1 balls at an optimum of a ball instance), so it ends at a
rounding-level gap after about as many cycles as the support has balls,
with a gap certificate built in. `support_oracle` finds q* exactly by
enumerating supports, without the solver's kernel, to check it.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import CombinatorialBlowup, DimensionMismatch, ValidationError
from .geometry import Instance, _freeze

SUPPORT_GUARD = 10**4


@dataclass(frozen=True)
class SimplexQP:
    """Points (one row per vertex) and linear term of the simplex program,
    and the origin the points are measured from (zero unless given)."""

    centers: np.ndarray
    linear: np.ndarray
    origin: np.ndarray | None = None

    def __post_init__(self):
        A, c = _freeze(self.centers), _freeze(self.linear)
        if A.ndim != 2 or A.shape[0] != c.size:
            raise DimensionMismatch("centers/linear shape mismatch")
        origin = np.zeros(A.shape[1]) if self.origin is None else self.origin
        object.__setattr__(self, "centers", A)
        object.__setattr__(self, "linear", c)
        object.__setattr__(self, "origin", _freeze(origin))

    @property
    def m(self):
        return self.linear.size

    def value(self, mu):
        x = self.centers.T @ np.asarray(mu, dtype=float)
        return float(x @ x - self.linear @ mu)


@dataclass(frozen=True)
class QPResult:
    """The returned multipliers mu and their point B^T mu (the center less
    the program's origin), with q(mu), the gap and the major cycles."""

    minimizer: np.ndarray
    point: np.ndarray
    value: float
    gap: float
    iterations: int
    converged: bool = True

    def __post_init__(self):
        object.__setattr__(self, "minimizer", _freeze(self.minimizer))
        object.__setattr__(self, "point", _freeze(self.point))


def build_qp(instance: Instance) -> SimplexQP:
    """The program about the center o of the smallest ball: points
    b_i = a_i - o and linear term c_i = |b_i|^2 - r_i^2.

    These are the arrays of `Instance.frame`, formed once by
    `Instance.from_data` and not copied; the center is o + B^T mu.
    """
    origin, B, linear = instance.frame
    return SimplexQP(centers=B, linear=linear, origin=origin)


def solve(qp: SimplexQP, max_iter=None):
    """Wolfe's finite method (`kernels.fw_minimize`) on the program.

    The kernel carries the support's factor between major cycles and
    borders it again from its first ball only after a drop or an affinely
    dependent support. The returned gap upper-bounds value - q* by
    convexity. The solve stops at `kernels.rounding_stop`, the kernel's
    one stop, 16 (n + m) eps (|x|^2 + sum_j mu_j s_j) with
    s_j = 2|b_j|^2 - c_j = |b_j|^2 + r_j^2: a rounding-level stop set by
    the balls that carry weight, which follows a uniform scaling of the
    balls, so a small answer beside a large ball runs until its own gap
    nears its own rounding; `converged` reads it at the returned mu. If
    the major-cycle budget max_iter runs out, or rounding stops progress,
    above that stop the result is still returned with converged=False. A
    negative max_iter raises ValidationError.
    """
    if max_iter is None:
        max_iter = 200 * qp.m + 10**4
    elif max_iter < 0:
        raise ValidationError(f"max_iter must be >= 0, got {max_iter}")
    mu, iters, gap = kernels.fw_minimize(qp.centers, qp.linear,
                                         int(max_iter))
    x = qp.centers.T @ mu
    xx = float(x @ x)
    # kernels.rounding_stop at mu, from the balls that carry weight
    S = np.flatnonzero(mu)
    B = qp.centers[S]
    unit = 16 * (mu.size + x.size) * np.finfo(float).eps
    sizes = unit * (2.0 * np.einsum("ij,ij->i", B, B) - qp.linear[S])
    stop = unit * xx + sizes @ mu[S]
    return QPResult(minimizer=mu, point=x, value=xx - float(qp.linear @ mu),
                    gap=max(gap, 0.0), iterations=int(iters),
                    converged=gap <= stop)


def support_oracle(qp: SimplexQP):
    """(q*, a minimizer) by enumeration of supports, with no kernel call:
    an independent reference for `solve`.

    Some optimum has a support S of at most n + 1 affinely independent
    points, where w is the stationary point of q on their affine hull:
    w = (1 - sum z, z), (D D^T) z = (c_S' - c_0)/2 - D b_0, D the rows
    b_j - b_0 (b_0 the base point of S). Each such w >= 0 is a simplex
    point, so q(w) >= q*, and the least is q*. S is independent when the
    Cholesky factor L of D D^T has every pivot L_jj above 1e-6 |d_j|, its
    own row's length (the scale-free test of Wolfe's method). Each point
    of S is tried as the base in turn, since a base far from the others
    makes their differences nearly parallel; a support that fails with
    every base is skipped (a smaller support covers it). More than
    SUPPORT_GUARD supports raise CombinatorialBlowup before any is solved.
    """
    m, n = qp.centers.shape
    sizes = range(1, min(m, n + 1) + 1)
    count = sum(math.comb(m, s) for s in sizes)
    if count > SUPPORT_GUARD:
        raise CombinatorialBlowup(
            f"{count} supports to enumerate (> {SUPPORT_GUARD})")
    best_val, best_w = math.inf, None
    for s in sizes:
        for S in itertools.combinations(range(m), s):
            w = _stationary_weights(qp, S)
            val = qp.value(w) if w is not None and w.min() >= 0.0 else math.inf
            if val < best_val:
                best_val, best_w = val, w
    return best_val, best_w


def _stationary_weights(qp: SimplexQP, S):
    """The weights on all m points of the stationary point of q on the
    affine hull of the points S, from the first base point of S that
    passes the pivot test, or None when none does."""
    for k, first in enumerate(S):
        rest = list(S[:k] + S[k + 1:])
        D = qp.centers[rest] - qp.centers[first]
        G = D @ D.T
        rhs = (0.5 * (qp.linear[rest] - qp.linear[first])
               - D @ qp.centers[first])
        try:
            L = np.linalg.cholesky(G)
            if not np.all(L.diagonal()
                          > 1e-6 * np.sqrt(np.einsum("ij,ij->i", D, D))):
                continue
            z = np.linalg.solve(G, rhs)
        except np.linalg.LinAlgError:
            continue
        w = np.zeros(qp.m)
        w[rest] = z
        w[first] = 1.0 - z.sum()
        return w
    return None
