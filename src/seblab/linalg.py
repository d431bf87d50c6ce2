"""Small self-contained numerical linear algebra helpers.

Numerical rank and the closed-form PSD test for arrowhead matrices
[[alpha*I, b], [b^T, beta]].
"""

import numpy as np

DEFAULT_RANK_TOL = 1e-10


def numerical_rank(s, shape):
    """Rank of a matrix of the given shape from its singular values s, in
    descending order as np.linalg.svd returns them: the count above
    DEFAULT_RANK_TOL*s[0]*max(shape); the one rank rule of the package."""
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > DEFAULT_RANK_TOL * s[0] * max(shape)))


def arrowhead_psd(alpha, b, beta, tol=1e-9):
    """Closed-form PSD test for [[alpha*I, b], [b^T, beta]].

    PSD iff alpha >= 0, beta >= 0 and |b|^2 <= alpha*beta (alpha = 0 forcing
    b = 0). The decision is tolerance-relaxed; the returned residual is the
    worst raw violation (negative when strictly inside the PSD cone).
    """
    alpha = float(alpha)
    beta = float(beta)
    b = np.atleast_1d(np.asarray(b, dtype=float))
    bb = float(np.dot(b, b))
    residual = max(-alpha, -beta, bb - alpha * beta)
    psd = alpha >= -tol and beta >= -tol and bb <= (alpha + tol) * (beta + tol) + tol
    return psd, residual

