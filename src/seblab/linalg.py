"""Small self-contained numerical linear algebra helpers.

Numerical rank and the closed-form PSD test for arrowhead matrices
[[alpha*I, b], [b^T, beta]].
"""

import numpy as np


def numerical_rank(s, shape, magnitude):
    """Rank of a matrix of the given shape from its singular values s, in
    descending order as np.linalg.svd returns them; the one rank rule of
    the package.

    The matrix's entries are differences of input coordinates, and
    `magnitude` bounds those coordinates' absolute values (in the matrix's
    units), so each entry carries a rounding of about eps * magnitude
    whatever its own size: a singular value counts when it exceeds
    64 max(shape) eps max(s[0], magnitude). A uniform scaling moves s and
    magnitude together and leaves the rank alone; a translation raises
    magnitude, and a direction below the moved data's own rounding then
    counts as zero.
    """
    if s.size == 0:
        return 0
    cutoff = 64 * max(shape) * np.finfo(float).eps * max(s[0], magnitude)
    return int(np.count_nonzero(s > cutoff))


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

