"""Hot numerical kernels, one numpy implementation each.

`fw_minimize` and `cloud_meb` are the solver's and the cloud oracle's inner
loops, `grid_min_maxg` the brute-force grid scan, and `hit_and_run` the
feasible-point sampler. The sampler advances up to `CHAINS` hit-and-run
chains together as arrays, drawing from its own `np.random.default_rng(seed)`:
the global `np.random` state is never read or changed, and one seed gives
one output.
"""

import numpy as np

CHAINS = 256


# ---------------------------------------------------------------------------
# Frank-Wolfe loop for min mu^T M mu - c^T mu over the unit simplex
# ---------------------------------------------------------------------------

def fw_minimize(M, c, tol_gap, max_iter):
    """Conditional-gradient loop with exact line search.

    Returns (mu, iterations, gap). Vertex ties break to the lowest index
    (np.argmin). Each iterate is a convex combination of vertices, so mu
    stays exactly on the simplex.
    """
    m = M.shape[0]
    mu = np.full(m, 1.0 / m)
    Mmu = M @ mu
    for it in range(max_iter):
        grad = 2.0 * Mmu - c
        j = int(np.argmin(grad))
        gap = float(np.dot(grad, mu)) - grad[j]
        if gap <= tol_gap:
            return mu, it, gap
        # direction d = e_j - mu; M @ d = M[:, j] - Mmu
        Md = M[:, j] - Mmu
        a2 = float(np.dot(Md, -mu)) + Md[j]  # d^T M d
        a1 = -gap  # grad^T d
        if a2 <= 0.0:
            gamma = 1.0 if a1 < 0.0 else 0.0
        else:
            gamma = -a1 / (2.0 * a2)
            if gamma > 1.0:
                gamma = 1.0
            elif gamma < 0.0:
                gamma = 0.0
        mu = (1.0 - gamma) * mu
        mu[j] += gamma
        Mmu = (1.0 - gamma) * Mmu + gamma * M[:, j]
    grad = 2.0 * Mmu - c
    j = int(np.argmin(grad))
    gap = float(np.dot(grad, mu)) - grad[j]
    return mu, max_iter, gap


# ---------------------------------------------------------------------------
# Hit-and-run chains inside an intersection of balls
# ---------------------------------------------------------------------------

def hit_and_run(centers, radii, start, count, burn_in, thin, seed):
    """`count` samples of the ball intersection via exact chords.

    min(count, CHAINS) chains start at `start`, run `burn_in` steps, then
    each keeps every `thin`-th point; rows come out one round of chains at
    a time until `count` rows exist. A step moves every chain along a
    random unit direction u to a uniform point of its chord: the line
    y + t*u meets ball i where t lies between the roots of a scalar
    quadratic, so every sample is exactly feasible. Coordinates are taken
    relative to `start`, which keeps the expanded |y - a_i|^2 free of
    cancellation however far the balls sit from the origin. Memory per
    step is O(chains * (m + n)).
    """
    rng = np.random.default_rng(seed)
    n = centers.shape[1]
    A = centers - start
    theta = np.einsum("ij,ij->i", A, A) - radii * radii
    out = np.empty((count, n))
    Y = np.zeros((min(count, CHAINS), n))

    def advance(Y, steps):
        for _ in range(steps):
            U = rng.standard_normal(Y.shape)
            U /= np.sqrt(np.einsum("ij,ij->i", U, U))[:, None]
            # per chain and ball: |y + t u - a_i|^2 - r_i^2 = t^2 + 2 b t + c0
            b = np.einsum("ij,ij->i", U, Y)[:, None] - U @ A.T
            c0 = np.einsum("ij,ij->i", Y, Y)[:, None] - 2.0 * (Y @ A.T) + theta
            # a negative discriminant means the chord degenerates at the boundary
            s = np.sqrt(np.maximum(b * b - c0, 0.0))
            tlo = (-b - s).max(axis=1)
            thi = (-b + s).min(axis=1)
            stuck = thi < tlo  # numerical corner: stay put
            tlo[stuck] = 0.0
            thi[stuck] = 0.0
            t = tlo + (thi - tlo) * rng.random(Y.shape[0])
            Y = Y + t[:, None] * U
        return Y

    Y = advance(Y, burn_in)
    k = 0
    while k < count:
        Y = advance(Y[:count - k], thin)
        out[k:k + Y.shape[0]] = Y
        k += Y.shape[0]
    return out + start


# ---------------------------------------------------------------------------
# Core-set style minimum enclosing ball of a point cloud
# ---------------------------------------------------------------------------

def cloud_meb(points, iterations):
    """Badoiu-Clarkson iteration: walk toward the farthest point with step 1/(t+2)."""
    c = points.mean(axis=0)
    for t in range(iterations):
        j = int(np.argmax(np.einsum("ij,ij->i", points - c, points - c)))
        c = c + (points[j] - c) / (t + 2.0)
    d2 = np.einsum("ij,ij->i", points - c, points - c)
    return c, float(np.sqrt(d2.max()))


# ---------------------------------------------------------------------------
# Exhaustive grid minimization of max_i g_i(x) over a box
# ---------------------------------------------------------------------------

def grid_min_maxg(centers, theta, lo, hi, resolution):
    """Minimum over a regular (resolution+1)^n grid of max_i g_i(x).

    Evaluates whole grid slabs at once.
    """
    n = lo.shape[0]
    axes = [np.linspace(lo[d], hi[d], resolution + 1) for d in range(n)]
    grids = np.meshgrid(*axes, indexing="ij")
    X = np.stack([g.ravel() for g in grids], axis=1)
    best = np.inf
    for chunk in np.array_split(X, max(1, X.shape[0] // 200000)):
        xx = np.einsum("ij,ij->i", chunk, chunk)
        g = xx[:, None] - 2.0 * chunk @ centers.T + theta[None, :]
        best = min(best, float(g.max(axis=1).min()))
    return best
