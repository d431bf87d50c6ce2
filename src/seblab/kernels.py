"""Hot numerical kernels, one numpy implementation each.

`fw_minimize` (Frank-Wolfe on the centers, no Gram matrix) and
`cloud_meb` are the solver's and the cloud oracle's inner loops,
`grid_min_maxg` the brute-force grid scan, and `hit_and_run` the
feasible-point sampler. The sampler advances up to `CHAINS` hit-and-run
chains together as arrays, drawing from its own `np.random.default_rng(seed)`:
the global `np.random` state is never read or changed, and one seed gives
one output.
"""

import numpy as np

CHAINS = 256


# ---------------------------------------------------------------------------
# Frank-Wolfe with corrective steps for min |A^T mu|^2 - c^T mu on the simplex
# ---------------------------------------------------------------------------

def fw_minimize(A, c, tol_gap, max_iter):
    """Pairwise Frank-Wolfe with Wolfe-style corrective steps.

    Minimizes q(mu) = |A^T mu|^2 - c^T mu over the unit simplex, A holding
    one point per row (m x n). The loop keeps x = A^T mu, so a gradient
    2 A x - c costs O(mn) and no m x m matrix is formed. From the best
    vertex, argmin |a_i|^2 - c_i, a pairwise step moves weight from the away
    vertex (largest gradient on the support) to the Frank-Wolfe vertex
    (smallest gradient) by exact line search (Lacoste-Julien and Jaggi,
    NeurIPS 2015); after a step that changed the support, the next
    iteration moves to the minimum of q over its hull (`_corrective`, Wolfe
    1976), so the iterations follow the support size, not the conditioning.

    Returns (mu, iterations, gap), gap being the Frank-Wolfe gap
    grad^T mu - min_i grad_i over all m vertices (ties: lowest index).
    """
    mu = np.zeros(A.shape[0])
    i = int(np.argmin(np.einsum("ij,ij->i", A, A) - c))
    mu[i] = 1.0
    x = A[i].copy()
    changed = False
    for it in range(max_iter + 1):
        grad = 2.0 * (A @ x) - c
        s = int(np.argmin(grad))
        gap = float(grad @ mu) - grad[s]
        if gap <= tol_gap or it == max_iter:
            return mu, it, gap
        if changed:
            new = _corrective(A, c, mu, float(x @ x - c @ mu))
            if new is not None:
                mu, x, changed = new, A.T @ new, False
                continue
        v = int(np.argmax(np.where(mu > 0.0, grad, -np.inf)))
        d = A[s] - A[v]
        curv = float(d @ d)
        # q(mu + gamma (e_s - e_v)) - q(mu) = -gamma slope + gamma^2 curv
        slope = grad[v] - grad[s]
        gamma = mu[v] if curv <= 0.0 else min(slope / (2.0 * curv), mu[v])
        changed = mu[s] == 0.0 or gamma == mu[v]
        mu[v] -= gamma  # exactly 0.0 when gamma is all of mu[v]
        mu[s] += gamma
        x += gamma * d


def _corrective(A, c, mu, value):
    """Minimum of q over the convex hull of the support of mu, or None.

    Wolfe's minor cycle: with T the support and w its weights, the minimum
    of q on the affine hull b_0 + D^T z of T (rows D = b_j - b_0) solves
    (D D^T) z = (c_j - c_0)/2 - D b_0. Move from w toward it until a weight
    reaches zero, drop that point, and repeat until the minimum lies inside
    the hull. None when T is (nearly) affinely dependent, judged by the
    Cholesky factor, or the end point does not lower q below `value`.
    """
    T = np.flatnonzero(mu)
    w = mu[T]
    while T.size > 1:  # each pass but the last drops a point
        D = A[T[1:]] - A[T[0]]
        G = D @ D.T
        try:
            L = np.linalg.cholesky(G)
        except np.linalg.LinAlgError:
            return None
        if L.diagonal().min() <= 1e-6 * np.sqrt(G.diagonal().max()):
            return None
        z = np.linalg.solve(G, 0.5 * (c[T[1:]] - c[T[0]]) - D @ A[T[0]])
        step = np.append(1.0 - z.sum(), z) - w
        neg = step < 0.0
        ratios = w[neg] / -step[neg]
        t = min(1.0, float(ratios.min())) if ratios.size else 1.0
        w = np.maximum(w + t * step, 0.0)
        if t == 1.0:
            break
        w[np.flatnonzero(neg)[np.argmin(ratios)]] = 0.0
        T, w = T[w > 0.0], w[w > 0.0]
    out = np.zeros_like(mu)
    out[T] = w / w.sum()
    y = A.T @ out
    return out if float(y @ y - c @ out) < value else None


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
