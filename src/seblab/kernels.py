"""Hot numerical kernels, one numpy implementation each.

`fw_minimize` (Wolfe's finite method on the centers, no Gram matrix) is
the one simplex-QP solver: the ball solver calls it, and `cloud_meb` calls
it for the exact minimum enclosing ball of a point cloud. `grid_min_maxg`
is the brute-force grid scan, which adds per-axis tables into the grid by
broadcasting, one ball at a time. `hit_and_run` is the feasible-point
sampler: it advances up to `CHAINS` hit-and-run chains together as the
columns of one array, drawing from its own `np.random.default_rng(seed)`,
so the global `np.random` state is never read or changed and one seed
gives one output.
"""

import numpy as np

CHAINS = 256
BLOCK = 64  # hit-and-run steps whose random draws are made at once


# ---------------------------------------------------------------------------
# Wolfe's finite method for min |A^T mu|^2 - c^T mu on the simplex
# ---------------------------------------------------------------------------

def fw_minimize(A, c, tol_gap, max_iter):
    """Wolfe's finite method (Math. Programming 11, 1976) on the simplex.

    Minimizes q(mu) = |A^T mu|^2 - c^T mu over the unit simplex, A holding
    one point per row (m x n). Only the support T and its weights are
    kept, x = A_T^T w is rebuilt from them, so a gradient 2 A x - c costs
    O(mn) and no m x m matrix is formed. From the best vertex,
    argmin |a_i|^2 - c_i, each major cycle adds the Frank-Wolfe vertex
    (smallest gradient) to T, and `_minor_cycles` moves to the minimum of
    q over the convex hull of T. The loop stops at gap <= tol_gap, after
    max_iter major cycles, or when a cycle fails to lower q (rounding).

    Returns (mu, major cycles, gap), gap being the Frank-Wolfe gap
    grad^T mu - min_i grad_i over all m vertices at the returned mu.
    """
    T = np.array([int(np.argmin(np.einsum("ij,ij->i", A, A) - c))])
    w = np.ones(1)
    last = np.inf
    for it in range(max_iter + 1):
        x = A[T].T @ w
        grad = 2.0 * (A @ x) - c
        s = int(np.argmin(grad))
        gap = float(grad[T] @ w) - grad[s]
        value = float(x @ x - c[T] @ w)
        if gap <= tol_gap or it == max_iter or value >= last:
            mu = np.zeros(A.shape[0])
            mu[T] = w
            return mu, it, gap
        last = value
        T, w = _minor_cycles(A, c, np.append(T, s), np.append(w, 0.0))


def _minor_cycles(A, c, T, w):
    """Minimum of q over the convex hull of the points T: (support, weights).

    The minimum of q on the affine hull b_0 + D^T z of T (rows
    D = b_j - b_0) solves (D D^T) z = (c_j - c_0)/2 - D b_0. Move from w
    toward it until a weight reaches zero, drop that point, and repeat
    until the minimum lies inside the hull. When the Cholesky factor of
    D D^T shows T (nearly) affinely dependent, move instead along a null
    vector v of [A_T^T; 1^T], oriented so that c_T . v >= 0: x stays put
    and q does not rise, and the point whose weight reaches zero is
    dropped (a Caratheodory reduction).
    """
    while T.size > 1:
        D = A[T[1:]] - A[T[0]]
        G = D @ D.T
        try:
            L = np.linalg.cholesky(G)
            independent = (L.diagonal().min()
                           > 1e-6 * np.sqrt(G.diagonal().max()))
        except np.linalg.LinAlgError:
            independent = False
        if independent:
            z = np.linalg.solve(G, 0.5 * (c[T[1:]] - c[T[0]]) - D @ A[T[0]])
            y = np.append(1.0 - z.sum(), z)
            if y.min() >= 0.0:
                w = y
                break
            step = y - w
        else:
            u = np.linalg.svd(D.T)[2][-1]  # D^T u = 0
            step = np.append(-u.sum(), u)
            if c[T] @ step < 0.0:
                step = -step
        neg = np.flatnonzero(step < 0.0)
        ratios = w[neg] / -step[neg]
        j = int(np.argmin(ratios))
        w = np.maximum(w + ratios[j] * step, 0.0)
        w[neg[j]] = 0.0
        T, w = T[w > 0.0], w[w > 0.0]
    keep = w > 0.0
    return T[keep], w[keep] / w[keep].sum()


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
    cancellation however far the balls sit from the origin.

    The chains are the columns of the (n, chains) state, so the chord
    bounds reduce over the balls (axis 0) elementwise across rows. The
    directions and uniforms of up to `BLOCK` steps are drawn at once;
    memory is O(chains * (m + BLOCK * n)).
    """
    rng = np.random.default_rng(seed)
    n = centers.shape[1]
    A = centers - start
    theta = (np.einsum("ij,ij->i", A, A) - radii * radii)[:, None]
    out = np.empty((count, n))
    Y = np.zeros((n, min(count, CHAINS)))

    def advance(Y, steps):
        k = Y.shape[1]
        for done in range(0, steps, BLOCK):
            size = min(BLOCK, steps - done)
            Us = rng.standard_normal((size, n, k))
            Us /= np.sqrt(np.einsum("sij,sij->sj", Us, Us))[:, None, :]
            for U, tau in zip(Us, rng.random((size, k))):
                # per ball and chain: |y + t u - a_i|^2 - r_i^2
                # = t^2 + 2 b t + c0
                b = np.einsum("ij,ij->j", U, Y) - A @ U
                c0 = np.einsum("ij,ij->j", Y, Y) - 2.0 * (A @ Y) + theta
                # a negative discriminant means the chord degenerates at
                # the boundary
                s = np.sqrt(np.maximum(b * b - c0, 0.0))
                tlo = -(b + s).min(axis=0)
                thi = (s - b).min(axis=0)
                t = tlo + (thi - tlo) * tau
                t[thi < tlo] = 0.0  # numerical corner: stay put
                Y = Y + t * U
        return Y

    Y = advance(Y, burn_in)
    k = 0
    while k < count:
        Y = advance(Y[:, :count - k], thin)
        out[k:k + Y.shape[1]] = Y.T
        k += Y.shape[1]
    return out + start


# ---------------------------------------------------------------------------
# Minimum enclosing ball of a point cloud
# ---------------------------------------------------------------------------

def cloud_meb(points, iterations):
    """Exact minimum enclosing ball of the rows of `points`: (center, radius).

    The point MEB is the simplex program with r_i = 0, solved by
    `fw_minimize` on the points centred on the first one (c_i = |p_i|^2
    there). Its gap tolerance is zero, so it runs until a major cycle no
    longer lowers q, or for `iterations` major cycles; the radius is the
    largest distance from the center to a point.
    """
    o = points[0]
    P = points - o
    mu, _, _ = fw_minimize(P, np.einsum("ij,ij->i", P, P), 0.0, iterations)
    center = o + P.T @ mu
    d2 = np.einsum("ij,ij->i", points - center, points - center)
    return center, float(np.sqrt(d2.max()))


# ---------------------------------------------------------------------------
# Exhaustive grid minimization of max_i g_i(x) over a box
# ---------------------------------------------------------------------------

def grid_min_maxg(centers, radii, lo, hi, resolution):
    """Minimum over a regular (resolution+1)^n grid of max_i g_i(x).

    g_i(x) = sum_d (x_d - a_{i,d})^2 - r_i^2 separates over the axes: per
    ball, n tables of length resolution+1 are added into the whole grid by
    broadcasting, and `best` keeps the running maximum over the balls.
    Differences x_d - a_{i,d} are taken per axis, so no |x|^2 cancels.
    Memory is two (resolution+1)^n arrays.
    """
    axes = np.linspace(lo, hi, resolution + 1, axis=1)
    best = np.full((resolution + 1,) * lo.size, -np.inf)
    for a, r in zip(centers, radii):
        tables = (axes - a[:, None]) ** 2
        g = tables[0] - r * r
        for table in tables[1:]:
            g = g[..., None] + table
        np.maximum(best, g, out=best)
    return float(best.min())
